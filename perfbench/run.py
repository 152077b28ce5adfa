"""chowkit benchmark: seeded closed-loop CLI workloads with output checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ring-cold --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run builds the workload's job list from ``--seed``, starts a worker
process (``worker.py``) that calls ``chowkit.cli.main(argv)`` job after job,
then checks every job's stdout here, outside the timed loop.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced pass
over the list.  See README.md in this directory for the metrics and the
reasons behind each workload.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from clock import kernel_seconds, scale  # noqa: E402
from jobs import WORKLOADS, make_jobs, reduce_degrees  # noqa: E402
from tracer import per_layer_metric_specs  # noqa: E402

DEFAULT_SEED = 0
GOLDEN = HERE / "golden.json"
SCRATCH = ROOT / ".perfbench_tmp"
# Setups per untraced run; setup_s is their median.
SETUP_RUNS = 3
# Passes over the job list per run at --seconds 20, chosen so that the timed
# jobs plus set-up take about 20 s at the parent commit on the reference
# machine (2 cores, Python 3.11).  The count
# does not depend on the program's speed, so every run of a workload times
# the same number of jobs and job_tail_s is always the same percentile.
PASSES_AT_20_S = {"ring-cold": 4, "ring-cached": 6, "verify-sweep": 4, "dr-expand": 2}
# Every run, with its set-up and checks, must end within this many seconds.
DEADLINE_S = 170
TAIL_BEYOND = 10

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _import_program():
    if not (ROOT / "src" / "chowkit" / "__init__.py").is_file():
        raise BenchError(f"no chowkit sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import chowkit
    import chowkit.cli
    import chowkit.dr

    if Path(chowkit.__file__).resolve().parent != ROOT / "src" / "chowkit":
        raise BenchError(f"imported chowkit from {chowkit.__file__}, not from this checkout")
    return chowkit


def pass_count(workload: str, seconds: int, jobs_per_pass: int) -> int:
    """Passes per run: scaled from ``PASSES_AT_20_S``, and enough that the
    tail percentile (ten samples beyond it) lies above the median."""
    scaled = round(PASSES_AT_20_S[workload] * seconds / 20)
    return max(scaled, math.ceil(2 * (TAIL_BEYOND + 1) / jobs_per_pass))


def tail(times: list[float]) -> float:
    """The highest percentile of ``times`` that has at least ten samples
    beyond it (the maximum when there are ten or fewer)."""
    ordered = sorted(times)
    return ordered[len(ordered) - TAIL_BEYOND - 1] if len(ordered) > TAIL_BEYOND else ordered[-1]


def tail_percentile(samples: int) -> float:
    """Which percentile ``tail`` picks from ``samples`` values."""
    return 100.0 * (samples - TAIL_BEYOND) / samples if samples > TAIL_BEYOND else 100.0


# ------------------------------------------------------------------ workers


def _spawn(workload: str, seed: int, mode: str, passes: int, out: Path, deadline: float) -> tuple[dict, float, float]:
    """Run one worker to completion; returns its result and its setup time
    (from process start to ready for the first job), scaled and raw."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("CHOWKIT_CACHE_DIR", None)
    if workload == "ring-cached":
        env["CHOWKIT_CACHE_DIR"] = str(out / "cache")
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--passes", str(passes), "--out", str(out),
    ]
    kernel_before = kernel_seconds()
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - started, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) did not finish within the {DEADLINE_S} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((out / "result.json").read_text())
    start_raw = result["imported"] - started
    fill_raw, fill_scaled = result["fill"]
    return result, scale(start_raw, kernel_before, result["kernel_at_import"]) + fill_scaled, start_raw + fill_raw


# ------------------------------------------------------------------ checking


class _Outputs(dict):
    """Job index -> first stdout of the job, read from the worker's output
    directory when first needed."""

    def __init__(self, directory: Path):
        super().__init__()
        self.directory = directory

    def __missing__(self, index: int) -> str:
        text = (self.directory / f"out-{index}.txt").read_text(encoding="utf-8")
        self[index] = text
        return text


def check_run(chowkit, jobs, result: dict, outputs: dict, golden: dict) -> tuple[int, int, list[str], Checker]:
    """Check every job execution of a worker result: (attempted, failed,
    reasons, checker).  An execution fails on a crash, a nonzero exit, a
    stdout that differs between passes, or a first stdout that fails its
    check.  A job whose sha256 is pinned in golden.json is checked against
    that sha256 alone: the pinned bytes passed the full check when they were
    recorded."""
    checker = Checker(chowkit, jobs, outputs)
    first = {r["index"]: r["sha256"] for r in result["passes"][0]}

    def verdict(index: int) -> str | None:
        pinned = golden.get(" ".join(jobs[index].argv))
        if pinned is None:
            return checker.check(index)
        return None if pinned == first[index] else "stdout differs from the pinned sha256"

    verdicts = {i: verdict(i) for i in range(len(jobs))}
    attempted = failed = 0
    reasons = []
    for records in result["passes"]:
        for record in records:
            attempted += 1
            job = jobs[record["index"]]
            reason = record["error"] or verdicts[record["index"]]
            if reason is None and record["sha256"] != first[record["index"]]:
                reason = "stdout differs from the first pass"
            if reason is not None:
                failed += 1
                reasons.append(f"{' '.join(job.argv)[:80]}: {reason}")
    return attempted, failed, reasons, checker


# ------------------------------------------------------------------ metadata


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))


def metadata(workload: str, seed: int, passes: int, jobs_per_pass: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": passes,
        "jobs_per_pass": jobs_per_pass,
        "chowkit_cache_dir": {
            "caller": "set" if os.environ.get("CHOWKIT_CACHE_DIR") else "unset",
            "worker": "fresh directory filled during setup" if workload == "ring-cached" else "unset",
        },
        "src_lines": _src_lines(),
    }


def property_shares(jobs, records, checker) -> dict:
    """Shares of input properties a later change may depend on."""
    genera = Counter(job.genus for job in jobs)
    shares: dict = {"genus_histogram": {str(g): genera[g] for g in sorted(genera)}}
    reduces = [job for job in jobs if job.kind == "reduce"]
    if reduces:
        high = sum(1 for job in reduces if job.degree >= 2 * job.genus)
        shares["reduce_degree_ge_2g_share"] = high / len(reduces)
        shares["reduce_degrees"] = {str(g): list(reduce_degrees(g)) for g in sorted({j.genus for j in reduces})}
    drs = [i for i, job in enumerate(jobs) if job.kind == "dr"]
    if drs:
        terms = sorted(checker.expected_terms(jobs[i]) for i in drs)
        sizes = sorted(records[i]["bytes"] for i in drs if jobs[i].mode != "latex")
        for label, values in (("dr_terms_out", terms), ("dr_json_bytes", sizes)):
            shares[label] = {"min": values[0], "median": statistics.median(values), "max": values[-1]}
    return shares


# ------------------------------------------------------------------ one workload


def end_to_end(result: dict, setups: list[tuple[float, float]], completed: int, key: str) -> dict[str, float]:
    """The end-to-end metrics from a worker result, with job times taken
    from ``key`` ("seconds", scaled, or "raw_seconds") and the matching
    set-up times (scaled first, raw second in each pair)."""
    times = [record[key] for records in result["passes"] for record in records]
    setup = [pair[0 if key == "seconds" else 1] for pair in setups]
    return {
        "jobs_per_s": completed / sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }


def run_workload(chowkit, workload: str, seed: int, seconds: int, trace: bool, write_golden: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    jobs = make_jobs(workload, seed)
    passes = pass_count(workload, seconds, len(jobs))
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    scratch = SCRATCH / f"{workload}-{os.getpid()}"
    setups = []
    try:
        if trace:
            result = _spawn(workload, seed, "trace", 1, scratch / "run", deadline)[0]
        else:
            for k in range(SETUP_RUNS - 1):
                setups.append(_spawn(workload, seed, "setup", 0, scratch / f"setup-{k}", deadline)[1:])
            result, *setup = _spawn(workload, seed, "run", passes, scratch / "run", deadline)
            setups.append(tuple(setup))
        attempted, failed, reasons, checker = check_run(chowkit, jobs, result, _Outputs(scratch / "run"), golden)
        if write_golden and not failed:
            golden.update({" ".join(jobs[r["index"]].argv): r["sha256"] for r in result["passes"][0]})
            GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    report = {
        "meta": metadata(workload, seed, len(result["passes"]), len(jobs)),
        "shares": property_shares(jobs, result["passes"][0], checker),
        "reasons": reasons,
    }
    if trace:
        units = {name: unit for name, unit, _ in per_layer_metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]} for name, value in result["trace"].items()}
    else:
        values = end_to_end(result, setups, attempted - failed, "seconds")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["raw"] = end_to_end(result, setups, attempted - failed, "raw_seconds")
        report["tail"] = {"percentile": tail_percentile(attempted), "samples": attempted, "beyond": TAIL_BEYOND}
        report["fail_ratio"] = failed / attempted
    report["line"] = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report


def print_report(report: dict) -> None:
    meta, line = report["meta"], report["line"]
    print(f"== {meta['workload']}  seed {meta['seed']}  {meta['passes']} passes x {meta['jobs_per_pass']} jobs")
    for name, metric in line["metrics"].items():
        extra = ""
        if name == "job_tail_s":
            t = report["tail"]
            extra = f"  (p{t['percentile']:.1f} of {t['samples']} jobs, {t['beyond']} beyond it)"
        raw = f"  (raw {report['raw'][name]:.6g})" if "raw" in report and name != "peak_rss_mb" else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{raw}{extra}")
    if "fail_ratio" in report:
        print(f"  {'fail_ratio':34s} {report['fail_ratio']:.6g} ({line['failed']} of {line['attempted']} jobs)")
    for reason in report["reasons"][:20]:
        print(f"  FAILED {reason}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    print("shares " + json.dumps(report["shares"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chowkit CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20, help="measured time per run on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics instead")
    parser.add_argument("--write-golden", action="store_true", help="pin the stdout sha256 of every job of this run")
    args = parser.parse_args(argv)

    try:
        chowkit = _import_program()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        reports = []
        for workload in workloads:
            reports.append(run_workload(chowkit, workload, args.seed, args.seconds, bool(args.trace), args.write_golden))
            print_report(reports[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(reports) == 1:
        final = reports[0]["line"]
    else:
        final = {
            "correct": all(r["line"]["correct"] for r in reports),
            "attempted": sum(r["line"]["attempted"] for r in reports),
            "failed": sum(r["line"]["failed"] for r in reports),
            "metrics": {
                f"{r['meta']['workload']}.{name}": metric for r in reports for name, metric in r["line"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

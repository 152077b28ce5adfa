"""Benchmark worker: one process, one thread, one closed-loop client.

The worker imports ``chowkit`` from the checkout's ``src/``, prepares its
workload and then calls ``chowkit.cli.main(argv)`` job after job, each call
starting when the previous one returned.  It times every call, keeps a
sha256 of every stdout, writes the first stdout of each job to its output
directory for the checks that ``run.py`` makes afterwards, and writes
``result.json`` there.  Checks live in the parent process so that their
memory stays out of this process's peak RSS.

Modes:
    setup   prepare the workload, record how long that took, exit
    run     prepare, then run the job list ``--passes`` times untraced
    trace   prepare, run the list once untraced and once traced
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from clock import kernel_seconds, scale  # noqa: E402  (needs the path above)
from jobs import make_jobs  # noqa: E402


def _call(cli, job):
    """One timed CLI call: (seconds, exit code or None, error, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception as exc:  # a crash of the program under test fails the job
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code not in (0, None) and error is None:
        error = f"exit {code}: {err.getvalue().strip()[-500:]}"
    return seconds, code, error, out.getvalue()


def run_pass(cli, jobs, out_dir: Path, written: set, tracer=None) -> list[dict]:
    """One pass over the job list.  ``seconds`` is each call's wall time
    scaled by the kernel runs around it; ``raw_seconds`` is the wall time."""
    records = []
    kernel_before = kernel_seconds()
    for index, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.active = True
        raw, code, error, stdout = _call(cli, job)
        if tracer is not None:
            tracer.active = False
        kernel_after = kernel_seconds()
        seconds = scale(raw, kernel_before, kernel_after)
        kernel_before = kernel_after
        data = stdout.encode("utf-8")
        if tracer is not None:
            tracer.end_job(seconds / raw)
            tracer.counts["cli.stdout_bytes"] += len(data)
        if index not in written:
            (out_dir / f"out-{index}.txt").write_bytes(data)
            written.add(index)
        records.append(
            {
                "index": index,
                "seconds": seconds,
                "raw_seconds": raw,
                "code": code,
                "error": error,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
            }
        )
    return records


def fill_cache(cli, jobs, kernel_before: float) -> tuple[float, float]:
    """Fill ``CHOWKIT_CACHE_DIR`` by running once every job of the list
    that stores new echelon data: ``dims`` (degrees 0..2g-1) and the reduce
    at degree 2g.  The other jobs read only degrees these store.  Returns the
    fill's (raw, scaled) seconds."""
    raw_total = scaled_total = 0.0
    for job in jobs:
        if job.kind == "dims" or (job.kind == "reduce" and job.degree >= 2 * job.genus):
            gc.collect()
            raw, _, error, _ = _call(cli, job)
            if error is not None:
                raise SystemExit(f"cache fill failed on {' '.join(job.argv)}: {error}")
            kernel_after = kernel_seconds()
            raw_total += raw
            scaled_total += scale(raw, kernel_before, kernel_after)
            kernel_before = kernel_after
    return raw_total, scaled_total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # Set-up is import and job list, then the cache fill; the parent adds
    # the time from process start to "imported" to the fill time.
    sys.path.insert(0, str(ROOT / "src"))  # run.py checked that chowkit is there
    from chowkit import cli

    jobs = make_jobs(args.workload, args.seed)
    result: dict = {"imported": time.monotonic(), "kernel_at_import": kernel_seconds(), "fill": (0.0, 0.0)}
    if args.workload == "ring-cached":
        result["fill"] = fill_cache(cli, jobs, result["kernel_at_import"])
    if args.mode != "setup":
        written: set = set()
        tracer = None
        passes = [run_pass(cli, jobs, args.out, written) for _ in range(args.passes if args.mode == "run" else 1)]
        if args.mode == "trace":
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            passes.append(run_pass(cli, jobs, args.out, written, tracer))
            untraced = sum(r["seconds"] for r in passes[0])
            traced = sum(r["seconds"] for r in passes[1])
            result["trace"] = tracer.report() | {"trace.overhead_ratio": traced / untraced}
        result["passes"] = passes
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

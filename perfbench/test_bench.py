"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import hashlib
import io
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from jobs import WORKLOADS, Job, _dr_job, make_jobs  # noqa: E402

CHOWKIT = bench._import_program()

SMALL_JOBS = [
    Job("dims", 3, ("ring", "--genus", "3", "dims")),
    Job("pairing", 3, ("ring", "--genus", "3", "pairing")),
    Job("reduce", 3, ("ring", "--genus", "3", "reduce", "(T1 + 2*P - xi)^4"), degree=4),
    Job("reduce", 3, ("ring", "--genus", "3", "reduce", "(xi - T2)^2*(T1 + P)^4"), degree=6),
    Job("verify", 3, ("verify", "--genus", "3", "--json")),
    _dr_job(2, (1, 2, -3), "json"),
    _dr_job(2, (1, 2, -3), "latex"),
    _dr_job(2, (1, 2, -3), "compact"),
]


def _stdout(job: Job) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert CHOWKIT.cli.main(list(job.argv)) == 0
    return buffer.getvalue()


@pytest.fixture(scope="module")
def outputs() -> dict[int, str]:
    return {i: _stdout(job) for i, job in enumerate(SMALL_JOBS)}


def _result(outputs: dict[int, str], passes: int = 1) -> dict:
    records = [
        {"index": i, "seconds": 0.01, "raw_seconds": 0.01, "code": 0, "error": None,
         "sha256": hashlib.sha256(text.encode()).hexdigest(), "bytes": len(text)}
        for i, text in sorted(outputs.items())
    ]
    return {"passes": [[dict(r) for r in records] for _ in range(passes)]}


def _failed(outputs: dict[int, str], golden: dict | None = None, passes: int = 1, result: dict | None = None) -> int:
    result = result or _result(outputs, passes)
    return bench.check_run(CHOWKIT, SMALL_JOBS, result, dict(outputs), golden or {})[1]


def test_same_seed_gives_same_job_list():
    for workload in WORKLOADS:
        assert make_jobs(workload, 11) == make_jobs(workload, 11)
    assert make_jobs("ring-cold", 1) != make_jobs("ring-cold", 2)
    assert make_jobs("dr-expand", 1) != make_jobs("dr-expand", 2)
    assert make_jobs("ring-cold", 5) == make_jobs("ring-cached", 5)


def test_correct_outputs_pass(outputs):
    assert _failed(outputs, passes=2) == 0


CORRUPTIONS = {
    0: lambda text: text.replace("k=5: 0", "k=5: 1"),
    1: lambda text: text.replace("determinant", "determinant 0 *", 1).split(" *")[0] + "\n",
    2: lambda text: text.rstrip("\n") + " + T1^4\n",
    3: lambda text: "T1^6\n",
    4: lambda text: text.replace('"all_hold": true', '"all_hold": false'),
    5: lambda text: re.sub(r'"coeff": "([^"]*)"', lambda m: f'"coeff": "{2 * Fraction(m[1])}"', text, count=1),
    6: lambda text: text.replace(" + ", " - ", 1),
    7: lambda text: text.replace('"codim": 2', '"codim": 3'),
}


@pytest.mark.parametrize("index", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(outputs, index):
    corrupted = dict(outputs)
    corrupted[index] = CORRUPTIONS[index](outputs[index])
    assert corrupted[index] != outputs[index]
    result = _result(corrupted)
    attempted, failed, reasons, _ = bench.check_run(CHOWKIT, SMALL_JOBS, result, corrupted, {})
    # A corrupted DR JSON output also fails the LaTeX job checked against it.
    assert 1 <= failed <= 2
    assert any(reason.startswith(" ".join(SMALL_JOBS[index].argv)[:80] + ":") for reason in reasons)


def test_crash_and_unstable_output_count_as_failed(outputs):
    result = _result(outputs, passes=2)
    result["passes"][0][0]["error"] = "ValueError: boom"
    result["passes"][1][1]["sha256"] = "0" * 64
    assert _failed(outputs, result=result) == 2


def test_pinned_sha_mismatch_counts_as_failed(outputs):
    job = SMALL_JOBS[0]
    assert _failed(outputs, golden={" ".join(job.argv): "0" * 64}) == 1


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(40)]
    value = bench.tail(times)
    assert sum(1 for t in times if t > value) == 10
    assert bench.tail_percentile(len(times)) == 75.0

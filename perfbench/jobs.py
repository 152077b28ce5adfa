"""Seeded job lists for the four benchmark workloads.

A job is one ``chowkit`` command line.  Each workload draws a fixed list of
jobs from its seed; a run repeats that list a fixed number of times.  The
lists are stratified: every genus (and every DR stratum) appears equally
often, and the seed only picks the expressions, the weight vectors and the
order.  That keeps the amount of work in a list the same for every seed, so
run-to-run spread measures the program and not the draw.

This module is pure standard library: the benchmark and its test import it
without importing the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

WORKLOADS = ("ring-cold", "ring-cached", "verify-sweep", "dr-expand")

# The elimination cost grows steeply with the genus: a cold `dims` call takes
# about 0.7 s at g=7 and 1.6 s at g=8.  Stopping at 7 keeps a list near four
# seconds, so that a run repeats it often enough for a steady median and tail.
RING_GENERA = (5, 6, 7)
VERIFY_GENERA = tuple(range(6, 15))
# (genus, number of marked points), each drawn with seeded weight vectors
# and run in all three output modes: classes of about 50 to 5,000 terms.
DR_STRATA = ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3))
# The upper end, run once per list in JSON: the ROADMAP's reference case,
# 94,212 terms, 47 MB of JSON, about 7 s and 570 MB.  Its weights are fixed so
# that its stdout is pinned in golden.json for every seed; a full check of
# it (deserialize and serialize again) would cost more than the job.  n=5 at
# g=4 (1.6e6 terms) is left out: one job would outlast a run.
DR_LARGE = (4, (1, 1, 1, -3))
DR_MODES = ("json", "latex", "compact")
DR_VECTORS_PER_STRATUM = 2

_RING_VARS = ("xi", "T1", "P", "T2")


@dataclass(frozen=True)
class Job:
    """One command line plus the facts the output checks need."""

    kind: str  # "dims" | "pairing" | "reduce" | "verify" | "dr"
    genus: int
    argv: tuple[str, ...]
    degree: int | None = None  # input degree of a reduce job
    weights: tuple[int, ...] | None = None  # weight vector of a dr job
    mode: str | None = None  # output mode of a dr job


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of ``workload`` for ``seed``.  The same seed always
    gives the same list; ``ring-cold`` and ``ring-cached`` share a list."""
    if workload in ("ring-cold", "ring-cached"):
        return _ring_jobs(random.Random(f"ring:{seed}"))
    if workload == "verify-sweep":
        return _verify_jobs(random.Random(f"verify:{seed}"))
    if workload == "dr-expand":
        return _dr_jobs(random.Random(f"dr:{seed}"))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ------------------------------------------------------------------ ring


def reduce_degrees(g: int) -> tuple[int, ...]:
    """Input degrees of the reduce jobs at genus ``g``: two below ``2g`` and
    one at ``2g``, where every class vanishes.  Fixed per genus, because the
    elimination cost depends on the degree far more than on the expression."""
    return ((3 * g + 1) // 2, 2 * g - 1, 2 * g)


# Expression shape of each reduce slot, in the order of reduce_degrees.
REDUCE_SHAPES = ("product", "power", "two_powers")


def _linear_form(rng: random.Random) -> str:
    """A seeded linear form with all four variables: dense, so that every
    draw expands to the same number of terms."""
    text = ""
    for name in _RING_VARS:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not text:
            text = f"-{body}" if c < 0 else body
        else:
            text += f" - {body}" if c < 0 else f" + {body}"
    return f"({text})"


def homogeneous_expression(rng: random.Random, degree: int, shape: str) -> str:
    """A product or power of linear forms in ``xi, T1, P, T2`` of the given
    total degree."""
    if shape == "power":
        return f"{_linear_form(rng)}^{degree}"
    if shape == "two_powers":
        half = degree // 2
        return f"{_linear_form(rng)}^{half}*{_linear_form(rng)}^{degree - half}"
    return "*".join(_linear_form(rng) for _ in range(degree))


def _ring_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for g in RING_GENERA:
        base = ("ring", "--genus", str(g))
        jobs.append(Job("dims", g, base + ("dims",)))
        jobs.append(Job("pairing", g, base + ("pairing",)))
        for d, shape in zip(reduce_degrees(g), REDUCE_SHAPES):
            expr = homogeneous_expression(rng, d, shape)
            jobs.append(Job("reduce", g, base + ("reduce", expr), degree=d))
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ verify


def _verify_jobs(rng: random.Random) -> list[Job]:
    jobs = [Job("verify", g, ("verify", "--genus", str(g), "--json")) for g in VERIFY_GENERA]
    rng.shuffle(jobs)
    return jobs


# ------------------------------------------------------------------ dr


def theta_symbol_count(genus: int, weights: tuple[int, ...]) -> int:
    """Number of symbols with a nonzero coefficient in the pullback of the
    polarization class (PAPER.md; ``chowkit.dr.theta_pullback``):
    ``K_i`` for ``d_i != 0``, ``delta_0^S`` for ``|S| >= 2`` with
    ``d_S^2 != sum_S d_i^2``, and ``delta_h^S`` for ``0 < h <= g/2`` with
    ``d_S != 0`` (``S`` containing point 1 when ``2h = g``)."""
    n = len(weights)
    points = range(n)
    count = sum(1 for d in weights if d)
    for size in range(2, n + 1):
        for subset in combinations(points, size):
            d_subset = sum(weights[i] for i in subset)
            if d_subset * d_subset != sum(weights[i] ** 2 for i in subset):
                count += 1
    for h in range(1, genus // 2 + 1):
        for size in range(0, n + 1):
            for subset in combinations(points, size):
                if 2 * h == genus and 0 not in subset:
                    continue
                if sum(weights[i] for i in subset):
                    count += 1
    return count


def _generic(weights: tuple[int, ...]) -> bool:
    """No proper subset sums to zero and no pair-sum of cross products
    vanishes, so every candidate theta symbol is present and the class has
    the largest term count of its (g, n) stratum."""
    n = len(weights)
    for size in range(1, n):
        for subset in combinations(range(n), size):
            values = [weights[i] for i in subset]
            if sum(values) == 0:
                return False
            if size >= 2 and sum(values) ** 2 == sum(v * v for v in values):
                return False
    return True


def weight_vector(rng: random.Random, n: int) -> tuple[int, ...]:
    """A seeded generic weight vector of length ``n`` summing to zero, with
    entries of size at most 6 so that coefficient sizes vary little."""
    while True:
        head = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(n - 1)]
        weights = tuple(head + [-sum(head)])
        if 0 < abs(weights[-1]) <= 6 and _generic(weights):
            return weights


def _dr_job(g: int, weights: tuple[int, ...], mode: str) -> Job:
    # `--weights=` keeps a leading minus sign from reading as an option.
    argv = ("dr", "--genus", str(g), "--weights=" + ",".join(map(str, weights)))
    argv += ("--compact-type",) if mode == "compact" else ("--format", mode)
    return Job("dr", g, argv, weights=weights, mode=mode)


def _dr_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for g, n in DR_STRATA:
        drawn: list[tuple[int, ...]] = []
        while len(drawn) < DR_VECTORS_PER_STRATUM:
            weights = weight_vector(rng, n)
            if weights not in drawn:
                drawn.append(weights)
                jobs.extend(_dr_job(g, weights, mode) for mode in DR_MODES)
    jobs.append(_dr_job(*DR_LARGE, "json"))
    rng.shuffle(jobs)
    return jobs

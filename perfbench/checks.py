"""Output checks for every benchmark job.

Each check reads a job's stdout and decides whether it is correct, from the
mathematics the output must satisfy, with ``chowkit``'s public API where a
check needs the ring (contexts built here, outside the timed loop).
``Checker.check`` returns ``None`` for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial

from jobs import Job, theta_symbol_count


class Checker:
    """Checks the outputs of one job list.  ``outputs`` maps job index to
    the job's stdout.  A DR LaTeX job is compared with the JSON job of the
    same class, which every DR list contains."""

    def __init__(self, chowkit, jobs: list[Job], outputs: dict[int, str]):
        self.ck = chowkit
        self.jobs = jobs
        self.outputs = outputs
        self._contexts: dict = {}
        self._eta: dict[int, dict[tuple[int, int, int], Fraction]] = {}

    def check(self, index: int) -> str | None:
        job = self.jobs[index]
        try:
            return getattr(self, f"_check_{job.kind}")(job, self.outputs[index])
        except Exception as exc:  # a malformed output fails its check
            return f"check raised {type(exc).__name__}: {exc}"

    # ------------------------------------------------------------ ring

    def _context(self, g: int):
        if g not in self._contexts:
            self._contexts[g] = self.ck.make_context(g)
        return self._contexts[g]

    def _check_dims(self, job, out):
        g = job.genus
        rows = [line.split(": ") for line in out.splitlines()]
        if [head for head, _ in rows] != [f"k={k}" for k in range(2 * g)]:
            return "dims: expected one line per degree 0..2g-1"
        dims = [int(value) for _, value in rows]
        if dims[:g] != [comb(k + 2, 2) for k in range(g)]:
            return f"dims: degrees below g are not C(k+2,2): {dims[:g]}"
        if any(dims[k] != dims[2 * g - 2 - k] for k in range(2 * g - 1)):
            return f"dims: not symmetric about g-1: {dims}"
        if dims[2 * g - 2:] != [1, 0]:
            return f"dims: expected 1 at 2g-2 and 0 at 2g-1, got {dims[2 * g - 2:]}"
        return None

    def _check_pairing(self, job, out):
        heads = [line.split(": determinant ") for line in out.splitlines() if not line.startswith(" ")]
        if [head for head, _ in heads] != [f"k={k}" for k in range(job.genus)]:
            return "pairing: expected one block per k in 0..g-1"
        singular = [head for head, det in heads if Fraction(det) == 0]
        return f"pairing: singular blocks {singular}" if singular else None

    def _check_reduce(self, job, out):
        text = out.rstrip("\n")
        if job.degree >= 2 * job.genus:
            # R_k = 0 for k >= 2g-1, and the xi-part of a degree-k class lies
            # in xi*R_(k-1): the answer is known exactly.
            return None if text == "0" else f"reduce: degree {job.degree} >= 2g must give 0, got {text[:60]}"
        ck = self.ck
        ctx = self._context(job.genus)
        if ck.format_polynomial(ctx.normal_form(ck.parse(text))) != text:
            return "reduce: reducing the output again changed it"
        rng = random.Random(" ".join(job.argv))
        relation = ctx.relation(rng.choice(ctx.relation_grades))
        rest = job.degree - job.genus
        a = rng.randint(0, rest)
        b = rng.randint(0, rest - a)
        monomial = ck.Polynomial.monomial(ck.RING_VARS, (0, a, b, rest - a - b), rng.randint(1, 5))
        shifted = ck.parse(job.argv[-1]) + relation * monomial
        if ck.format_polynomial(ctx.normal_form(shifted)) != text:
            return "reduce: expr + relation*monomial reduced differently"
        return None

    # ------------------------------------------------------------ verify

    def _check_verify(self, job, out):
        payload = json.loads(out)
        if payload["genera"] != [job.genus] or not payload["results"]:
            return "verify: wrong genera or no results"
        if payload["all_hold"] is not True:
            return "verify: all_hold is not true"
        bad = [r["name"] for r in payload["results"] if r["holds"] is not True or r["residual"] != "0"]
        return f"verify: nonzero residual in {bad}" if bad else None

    # ------------------------------------------------------------ dr

    def eta(self, g: int) -> dict[tuple[int, int, int], Fraction]:
        """The nonzero eta coefficients at genus ``g``, read from the CLI."""
        if g not in self._eta:
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = self.ck.cli.main(["coeffs", "--genus", str(g), "--table", "eta", "--json"])
            if code != 0:
                raise RuntimeError(f"coeffs --genus {g} exited {code}")
            rows = json.loads(buffer.getvalue())["rows"]
            eta = {(r["a"], r["b"], r["c"]): Fraction(r["eta"]) for r in rows}
            self._eta[g] = {triple: value for triple, value in eta.items() if value}
        return self._eta[g]

    def expected_terms(self, job: Job) -> int:
        """Exact term count: the sum over nonzero eta(a,b,c) of
        C(|Theta|+a-1, a) * C(|Delta|+c-1, c).  Theta, delta_irr and Delta
        have disjoint symbol supports, so no two summands share a term.
        Compact type keeps only the Theta^g summand."""
        g, weights = job.genus, job.weights
        theta = theta_symbol_count(g, weights)
        if job.mode == "compact":
            return comb(theta + g - 1, g)
        delta = sum(1 for d in weights if d)
        return sum(_monomials(theta, a) * _monomials(delta, c) for a, b, c in self.eta(g))

    def _json_output(self, job: Job) -> str:
        index = next(
            i for i, other in enumerate(self.jobs)
            if other.kind == "dr" and other.mode == "json" and other.genus == job.genus and other.weights == job.weights
        )
        return self.outputs[index]

    def _check_dr(self, job, out):
        text = out.rstrip("\n")
        dr = self.ck.dr
        expected = self.expected_terms(job)
        if job.mode == "latex":
            terms = 1 + text.count(" + ") + text.count(" - ") if text != "0" else 0
            if terms != expected:
                return f"dr latex: {terms} terms, expected {expected}"
            reference = dr.serialize(dr.deserialize(self._json_output(job)), "latex")
            return None if reference == text else "dr latex: differs from the JSON output of the same class"
        payload = json.loads(text)
        if payload["g"] != job.genus or tuple(payload["weights"]) != job.weights:
            return "dr: genus or weights differ from the command line"
        if payload["codim"] != job.genus:
            return f"dr: codim {payload['codim']} != g"
        if len(payload["terms"]) != expected:
            return f"dr: {len(payload['terms'])} terms, expected {expected}"
        eta = self.eta(job.genus)
        for term in payload["terms"]:
            if job.mode == "compact" and any(s["kind"] in ("delta_irr", "xi") for s in term["symbols"]):
                return "dr compact: a term outside compact type survived"
            coeff = _dr_coefficient(job.weights, eta, term["symbols"])
            if Fraction(term["coeff"]) != coeff:
                return f"dr: coefficient {term['coeff']} of {term['symbols']} should be {coeff}"
        if dr.serialize(dr.deserialize(text), "json") != text:
            return "dr: JSON does not survive a deserialize round-trip"
        return None


def _monomials(variables: int, degree: int) -> int:
    """Number of monomials of ``degree`` in ``variables`` variables."""
    return comb(variables + degree - 1, degree) if degree else 1


def _theta_coefficient(weights: tuple[int, ...], symbol: dict) -> Fraction:
    """Coefficient of one symbol in the polarization pullback (PAPER.md)."""
    if symbol["kind"] == "K":
        return Fraction(weights[symbol["i"] - 1] ** 2, 2)
    d = [weights[i - 1] for i in symbol["P"]]
    if symbol["h"] == 0:
        return Fraction(-(sum(d) ** 2 - sum(x * x for x in d)), 2)
    return Fraction(-(sum(d) ** 2), 2)


def _dr_coefficient(weights: tuple[int, ...], eta: dict, symbols: list[dict]) -> Fraction:
    """Coefficient of one term ``Theta-part * delta_irr^b * xi-part`` by the
    multinomial formula.  The three pullbacks have disjoint supports, so the
    term comes from exactly one summand
    ``eta(a,b,c) * Theta^a * delta_irr^b * Delta^c``, with
    ``Delta = sum |d_i| xi_i``.  For compact type this is ``Theta^g/g!``."""
    a = b = c = 0
    theta_part = delta_part = Fraction(1)
    for symbol in symbols:
        power = symbol.get("power", 1)
        kind = symbol["kind"]
        if kind == "delta_irr":
            b += power
        elif kind == "xi":
            c += power
            delta_part *= Fraction(abs(weights[symbol["i"] - 1])) ** power / factorial(power)
        else:
            a += power
            theta_part *= _theta_coefficient(weights, symbol) ** power / factorial(power)
    return eta.get((a, b, c), Fraction(0)) * factorial(a) * theta_part * factorial(c) * delta_part

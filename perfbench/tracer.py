"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``chowkit`` modules, and the
names other modules imported them under (``chowkit.ring.rref``,
``chowkit.cli.parse`` ...), with wrappers that time each call as a span.
Spans nest on a stack; a layer's self time is its span time minus the time
of the spans opened inside it.  Spans are folded into per-layer totals as
they close instead of being kept, because ``poly.mul`` alone opens millions
of them on ``verify-sweep``.

``chowkit.arith`` stays unwrapped: ``factorial`` and ``bernoulli`` sit in
inner loops, and their time folds into the self time of their callers.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# Span layers, in report order.  Each gets `<name>.calls` and `<name>.self_s`.
LAYERS = (
    "cli.main",
    "parsing.parse",
    "poly.mul",
    "poly.pow",
    "poly.add",
    "poly.substitute",
    "poly.format",
    "linalg.rref",
    "linalg.determinant",
    "linalg.solve",
    "ring.make_context",
    "ring.normal_form",
    "ring.dim_graded",
    "ring.pairing_matrix",
    "ring.socle_pushforward",
    "zero_section.verify",
    "zero_section.assemble",
    "zero_section.coefficient_table",
    "dr.theta_pullback",
    "dr.dr_class",
    "dr.mul",
    "dr.pow",
    "dr.add",
    "dr.serialize_json",
    "dr.serialize_latex",
    "dr.compact_type",
)

# Counters recorded at the same boundaries: (name, unit, better).
COUNTERS = (
    ("cli.stdout_bytes", "B", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("linalg.rref.cells", "count", "lower"),
    ("dr.theta_terms", "count", "lower"),
    ("dr.terms_out", "count", "lower"),
    ("dr.mul.term_pairs", "count", "lower"),
    ("dr.serialize_json.bytes", "B", "lower"),
    ("dr.serialize_latex.bytes", "B", "lower"),
)

# Useful outcomes over attempts: name -> (numerator counter, denominator counter).
RATIOS = {
    "poly.mul.useful_ratio": ("poly.mul.terms_out", "poly.mul.term_pairs"),
    "linalg.rref.useful_ratio": ("linalg.rref.rank", "linalg.rref.rows"),
    "dr.mul.useful_ratio": ("dr.mul.terms_out", "dr.mul.term_pairs"),
}


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    specs = []
    for layer in LAYERS:
        specs.append((f"{layer}.calls", "count", "lower"))
        specs.append((f"{layer}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    specs.extend((name, "ratio", "higher") for name in RATIOS)
    specs.append(("trace.overhead_ratio", "ratio", "lower"))
    return specs


class Tracer:
    """Span stack plus per-layer totals.  Spans are recorded only while
    ``active`` is true, so the benchmark's own checks stay out of them.
    Self times collect per job and enter the totals through ``end_job``,
    which scales them like the job's wall time (see clock.py)."""

    def __init__(self) -> None:
        self.active = False
        self._children: list[float] = []  # child time of each open span
        self._job_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def end_job(self, factor: float) -> None:
        for name, seconds in self._job_self_s.items():
            self.self_s[name] += seconds * factor
        self._job_self_s.clear()

    def wrap(self, layer, fn, count=None):
        """``fn`` timed as a span of ``layer`` (a name, or a function of the
        call's arguments returning one).  ``count(counts, args, kwargs,
        result)`` runs after the span closes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            stack = self._children
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self._job_self_s[name] += elapsed - child
            if count is not None and result is not NotImplemented:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def report(self) -> dict[str, float]:
        """Totals for every layer, counter and ratio (zero where unused)."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls.get(layer, 0)
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for name, _, _ in COUNTERS:
            out[name] = self.counts.get(name, 0)
        for name, (num, den) in RATIOS.items():
            den_value = self.counts.get(den, 0)
            out[name] = self.counts.get(num, 0) / den_value if den_value else 0.0
        return out


# ------------------------------------------------------------------ counters


def _size(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else 1


def _count_mul(prefix):
    def count(counts, args, kwargs, result):
        counts[f"{prefix}.term_pairs"] += _size(args[0]) * _size(args[1])
        counts[f"{prefix}.terms_out"] += _size(result)

    return count


def _count_rref(counts, args, kwargs, result):
    rows = args[0]  # every caller passes a list of rows
    counts["linalg.rref.rows"] += len(rows)
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    counts["linalg.rref.rank"] += len(result[1])


def _count_terms(name):
    def count(counts, args, kwargs, result):
        counts[name] += len(result.terms)

    return count


def _serialize_mode(args, kwargs) -> str:
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "json")
    return f"dr.serialize_{mode}"


def _count_serialize(counts, args, kwargs, result):
    counts[f"{_serialize_mode(args, kwargs)}.bytes"] += len(result.encode("utf-8"))


# ------------------------------------------------------------------ install


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module, in place, under
    every name the package imports them by.  Call once per process, after
    the final import of ``chowkit``."""
    modules = {name: sys.modules[f"chowkit.{name}"] for name in ("cli", "dr", "linalg", "parsing", "poly", "ring", "zero_section")}

    def patch(layer, attr, owners, count=None):
        original = getattr(modules[owners[0]], attr)
        wrapped = tracer.wrap(layer, original, count)
        for owner in owners:
            setattr(modules[owner], attr, wrapped)

    def patch_methods(layer, cls, attrs, count=None):
        wrapped = tracer.wrap(layer, getattr(cls, attrs[0]), count)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    patch("cli.main", "main", ("cli",))

    poly = modules["poly"].Polynomial
    patch_methods("poly.mul", poly, ("__mul__", "__rmul__"), _count_mul("poly.mul"))
    patch_methods("poly.pow", poly, ("__pow__",))
    patch_methods("poly.add", poly, ("__add__", "__radd__"))
    patch_methods("poly.substitute", poly, ("substitute",))
    patch("poly.format", "format_polynomial", ("poly", "cli", "zero_section"))

    patch("parsing.parse", "parse", ("parsing", "cli"))

    patch("linalg.rref", "rref", ("linalg", "ring"), _count_rref)
    patch("linalg.determinant", "determinant", ("linalg", "cli"))
    patch("linalg.solve", "solve", ("linalg", "ring"))

    ring = modules["ring"].RingContext
    patch("ring.make_context", "make_context", ("ring", "cli", "zero_section"))
    for layer, attr in (
        ("ring.normal_form", "normal_form"),
        ("ring.dim_graded", "dim_graded"),
        ("ring.pairing_matrix", "pairing_matrix"),
        ("ring.socle_pushforward", "socle_pushforward"),
    ):
        patch_methods(layer, ring, (attr,))

    for attr in ("verify_main", "verify_eta_alpha", "verify_triangular", "verify_invariance"):
        patch("zero_section.verify", attr, ("zero_section", "cli"))
    patch("zero_section.assemble", "assemble_main_rhs", ("zero_section",))
    patch("zero_section.coefficient_table", "coefficient_table", ("zero_section", "dr", "cli"))

    formal = modules["dr"].FormalClass
    patch("dr.theta_pullback", "theta_pullback", ("dr",), _count_terms("dr.theta_terms"))
    patch("dr.dr_class", "dr_class", ("dr", "cli"), _count_terms("dr.terms_out"))
    patch_methods("dr.mul", formal, ("__mul__", "__rmul__"), _count_mul("dr.mul"))
    patch_methods("dr.pow", formal, ("__pow__",))
    patch_methods("dr.add", formal, ("__add__",))
    patch(_serialize_mode, "serialize", ("dr", "cli"), _count_serialize)
    patch("dr.compact_type", "specialize_compact_type", ("dr", "cli"))

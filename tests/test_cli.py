"""End-to-end CLI behaviour: exit codes, output shapes, determinism."""

import json
import signal
import sys

import pytest
from hypothesis import given, settings, strategies as st

from chowkit.cli import main
from chowkit.zero_section import VerificationReport
from chowkit.poly import Polynomial, RING_VARS, format_polynomial
from chowkit.ring import make_context


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ verify


def test_verify_single_genus(capsys):
    code, out, err = run(capsys, ["verify", "--genus", "2", "--which", "main"])
    assert code == 0
    assert out == "main_identity (genus 2): holds\nall checks hold\n"
    assert err == ""


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, ["verify", "--genus", "2", "--which", "all", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["which"] == "all"
    assert payload["genera"] == [2]
    assert payload["all_hold"] is True
    assert len(payload["results"]) == 14
    assert payload["results"][0] == {
        "name": "main_identity",
        "genus": 2,
        "holds": True,
        "residual": "0",
    }
    for result in payload["results"]:
        assert "seconds" not in result


def test_verify_sweep(capsys):
    code, out, _ = run(capsys, ["verify", "--max-genus", "3", "--which", "main", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["genera"] == [1, 2, 3]
    assert [r["genus"] for r in payload["results"]] == [1, 2, 3]
    assert payload["all_hold"] is True


def test_verify_needs_a_genus(capsys):
    code, _, err = run(capsys, ["verify"])
    assert code == 2
    assert "needs --genus or --max-genus" in err


def test_verify_genus_and_max_genus_exclude_each_other(capsys):
    code, out, err = run(capsys, ["verify", "--genus", "2", "--max-genus", "3"])
    assert code == 2
    assert out == ""
    assert "not allowed with" in err


def test_verify_rejects_genus_zero(capsys):
    code, _, err = run(capsys, ["verify", "--genus", "0"])
    assert code == 2
    assert "positive integer" in err


def test_verify_reports_failure_with_exit_1(capsys, monkeypatch):
    def failing(genus):
        return VerificationReport(
            name="main_identity",
            genus=genus,
            holds=False,
            residual=Polynomial.variable(RING_VARS, "T1"),
        )

    monkeypatch.setattr("chowkit.cli.verify_main", failing)
    code, out, _ = run(capsys, ["verify", "--genus", "3", "--which", "main"])
    assert code == 1
    assert out == "main_identity (genus 3): FAILS, residual T1\n1 of 1 checks FAILED\n"

    code, out, _ = run(capsys, ["verify", "--genus", "3", "--which", "main", "--json"])
    assert code == 1
    assert out == json.dumps(
        {
            "command": "verify",
            "which": "main",
            "genera": [3],
            "results": [{"name": "main_identity", "genus": 3, "holds": False, "residual": "T1"}],
            "all_hold": False,
        },
        indent=2,
    ) + "\n"


def test_quiet_suppresses_output_but_keeps_code(capsys, monkeypatch):
    code, out, _ = run(capsys, ["verify", "--genus", "2", "--which", "main", "--quiet"])
    assert code == 0 and out == ""

    def failing(genus):
        return VerificationReport(
            name="main_identity", genus=genus, holds=False, residual=Polynomial.variable(RING_VARS, "P")
        )

    monkeypatch.setattr("chowkit.cli.verify_main", failing)
    code, out, _ = run(capsys, ["verify", "--genus", "2", "--which", "main", "--quiet"])
    assert code == 1 and out == ""


def test_verify_deterministic_output(capsys):
    _, first, _ = run(capsys, ["verify", "--genus", "3", "--which", "all", "--json"])
    _, second, _ = run(capsys, ["verify", "--genus", "3", "--which", "all", "--json"])
    assert first == second


# ------------------------------------------------------------------ ring


def test_ring_reduce_fixture(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "2", "reduce", "P^2"])
    assert code == 0
    assert out == "-2*T1*T2\n"


def test_ring_reduce_json(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "2", "reduce", "P^2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "command": "ring",
        "action": "reduce",
        "genus": 2,
        "input": "P^2",
        "normal_form": "-2*T1*T2",
    }


def test_ring_reduce_requires_expression(capsys):
    code, _, err = run(capsys, ["ring", "--genus", "2", "reduce"])
    assert code == 2
    assert "needs an expression" in err


def test_ring_reduce_parse_error(capsys):
    code, _, err = run(capsys, ["ring", "--genus", "2", "reduce", "P^^2"])
    assert code == 2
    assert "cannot parse" in err


def test_ring_reduce_deep_nesting_is_usage_error():
    import subprocess
    import sys

    for expr in ("(" * 3000 + "P" + ")" * 3000, "(" + "-" * 5000 + "P)"):
        proc = subprocess.run(
            [sys.executable, "-m", "chowkit", "ring", "--genus", "2", "reduce", expr],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "cannot parse" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_ring_reduce_non_ascii_digits(capsys):
    for expr in ("T1^\u00b2", "\u0663*T1"):
        code, out, err = run(capsys, ["ring", "--genus", "2", "reduce", expr])
        assert code == 2
        assert out == ""
        assert "cannot parse" in err and "position" in err


def test_ring_reduce_huge_exponents_finish(capsys):
    # Every class of degree >= 2g vanishes, so the parser drops those terms
    # as it goes, and a power is a binomial sum over degrees up to 2g-1.
    for expr in ("P^100000000", "(T1+P)^100000000", "(2*T1)^100000000"):
        code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", expr])
        assert (code, out, err) == (0, "0\n", "")
    code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", "(1+T1)^100000000"])
    assert (code, out, err) == (0, "4999999950000000*T1^2 + 100000000*T1 + 1\n", "")


def test_ring_reduce_huge_power_with_a_constant_term_is_fast(capsys):
    # Squaring a dense truncated polynomial 27 times took minutes here.
    import hashlib
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, ["ring", "--genus", "5", "reduce", "(1+xi+T1+P+T2)^99999999"])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest().startswith("f304ada52c4e1e6c")


def test_ring_pairing_at_genus_30_is_fast(capsys):
    # Took 4.6-7.3 s while each determinant was eliminated from the dense
    # Fraction matrix; the pin is the output of that elimination.
    import hashlib
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, ["ring", "--genus", "30", "pairing"])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "3fef4bb969ee9f55d01328e0b2b6cb3583c3e4180d422967446bbd64ffb92e8e"


def test_ring_reduce_past_degree_g_at_genus_30(capsys):
    # Every degree from g to 2g-2 is reduced, through tables that grow as the
    # parser's products climb; the pin is the output of the per-block solves.
    # The second power has a constant term, so the parser sums it binomially,
    # one power of the rest at a time, and the tables widen a degree at a time.
    import hashlib
    import time

    for expr, digest in (
        ("(T1-P+3*T2+xi)^45", "dfbccd69ba4c249e7540ec2cdf45253c1befa94c80e20bd9db4180ba3f1fbc3b"),
        ("(1+T1-P+3*T2)^58", "924bc17e87a0059e995f91f065fc53514fa9acb3e0b5a0cf90c3f31c2f78d448"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["ring", "--genus", "30", "reduce", expr])
        assert time.perf_counter() - start < 5
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, expr


def test_ring_reduce_of_a_rank_199_block_at_genus_400(capsys):
    # P^402 lies in the degree-402, d-grade-0 block, of rank 199 and 202
    # monomials wide; its table took 43.6 s as an rref of the Hankel rows.
    # The output has no phi-moments against P^402: R is Gorenstein, so the
    # difference pairs to 0 with every monomial of the partner block, of
    # degree 396 and d-grade 0, as test_reductions_have_no_phi_moments checks
    # through socle_pushforward: phi(T1^z P^(402-2z) T2^z * T1^w P^(396-2w)
    # T2^w) is the Hankel entry h(399-z-w).
    import hashlib
    import time
    from math import lcm

    from chowkit.parsing import parse

    start = time.perf_counter()
    code, out, err = run(capsys, ["ring", "--genus", "400", "reduce", "P^402"])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "c157b7ad3817efba0fbe1f7589523bd8efff80352b60b91f8091bcf1610cd797"
    ctx, residual = make_context(400), parse("P^402") - parse(out)
    assert len(residual.terms) == 200 and all(x == 0 and a == c for x, a, _, c in residual.terms)
    den, h = lcm(*(v.denominator for v in residual.terms.values())), [ctx._h(a) for a in range(400)]
    for w in range(199):
        assert sum(int(v * den) * h[399 - z - w] for (_, z, _, _), v in residual.terms.items()) == 0


def test_ring_reduce_of_linear_form_powers_at_genus_100_and_200(capsys):
    # One multinomial pass per power: the genus-100 power took 4.8 s by
    # squaring and prints 0, as T1+P+T2 lies on the conic b^2 = ac, and the
    # genus-200 one ran past 30 s.  The second pin is checked by apolarity:
    # phi(NF(l^300) * m) = phi(l^300 * m) = 300! * (m(d)F)(1, 2, 5) for
    # partner monomials m of degree 2g-2-300 = 98.
    import hashlib
    import random
    import time
    from math import factorial

    from chowkit.parsing import parse
    from test_ring import apolar_value

    for genus, expr, limit, digest in (
        ("100", "(T1+P+T2)^150", 3, "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
        ("200", "(T1+2*P+5*T2)^300", 15, "9f104b266328c2179b70691aa8d1c7edca8a3e06a7a5a913a1358806468fd771"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["ring", "--genus", genus, "reduce", expr])
        assert time.perf_counter() - start < limit, expr
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, expr
    ctx, reduced, rng = make_context(200), parse(out), random.Random(36)
    for i, j in [(0, 0), (98, 0), (49, 0), (0, 98)] + [(rng.randint(0, 98), rng.randint(0, 98)) for _ in range(4)]:
        i, j = min(i, 98 - j), j  # T1^i P^j T2^k with i + j + k = 98
        m = Polynomial.monomial(RING_VARS, (0, i, j, 98 - i - j))
        assert ctx.socle_pushforward(reduced * m) == factorial(300) * apolar_value(200, (i, j, 98 - i - j), (1, 2, 5))


def test_ring_reduce_squares_a_linear_form_power_past_the_bit_bound(capsys):
    # A linear form whose exponent times the bits less one of its largest
    # coefficient passes the bound is squared, not expanded (the expansion ran
    # past 20 s): squaring refuses it at its '^' on its first product, also at
    # n >= 2g, and prints 0 for a power that vanishes before its coefficients pass.
    import time

    nines = "9" * 3000
    for n in (598, 600):
        start = time.perf_counter()
        code, out, err = run(capsys, ["ring", "--genus", "300", "reduce", f"({nines}*T1+P)^{n}"])
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (2, "", "error: cannot parse expression: coefficients grow past 10000 bits (at position 3007)\n")
    assert run(capsys, ["ring", "--genus", "4", "reduce", "(2^3000*T1)^4"]) == (0, "0\n", "")


@pytest.mark.parametrize(
    "genus, expr, expected",
    [
        (1, "T1", "0"), (1, "P", "0"), (1, "-T2", "0"), (1, "xi", "xi"), (1, "T1+xi", "xi"), (1, "xi+P+T2", "xi"),
        (2, "T1", "T1"), (2, "(P)", "P"), (2, "xi", "xi"), (2, "T1+xi", "xi + T1"), (2, "xi+P+T2", "xi + P + T2"),
    ],
)
def test_ring_reduce_reduces_a_bare_variable(capsys, genus, expr, expected):
    # The parser reduces a variable as it reads it, so its value is a normal
    # form that the CLI prints with no second reduction; at g=1, R_1 = 0.
    assert run(capsys, ["ring", "--genus", str(genus), "reduce", expr]) == (0, expected + "\n", "")


def test_verify_at_genus_35_finishes(capsys):
    # Took more than 20 s when the right-hand side was expanded over Fractions.
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--genus", "35"])
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["ring", "--genus", "24", "dims"],
        ["ring", "--genus", "16", "pairing"],
        ["ring", "--genus", "80", "dims"],
        ["ring", "--genus", "1000", "dims"],
    ],
    ids=" ".join,
)
def test_large_ring_commands_finish(capsys, argv):
    # The first two took 28 s and 4.3 s while every degree above g was found
    # by eliminating the shifted relations, dims at genus 40 took 10 s while
    # it still eliminated every block above g, and dims at genus 1000 took
    # 87-94 s while every context built its relations.
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 10
    assert (code, err) == (0, "")
    if argv[-1] == "dims":
        # C(k+2, 2) below g, symmetric about g-1 down to 1 in degree 2g-2, then 0.
        free = [(k + 1) * (k + 2) // 2 for k in range(int(argv[2]))]
        assert out.splitlines() == [f"k={k}: {d}" for k, d in enumerate(free + free[-2::-1] + [0])]


def test_verify_at_genus_70_finishes(capsys):
    # Took 13-18 s while the right-hand side was expanded from both
    # restrictions of the generators; it is now the shifts of one sum.
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--genus", "70"])
    assert time.perf_counter() - start < 8
    assert (code, err) == (0, "")


def test_coeffs_at_genus_150_finishes(capsys):
    # Took 10-13 s while each coefficient was its own Fraction sum over
    # Bernoulli numbers from the O(m^2) recurrence.
    import hashlib
    import time

    start = time.perf_counter()
    code, out, err = run(capsys, ["coeffs", "--genus", "150"])
    assert time.perf_counter() - start < 5
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "b8c6670630316d5be8ab808492abf9b24c91c5051926a2861d0141c3b5914559"


def test_verify_invariance_is_looked_up_by_name(capsys, monkeypatch):
    # A wrapper installed on the CLI module's name after import must be the
    # verifier that runs, as for the other identity families.
    import chowkit.cli as cli

    seen = []
    original = cli.verify_invariance
    monkeypatch.setattr(cli, "verify_invariance", lambda g: seen.append(g) or original(g))
    code, out, err = run(capsys, ["verify", "--which", "invariance", "--genus", "2"])
    assert (code, err, seen) == (0, "", [2])


def test_ring_reduce_huge_constant_powers_are_parse_errors(capsys):
    # Truncation cannot bound coefficients: 2^100000000 would build a
    # 100-million-bit integer, so the parser refuses it at the '^'.
    for expr, position in (("2^100000000", 1), ("(2+T1)^100000000", 6)):
        code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", expr])
        assert (code, out) == (2, "")
        assert "cannot parse" in err and f"(at position {position})" in err


def test_ring_reduce_refuses_a_literal_past_the_bit_bound(capsys):
    # 3,300 nines pass the digit count but not the 10,000-bit bound.
    for expr in (str(2**10001), "1/" + str(2**10001), "9" * 3300, "1/" + "9" * 3300):
        code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", expr])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse expression: ") and "(at position 0)" in err
    code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", str(2**10001 - 1)])
    assert (code, out, err) == (0, f"{2**10001 - 1}\n", "")


def test_ring_reduce_huge_literals_and_products_are_parse_errors(capsys):
    # Literals whose digit count implies more than MAX_POWER_BITS bits are
    # refused before int() reads them, and products at the '*' whose
    # coefficients pass the bound, before printing them could fail.
    for expr, position in (
        ("T1^" + "9" * 5000, 3),
        ("1" + "0" * 5000 + "*T1", 0),
        ("2^10000*2^10000", 7),
        ("2^5000*2^5000*2^5000", 13),
    ):
        code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", expr])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse expression: ")
        assert f"(at position {position})" in err


def test_ring_reduce_bounds_the_bits_of_coefficients_in_lowest_terms(capsys):
    # Over one common scale this product holds the numerator 3*2^10000, past
    # 10,000 bits, but its coefficients in lowest terms, 3 and 9/2^10000, fit.
    code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", "(2^10000*T1 + 3*P)*(1/2)^10000*3"])
    assert (code, out, err) == (0, f"3*T1 + 9/{2**10000}*P\n", "")
    for expr, position in (("2^10000*2^10000", 7), ("2^10001", 1)):
        code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", expr])
        assert (code, out) == (2, "") and f"(at position {position})" in err
    code, out, _ = run(capsys, ["ring", "--genus", "3", "reduce", "2^10000"])
    assert (code, out) == (0, f"{2**10000}\n")


def test_ring_reduce_keeps_xi_terms_of_degree_2g_minus_1(capsys):
    # xi*P^4 has degree 2g-1 = 5 at g=3 and reduces into xi*R_4, which is
    # not zero: the parser's bound must be 2g-1, not 2g-2.
    code, out, _ = run(capsys, ["ring", "--genus", "3", "reduce", "xi*P^4"])
    assert (code, out) == (0, "6*xi*T1^2*T2^2\n")


def test_ring_reduce_unknown_variable(capsys):
    code, _, err = run(capsys, ["ring", "--genus", "2", "reduce", "P + Theta"])
    assert code == 2
    assert "cannot parse" in err


def test_ring_dims_text(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "3", "dims"])
    assert code == 0
    assert out.splitlines() == ["k=0: 1", "k=1: 3", "k=2: 6", "k=3: 3", "k=4: 1", "k=5: 0"]


def test_ring_dims_json(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "2", "dims", "--json"])
    assert code == 0
    assert json.loads(out) == {"command": "ring", "action": "dims", "genus": 2, "dims": [1, 3, 1, 0]}


def test_ring_pairing(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "3", "pairing", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert [block["k"] for block in payload["pairings"]] == [0, 1, 2]
    for block in payload["pairings"]:
        assert block["determinant"] != "0"
    assert payload["pairings"][2]["matrix"] == [["4"]]


def test_ring_pairing_prints_past_the_digit_limit(capsys):
    # Exited 2 with CPython's int-to-string digit limit as its message from
    # g=18 on, where the k=0 determinant has more than 4,300 digits.
    import sys

    from chowkit.linalg import determinant
    from chowkit.ring import make_context

    import hashlib

    code, out, err = run(capsys, ["ring", "--genus", "18", "pairing", "--json"])
    assert (code, err) == (0, "")
    # Pins the determinants themselves, independently of ``determinant``.
    assert hashlib.sha256(out.encode()).hexdigest() == "009533009d0370606223524694407d6980ae543136d28aff1742e68a2daac671"
    printed = [block["determinant"] for block in json.loads(out)["pairings"]]
    assert len(printed[0]) > sys.get_int_max_str_digits()
    ctx = make_context(18)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(determinant(ctx.pairing_matrix(k))) for k in range(18)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == expected


def test_exact_decimal_text_past_the_digit_limit():
    import sys
    from fractions import Fraction

    from chowkit.poly import exact_text

    values = [0, -7, Fraction(-3, 4), 10**9000, -(10**9000) + 1, 3**20000, Fraction(7**6000, 3 * 10**5000)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(value) for value in values]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [exact_text(value) for value in values] == expected


def test_ring_relations(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "1", "relations"])
    assert code == 0
    assert out.splitlines() == ["l=1: T1", "l=0: P", "l=-1: T2"]


def test_ring_relations_json(capsys):
    code, out, _ = run(capsys, ["ring", "--genus", "2", "relations", "--json"])
    payload = json.loads(out)
    assert payload["relations"][0] == {"d_grade": 2, "polynomial": "T1^2"}
    assert payload["relations"][2] == {"d_grade": 0, "polynomial": "2*T1*T2 + P^2"}


def _traced_relations(*flags):
    """``(exit code, longest stdout line, traced peak bytes)`` of ``ring --genus 200
    relations`` with ``flags``."""
    import gc
    import io
    import tracemalloc
    from contextlib import redirect_stdout

    class Sink(io.TextIOBase):
        """Counts the longest line and keeps nothing."""

        longest = current = 0

        def write(self, text):
            *ended, rest = text.split("\n")
            for piece in ended:
                self.longest = max(self.longest, self.current + len(piece))
                self.current = 0
            self.current += len(rest)
            return len(text)

    sink = Sink()
    main(["ring", *flags, "--genus", "2", "relations"])  # imports and first-call set-up, outside the trace
    # With the collector paused, the peak counts every garbage cycle the run makes, not
    # only those that the collector's state at the start leaves unfreed.
    gc.collect()
    gc.disable()
    with redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["ring", *flags, "--genus", "200", "relations"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
    return code, sink.longest, peak


def test_ring_relations_are_written_one_at_a_time():
    # Holding every relation's text (and two more copies of it) before printing
    # peaked at over 800 times the longest line here.
    code, longest, peak = _traced_relations()
    assert code == 0 and longest > 9000
    assert peak <= 20 * longest


def test_ring_json_relations_are_written_one_at_a_time():
    # The relations array is written entry by entry: building the whole
    # json.dumps text first peaked at several times every relation's text.
    code, longest, peak = _traced_relations("--json")
    assert code == 0 and longest > 9000
    assert peak <= 20 * longest


@pytest.mark.parametrize("g", [1, 2, 3, 8])
def test_ring_json_relations_are_the_indented_dump(capsys, g):
    # Written one entry at a time, the bytes are still json.dumps(payload, indent=2).
    ctx = make_context(g)
    relations = [{"d_grade": l, "polynomial": format_polynomial(ctx.relation(l))} for l in ctx.relation_grades]
    payload = {"command": "ring", "action": "relations", "genus": g, "relations": relations}
    assert run(capsys, ["ring", "--genus", str(g), "--json", "relations"]) == (0, json.dumps(payload, indent=2) + "\n", "")
    assert run(capsys, ["ring", "--genus", str(g), "--json", "--quiet", "relations"]) == (0, "", "")


# ------------------------------------------------------------------ coeffs


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, ["coeffs", "--genus", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [
        {"a": 2, "b": 0, "c": 0, "alpha": "1/2", "eta": "1/2"},
        {"a": 1, "b": 1, "c": 0, "alpha": "1/8", "eta": "-1/12"},
        {"a": 0, "b": 2, "c": 0, "alpha": "7/1920", "eta": "-1/240"},
        {"a": 0, "b": 0, "c": 1, "alpha": "1/24", "eta": "1/24"},
    ]


def test_coeffs_single_table_text(capsys):
    code, out, _ = run(capsys, ["coeffs", "--genus", "1", "--table", "alpha"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["a", "b", "c", "alpha"]
    assert lines[1].split() == ["1", "0", "0", "1"]
    assert lines[2].split() == ["0", "1", "0", "1/24"]
    assert "eta" not in out


# ------------------------------------------------------------------ dr


def test_dr_latex(capsys):
    code, out, _ = run(capsys, ["dr", "--genus", "1", "--weights", "1,-1", "--format", "latex"])
    assert code == 0
    assert out == (
        r"\frac{1}{2} K_{1} + \frac{1}{2} K_{2} - \frac{1}{12} \delta_{irr}"
        r" + \delta_{0}^{\{1,2\}}" + "\n"
    )


def test_dr_json_and_compact_type(capsys):
    code, out, _ = run(capsys, ["dr", "--genus", "2", "--weights", "1,-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 2 and payload["codim"] == 2
    kinds = {s["kind"] for t in payload["terms"] for s in t["symbols"]}
    assert "delta_irr" in kinds and "xi" in kinds

    code, out, _ = run(capsys, ["dr", "--genus", "2", "--weights", "1,-1", "--compact-type"])
    assert code == 0
    payload = json.loads(out)
    kinds = {s["kind"] for t in payload["terms"] for s in t["symbols"]}
    assert kinds <= {"K", "delta"}


def test_dr_writes_its_text_in_slices(capsys, monkeypatch):
    # The 1.6 MB class spans two slices; the bytes are those of one print.
    import io
    import sys

    from chowkit.dr import dr_class, serialize

    argv = ["dr", "--genus", "3", "--weights=2,1,-1,-2"]
    expected = serialize(dr_class(3, (2, 1, -1, -2))) + "\n"
    code, out, _ = run(capsys, argv)
    assert (code, out) == (0, expected)

    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(argv) == 0
    assert sys.stdout.getvalue() == expected
    assert len(writes) > 2 and max(writes) <= 1 << 20


def test_dr_prints_past_the_digit_limit(capsys):
    # Exited 2 with CPython's int-to-string digit limit as its message once a
    # coefficient had more than 4,300 digits, in both formats.
    import sys

    from chowkit.dr import deserialize, dr_class, serialize

    d = 10**2500 - 1
    weights = f"--weights={'9' * 2500},-{'9' * 2500}"
    code, out, err = run(capsys, ["dr", "--genus", "1", weights])
    assert (code, err) == (0, "")
    cls = deserialize(out)
    assert cls == dr_class(1, (d, -d))
    assert serialize(cls) + "\n" == out
    code, out, err = run(capsys, ["dr", "--genus", "1", weights, "--format", "latex"])
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        square = str(d * d)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(square) > limit
    half = rf"\frac{{{square}}}{{2}}"
    assert out == rf"{half} K_{{1}} + {half} K_{{2}} - \frac{{1}}{{12}} \delta_{{irr}} + {square} \delta_{{0}}^{{\{{1,2\}}}}" + "\n"


def test_dr_rejects_bad_weights(capsys):
    code, _, err = run(capsys, ["dr", "--genus", "2", "--weights", "1,2"])
    assert code == 2
    assert "sum to zero" in err
    code, _, err = run(capsys, ["dr", "--genus", "2", "--weights", "1,x"])
    assert code == 2


def test_dr_quiet_checks_the_weights_without_walking(capsys, monkeypatch):
    from chowkit import dr

    def walk(*args, **kwargs):
        raise AssertionError("dr --quiet walked the class")

    monkeypatch.setattr(dr, "_walk", walk)
    assert run(capsys, ["dr", "--genus", "10", "--weights", "1,-1", "--quiet"]) == (0, "", "")
    code, out, err = run(capsys, ["dr", "--genus", "2", "--weights", "1,2", "--quiet"])
    assert (code, out) == (2, "")
    assert "sum to zero" in err


def test_memory_error_is_exit_2_with_one_line(capsys, monkeypatch):
    from chowkit import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_dr", exhausted)
    code, out, err = run(capsys, ["dr", "--genus", "2", "--weights", "1,-1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    # Memory that runs out while the output is written, after some of it: what
    # was written stays, and the exit is the same.
    from chowkit.ring import RingContext

    gram = RingContext.pairing_gram

    def exhausted_at_k2(self, k):
        if k == 2:
            raise MemoryError
        return gram(self, k)

    monkeypatch.setattr(RingContext, "pairing_gram", exhausted_at_k2)
    code, out, err = run(capsys, ["ring", "--genus", "12", "pairing"])
    assert code == 2 and out.startswith("k=0: determinant ") and "k=1: determinant " in out
    assert err.startswith("error: out of memory") and err.count("\n") == 1 and "Traceback" not in err


def test_quiet_computes_only_what_the_exit_code_needs(capsys, monkeypatch):
    from chowkit import cli
    from chowkit.ring import RingContext

    def computed(*args):
        raise AssertionError("--quiet computed the output")

    for name in ("dim_graded", "pairing_gram", "pairing_determinant", "relation"):
        monkeypatch.setattr(RingContext, name, computed)
    monkeypatch.setattr(cli, "coefficient_table", computed)
    for action in ("dims", "pairing", "relations"):
        for flags in ([], ["--json"]):
            assert run(capsys, ["ring", "--genus", "40", action, "--quiet", *flags]) == (0, "", "")
            assert run(capsys, ["coeffs", "--genus", "300", "--quiet", *flags]) == (0, "", "")
    # ring reduce still parses, and verify still runs its checks.
    code, out, err = run(capsys, ["ring", "--genus", "3", "reduce", "P+", "--quiet"])
    assert (code, out) == (2, "") and "cannot parse" in err

    def failing(genus):
        return VerificationReport(name="main_identity", genus=genus, holds=False, residual=Polynomial.variable(RING_VARS, "P"))

    monkeypatch.setattr(cli, "verify_main", failing)
    assert run(capsys, ["verify", "--genus", "2", "--which", "main", "--quiet"]) == (1, "", "")


@pytest.mark.parametrize(
    "g, weights, compact, mode, starts",
    [
        # The zero class: with every weight 0, compact type has no symbol.
        (2, (0, 0), True, "json", json.dumps({"g": 2, "n": 2, "weights": [0, 0], "codim": 0, "terms": []}, indent=2) + "\n"),
        (2, (0, 0), True, "latex", "0\n"),
        (2, (2, -1, -1), False, "latex", "K_{1} K_{2} "),  # a first coefficient of 1
        (1, (0, 0), False, "latex", r"-\frac{1}{12} "),  # a first coefficient below 0
        (3, (2, 1, -1, -2), False, "json", "{"),
        (3, (2, 1, -1, -2), True, "latex", r"\frac{"),
    ],
)
def test_dr_writes_what_serialize_returns_in_batches(capsys, monkeypatch, g, weights, compact, mode, starts):
    # Small writes put batch boundaries inside terms, between a coefficient and its symbols.
    import io

    from chowkit import cli
    from chowkit.dr import _NEXT_TERM, dr_class, serialize, specialize_compact_type

    cls = dr_class(g, weights)
    expected = serialize(specialize_compact_type(cls) if compact else cls, mode) + "\n"
    assert expected.startswith(starts)
    argv = ["dr", "--genus", str(g), "--weights=" + ",".join(map(str, weights)), "--format", mode]
    argv += ["--compact-type"] if compact else []
    assert run(capsys, argv) == (0, expected, "")

    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(len(text))
            return super().write(text)

    monkeypatch.setattr(cli, "_WRITE_SIZE", 2000)
    monkeypatch.setattr(sys, "stdout", Recording())
    assert main(argv) == 0
    assert sys.stdout.getvalue() == expected
    assert max(writes) <= 1 << 20
    if len(expected) > 100_000:
        ends = [sum(writes[: i + 1]) for i in range(len(writes) - 1)]
        assert len(ends) > 20
        if mode == "json":
            assert any(not expected.startswith(_NEXT_TERM, end) for end in ends)


def test_dr_runs_in_bounded_memory():
    # The genus-10 compact-type class is 249 MB of JSON; the whole text once
    # ended in a MemoryError traceback and exit 1 under this limit.  The
    # genus-40 pairing (99 MB of JSON) exited 2 out of memory when its text was
    # held whole, and the genus-10^6 dims (46 MB) peaked at 349 MB.
    resource = pytest.importorskip("resource")
    import subprocess

    limit = 256 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for argv in (
        ["dr", "--genus", "10", "--weights", "1,-1", "--compact-type"],
        ["ring", "--genus", "40", "--json", "pairing"],
        ["ring", "--genus", "1000000", "dims"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "chowkit", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            preexec_fn=cap,
            timeout=120,
        )
        assert (argv, proc.returncode, proc.stderr) == (argv, 0, b"")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ring", "--genus", "\u0663", "dims"], "argument --genus: expected an integer"),
        (["dr", "--genus", "1", "--weights", "\u0661,-\u0661", "--format", "latex"], "argument --weights"),
        (["dr", "--genus", "1", "--weights", "1_0,-1_0"], "argument --weights"),
    ],
    ids=["arabic-indic genus", "arabic-indic weights", "underscores"],
)
def test_integers_on_the_command_line_are_ascii(capsys, argv, message):
    # int() reads other scripts' digits and underscores; the CLI does not.
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_integers_on_the_command_line_may_carry_spaces_and_a_sign(capsys):
    expected = run(capsys, ["dr", "--genus", "1", "--weights=1,-1"])
    assert run(capsys, ["dr", "--genus", " +1 ", "--weights", " 1, -1"]) == expected


# ------------------------------------------------------------------ wiring


def test_no_subcommand_is_usage_error(capsys):
    assert run(capsys, [])[0] == 2


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "chowkit" in out


PARSER_REUSE = [
    ["ring", "--genus", "0", "dims"],
    ["verify", "--genus", "3", "--quiet"],
    ["ring", "--genus", "3", "--json", "dims"],
    ["ring", "--genus", "3", "reduce", "--", "-T1"],
    ["dr", "--genus", "1", "--weights", "-1,1", "--format", "latex"],
    ["--help"],
]


def test_one_parser_serves_every_call(capsys):
    # The parser is built once per process; no call may leave state in it.
    from chowkit.cli import _build_parser

    assert _build_parser() is _build_parser()
    alone = []
    for argv in PARSER_REUSE:
        _build_parser.cache_clear()
        alone.append(run(capsys, argv)[:2])
    assert [code for code, _ in alone] == [2, 0, 0, 0, 0, 0]
    _build_parser.cache_clear()
    parser = _build_parser()
    assert [run(capsys, argv)[:2] for argv in PARSER_REUSE] == alone
    assert _build_parser() is parser


def test_unknown_choice_is_usage_error(capsys):
    code, _, _ = run(capsys, ["ring", "--genus", "2", "explode"])
    assert code == 2


LEADING_MINUS = [
    (["ring", "--genus", "3", "reduce", "-1*T1^2"], ["ring", "--genus", "3", "reduce", "--", "-1*T1^2"]),
    (["ring", "--genus", "3", "reduce", "-T1", "--json"], ["ring", "--genus", "3", "--json", "reduce", "--", "-T1"]),
    (["ring", "--genus", "3", "reduce", "--json", "-T1"], ["ring", "--genus", "3", "--json", "reduce", "--", "-T1"]),
    (["dr", "--genus", "1", "--weights", "-1,1", "--format", "latex"], ["dr", "--genus", "1", "--weights=-1,1", "--format", "latex"]),
    (["dr", "--genus", "1", "--weights", "1,-1"], ["dr", "--genus", "1", "--weights=1,-1"]),
]


@pytest.mark.parametrize("argv, same_as", LEADING_MINUS, ids=[" ".join(argv) for argv, _ in LEADING_MINUS])
def test_values_may_start_with_a_minus_sign(capsys, argv, same_as):
    expected = run(capsys, same_as)
    assert expected[0] == 0 and expected[1]
    assert run(capsys, argv) == expected


UNKNOWN_ARGUMENTS = [
    (["ring", "--genus", "3", "dims", "-T1"], "unrecognized arguments: -T1"),
    # Only reduce reads an expression; the other actions ignored one and exited 0.
    (["ring", "--genus", "3", "dims", "T1"], "ring dims takes no expression, got 'T1'"),
    (["ring", "--genus", "3", "pairing", "xi"], "ring pairing takes no expression, got 'xi'"),
    (["ring", "--genus", "3", "--json", "relations", "P^2"], "ring relations takes no expression, got 'P^2'"),
    (["ring", "--genus", "3", "reduce", "P^2", "-T1"], "unrecognized arguments: -T1"),
    (["ring", "--genus", "3", "reduce", "-T1", "-T2"], "unrecognized arguments: -T1 -T2"),
    (["verify", "--genus", "2", "--bogus"], "unrecognized arguments: --bogus"),
    (["dr", "--genus", "1", "--weights=1,-1", "--json"], "unrecognized arguments: --json"),
    (["dr", "--genus", "1", "--weights"], "expected one argument"),
]


@pytest.mark.parametrize("argv, message", UNKNOWN_ARGUMENTS, ids=[" ".join(argv) for argv, _ in UNKNOWN_ARGUMENTS])
def test_unknown_arguments_stay_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


# One small command per subcommand, for flags that must change what it does.
FLAG_PROBES = {
    "verify": ["verify", "--genus", "1", "--which", "main"],
    "ring": ["ring", "--genus", "2", "dims"],
    "coeffs": ["coeffs", "--genus", "2"],
    "dr": ["dr", "--genus", "1", "--weights=1,-1"],
}


def test_every_flag_changes_the_output(capsys):
    # A store_true flag that no command reads would be accepted and ignored.
    import argparse

    from chowkit.cli import _build_parser

    (subparsers,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(FLAG_PROBES)
    checked = []
    for name, subparser in subparsers.choices.items():
        plain = run(capsys, FLAG_PROBES[name])
        for action in subparser._actions:
            if isinstance(action, argparse._StoreTrueAction):
                flag = action.option_strings[-1]
                flagged = run(capsys, FLAG_PROBES[name] + [flag])
                assert flagged[:2] != plain[:2], f"{name} {flag} changes nothing"
                checked.append(f"{name} {flag}")
    assert "dr --compact-type" in checked and "verify --json" in checked


GOLDEN_STDOUT_SHA256 = {
    ("verify", "--max-genus", "5", "--json"): "f3592c23d1b833fa2360c045b469443e9c3bda30ce0ceed342b61f425ce83e59",
    ("verify", "--max-genus", "6"): "1bf19de134ffc50714aea9c7bfa07a4200ba1915f7bcd0ee7e93a22fa63a52de",
    ("verify", "--genus", "20", "--json"): "5b2366cddfc1531dbf42a01ff02c8130811626176b97c1684cbc1a340dd05499",
    ("verify", "--genus", "25", "--json"): "2a996fb241c6a6c11e7e81cfb15beabac1c88207d112d679ddacfb8d8ff3d192",
    # Past g = 25 the walks carry coefficients of hundreds of digits.
    ("verify", "--genus", "70", "--json"): "2f31cd677cb3ab45052ad3001e0d5b426a566086826b5ddfdbf754f3b3d59b48",
    ("ring", "--genus", "6", "pairing"): "b3a2af28372edbbf199a81737be5ab77ce0c077713393e662e7597c8ef1ab4a2",
    ("ring", "--genus", "8", "pairing"): "d4746f82318f62ac98f814f5692d662404b477cd41512582fd216b9d0899060a",
    ("ring", "--genus", "10", "pairing"): "ccbf76cdc63d80d5718c5040f0162fb05559d041bc34dc426f54c3035da05634",
    ("ring", "--genus", "8", "--json", "pairing"): "41a5f935f83fc40a8e7c4e50b1366d373b991cfa3d3f8f11423bc68b69bd3ac1",
    ("ring", "--genus", "12", "pairing"): "5b596c2dec63e6707329d114e0050371a2b8b3e99a2c30ad6aeac2abba243362",
    ("ring", "--genus", "16", "pairing"): "8e7c50fc3b931fa036aabfa7aed992788dda61f021d8bb5607e27527794c91af",
    ("ring", "--genus", "12", "dims"): "f9e9979884efa537f55a23fb1131f70c469f412a7e88f41eaa09f7a282e544a4",
    ("ring", "--genus", "24", "dims"): "ae40202dfeef54d3651e533eab7c5bb398bb8bed9b6734203cf6d28a7f1d5d13",
    ("ring", "--genus", "9", "dims"): "da2dd512487812d9bcb206f58233dab672037ff05e6304ea5c2cac8b2576e3bb",
    ("ring", "--genus", "9", "--json", "dims"): "65c50e43a41318d82ba25e020540130fcb62b1ce81363d54fc5cf8d2271e5c2e",
    ("ring", "--genus", "7", "relations"): "1c3950d4a7988d79fcf6c6a170a72dbfc8ed8595b7fed410ffba2d43a81020fa",
    ("ring", "--genus", "7", "--json", "relations"): "3a9d9403d3a275a6da8971950084b4339f19539a27202d8167747c8cb186d926",
    ("ring", "--genus", "4", "reduce", "(xi+T1-P+2*T2)^7"): "3f17eb1c833e262dade44c42d33631bd27704841d5f09571f1f7235b4809f971",
    ("ring", "--genus", "3", "--json", "reduce", "xi*P^4"): "c342eba1af818b0e9aa63516889c2692f91c99c07671e0936941600cb5aa212f",
    # Expressions and weights that start with "-".
    ("ring", "--genus", "3", "reduce", "-1*T1^2"): "3ef8836c27a5bd397b4d0d1a3a835cb2a674f37e0133f607af729c36e08d94ae",
    ("ring", "--genus", "3", "reduce", "--", "-T1"): "4ccbb6dbd0e84c90d2abf13af62eb355a1574d7e3e572f9e6ac0539fe68ff5d4",
    ("dr", "--genus", "1", "--weights", "-1,1", "--format", "latex"): "214bec79becad467d0af408ef4b5d9249048bd6b2e66c71e4d2fbd42d3c1ed55",
    ("coeffs", "--genus", "6"): "e9906c5ee1daeb468199450a3846deb366350961d6060e3a906403c7f836d097",
    ("coeffs", "--genus", "6", "--json"): "535b733a0062016ef59896ce02d975126c2cbd9d99e614b150dd09b2093cf3f9",
    ("coeffs", "--genus", "5", "--table", "eta"): "48d468db421b8a93344fc90b73ad8b2ad3cf4594932137f5f7c09d48061776fa",
    ("coeffs", "--genus", "40", "--json"): "0122037fd3ada525e272c9e59c15e610363d98c81a5adf514b8622e0483fc159",
    ("dr", "--genus", "3", "--weights=2,1,-3", "--format", "latex"): "7a106dbb07584048e96bf94238cbf615eaaf6fcd894e34eb75a25d6eb1dc9bfe",
    ("dr", "--genus", "3", "--weights=2,1,-3", "--format", "json"): "c7793ed7c162cd7a61c0974fa3e7cceda1dcc01f79398d8e72fc10e36e470356",
    # The 94,212-term class, where term order and fragment rendering matter most.
    ("dr", "--genus", "4", "--weights=1,1,1,-3", "--format", "latex"): "0193ffe443370b6bf6c04b73328a78f1e16d45214e1fb58a7338a3835bff6b78",
    ("dr", "--genus", "4", "--weights=1,1,1,-3", "--format", "json"): "8cdacb95f58cd439212a217cdd7e1341ec645f2e80d4d3b439ab5b97abc36ce9",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(capsys, argv):
    import hashlib

    code, out, _ = run(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "chowkit", "ring", "--genus", "2", "reduce", "P^2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "-2*T1*T2\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly_by_sigpipe():
    # `| head` printed a BrokenPipeError traceback and exited 1, the code of a
    # failed verification.  The output (5.5 MB) outgrows any pipe buffer.
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "chowkit", "ring", "--genus", "30", "pairing"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"k=0: determinant ")
    proc.stdout.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert proc.stderr.read() == b""
    proc.stderr.close()


# ------------------------------------------------------------------ traced layers

TRACED_RUN = """
import io, json, sys
from contextlib import redirect_stdout
sys.path[:0] = sys.argv[1:3]
from chowkit import cli
from tracer import LAYERS, Tracer, install
tracer = Tracer()
install(tracer)
tracer.active = True
codes = []
with redirect_stdout(io.StringIO()):
    for argv in (
        ["ring", "--genus", "4", "dims"],
        ["ring", "--genus", "4", "pairing"],
        ["ring", "--genus", "4", "reduce", "(xi+T1)^5"],
        ["ring", "--genus", "4", "reduce", "(T1+2*P+3*T2)^6"],
        ["verify", "--genus", "4"],
        ["dr", "--genus", "2", "--weights=2,-1,-1"],
        ["dr", "--genus", "2", "--weights=2,-1,-1", "--format", "latex"],
        ["dr", "--genus", "2", "--weights=2,-1,-1", "--compact-type"],
        ["coeffs", "--genus", "3"],
    ):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "calls": {layer: tracer.calls.get(layer, 0) for layer in LAYERS}}))
"""


def test_benchmark_tracer_sees_every_ring_layer():
    # The benchmark's tracer wraps functions by name, so a renamed or
    # bypassed layer silently reports 0 calls.  It patches modules in place,
    # hence the subprocess.
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 9
    calls = result["calls"]
    # No CLI command reaches these: only express_in_invariants calls solve,
    # and so rref, as the ring fills its tables by a recurrence with no
    # elimination; dr_class expands over integer symbol ids, never through
    # FormalClass arithmetic, and ring pairing prints pairing_gram's
    # integers and the closed-form pairing_determinant, so it calls neither
    # pairing_matrix nor determinant (the tests' oracle for the closed
    # form); pairing_gram reads phi as _gram's Hankel entries, not through
    # socle_pushforward.
    # No CLI path substitutes: the restrictions and the involution are term
    # maps, shifts are exp(n*D), and the eta side is the table itself.
    # verify checks the main identity as the triangular normal form plus one
    # derivation, so it never assembles the right-hand side.
    # The CLI renders dr output through dr_text, with no class to build, specialize or serialize.
    unreachable = {
        "zero_section.assemble",
        "linalg.rref",
        "linalg.solve",
        "linalg.determinant",
        "dr.mul",
        "dr.pow",
        "dr.add",
        "dr.dr_class",
        "dr.compact_type",
        "dr.serialize_json",
        "dr.serialize_latex",
        "ring.pairing_matrix",
        "ring.socle_pushforward",
        "poly.substitute",
    }
    assert unreachable <= set(calls)
    assert [layer for layer in calls if layer not in unreachable and not calls[layer]] == []


# ------------------------------------------------------------------ fuzzing

_ATOMS = st.one_of(
    st.sampled_from(["xi", "T1", "P", "T2", "Theta", "0", "1", "2", "1/2", "3/0", "007"]),
    st.integers(0, 10**12).map(str),
    # Digit runs around the bit bound (about 3,000 digits) and past
    # CPython's 4,300-digit limit on reading an int.
    st.integers(2900, 6000).map(lambda n: "9" * n),
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map("".join),
        st.tuples(inner, st.sampled_from(["0", "1", "7", "5000", "99999999", "1" + "0" * 40])).map(
            lambda t: f"({t[0]})^{t[1]}"
        ),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(st.integers(90, 110), inner).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
    ),
    max_leaves=8,
)


@st.composite
def _with_stray_character(draw):
    text = draw(_EXPRESSIONS)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(list("()^*/+-.!é²٣ \t"))) + text[at:]
    return text


@settings(derandomize=True, deadline=None, database=None, max_examples=120)
@given(genus=st.integers(1, 3), expr=_with_stray_character())
def test_ring_reduce_fuzz_keeps_the_exit_code_contract(genus, expr):
    import io
    import time
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        # "--" hands expressions that start with "-" to the parser, not argparse.
        code = main(["ring", "--genus", str(genus), "reduce", "--", expr])
    assert time.perf_counter() - start < 10
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert "(at position" in err.getvalue()

"""Parser and command-line behavior."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import pytest

from feuler import cli, frobenius, suite
from feuler.cli import (
    MAX_BITS,
    MAX_CELL_N,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_INDEX,
    MAX_ORDER,
    MAX_OUT_BITS,
    MAX_ROW,
    PolyParseError,
    latex_lrat,
    latex_xpoly,
    main,
    parse_poly_expr,
)
from feuler.scalar import LAMBDA, ONE, LambdaRat, lrat
from feuler.xpoly import X, XPoly

from genutil import rand_xpoly


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parse_basics():
    assert parse_poly_expr("x") == X
    assert parse_poly_expr("L") == XPoly.const(LAMBDA)
    assert parse_poly_expr("3/2") == XPoly.const(Fraction(3, 2))
    assert parse_poly_expr("x^2 - 3*x + 2") == X**2 - 3 * X + 2
    assert parse_poly_expr("(x + 1)^3") == (X + 1) ** 3
    assert parse_poly_expr("2*x*L") == XPoly([0, 2 * lrat(LAMBDA)])


def test_parse_rational_is_greedy():
    # '3/2^2' reads the rational first, then the power
    assert parse_poly_expr("3/2^2") == XPoly.const(Fraction(9, 4))
    # a second '/' is division, not part of the literal
    assert parse_poly_expr("3/2/3") == XPoly.const(Fraction(1, 2))
    assert parse_poly_expr("x/2") == X * Fraction(1, 2)


def test_parse_unary_minus():
    # '-' applies to the base, so -x^2 squares the negated base
    assert parse_poly_expr("-x^2") == X**2
    assert parse_poly_expr("-(x^2)") == -(X**2)
    assert parse_poly_expr("-3/2") == XPoly.const(Fraction(-3, 2))
    assert parse_poly_expr("--x") == X
    assert parse_poly_expr("2 - -3") == XPoly.const(5)


def test_parse_division_guards():
    with pytest.raises(PolyParseError) as exc:
        parse_poly_expr("1/x")
    assert "polynomial in x" in str(exc.value)
    with pytest.raises(PolyParseError):
        parse_poly_expr("x / (x + 1)")
    with pytest.raises(PolyParseError) as exc:
        parse_poly_expr("x / (L - L)")
    assert "division by zero" in str(exc.value)
    with pytest.raises(PolyParseError):
        parse_poly_expr("1/0")
    # dividing by an x-free scalar is fine
    assert parse_poly_expr("x / (1 - L)") == X * (ONE - LAMBDA).inverse()


def test_parse_error_positions():
    cases = [
        ("x + ", 4),
        ("x ^ x", 4),
        ("(x + 1", 6),
        ("x $ 2", 2),
        ("x + ) ", 4),
        ("1/x", 1),
        ("x +\t", 4),
        ("x\x0b$", 2),
        ("\xa0x\xa0+", 4),
        ("x\u2028^\u2028x", 4),
        ("x + \ud800", 4),
        ("(x + 1  ", 8),
    ]
    for text, pos in cases:
        with pytest.raises(PolyParseError) as exc:
            parse_poly_expr(text)
        assert exc.value.pos == pos, text
        assert f"position {pos}" in str(exc.value)


def test_parse_time_is_linear_in_trailing_whitespace():
    # a scan that restarted at each whitespace character would take minutes here
    text = "x" + " " * 100_000
    t0 = time.perf_counter()
    assert parse_poly_expr(text) == X
    assert time.perf_counter() - t0 < 2.0


def test_parse_trailing_garbage():
    with pytest.raises(PolyParseError):
        parse_poly_expr("x 2")
    with pytest.raises(PolyParseError):
        parse_poly_expr("(x)(x)")


def test_print_parse_round_trip_100():
    # canonical output must parse back to the same value
    rng = random.Random(4021)
    seen = 0
    while seen < 100:
        p = rand_xpoly(rng, max_deg=6)
        if p.is_zero:
            continue  # printer has no zero-polynomial grammar form
        seen += 1
        assert parse_poly_expr(str(p)) == p


def test_fe_poly_strings_parse_back():
    for r in range(-3, 4):
        for n in range(6):
            p = frobenius.fe_poly(n, r)
            assert parse_poly_expr(str(p)) == p


def test_cli_numbers_plain_and_formats():
    code, out, _ = run_cli("numbers", "--n-max", "2")
    assert code == 0
    assert out.splitlines() == [
        "0\t1",
        "1\t(-1) / (1 - 1*L)",
        "2\t(1 + 1*L) / (1 - 2*L + 1*L^2)",
    ]
    code, out, _ = run_cli("numbers", "--n-max", "1", "--format", "csv")
    assert code == 0
    assert out == "n,value\n0,1\n1,(-1) / (1 - 1*L)\n"
    code, out, _ = run_cli("numbers", "--n-max", "1", "--format", "json")
    assert json.loads(out) == {
        "order": 1,
        "values": [
            {"n": 0, "value": "1"},
            {"n": 1, "value": "(-1) / (1 - 1*L)"},
        ],
    }
    code, out, _ = run_cli("numbers", "--n-max", "1", "--format", "latex")
    assert "\\frac{-1}{1 - \\lambda}" in out


def test_cli_numbers_lambda_point():
    # values at L = -1 are 1, -1/2, 0, 1/4
    code, out, _ = run_cli("numbers", "--n-max", "3", "--lambda", "-1")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-1/2", "2\t0", "3\t1/4"]


def test_cli_poly_variants():
    code, out, _ = run_cli("poly", "--n", "1")
    assert code == 0
    assert out == "1*x^1 + (-1/(1 - 1*L))*x^0\n"
    code, out, _ = run_cli("poly", "--n", "2", "--order", "-1")
    assert parse_poly_expr(out.strip()) == frobenius.fe_poly(2, -1)
    code, out, _ = run_cli("poly", "--n", "2", "--lambda", "3")
    assert out == "1*x^2 + 1*x^1 + 1*x^0\n"
    code, out, _ = run_cli("poly", "--n", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["order"] == 1
    assert parse_poly_expr(obj["poly"]) == frobenius.fe_poly(2)
    code, out, _ = run_cli("poly", "--n", "2", "--format", "latex")
    assert "\\lambda" in out and "x^{2}" in out


def test_cli_convert_round_trip():
    expr = "x^3 - 2*x + 1/3"
    p = parse_poly_expr(expr)
    for order in (0, 1, 3):
        code, out, _ = run_cli("convert", "--poly", expr,
                               "--order", str(order), "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == order
        assert parse_poly_expr(obj["poly"]) == p
        total = XPoly.const(0)
        for item in obj["coefficients"]:
            c = parse_poly_expr(item["value"]).coeff(0)
            total = total + frobenius.fe_poly(item["k"], order) * c
        assert total == p


def test_cli_convert_plain_and_lambda():
    code, out, _ = run_cli("convert", "--poly", "x^2 - 3/2*x + 1/2")
    assert code == 0
    assert out.splitlines() == [
        "0\t(-1/2*L) / (1 - 1*L)",
        "1\t(1/2 + 3/2*L) / (1 - 1*L)",
        "2\t1",
    ]
    code, out, _ = run_cli("convert", "--poly", "x^2 - 3/2*x + 1/2",
                           "--lambda", "-1")
    assert out.splitlines() == ["0\t1/4", "1\t-1/2", "2\t1"]


def test_cli_convert_parse_error():
    code, out, err = run_cli("convert", "--poly", "x +")
    assert code == 2
    assert out == ""
    assert "position 3" in err


# products of powers under the cap whose degree in L is past it: each ran
# for seconds to minutes before the product was bounded
PAST_MAX_DEGREE = ("*".join(["(2-L)^999"] * 4), "1/" + "/".join(["(2-L)^999"] * 3))


@pytest.mark.parametrize("poly, message", [
    ("(" * 300 + "x" + ")" * 300, f"nesting deeper than {MAX_DEPTH} levels at position {MAX_DEPTH}"),
    ("x+" + "-" * 2000 + "x", f"nesting deeper than {MAX_DEPTH} levels at position {MAX_DEPTH + 2}"),
    ("x^200000", f"power of degree above {MAX_DEGREE} at position 2"),
    ("(x^2 + L)^501", f"power of degree above {MAX_DEGREE} at position 10"),
    ("(1 + L^3)^400", f"power of degree above {MAX_DEGREE} at position 10"),
    ("1" * 5000 + "*x", "unreadable integer at position 0"),
    (PAST_MAX_DEGREE[0], f"product of degree above {MAX_DEGREE} at position 9"),
    (PAST_MAX_DEGREE[1], f"product of degree above {MAX_DEGREE} at position 11"),
], ids=["300-parentheses", "2000-unary-minus", "exponent", "degree-in-x", "degree-in-L",
        "5000-digits", "product-degree-in-L", "quotient-degree-in-L"])
def test_cli_convert_limits_exit_2(poly, message):
    # a fresh interpreter, so that the recursion limit is the one a user
    # meets; each used to end in a traceback with exit 1 or to run for minutes
    proc = subprocess.run([sys.executable, "-m", "feuler", "convert", "--poly", poly],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_cli_work_limits_are_inclusive(monkeypatch):
    # the caps lowered, so that a value at the cap is cheap to run
    monkeypatch.setattr(cli, "MAX_DEGREE", 3)
    monkeypatch.setattr(cli, "MAX_INDEX", 2)
    monkeypatch.setattr(cli, "MAX_ROW", 2)
    monkeypatch.setattr(cli, "MAX_CELL_N", 2)
    monkeypatch.setattr(cli, "MAX_ORDER", 3)
    assert run_cli("convert", "--poly", "x", "--order", "3")[0] == 0
    assert run_cli("convert", "--poly", "x", "--order", "4")[:2] == (2, "")
    assert run_cli("verify", "--identity", "thm1_roundtrip", "--index", "2")[0] == 0
    assert run_cli("verify", "--identity", "thm1_roundtrip", "--index", "3")[:2] == (2, "")
    assert run_cli("numbers", "--n-max", "2")[0] == 0
    assert run_cli("numbers", "--n-max", "3")[:2] == (2, "")
    assert run_cli("poly", "--n", "2")[0] == 0
    assert run_cli("poly", "--n", "3")[:2] == (2, "")
    for order in ("3", "-3"):
        assert run_cli("numbers", "--n-max", "2", "--order", order)[0] == 0
        assert run_cli("poly", "--n", "2", "--order", order)[0] == 0
    for order in ("4", "-4"):
        assert run_cli("numbers", "--n-max", "2", "--order", order)[:2] == (2, "")
        assert run_cli("poly", "--n", "2", "--order", order)[:2] == (2, "")
    assert run_cli("stirling", "--n", "3", "--k", "3")[0] == 0
    assert run_cli("stirling", "--n", "4", "--k", "2")[:2] == (2, "")
    assert run_cli("stirling", "--n", "3", "--k", "4")[:2] == (2, "")
    for cell in ("thm2 --n 2 --r -3 --s 3", "eq15_duality --n 2 --r 3 --k 3"):
        assert run_cli("verify", "--identity", *cell.split())[0] == 0
    for cell in ("thm2 --n 3 --r 1 --s 1", "thm2 --n 1 --r 4 --s 1", "thm2 --n 1 --r 1 --s 4",
                 "eq12_ladder --n 2 --r -4", "eq15_duality --n 2 --r 1 --k 4"):
        assert run_cli("verify", "--identity", *cell.split())[:2] == (2, "")


def test_cli_jobs_cap_is_inclusive(monkeypatch):
    # the process pool starts all its workers at once, so the cap is only
    # ever tried lowered: a --jobs past it must not reach the pool
    monkeypatch.setattr(cli, "MAX_JOBS", 2)
    grid = ("suite", "--n-max", "1", "--r-max", "1", "--s-max", "1")
    assert run_cli(*grid, "--jobs", "2")[0] == 0
    code, out, err = run_cli(*grid, "--jobs", "3")
    assert (code, out) == (2, "")
    assert "--jobs: must be <= 2, got 3" in err


def test_parse_limits_are_inclusive():
    deep = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_poly_expr(deep) == X
    assert parse_poly_expr("-" * MAX_DEPTH + "x") == X
    assert parse_poly_expr("-(" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2)) == X
    with pytest.raises(PolyParseError, match="nesting"):
        parse_poly_expr("(" + deep + ")")
    with pytest.raises(PolyParseError, match="nesting"):
        parse_poly_expr("-" + "(-" * (MAX_DEPTH // 2) + "x" + ")" * (MAX_DEPTH // 2))
    # nesting counts open levels only: a long flat sum is fine
    assert parse_poly_expr(" + ".join(["(x)"] * 3 * MAX_DEPTH)) == 3 * MAX_DEPTH * X
    assert parse_poly_expr(f"L^{MAX_DEGREE}") == XPoly.const(LAMBDA ** MAX_DEGREE)
    assert parse_poly_expr(f"(x^2)^{MAX_DEGREE // 4}") == X ** (MAX_DEGREE // 2)
    assert parse_poly_expr(f"0^{MAX_DEGREE}") == XPoly([])
    for text in (f"L^{MAX_DEGREE + 1}", f"(x^2)^{MAX_DEGREE // 2 + 1}", f"(1/(1 - L))^{MAX_DEGREE + 1}",
                 f"0^{MAX_DEGREE + 1}"):
        with pytest.raises(PolyParseError, match=f"power of degree above {MAX_DEGREE}"):
            parse_poly_expr(text)
    half = MAX_DEGREE // 2
    assert parse_poly_expr(f"x^{half}*x^{MAX_DEGREE - half}") == X ** MAX_DEGREE
    assert parse_poly_expr(f"L^{half}/(1 - L)^{half}*x") == XPoly(
        [0, LAMBDA ** half / (1 - LAMBDA) ** half])
    for text in (f"x^{half}*x^{MAX_DEGREE - half + 1}", f"L^{half}*(1 + L)^{MAX_DEGREE - half + 1}",
                 f"x/(1 - L)^{half}/(2 - L)^{MAX_DEGREE - half + 1}"):
        with pytest.raises(PolyParseError, match=f"product of degree above {MAX_DEGREE}"):
            parse_poly_expr(text)


def test_cli_stirling():
    code, out, _ = run_cli("stirling", "--n", "4", "--k", "2")
    assert code == 0
    assert out == "8 - 1*L\n"
    code, out, _ = run_cli("stirling", "--n", "4", "--k", "2",
                           "--lambda", "1/2")
    assert out == "15/2\n"
    code, out, _ = run_cli("stirling", "--n", "4", "--k", "2",
                           "--format", "latex")
    assert out == "S_{\\lambda}(4,2) = 8 - \\lambda\n"
    code, out, _ = run_cli("stirling", "--n", "4", "--k", "2",
                           "--format", "csv")
    assert out == "n,k,value\n4,2,8 - 1*L\n"
    code, out, _ = run_cli("stirling", "--n", "4", "--k", "2",
                           "--format", "json")
    assert json.loads(out) == {"n": 4, "k": 2, "value": "8 - 1*L"}


def test_cli_lambda_one_rejected():
    for argv in (["numbers", "--lambda", "1"],
                 ["poly", "--n", "2", "--lambda", "2/2"],
                 ["stirling", "--n", "1", "--k", "1", "--lambda", "1"]):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert "lambda = 1" in err


def test_cli_lambda_bad_literal():
    code, _, err = run_cli("numbers", "--lambda", "w")
    assert code == 2
    assert "not a rational" in err


def test_cli_verify_exit_codes():
    code, out, _ = run_cli("verify", "--identity", "thm2",
                           "--n", "3", "--r", "2", "--s", "1")
    assert code == 0
    assert out.startswith("thm2 n=3 r=2 s=1 equal\n")
    # below an identity's least r is a usage error, as for thm5
    for ident, least in (("cor3", 1), ("thm5", 0)):
        assert run_cli("verify", "--identity", ident, "--n", "3", "--r", str(least - 1)) == (
            2, "", f"error: {ident} needs --r >= {least}\n")
    code, _, err = run_cli("verify", "--identity", "eq15_duality", "--n", "2")
    assert code == 2
    assert "--k" in err and "--r" in err


def test_cli_verify_json_matches_cell():
    code, out, _ = run_cli("verify", "--identity", "thm5",
                           "--n", "2", "--r", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    cell = suite.verify_thm5(2, 1)
    assert obj["identity"] == "thm5"
    assert obj["params"] == {"n": 2, "r": 1}
    assert obj["status"] == "equal"
    assert obj["lhs"] == cell.lhs and obj["rhs"] == cell.rhs
    assert list(obj) == ["identity", "params", "status", "lhs", "rhs", "elapsed_us"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cli_verify_prints_the_same_bytes_every_time(fmt):
    # the measured cell time is not printed: it is 0, as in a report
    argv = ("verify", "--identity", "thm2", "--n", "3", "--r", "2", "--s", "1", "--format", fmt)
    first, second = run_cli(*argv), run_cli(*argv)
    assert first[0] == 0 and first == second
    if fmt == "json":
        assert json.loads(first[1])["elapsed_us"] == 0
    else:
        assert first[1].splitlines()[1].endswith(",0")


def test_cli_verify_roundtrip_seeded():
    code, out_a, _ = run_cli("verify", "--identity", "thm1_roundtrip",
                             "--index", "7", "--format", "json")
    assert code == 0
    code, out_b, _ = run_cli("verify", "--identity", "thm1_roundtrip",
                             "--index", "7", "--seed", "99", "--format", "json")
    assert code == 0
    pa, pb = json.loads(out_a)["params"], json.loads(out_b)["params"]
    assert pa["index"] == pb["index"] == 7
    assert (pa["degree"], pa["r"]) != (pb["degree"], pb["r"])


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(a if len(a) < 20 else f"<{len(a)} chars>" for a in argv))
    for argv, message in (
        (("verify", "--identity", "thm1_roundtrip", "--index", "-1"), "needs --index >= 0"),
        (("verify", "--identity", "thm2", "--n", "2", "--r", "1", "--s", "-1"), "needs --s >= 0"),
        (("verify", "--identity", "eq15_duality", "--n", "2", "--k", "-1", "--r", "1"),
         "needs --k >= 0"),
        (("verify", "--identity", "thm5", "--n", "2", "--r", "-1"), "needs --r >= 0"),
        (("verify", "--identity", "thm2", "--n", "-1", "--r", "1", "--s", "1"), "needs --n >= 0"),
        (("suite", "--n-max", "-1"), "--n-max: must be >= 0"),
        (("suite", "--r-max", "-1"), "--r-max: must be >= 0"),
        (("suite", "--jobs", "0"), "--jobs: must be >= 1"),
        (("stirling", "--n", "-1", "--k", "2"), "--n: must be >= 0"),
        (("stirling", "--n", "3", "--k", "-1"), "--k: must be >= 0"),
        (("poly", "--n", "-2"), "--n: must be >= 0"),
        (("convert", "--poly", "x", "--order", "-1"), "--order: must be >= 0"),
        (("convert", "--poly", "1/(1+L)", "--lambda", "-1"), "pole at L = -1"),
        # past the caps on the work of one call, exit 2 at once
        (("convert", "--poly", "x", "--order", str(MAX_DEGREE + 1)),
         f"--order: must be <= {MAX_DEGREE}"),
        (("verify", "--identity", "thm1_roundtrip", "--index", str(MAX_INDEX + 1)),
         f"--index: must be <= {MAX_INDEX}"),
        (("verify", "--identity", "thm1_roundtrip", "--index", "100000000"),
         f"--index: must be <= {MAX_INDEX}"),
        (("numbers", "--n-max", str(MAX_ROW + 1)), f"--n-max: must be <= {MAX_ROW}"),
        (("numbers", "--n-max", "999999"), f"--n-max: must be <= {MAX_ROW}"),
        (("poly", "--n", str(MAX_ROW + 1)), f"--n: must be <= {MAX_ROW}"),
        (("stirling", "--n", str(MAX_DEGREE + 1), "--k", "2"),
         f"--n: must be <= {MAX_DEGREE}"),
        (("stirling", "--n", "3", "--k", str(MAX_DEGREE + 1)),
         f"--k: must be <= {MAX_DEGREE}"),
        (("verify", "--identity", "thm2", "--n", str(MAX_CELL_N + 1), "--r", "2", "--s", "1"),
         f"--n: must be <= {MAX_CELL_N}"),
        (("verify", "--identity", "eq22_ladder", "--n", "999999", "--r", "1"),
         f"--n: must be <= {MAX_CELL_N}"),
        (("verify", "--identity", "thm5", "--n", "3", "--r", str(MAX_DEGREE + 1)),
         f"--r: must be <= {MAX_DEGREE}"),
        (("verify", "--identity", "eq12_ladder", "--n", "3", "--r", str(-MAX_DEGREE - 1)),
         f"--r: must be >= {-MAX_DEGREE}"),
        (("verify", "--identity", "thm2", "--n", "3", "--r", "2", "--s", str(MAX_DEGREE + 1)),
         f"--s: must be <= {MAX_DEGREE}"),
        (("verify", "--identity", "eq15_duality", "--n", "3", "--r", "2", "--k",
          str(MAX_DEGREE + 1)), f"--k: must be <= {MAX_DEGREE}"),
        # a cap holds even where the identity does not read the option
        (("verify", "--identity", "thm2", "--n", "3", "--r", "2", "--s", "1", "--index",
          str(MAX_INDEX + 1)), f"--index: must be <= {MAX_INDEX}"),
        # each used to print an integer past str()'s 4300 digits: a traceback
        # and exit 1, after 29 s of evaluation for the 200-digit lambda
        (("numbers", "--n-max", "10", "--order", "1" + "0" * 500),
         f"--order: must be <= {MAX_ORDER}"),
        (("poly", "--n", "10", "--order", "-1" + "0" * 500), f"--order: must be >= {-MAX_ORDER}"),
        (("stirling", "--n", "1000", "--k", "1000", "--lambda", "10000"),
         f"would print an integer of more than {MAX_OUT_BITS} bits"),
        (("numbers", "--n-max", "400", "--lambda", "7" * 200),
         f"would print an integer of more than {MAX_OUT_BITS} bits"),
        (("numbers", "--n-max", "-1"), "--n-max: must be >= 0"),
        # each used to end in a TypeError traceback, or in JSON for --format
        (("poly", "--n=--"), "'--' is not an option value"),
        (("numbers", "--lambda=--"), "'--' is not an option value"),
        (("numbers", "--format=--"), "'--' is not an option value"),
        (("suite", "--n-max=--"), "'--' is not an option value"),
        # each used to read as 12, 3 and 7: int() takes any Unicode decimal digit,
        # and feuler's integers are the ASCII digits 0-9
        (("convert", "--poly", "\u0661\u0662"), "unexpected character '\u0661' at position 0"),
        (("numbers", "--n-max", "\u0663"), "--n-max: invalid int value"),
        (("suite", "--seed", "\u0667"), "--seed: invalid int value"),
        # --lambda is P/Q in ASCII digits: Fraction() would take the exponent and build
        # 10^100000000 (killed after 30 s), and read the Arabic-Indic digits as 1/3
        (("numbers", "--n-max", "1", "--lambda", "1e100000000"),
         "--lambda: not a rational: '1e100000000'"),
        (("numbers", "--n-max", "1", "--lambda", "\u0661/\u0663"),
         "--lambda: not a rational: '\u0661/\u0663'"),
    )])
def test_cli_out_of_domain_exits_2(argv, message):
    t0 = time.perf_counter()
    code, out, err = run_cli(*argv)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert message in err


def _argv_strategy():
    """argv for every command: grammar expressions nested past MAX_DEPTH and
    powers past MAX_DEGREE, malformed strings, and small, out-of-domain or
    just-past-the-cap numbers, constants past MAX_BITS and products past
    MAX_DEGREE, a 501-digit order, and lambdas whose values print past
    MAX_OUT_BITS, that have too many digits to read, or that Fraction()
    reads and --lambda does not (an exponent, non-ASCII digits).  Numbers under the
    caps stay small, so that every run is cheap: suite's --n-max has no
    cap, --jobs is never drawn past 1 since the pool would start every
    worker, and free-form expressions are at most 8 characters."""
    from hypothesis import strategies as st

    small = st.integers(-3, 6).map(str)
    word = st.sampled_from(["", "x", "1.5", "1/2", "--", "1e3", " 3", "\u0663", "\u00b2"])
    number = st.one_of(small, word)
    lam = st.sampled_from(["1", "-1", "2", "1/2", "-3", "1/0", "x", "0", "7" * 3000,
                           "1/" + "9" * 5000, "1e100000000", "\u0661/\u0663"])
    fmt = st.sampled_from(["plain", "latex", "csv", "json", "xml"])
    exponent = st.one_of(st.integers(0, 3), st.integers(MAX_DEGREE + 1, 10 * MAX_DEGREE))
    atom = st.one_of(st.sampled_from(["x", "L", "0", "(1 - L)", "(x + L)"]),
                     st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9)),
                     st.integers(0, 99).map(str))
    leaf = st.one_of(atom, st.builds("{}^{}".format, atom, exponent))
    expr = st.recursive(leaf, lambda e: st.one_of(
        st.builds("({})".format, e),
        st.builds("-{}".format, e),
        st.builds("{} {} {}".format, e, st.sampled_from("+-*/"), e),
    ), max_leaves=6)
    nested = st.builds(lambda d, e, minus: ("-" * d + e) if minus else "(" * d + e + ")" * d,
                       st.sampled_from([MAX_DEPTH, MAX_DEPTH + 1, 10 * MAX_DEPTH]),
                       expr, st.booleans())
    poly = st.one_of(expr, st.text(alphabet="xL0123456789+-*/^() ", max_size=8),
                     st.text(max_size=8))
    row = st.one_of(number, st.just(str(MAX_ROW + 1)))
    degree = st.one_of(number, st.just(str(MAX_DEGREE + 1)))
    order = st.one_of(number, st.sampled_from([str(MAX_ORDER + 1), "-1" + "0" * 500]))
    convert_options = {"--order": degree, "--lambda": lam, "--format": fmt}

    def command(name, required, optional):
        # each optional flag is passed or left out; --flag=value passes a
        # value that starts with '-' as a value
        flags = st.fixed_dictionaries(required, optional=optional)
        return st.builds(lambda args: [name] + [f"{flag}={value}" for flag, value in args.items()],
                         flags)

    return st.one_of(
        command("numbers", {}, {"--n-max": row, "--order": order, "--lambda": lam,
                                "--format": fmt}),
        command("poly", {"--n": row}, {"--order": order, "--lambda": lam, "--format": fmt}),
        command("convert", {"--poly": poly}, convert_options),
        command("convert", {"--poly": nested}, convert_options),
        command("convert", {"--poly": st.sampled_from(PAST_MAX_BITS + PAST_MAX_DEGREE)},
                convert_options),
        command("stirling", {"--n": degree, "--k": degree}, {"--lambda": lam, "--format": fmt}),
        command("verify", {"--identity": st.sampled_from(suite.IDENTITY_IDS + ("nope",)),
                           "--n": st.one_of(small, st.just(str(MAX_CELL_N + 1))),
                           "--r": st.one_of(small, st.sampled_from([str(MAX_DEGREE + 1),
                                                                    str(-MAX_DEGREE - 1)]))},
                {"--s": degree, "--k": degree,
                 "--index": st.one_of(small, st.just(str(MAX_INDEX + 1))),
                 "--seed": small, "--format": fmt}),
        command("suite", {"--jobs": st.sampled_from(["1", "0"]),
                          "--n-max": st.sampled_from(["0", "1", "2", "-1"])},
                {"--r-max": st.sampled_from(["0", "1", "2", "x"]),
                 "--s-max": st.sampled_from(["0", "2"]), "--seed": small, "--format": fmt}),
        st.lists(st.one_of(st.sampled_from(["numbers", "suite", "--format", "-x"]), word),
                 max_size=4),
    )


def test_cli_main_exits_0_or_2_on_any_argv():
    # every command in-process: a traceback would escape run_cli, and exit 1
    # (a mismatching cell) cannot come from working code
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(argv=_argv_strategy())
    def check(argv):
        code, _, err = run_cli(*argv)
        assert code in (0, 2), (argv, err)

    check()


# a power caught before it is taken, and a product that no power's check sees
PAST_MAX_BITS = ("(9^999)^9", "*".join(["(9^999)"] * 5))


def test_cli_convert_of_a_constant_past_4300_digits_exits_2():
    # str() of an int past 4300 digits raises, so such a constant must not
    # reach the printer
    for poly, pos in zip(PAST_MAX_BITS, (8, 23)):
        assert run_cli("convert", "--poly", poly) == (
            2, "", f"error: coefficient of more than {MAX_BITS} bits at position {pos}\n")
    # under the bound a constant prints: 9^2997 has 2860 digits
    assert run_cli("convert", "--poly", "*".join(["(9^999)"] * 3), "--order", "0") == (
        0, f"0\t{9 ** 2997}\n", "")


def test_cli_verify_r_domains():
    for ident in ("thm2", "eq12_ladder", "eq15_duality", "eq22_ladder"):
        code, out, _ = run_cli("verify", "--identity", ident,
                               "--n", "3", "--r", "-2", "--s", "1", "--k", "3")
        assert code == 0 and " equal\n" in out, ident
    for ident in ("cor3", "cor4", "thm6", "remark"):
        for r in ("-1", "0"):
            assert run_cli("verify", "--identity", ident, "--n", "3", "--r", r) == (
                2, "", f"error: {ident} needs --r >= 1\n"), (ident, r)
        code, out, _ = run_cli("verify", "--identity", ident, "--n", "3", "--r", "1")
        assert code == 0 and out.startswith(f"{ident} n=3 r=1 equal\n"), ident


def test_cli_verify_reproduces_suite_cells():
    # every cell of a grid smaller than the round-trip draws, thm1's by --index alone
    seen = set()
    for cell in suite.run_suite(2, 1, 1).cells:
        seen.add(cell.identity)
        argv = ["verify", "--identity", cell.identity, "--format", "json"]
        params = {"index": cell.params["index"]} if cell.identity == "thm1_roundtrip" else cell.params
        for name, value in params.items():
            argv += [f"--{name}", str(value)]
        assert run_cli(*argv) == (0, cell.to_json() + "\n", ""), argv
    assert seen == set(suite.IDENTITY_IDS)


def test_cli_verify_index_is_roundtrip_input():
    for seed in (suite.DEFAULT_SEED, 99):
        inputs = list(suite.roundtrip_inputs(seed, 100))
        for index in (0, 7, 99):
            code, out, _ = run_cli("verify", "--identity", "thm1_roundtrip", "--index",
                                   str(index), "--seed", str(seed), "--format", "json")
            cell = suite.verify_thm1_roundtrip(index, *inputs[index])
            assert code == 0
            assert out == cell.to_json() + "\n"


def test_cli_verify_index_holds_one_roundtrip_input(monkeypatch):
    # only the draw is measured: the cell function is a stub that keeps its input
    got = {}

    def keep(index, p, r):
        got.update(index=index, p=p, r=r)
        return suite.Cell("thm1_roundtrip", {"index": index}, "equal", "", "")

    monkeypatch.setattr(suite, "verify_thm1_roundtrip", keep)
    run_cli("verify", "--identity", "thm1_roundtrip", "--index", "0")
    tracemalloc.start()
    try:
        code, _, _ = run_cli("verify", "--identity", "thm1_roundtrip", "--index", "500")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 0.25 * 2**20, peak
    assert (got["p"], got["r"]) == list(suite.roundtrip_inputs(suite.DEFAULT_SEED, 501))[500]


def test_cli_suite_small_grid():
    code, out, _ = run_cli("suite", "--n-max", "2", "--r-max", "1", "--s-max", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("total: ")
    assert "0 mismatch" in lines[-1]
    assert [ln.split(":")[0] for ln in lines[:-1]] == list(suite.IDENTITY_IDS)


def test_cli_suite_json_is_report_jsonl():
    code, out, _ = run_cli("suite", "--n-max", "2", "--r-max", "1",
                           "--s-max", "1", "--format", "json")
    assert code == 0
    report = suite.run_suite(2, 1, 1)
    assert out == report.to_jsonl()


def test_cli_suite_parallel_same_bytes():
    code, serial, _ = run_cli("suite", "--n-max", "2", "--r-max", "1",
                              "--s-max", "1", "--format", "json")
    assert code == 0
    code, parallel, _ = run_cli("suite", "--n-max", "2", "--r-max", "1",
                                "--s-max", "1", "--jobs", "2", "--format", "json")
    assert code == 0
    assert serial == parallel


# one small call of each command
EVERY_COMMAND = [
    ("numbers", "--n-max", "3", "--order", "2"),
    ("poly", "--n", "3", "--order", "2"),
    ("convert", "--poly", "(x+L)^3/(2-L)-x/3", "--order", "2"),
    ("stirling", "--n", "5", "--k", "2"),
    ("verify", "--identity", "thm2", "--n", "3", "--r", "2", "--s", "1"),
    ("suite", "--n-max", "2", "--r-max", "1", "--s-max", "1"),
]


@pytest.mark.parametrize("fmt", ["plain", "latex"])
def test_cli_suite_builds_no_json_for_plain_or_latex(monkeypatch, fmt):
    # every command, suite among them: plain and LaTeX output build no JSON text
    def no_json(obj):
        raise AssertionError(f"JSON text built for --format {fmt}")

    monkeypatch.setattr(suite, "_json_text", no_json)
    monkeypatch.setattr(suite, "_json_lines", no_json)
    monkeypatch.setattr(cli, "_json_text", no_json)  # the value commands' JSON
    for argv in EVERY_COMMAND:
        code, out, _ = run_cli(*argv, "--format", fmt)
        assert code == 0 and out, argv


@pytest.mark.parametrize("fmt", ["plain", "latex", "csv", "json"])
@pytest.mark.parametrize("argv", EVERY_COMMAND[:4], ids=lambda argv: argv[0])
def test_cli_renders_only_the_format_asked(monkeypatch, argv, fmt):
    # LaTeX reads no str() of a value, and the other formats no LaTeX
    def refuse(*_):
        raise AssertionError(f"another format rendered for --format {fmt}")

    if fmt == "latex":
        monkeypatch.setattr(LambdaRat, "__str__", refuse)
        monkeypatch.setattr(XPoly, "__str__", refuse)
    else:
        monkeypatch.setattr(cli, "latex_lrat", refuse)
        monkeypatch.setattr(cli, "latex_xpoly", refuse)
    code, out, err = run_cli(*argv, "--format", fmt)
    assert (code, err) == (0, "") and out, argv


def test_cli_suite_json_peaks_near_plain():
    # the JSON report is written a line at a time, so it holds little more than
    # the cells, which plain output holds too; a small grid in each format
    # first makes what a first run allocates once (imports, say) count in neither
    def run(fmt, n_max):
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            assert main(["suite", "--n-max", n_max, "--format", fmt]) == 0

    def peak(fmt):
        frobenius.clear_caches()
        tracemalloc.start()
        try:
            run(fmt, "12")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run("plain", "1")
    run("json", "1")
    as_json, plain = peak("json"), peak("plain")
    assert as_json <= 1.25 * plain, (as_json, plain)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", [
    ("suite", "--n-max", "12", "--r-max", "6", "--s-max", "6", "--format", "csv"),
    ("suite", "--n-max", "12", "--r-max", "6", "--s-max", "6", "--format", "json"),
    ("numbers", "--n-max", "150", "--order", "3"),
], ids=["suite-csv", "suite-json", "numbers-plain"])
def test_cli_closed_stdout_ends_quietly(argv, unbuffered):
    # the reader takes 10 bytes and closes the pipe, as `| head -c 10` does;
    # each output is larger than a pipe holds, so the writer sees it closed,
    # in a flush of a full buffer or, unbuffered, in a write of one line
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    flags = ["-u"] if unbuffered else []
    proc = subprocess.Popen([sys.executable, *flags, "-m", "feuler", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert len(head) == 10 and b"Traceback" not in err
    assert (proc.returncode, err) == (0, b"")


def test_cli_suite_csv_has_cells():
    code, out, _ = run_cli("suite", "--n-max", "1", "--r-max", "1",
                           "--s-max", "1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,params,status,lhs,rhs,elapsed_us"
    report = suite.run_suite(1, 1, 1)
    assert len(lines) == 1 + len(report.cells)


# Each call's exit code and the sha256 of its stdout, in every format: every
# command, with and without --lambda, verify of three identities and a small
# suite.  The large-grid digests pin suite's JSON only; these pin the rest.
BYTE_PINS = {
    "numbers --n-max 4 --order 2 --format plain":
        (0, "25c5d2c9c5c2932f0e0257d0e138896f38f8e7fde1760c38426bab006faae7c4"),
    "numbers --n-max 4 --order 2 --format latex":
        (0, "0667b52ff74ecf63771f04df8d91e16f075fea89ca58bd1d4ef3e0c6cf45dc46"),
    "numbers --n-max 4 --order 2 --format csv":
        (0, "f3f136414950f370a33fb682fcd0500a8cb09abef75161204be6b82a87451a4f"),
    "numbers --n-max 4 --order 2 --format json":
        (0, "781b9d0ed68d2488401293c9703459e9de922daadf0848d4f1f80af5be9f28f7"),
    "numbers --n-max 4 --order 2 --lambda 1/3 --format plain":
        (0, "b04df6fea6022aaac4e0373fcc9559c9aa78409ab9982e98daef836857ab7cf4"),
    "numbers --n-max 4 --order 2 --lambda 1/3 --format latex":
        (0, "c01322219e66c7dd91873cd6e8e21c325da70e6d516f55749bff5e85e54add55"),
    "numbers --n-max 4 --order 2 --lambda 1/3 --format csv":
        (0, "d4293899cdd9ed05a25f0382e2f72d77e39b587f9fe5346151f0f82d65eb9b58"),
    "numbers --n-max 4 --order 2 --lambda 1/3 --format json":
        (0, "5a6cf62237308e9accef4b1e3fdedb908b0d82b391320706b0886d20ad3b0b88"),
    "poly --n 3 --order 2 --format plain":
        (0, "d50157ff7d473874abccfa05d45ea43f2ab66077242c6bbd2d973e4360a60b1b"),
    "poly --n 3 --order 2 --format latex":
        (0, "aa3e459b7e61165c35a01f3bb516f00c66fa4b974835c3a701166fd9e8905335"),
    "poly --n 3 --order 2 --format csv":
        (0, "d95e9ddada11e921554ef72aa1ffb7bc55baedf88f98e465ad8af1eac28d49de"),
    "poly --n 3 --order 2 --format json":
        (0, "3feba06a81c5514fdfce95f9d91a396ec88947e7a6d1e8f6d949e184a0bf9f99"),
    "poly --n 3 --order 2 --lambda 1/3 --format plain":
        (0, "aefc13147d1f5b2ea94ef4efa5ca1cbe5c049742d5b41660931942a76fee4547"),
    "poly --n 3 --order 2 --lambda 1/3 --format latex":
        (0, "6956094fdf371ea48c6783918e64d9eb7cc3f5eb8d71183f60f67bc41ee01426"),
    "poly --n 3 --order 2 --lambda 1/3 --format csv":
        (0, "b477e71267514405ef210effbe51f83b175815613a8d35f3eff093e72aa8d742"),
    "poly --n 3 --order 2 --lambda 1/3 --format json":
        (0, "923bd1922d597128a696baa68c7c4c1bf9ed0e3bb1bf1d1d9199f0ebfe5391da"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --format plain":
        (0, "6e03081bb72d12ea3a98fd72c5fd3d8df313569726b839bf4f99eff7cf9d9a3b"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --format latex":
        (0, "bcab7146642886a4cf67d244e893753c869b7060ca902d9c7d5cd820ca110318"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --format csv":
        (0, "e1b32f96428f30d501e5ce870f14a27799fd13b43b73ed09f33035439f6c1855"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --format json":
        (0, "8dd24edc1583f405989f21232c5248ecde1e3e36cb8c6ad9082e7ccfd9b48b22"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --lambda 1/3 --format plain":
        (0, "97562e12df855d333a605d3ad8d7df9ce77e3007ab9a1f1402995d31936479e9"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --lambda 1/3 --format latex":
        (0, "0a5d3a9d32607387a7a1562bca24f5a85a4a67047008de3076ecf4950f2624c7"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --lambda 1/3 --format csv":
        (0, "994dfc255640fc5220edfdabb09173094e65bbe9ec7f17baf4785a6d2bd1fa6e"),
    "convert --poly (x+L)^3/(2-L)-x/3 --order 2 --lambda 1/3 --format json":
        (0, "67461132dd63a138a11f3488274c74e3135cbe1b997db4d15c3f5945c0cb9701"),
    "stirling --n 5 --k 2 --format plain":
        (0, "52dac1706767ffdfa2453d9e611e7a0f74da6f45ad721d0c70233f7f74fee014"),
    "stirling --n 5 --k 2 --format latex":
        (0, "87e3e12f02c181baafc7b0a3e864fb8c388c6ba26cb20b879e31e62fe2a6296a"),
    "stirling --n 5 --k 2 --format csv":
        (0, "3fbae3949f47ac5682fa6edccb4f4a8cc704c86112ac8fd335bfa4c29f74862e"),
    "stirling --n 5 --k 2 --format json":
        (0, "b779d4b7652b2f5e84e0bd79b2d5734adfe6cf2615c13c2fb8129bf328f91eee"),
    "stirling --n 5 --k 2 --lambda 1/3 --format plain":
        (0, "a372ceb464ab7459409349924c4e7d3457438922ad918cf18fc550d64f3017bd"),
    "stirling --n 5 --k 2 --lambda 1/3 --format latex":
        (0, "28f46460411262d0c8fa67e36a27439bd325db2a559e65084355c21ea0c11a1d"),
    "stirling --n 5 --k 2 --lambda 1/3 --format csv":
        (0, "7dbabc9346927921e686e04651ba2eae935f133fe7aa495e7a01040b51e2d385"),
    "stirling --n 5 --k 2 --lambda 1/3 --format json":
        (0, "78ccffcef349e47b48a0a6b7f28ac83b545fb327e7e22541a6afc8559669f564"),
    "verify --identity thm2 --n 3 --r 2 --s 1 --format plain":
        (0, "84f1ff342912ae48dd685d6dde015cccbc7f9cce992cf89c88a246458f33f07b"),
    "verify --identity thm2 --n 3 --r 2 --s 1 --format latex":
        (0, "5dc0836ea9da3a31454640a7de74b81adf4f8e7a429aa88e255ac82a28765bb9"),
    "verify --identity thm2 --n 3 --r 2 --s 1 --format csv":
        (0, "dbe8a3064c7ecefbe9731698de2638f0de3c96b9889aa5b6e571708e753c39a9"),
    "verify --identity thm2 --n 3 --r 2 --s 1 --format json":
        (0, "c621bd1dca8a22f4156664d153632f729efe4decf8903e701d186ec5e0c52a96"),
    "verify --identity thm5 --n 4 --r 2 --format plain":
        (0, "600ce73a16c78da269c44717b525863441d2cae939a9770bad1fa7106ae065be"),
    "verify --identity thm5 --n 4 --r 2 --format latex":
        (0, "79464730d3573816451f1d62796bc9e52e0afcc42b243c366d0143de8b9085e0"),
    "verify --identity thm5 --n 4 --r 2 --format csv":
        (0, "e3cad103d813f418dcefd39a725bd1a246323eda5e051d0baaa9d1d188a256d1"),
    "verify --identity thm5 --n 4 --r 2 --format json":
        (0, "05abbc30a447757b57db3badd026862a1787d21a0d8f225f37f9c4a574fe8c89"),
    "verify --identity thm1_roundtrip --index 4 --format plain":
        (0, "8a930f9b91f3c67a1b77d1a979e52aa704e57e15827bbcd3e34f5eea24556c14"),
    "verify --identity thm1_roundtrip --index 4 --format latex":
        (0, "7445291fa882745d4a9616d917a95cca3ab32bb2a7f693182625573fa4926563"),
    "verify --identity thm1_roundtrip --index 4 --format csv":
        (0, "31f3a0e65221c0a2ea18bc6a54261ecbdedd0b14e2aa553c25401c1c10259440"),
    "verify --identity thm1_roundtrip --index 4 --format json":
        (0, "b2b2b83d7dae4bbdc2791820047816a7fd7395a9328bdf0000976a2398088412"),
    "suite --n-max 2 --r-max 1 --s-max 1 --format plain":
        (0, "f4b0fae0537a1cf6cd7deb2ebb4732ef6120a3bbcb4ade265382fc3478f24893"),
    "suite --n-max 2 --r-max 1 --s-max 1 --format latex":
        (0, "161bd9189a1e96f8b85e4605f6b04229bcc8e8a17aefe2b0b7092260964c367d"),
    "suite --n-max 2 --r-max 1 --s-max 1 --format csv":
        (0, "3d38e8db77c944362db95155d97ab31a28295bef3f14b6a2bb4a2212f19a133b"),
    "suite --n-max 2 --r-max 1 --s-max 1 --format json":
        (0, "d52147056252c569f638e3bd93a110282812fbddc7902b0fe57f10ea18386ae9"),
}


@pytest.mark.parametrize("call", list(BYTE_PINS))
def test_cli_prints_the_pinned_bytes(call):
    code, out, _ = run_cli(*call.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == BYTE_PINS[call]


def test_latex_helpers():
    h2 = frobenius.fe_numbers(2)[2]
    assert latex_lrat(h2) == "\\frac{1 + \\lambda}{1 - 2\\lambda + \\lambda^{2}}"
    assert latex_lrat(lrat(Fraction(-3, 2))) == "-\\frac{3}{2}"
    assert latex_xpoly(XPoly([0, 1])) == "x"
    assert latex_xpoly(XPoly.const(0)) == "0"


def test_module_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "feuler", "numbers", "--n-max", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "0\t1\n1\t(-1) / (1 - 1*L)\n"
    proc = subprocess.run(
        [sys.executable, "-m", "feuler", "numbers", "--lambda", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def _imported(*argv) -> set:
    """Names of the modules a fresh interpreter imports while running argv."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_import_leaves_the_process_pool_unloaded():
    # import feuler loads the algebra alone; only verify and suite load the
    # suite.  Only suite --jobs > 1 needs a process pool and only JSON or CSV
    # output needs json or csv, so each is imported there; dataclasses, with
    # the inspect it loads, and typing are used nowhere.  Whatever the bare
    # interpreter already imports (a site hook, say) is not feuler's doing.
    deferred = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect", "json", "csv",
                "typing"}
    algebra = {"feuler.scalar", "feuler.xpoly", "feuler.umbral", "feuler.frobenius"}
    bare = _imported("-c", "pass")
    cases = [
        (("-c", "import feuler"), algebra, {"feuler.cli", "feuler.suite", "argparse"}),
        (("-m", "feuler", "numbers", "--n-max", "3"), algebra | {"feuler.cli"}, {"feuler.suite"}),
        (("-m", "feuler", "verify", "--identity", "thm2", "--n", "3", "--r", "2", "--s", "1"),
         algebra | {"feuler.cli", "feuler.suite"}, set()),
        # a missing package name imports the submodule of that name, as perfbench does
        (("-c", "from feuler import cli, suite; assert cli.main and suite.run_suite"),
         algebra | {"feuler.cli", "feuler.suite"}, set()),
    ]
    for argv, wanted, unwanted in cases:
        loaded = _imported(*argv) - bare
        assert sorted(wanted - loaded) == [], argv
        assert sorted(loaded & (unwanted | deferred)) == [], argv


def test_package_names_resolve_lazily_to_their_modules():
    import feuler
    from feuler import scalar, umbral, xpoly

    modules = [scalar, xpoly, umbral, frobenius, suite, cli]  # a name's first owner defines it
    for name in feuler.__all__:
        if name == "__version__":
            continue
        owners = [m for m in modules if name in vars(m)]
        assert owners and getattr(feuler, name) is getattr(owners[0], name), name
    assert set(feuler.__all__) <= set(dir(feuler))
    namespace = {}
    exec("from feuler import *", namespace)
    assert sorted(set(feuler.__all__) - set(namespace)) == []
    with pytest.raises(AttributeError, match="'nope'"):
        feuler.nope


# verify --help, suite --help and an unknown identity, as printed before the
# identity names and default seed were read lazily
VERIFY_USAGE = """\
usage: feuler verify [-h] [--format {plain,latex,csv,json}] --identity
                     {cor3,cor4,eq12_ladder,eq15_duality,eq22_ladder,remark,thm1_roundtrip,thm2,thm5,thm6}
                     [--n N] [--r R] [--s S] [--k K] [--index INDEX]
                     [--seed SEED]
"""
HELP_BYTES = [
    (("verify", "--help"), 0, VERIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --format {plain,latex,csv,json}
                        output format (default plain)
  --identity {cor3,cor4,eq12_ladder,eq15_duality,eq22_ladder,remark,thm1_roundtrip,thm2,thm5,thm6}
  --n N
  --r R
  --s S
  --k K
  --index INDEX
  --seed SEED
""", ""),
    (("suite", "--help"), 0, """\
usage: feuler suite [-h] [--format {plain,latex,csv,json}] [--n-max N_MAX]
                    [--r-max R_MAX] [--s-max S_MAX] [--jobs JOBS]
                    [--seed SEED]

options:
  -h, --help            show this help message and exit
  --format {plain,latex,csv,json}
                        output format (default plain)
  --n-max N_MAX
  --r-max R_MAX
  --s-max S_MAX
  --jobs JOBS
  --seed SEED
""", ""),
    (("verify", "--identity", "nope"), 2, "", VERIFY_USAGE + (
        "feuler verify: error: argument --identity: invalid choice: 'nope' (choose from "
        "'cor3', 'cor4', 'eq12_ladder', 'eq15_duality', 'eq22_ladder', 'remark', "
        "'thm1_roundtrip', 'thm2', 'thm5', 'thm6')\n")),
]


@pytest.mark.parametrize("argv, code, out, err", HELP_BYTES,
                         ids=[" ".join(argv) for argv, *_ in HELP_BYTES])
def test_cli_help_and_identity_choices_are_pinned(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width
    assert run_cli(*argv) == (code, out, err)


def test_numbers_of_a_high_order():
    proc = subprocess.run(
        [sys.executable, "-m", "feuler", "numbers", "--order", "1200"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split("\t")[0] for row in rows] == [str(n) for n in range(11)]


def test_numbers_of_a_large_negative_order():
    # a guard on the timeout: this took minutes while the rows of negative
    # orders were reduced against (1 - L)^1200 by the general gcd
    proc = subprocess.run(
        [sys.executable, "-m", "feuler", "numbers", "--n-max", "10", "--order", "-1200"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    # the series route: coefficients of ((e^t - L)/(1 - L))^1200; equal
    # values print equal strings, so the printed rows must match them
    series = frobenius.fe_series(1200, 10).coeffs
    assert proc.stdout.splitlines() == [f"{n}\t{v}" for n, v in enumerate(series)]

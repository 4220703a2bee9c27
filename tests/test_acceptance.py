"""End-to-end acceptance checks, one per shipped guarantee.

Each test covers one numbered criterion and prints a single summary
line; the verbose pytest report gives the pass/fail verdict per
criterion.
"""

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb, factorial

import pytest

from feuler import frobenius, suite
from feuler.cli import main, parse_poly_expr
from feuler.scalar import LAMBDA, ONE, LambdaRat
from feuler.umbral import appell_expand

from genutil import rand_xpoly


def test_criterion_01_order_lowering_full_grid():
    t0 = time.perf_counter()
    cells = [suite.verify_thm2(n, r, s)
             for n in range(13) for r in range(7) for s in range(7)]
    elapsed = time.perf_counter() - t0
    assert len(cells) == 637
    bad = [c for c in cells if c.status != "equal"]
    assert bad == []
    assert elapsed < 60.0
    print(f"criterion 1: PASS  order-lowering grid, 637 cells exact "
          f"in {elapsed:.2f}s single-threaded")


def test_criterion_02_single_step_corollaries():
    for n in range(13):
        for r in range(1, 7):
            cell = suite.verify_cor3(n, r)
            assert cell.status == "equal", cell
            cell = suite.verify_cor4(n, r)
            assert cell.status == "equal", cell
    print("criterion 2: PASS  one-step and full-step lowering, n <= 12, r <= 6")


def test_criterion_03_stirling_valued_specials():
    for n in range(13):
        for r in range(0, 7):
            cell = suite.verify_thm5(n, r)
            assert cell.status == "equal", cell
        for r in range(1, 7):
            cell = suite.verify_thm6(n, r)
            assert cell.status == "equal", cell
            cell = suite.verify_remark(n, r)
            assert cell.status == "equal", cell
    print("criterion 3: PASS  constant-term specials, n <= 12, r <= 6")


def test_criterion_04_basis_round_trip():
    inputs = suite.roundtrip_inputs(suite.DEFAULT_SEED, 100)
    for index, (p, r) in enumerate(inputs):
        cell = suite.verify_thm1_roundtrip(index, p, r)
        assert cell.status == "equal", cell
        assert cell.params["degree"] <= 10
        assert 0 <= cell.params["r"] <= 4
    # the expansion route must also agree with the umbral dual pairing
    rng = random.Random(20260816)
    for _ in range(20):
        p = rand_xpoly(rng, max_deg=5)
        r = rng.randrange(0, 5)
        e = frobenius.to_fe_basis(p, r)
        d = 0 if p.is_zero else p.degree
        assert list(e.coefficients) == appell_expand(frobenius.fe_series(r, d), p)
        assert frobenius.from_fe_basis(e) == p
    print("criterion 4: PASS  100 seeded round trips, both expansion routes agree")


def test_criterion_05_duality_grid():
    for n in range(9):
        for k in range(9):
            for r in range(4):
                cell = suite.verify_eq15_duality(n, k, r)
                assert cell.status == "equal", cell
    print("criterion 5: PASS  pairing duality, n, k <= 8, r <= 3")


def test_criterion_06_ladders():
    for n in range(13):
        for r in range(-4, 5):
            cell = suite.verify_eq12_ladder(n, r)
            assert cell.status == "equal", cell
            cell = suite.verify_eq22_ladder(n, r)
            assert cell.status == "equal", cell
    print("criterion 6: PASS  derivative and averaging ladders, n <= 12, |r| <= 4")


def _euler_polys_via_egf(n_max):
    # divided coefficients of 2/(e^t + 1), then binomial convolution
    a = [Fraction(1)]
    for n in range(1, n_max + 1):
        a.append(-sum(Fraction(comb(n, k)) * a[k] for k in range(n)) / 2)
    return [[Fraction(comb(n, l)) * a[n - l] for l in range(n + 1)]
            for n in range(n_max + 1)]


def test_criterion_07_classical_specializations():
    euler = _euler_polys_via_egf(5)
    for n in range(6):
        got = [c.evaluate(Fraction(-1)) for c in frobenius.fe_poly(n).coeffs]
        assert got == euler[n]
    for n in range(11):
        for r in range(6):
            got = [c.evaluate(Fraction(0)) for c in frobenius.fe_poly(n, r).coeffs]
            want = [Fraction(comb(n, l) * (-r) ** (n - l)) for l in range(n + 1)]
            assert got == want
    print("criterion 7: PASS  matches 2e^{xt}/(e^t+1) at -1 and (x-r)^n at 0")


def _stirling_direct(n, k):
    # coefficient of L^{k-j} is (-1)^{k-j} C(k,j) j^n / k!, with 0^0 = 1
    coeffs = [Fraction(0)] * (k + 1)
    for j in range(k + 1):
        power = 1 if n == 0 else j**n
        coeffs[k - j] = Fraction((-1) ** (k - j) * comb(k, j) * power, factorial(k))
    return LambdaRat(coeffs)


def test_criterion_08_stirling_consistency():
    classical = {(0, 0): 1}
    for n in range(1, 11):
        for k in range(n + 1):
            classical[(n, k)] = (k * classical.get((n - 1, k), 0)
                                 + classical.get((n - 1, k - 1), 0))
    om = ONE - LAMBDA
    for n in range(11):
        for k in range(11):
            s = frobenius.stirling_lambda(n, k)
            assert s == _stirling_direct(n, k)
            assert s * factorial(k) == frobenius.delta_pow_at_zero(n, k)
            assert s.evaluate(Fraction(1)) == classical.get((n, k), 0)
    for s_ in range(11):
        for l in range(11):
            lhs = frobenius.lowering_coeff(s_, l) * om**s_
            rhs = frobenius.stirling_lambda(l, s_) * factorial(s_)
            assert lhs == rhs
    print("criterion 8: PASS  direct formula, operator powers, classical "
          "limit, and lowering bridge, n, k <= 10")


def test_criterion_09_mutation_detected(monkeypatch):
    true_coeff = frobenius.lowering_coeff
    om = ONE - LAMBDA

    def dropped_factor(s, l):
        # one (1 - L) factor removed from the coefficient's denominator
        return true_coeff(s, l) * om

    # cold, so that the split-sum memo is built under the fault, and cleared
    # again once it is undone
    frobenius.clear_caches()
    monkeypatch.setattr(frobenius, "lowering_coeff", dropped_factor)
    report = suite.run_suite(3, 2, 2)
    assert report.totals()["mismatch"] >= 1
    assert not report.ok
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["suite", "--n-max", "3", "--r-max", "2", "--s-max", "2"])
    assert code != 0
    monkeypatch.undo()
    frobenius.clear_caches()
    assert suite.run_suite(3, 2, 2).ok
    print(f"criterion 9: PASS  seeded fault caught, "
          f"{report.totals()['mismatch']} mismatches, CLI exit {code}")


GRID_ARGV = ["suite", "--n-max", "12", "--r-max", "6", "--s-max", "6", "--format", "json"]
# sha256 of the JSONL report of GRID_ARGV: the output contract's anchor
ANCHOR = "b70e2f0bc785565f2818b8981e307dc1e664ca24d9518e96a17cb43ebb919b61"


def _run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def grid_report():
    """Exit status and stdout of the n_max 12 grid, run once for this module."""
    return _run_main(GRID_ARGV)


def test_criterion_10_cli_contract(grid_report):
    rng = random.Random(suite.DEFAULT_SEED)
    count = 0
    while count < 100:
        p = rand_xpoly(rng, max_deg=6)
        if p.is_zero:
            continue
        count += 1
        assert parse_poly_expr(str(p)) == p
    code, serial = grid_report
    assert code == 0
    assert hashlib.sha256(serial.encode()).hexdigest() == ANCHOR
    code, parallel = _run_main(GRID_ARGV + ["--jobs", "4"])
    assert code == 0
    assert serial == parallel
    summary = json.loads(serial.splitlines()[-1])
    assert summary["total"] == 2661
    assert summary["mismatch"] == 0 and summary["skipped"] == 0
    print("criterion 10: PASS  100 expressions round-tripped, full grid "
          "exits 0 with the anchor digest, serial and 4-way runs byte-identical")


@pytest.mark.parametrize("argv, digest", [
    pytest.param(GRID_ARGV + ["--seed", "7"],
                 "bf350ed1d30ad51a849b7f55fd3757a780b16aa18bc6bff284731cb69e8296de",
                 id="seed-7"),
    pytest.param(["suite", "--n-max", "20", "--r-max", "6", "--s-max", "6", "--format", "json"],
                 "4cc9066e3a800a07c1381b452e5235348a16a142e279e5935af39b2014207a19",
                 id="n-max-20"),
])
def test_pinned_grid_digests(argv, digest):
    code, out = _run_main(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_values_print_back_to_themselves(grid_report):
    # every value string of the report parses back to a value that prints
    # the same string: str() of the constant term for a scalar, str() of the
    # polynomial for an x-polynomial; thm5's composite right side ("route:
    # value", joined by ";") and thm1's ";"-joined coefficient lists are not
    # single values.  The table side of thm2, cor3 and eq22 parses to the
    # polynomial this test reads from the tables itself.
    _, out = grid_report
    cells = [json.loads(line) for line in out.splitlines()[:-1]]
    values = {}

    def value(text):
        if text not in values:
            v = parse_poly_expr(text)
            assert (str(v) if "x" in text else str(v.coeff(0))) == text
            values[text] = v
        return values[text]

    checked = dict.fromkeys(("thm2", "cor3", "eq22_ladder"), 0)
    for cell in cells:
        sides = cell["lhs"], cell["rhs"]
        if any(";" in t or ":" in t for t in sides):
            continue
        lhs, rhs = map(value, sides)
        ident, p = cell["identity"], cell["params"]
        if ident == "thm2":
            assert lhs == frobenius.fe_poly(p["n"], p["r"] - p["s"]), cell
        elif ident == "cor3":
            assert lhs == frobenius.fe_poly(p["n"], 1), cell
        elif ident == "eq22_ladder":
            assert rhs == frobenius.fe_poly(p["n"], p["r"] - 1), cell
        else:
            continue
        checked[ident] += 1
    assert checked == {"thm2": 13 * 7 * 7, "cor3": 13 * 6, "eq22_ladder": 13 * 13}
    assert len(values) == 486
    print(f"report printer: PASS  {len(values)} distinct value strings print back")

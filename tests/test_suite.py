"""Verification cells, report determinism, serialization, fault injection."""

import hashlib
import inspect
import json
import pickle
import random
from math import comb

import pytest

from feuler.scalar import LAMBDA, ONE, dot
from feuler import frobenius, scalar, suite, umbral, xpoly
from feuler.umbral import TruncSeries
from feuler.xpoly import XPoly
from feuler.suite import (
    DEFAULT_SEED,
    IDENTITIES,
    IDENTITY_IDS,
    Cell,
    roundtrip_inputs,
    run_suite,
    verify_cor3,
    verify_cor4,
    verify_eq12_ladder,
    verify_eq15_duality,
    verify_eq22_ladder,
    verify_remark,
    verify_thm1_roundtrip,
    verify_thm2,
    verify_thm5,
    verify_thm6,
)


def test_known_cells():
    c = verify_thm2(1, 1, 1)
    assert c.status == "equal"
    assert c.lhs == "1*x^1"
    c = verify_thm2(5, 3, 2)
    assert c.status == "equal"
    c = verify_thm5(1, 1)
    assert c.status == "equal"
    assert c.lhs == "(1) / (1 - 1*L)"
    c = verify_remark(2, 2)
    assert c.status == "equal"
    assert c.lhs == "(1) / (1 - 1*L)"
    for fn in (verify_cor3, verify_cor4, verify_thm6):
        c = fn(4, 2)
        assert c.status == "equal", c
    assert verify_eq12_ladder(6, -2).status == "equal"
    assert verify_eq22_ladder(6, -2).status == "equal"
    assert verify_eq15_duality(3, 3, 2).lhs == "6"
    assert verify_eq15_duality(4, 2, 2).lhs == "0"


def test_skip_guards():
    # no cell is skipped: the identities of s = r - 1, r or 2r - 1 steps
    # declare r >= 1, which feuler verify checks, and every grid starts at
    # each argument's least value
    for ident in ("cor3", "cor4", "thm6", "remark"):
        assert IDENTITIES[ident][0]["r"] == 1
    for ident, (least, grid) in IDENTITIES.items():
        for (name, lo), values in zip(least.items(), grid(4, 3, 2)):
            assert lo is None or min(values) == lo, (ident, name)


def test_roundtrip_cell_is_deterministic():
    a = verify_thm1_roundtrip(7, *list(roundtrip_inputs(DEFAULT_SEED, 8))[7])
    b = verify_thm1_roundtrip(7, *list(roundtrip_inputs(DEFAULT_SEED, 8))[7])
    assert a.params == b.params
    assert (a.lhs, a.rhs, a.status) == (b.lhs, b.rhs, b.status)
    assert a.status == "equal"
    other = verify_thm1_roundtrip(7, *list(roundtrip_inputs(DEFAULT_SEED + 1, 8))[7])
    assert (other.params, other.lhs) != (a.params, a.lhs)


def test_small_grid_all_equal():
    rep = run_suite(4, 2, 2)
    t = rep.totals()
    assert t == {"total": 325, "equal": 325, "mismatch": 0, "skipped": 0}
    assert rep.ok
    # byte-wise invariant on every cell
    for c in rep.cells:
        assert (c.status == "equal") == (c.lhs == c.rhs)
        assert json.loads(c.to_json())["elapsed_us"] == 0
    # identity-major deterministic ordering
    ids = [c.identity for c in rep.cells]
    assert ids == sorted(ids, key=ids.index)
    assert ids == sorted(ids)


def test_cells_and_reports_are_immutable_picklable_values():
    # suite --jobs sends the cells back from its workers pickled
    rep = run_suite(1, 1, 1)
    for value, field in ((rep.cells[0], "status"), (rep, "cells")):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and back.__class__ is value.__class__
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = 1
    assert rep.cells[0].status == "equal"
    assert rep.cells[0] == tuple(rep.cells[0])


def test_report_serialization_round_trip():
    text = run_suite(3, 1, 1).to_jsonl()
    lines = text.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["grid"] == {"n_max": 3, "r_max": 1, "s_max": 1}
    first = json.loads(lines[0])
    assert list(first) == ["identity", "params", "status", "lhs", "rhs", "elapsed_us"]


def test_report_lines_are_the_bytes_of_json_dumps():
    # the report's JSON lines are written without json.dumps: any side text,
    # one string object for both sides or two, and any int parameters
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    special = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u221a",
                               "\u2028", "\u2029", "\ud800", "\udfff", "\U0001f600", "/"])
    texts = st.lists(st.one_of(special, st.integers(0, 0x10FFFF).map(chr)),
                     max_size=12).map("".join)
    ints = st.one_of(st.integers(), st.integers(-10**60, 10**60))
    cells = st.builds(lambda ident, params, status, lhs, rhs, shared:
                      Cell(ident, params, status, lhs, lhs if shared else rhs),
                      texts, st.dictionaries(texts, ints, max_size=4),
                      st.sampled_from(["equal", "mismatch", "skipped"]), texts, texts,
                      st.booleans())

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(st.lists(cells, min_size=1, max_size=3))
    def check(drawn):
        want = [json.dumps(dict(zip(suite.REPORT_FIELDS, c.report_row()))) for c in drawn]
        assert [c.to_json() for c in drawn] == want
        grid = {"n_max": 1, "r_max": 1, "s_max": 1}
        assert suite.VerificationReport(drawn, grid).to_jsonl().split("\n")[:-2] == want

    check()


def test_parallel_run_is_byte_identical():
    serial = run_suite(3, 2, 2, jobs=1).to_jsonl()
    parallel = run_suite(3, 2, 2, jobs=2).to_jsonl()
    assert serial == parallel


def test_repeated_run_is_byte_identical():
    a = run_suite(2, 2, 2).to_jsonl()
    b = run_suite(2, 2, 2).to_jsonl()
    assert a == b


def test_dropped_factor_is_caught(monkeypatch, cold_caches):
    orig = frobenius.lowering_coeff
    one_minus = ONE - LAMBDA

    def mutated(s, l):
        v = orig(s, l)
        if (s, l) == (1, 1):
            return v * one_minus
        return v

    monkeypatch.setattr(frobenius, "lowering_coeff", mutated)
    rep = run_suite(4, 2, 2)
    t = rep.totals()
    assert t["mismatch"] >= 1
    assert not rep.ok
    for c in rep.cells:
        assert (c.status == "equal") == (c.lhs == c.rhs)
    # every route through the weight at (1, 1), the split sums of thm2,
    # cor3 and cor4 among them
    bad = {c.identity for c in rep.cells if c.status == "mismatch"}
    assert bad == {"thm2", "cor3", "cor4", "thm5", "thm6", "remark"}


def test_thm5_mismatch_names_each_route_that_differs(monkeypatch):
    equal = verify_thm5(3, 2)
    assert equal.status == "equal" and equal.rhs == equal.lhs
    orig = suite._split_sum_numbers
    monkeypatch.setattr(suite, "_split_sum_numbers", lambda n, r, s: orig(n, r, s) + 1)
    c = verify_thm5(3, 2)
    assert c.status == "mismatch"
    assert c.rhs == f"split_sum: {orig(3, 2, 4) + 1}"
    bump = frobenius.lowering_coeff
    monkeypatch.setattr(frobenius, "lowering_coeff", lambda *a: bump(*a) + 1)
    c = verify_thm5(3, 2)
    assert c.rhs.startswith("split_sum: ") and "; lowering_coeff: " in c.rhs


def test_registry_names_the_verify_functions():
    verifiers = {name[len("verify_"):] for name in vars(suite) if name.startswith("verify_")}
    assert set(IDENTITY_IDS) == verifiers and len(IDENTITY_IDS) == 10
    for ident, (least, _) in IDENTITIES.items():
        assert set(least) <= set(inspect.signature(getattr(suite, "verify_" + ident)).parameters)


def test_small_grid_digests_are_pinned():
    # report bytes are part of the output contract: a change of plan order shows here
    for grid, digest in (
            ((2, 1, 1), "d52147056252c569f638e3bd93a110282812fbddc7902b0fe57f10ea18386ae9"),
            ((3, 2, 2), "3f93811956bba9f165e02b22ccaf402b778252272a609874e9de5edc14081ae8")):
        assert hashlib.sha256(run_suite(*grid).to_jsonl().encode()).hexdigest() == digest


def test_plan_draws_the_roundtrip_inputs():
    # one draw rule for every grid, the one that verify --index reads
    for grid in ((10, 4, 0), (2, 1, 1), (0, 0, 0)):
        for seed in (DEFAULT_SEED, 5):
            drawn = [(args["p"], args["r"]) for ident, args in suite._plan(*grid, seed)
                     if ident == "thm1_roundtrip"]
            assert drawn == list(roundtrip_inputs(seed, 100)), (grid, seed)


# ---------------------------------------------------------------------------
# Route perturbations: each row breaks one building block of a route in the
# routes table of suite.py and names every identity whose cells must then
# mismatch in run_suite(6, 3, 3), no more and no fewer.  A fast path that let
# both sides of a cell share the block would keep the cells equal and fail
# its row.

def _bump_series_coefficient(orig):
    # coefficient 1 of every series the method returns
    def bumped(self, *args):
        out = orig(self, *args)
        if out.trunc < 1:
            return out
        return TruncSeries._raw((out.coeffs[0], out.coeffs[1] + ONE) + out.coeffs[2:])
    return bumped


def _bump_polynomial_at(at):
    # H_n^{(r)} at (n, r) = at, as read through the one binding rebound
    return lambda orig: lambda n, r=1: orig(n, r) + ONE if (n, r) == at else orig(n, r)


def _bump_derivative(orig):
    return lambda self: orig(self) + ONE


def _bump_value(orig):
    return lambda self, point: orig(self, point) + ONE


def _bump_weights_at_two_steps(orig):
    # s = 2 is even, so no thm6 cell (s = 2r - 1) reads it
    return lambda s, l: orig(s, l) + ONE if s == 2 else orig(s, l)


def _bump_number_at(at):
    # H_n^{(r)}(L) at (n, r) = at, as read through fe_numbers: by the split
    # sums and by j_lambda; the polynomial tables keep the true row
    return lambda orig: lambda n, r=1: [h + ONE if (k, r) == at else h
                                        for k, h in enumerate(orig(n, r))]


def _bump_surjections_onto_two(orig):
    # entry m = 2 of every row of counts that has one
    return lambda l, m_max: [c + 1 if m == 2 else c for m, c in enumerate(orig(l, m_max))]


def _bump_shift_by(j):
    # p(x + j) for one j; p(x + a) at other a is kept
    return lambda orig: lambda self, a: orig(self, a) + ONE if a == j else orig(self, a)


def _bump_stirling_at_two(orig):
    return lambda n, k: orig(n, k) + ONE if k == 2 else orig(n, k)


def _bump_fourth_power(orig):
    return lambda self, n: orig(self, n) + ONE if n == 4 else orig(self, n)


def _reflect(p):
    # R: p(x) -> p(-x)
    return XPoly._trimmed([-c if k % 2 else c for k, c in enumerate(p.coeffs)])


def _reflect_j(orig):
    # R J^s R: J with e^(-t) in place of e^t, which R cancels in J^(-r) J^r p = p
    return lambda p, s=1: _reflect(orig(_reflect(p), s))


def _bump_expansion_at_one(orig):
    # coefficient 1 of every Appell expansion that has one
    return lambda g, p: [c + ONE if k == 1 else c for k, c in enumerate(orig(g, p))]


def _bump_pairing(orig):
    return lambda self, p: orig(self, p) + ONE


def _drop_weights_divisible_by_seven(orig):
    # every sum of products: the terms whose int weight is 0 mod 7
    return lambda terms: orig(t for t in terms if t[0] % 7)


ROUTE_ROWS = [
    # J^r reads the order -r row in thm1; eq22's J reads the order-r polynomials
    pytest.param(frobenius, "fe_numbers", _bump_number_at((1, -1)),
                 {"thm1_roundtrip"}, id="J-rows-of-order-minus-one"),
    pytest.param(TruncSeries, "__pow__", _bump_series_coefficient,
                 {"thm1_roundtrip", "eq15_duality"}, id="TruncSeries-powering"),
    # J^(-r) and J^r of thm1 are one j_lambda, checked against appell_expand
    # alone: J with e^(-t) for e^t cancels in the round trip, not in the lists
    pytest.param(frobenius, "j_lambda", _reflect_j,
                 {"thm1_roundtrip"}, id="j_lambda-reflected"),
    pytest.param(suite, "appell_expand", _bump_expansion_at_one,
                 {"thm1_roundtrip"}, id="appell-expand"),
    pytest.param(TruncSeries, "functional", _bump_pairing,
                 {"eq15_duality"}, id="TruncSeries-functional"),
    pytest.param(TruncSeries, "mul_t_power", _bump_series_coefficient,
                 {"eq15_duality"}, id="TruncSeries-mul-t-power"),
    # eq22's J at 0 reads frobenius.fe_poly; thm1 recombines through j_lambda
    # on the order-r row, not through the tables; the suite imports its own binding
    pytest.param(frobenius, "fe_poly", _bump_polynomial_at((1, 1)),
                 {"eq22_ladder"}, id="eq22-polynomial-tables"),
    pytest.param(suite, "fe_poly", _bump_polynomial_at((3, 2)),
                 {"eq12_ladder", "eq15_duality", "eq22_ladder", "thm2"}, id="suite-tables"),
    # the order-1 table is cor3's left side
    pytest.param(suite, "fe_poly", _bump_polynomial_at((3, 1)),
                 {"cor3", "eq12_ladder", "eq15_duality", "eq22_ladder", "thm2"},
                 id="suite-order-one-table"),
    pytest.param(XPoly, "derivative", _bump_derivative,
                 {"eq12_ladder"}, id="XPoly-derivative"),
    # eq22's J at 0 reads H_m^{(r)}(1); to_fe_basis reads coefficients, not values
    pytest.param(XPoly, "evaluate", _bump_value,
                 {"eq22_ladder"}, id="XPoly-evaluate"),
    pytest.param(frobenius, "lowering_coeff", _bump_weights_at_two_steps,
                 {"thm2", "cor3", "cor4", "thm5", "remark"}, id="split-sum-weights"),
    # remark reads the order-1 row; thm1 at r = 2 recombines, J^(-2), from the order-2 row
    pytest.param(frobenius, "fe_numbers", _bump_number_at((1, 2)),
                 {"thm2", "cor3", "cor4", "thm5", "thm6", "thm1_roundtrip"}, id="split-sum-rows"),
    pytest.param(frobenius, "_surjection_row", _bump_surjections_onto_two,
                 {"thm2", "cor3", "cor4", "thm5", "thm6", "remark"}, id="surjection-counts"),
    pytest.param(frobenius, "stirling_lambda", _bump_stirling_at_two,
                 {"thm5", "thm6", "remark"}, id="stirling-at-two"),
    pytest.param(XPoly, "__pow__", _bump_fourth_power,
                 {"cor4"}, id="XPoly-fourth-power"),
    # each layer binds dot by name, and LambdaRat.__mul__ reads scalar's
    pytest.param((scalar, xpoly, umbral, frobenius), "dot", _drop_weights_divisible_by_seven,
                 {"cor3", "cor4", "eq15_duality", "remark", "thm1_roundtrip", "thm2", "thm5",
                  "thm6"}, id="dot-kernel"),
]

# Blocks that no identity reaches, with the reason; their unit tests cover them.
UNCOVERED = [
    pytest.param(TruncSeries, "recip", _bump_series_coefficient,
                 id="TruncSeries-recip: no identity in the grid takes a negative series power"),
    # j_lambda, the one J^s of thm1's to_fe_basis and from_fe_basis, reads the
    # rows of the opposite order, and eq22's J at 0 the values at 1; neither shifts a polynomial
    pytest.param(XPoly, "shift", _bump_shift_by(1),
                 id="XPoly-shift-by-one: j_lambda shifts nothing"),
    pytest.param(XPoly, "shift", _bump_shift_by(3),
                 id="XPoly-shift-by-three: the grid applies J once (eq22), from the values at 1, "
                    "and J^r (thm1), from the rows of order -r, not by shifts"),
]


@pytest.fixture
def cold_caches():
    # a perturbed value must not outlive its test in a memo
    frobenius.clear_caches()
    yield
    frobenius.clear_caches()


def _mismatching_identities(monkeypatch, owner, name, perturb):
    # a tuple of owners rebinds one perturbed block in each
    owners = owner if isinstance(owner, tuple) else (owner,)
    perturbed = perturb(getattr(owners[0], name))
    for each in owners:
        monkeypatch.setattr(each, name, perturbed)
    rep = run_suite(6, 3, 3)
    for c in rep.cells:
        assert (c.status == "equal") == (c.lhs == c.rhs)
    return {c.identity for c in rep.cells if c.status == "mismatch"}


@pytest.mark.parametrize("owner, name, perturb, expected", ROUTE_ROWS)
def test_route_perturbation_mismatches_its_identities(monkeypatch, cold_caches, owner, name,
                                                      perturb, expected):
    assert _mismatching_identities(monkeypatch, owner, name, perturb) == expected


@pytest.mark.parametrize("owner, name, perturb", UNCOVERED)
def test_uncovered_block_changes_no_cell(monkeypatch, cold_caches, owner, name, perturb):
    assert _mismatching_identities(monkeypatch, owner, name, perturb) == set()


def test_reflected_j_mismatches_on_the_coefficient_lists(monkeypatch, cold_caches):
    # J^(-r) J^r p = p holds for the reflected J too, so only the comparison
    # with appell_expand can catch it; each mismatch prints the dual list
    monkeypatch.setattr(frobenius, "j_lambda", _reflect_j(frobenius.j_lambda))
    bad = [c for c in run_suite(6, 3, 3).cells if c.status == "mismatch"]
    inputs = list(roundtrip_inputs(DEFAULT_SEED, 100))
    assert bad and {c.identity for c in bad} == {"thm1_roundtrip"}
    for c in bad:
        p, r = inputs[c.params["index"]]
        dual = umbral.appell_expand(frobenius.fe_series(r, int(p.degree)), p)
        assert c.rhs == "; ".join(str(x) for x in dual), c.params


def _names_read(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_read(const)
    return names


def test_evaluation_route_reads_no_series():
    # the dual side of thm1 is appell_expand on TruncSeries powering; the
    # other is j_lambda on the rows of order -r, which to_fe_basis applies,
    # and from_fe_basis recombines by j_lambda too, on the rows of order r
    assert "j_lambda" in _names_read(frobenius.to_fe_basis.__code__)
    back = _names_read(frobenius.from_fe_basis.__code__)
    assert "j_lambda" in back and not back & {"fe_poly", "dot"}
    read = _names_read(frobenius.j_lambda.__code__)
    assert "fe_numbers" in read and "shift" not in read
    read |= back | _names_read(frobenius._row.__code__)
    assert not read & {"fe_series", "_longest_series", "cached_series", "TruncSeries",
                        "appell_expand", "umbral"}


def test_split_sum_route_reads_no_polynomial_table():
    # the right side of thm2, cor3 and cor4 is built from the order-r rows
    # and the weights; fe_poly builds their left sides
    read = _names_read(suite._split_sum_polys.__code__)
    read |= _names_read(frobenius._split_sum_numbers.__wrapped__.__code__)
    assert {"_split_sum_numbers", "fe_numbers", "lowering_coeff"} <= read
    assert "fe_poly" not in read


def _split_sum_polys_termwise(n, r, s):
    # the definition, sum_l C(n,l) * lowering_coeff(s, l) * H_{n-l}^{(r)}(x|L),
    # coefficient by coefficient over the polynomial tables
    terms = [(comb(n, l), frobenius.lowering_coeff(s, l), frobenius.fe_poly(n - l, r).coeffs)
             for l in range(n + 1)]
    return XPoly._trimmed([dot((c, w, h[m]) for c, w, h in terms[:n - m + 1])
                           for m in range(n + 1)])


def test_eq22_left_side_is_j_of_the_table():
    # the Appell sum of J at 0 against j_lambda on the rows of order -1
    for r in (-40, -2, 0, 1, 3, 40):
        for n in range(13):
            assert verify_eq22_ladder(n, r).lhs == str(frobenius.j_lambda(frobenius.fe_poly(n, r)))


def test_split_sums_match_the_termwise_sum():
    for n in range(13):
        for r in range(-2, 7):
            for s in range(7):
                assert suite._split_sum_polys(n, r, s) == _split_sum_polys_termwise(n, r, s)


def _sweep_cells():
    # past the grid, which runs r >= 0 only and stops at r_max 6: thm2 and
    # eq15, declared for every integer r, at negative r; the identities
    # declared for r >= 0 or r >= 1 at r = 7..10
    for r in range(-6, 0):
        for n in range(13):
            for s in range(7):
                yield verify_thm2(n, r, s)
            for k in range(13):
                yield verify_eq15_duality(n, k, r)
    for r in (-50, -200, -1000):
        for n in range(41):
            yield verify_thm2(n, r, 7)
            yield verify_eq15_duality(n, n, r)
    for ident in sorted(i for i, (least, _) in IDENTITIES.items() if least.get("r") is not None):
        for r in range(7, 11):
            for n in range(13):
                yield getattr(suite, "verify_" + ident)(n=n, r=r)


def test_declared_domains_hold_past_the_grid(cold_caches):
    cells = list(_sweep_cells())
    assert {c.identity for c in cells} == {"thm2", "eq15_duality", "cor3", "cor4", "remark",
                                           "thm5", "thm6"}
    assert len(cells) == 1560 + 2 * 3 * 41 + 5 * 4 * 13
    assert [c for c in cells if c.status != "equal"] == []

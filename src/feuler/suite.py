"""Exact verification cells for the order-lowering identity family.

Each cell pits two independently computed canonical strings against each
other: the left side comes from the recurrence tables, the right side
from the identity under test, evaluated literally with its stated
summation bounds.  Each ``verify_<id>`` hands both values to ``_finish``,
which prints the left side and reuses that string for a right side of
the same type that is structurally equal (canonical form makes the
string a function of the value); other right sides are printed and the
strings compared.  A report is a deterministically ordered list
of cells plus a summary; serialized reports from a serial run and a
parallel run are byte-identical because no cell is timed: each line's
``elapsed_us`` key, kept for readers of the format, is always 0.
``Cell.report_row`` gives a line's fields once, for JSON and CSV alike.

``IDENTITIES`` describes every identity once: the arguments of its
``verify_<id>`` function and the grid a report runs it over.  Both
``run_suite`` and ``feuler verify`` read it.

Routes of the two sides.  "Table" is a row of ``frobenius``, every order
by one integer recurrence for the numerators over powers of (1 - L).
"Weights" are ``lowering_coeff``, built on the surjection recurrence.
"Stirling closed form" is ``stirling_lambda``, from ``delta_pow_at_zero``.

    thm2            table of order r - s | weights times order-r numbers, scaled by C(n, m)
    cor3            order-1 table        | weights times order-r numbers, scaled by C(n, m)
    cor4            x^n by XPoly powers  | weights times order-r numbers, scaled by C(n, m)
    thm5            Stirling closed form | weights times order-r numbers; weights alone
    thm6            Stirling closed form | weights times order-r numbers
    remark          Stirling closed form | weights times order-1 numbers
    eq15_duality    TruncSeries powering on the order-r table | n! delta_{n,k}
    eq12_ladder     derivative of the order-r table | n times the order-r table
    eq22_ladder     (J H_m^{(r)})(0) from the order-r polynomials at 1 and 0, scaled by
                    C(n, k) | order r - 1 table
    thm1_roundtrip  J^r p from the order -r row | appell_expand on TruncSeries powering;
                    J^(-r) of those coefficients from the order-r row | p
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import comb, factorial

from . import frobenius
from .frobenius import (_j_at_zero, _split_sum_numbers, fe_poly, fe_series, from_fe_basis,
                        to_fe_basis)
from .scalar import LAMBDA, ONE, LambdaRat, lrat
from .umbral import appell_expand
from .xpoly import X, XPoly

DEFAULT_SEED = 271828

# id -> (least value of each verify_<id> argument, None for any integer;
#        the argument ranges of a report as a function of (n_max, r_max, s_max)).
# Arguments are listed in plan order: cells come in registry order, then with
# the last argument varying fastest.  verify_<id> is looked up by name when a
# cell runs, so a rebound module attribute is what runs.
IDENTITIES = {
    "cor3": ({"n": 0, "r": 1}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    "cor4": ({"n": 0, "r": 1}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    "eq12_ladder": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(-r, r + 1))),
    "eq15_duality": ({"n": 0, "r": None, "k": 0},
                     lambda n, r, s: (range(n + 1), range(r + 1), range(n + 1))),
    "eq22_ladder": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(-r, r + 1))),
    "remark": ({"n": 0, "r": 1}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    # p and r of each cell come from the seeded draw, see roundtrip_inputs
    "thm1_roundtrip": ({"index": 0}, lambda n, r, s: (range(100),)),
    "thm2": ({"n": 0, "r": None, "s": 0},
             lambda n, r, s: (range(n + 1), range(r + 1), range(s + 1))),
    "thm5": ({"n": 0, "r": 0}, lambda n, r, s: (range(n + 1), range(r + 1))),
    "thm6": ({"n": 0, "r": 1}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
}
IDENTITY_IDS = tuple(IDENTITIES)

_ONE_MINUS = ONE - LAMBDA


def _json_text(obj) -> str:
    # imported here so that plain and LaTeX output do not load json
    import json
    return json.dumps(obj)


class Cell(namedtuple("Cell", "identity params status lhs rhs")):
    """One identity instance: status is equal iff lhs == rhs byte-wise.

    Cells and reports are named tuples: immutable, picklable between the
    workers of ``run_suite``, and equal to the plain tuple of their fields.
    """

    __slots__ = ()

    def report_row(self) -> tuple:
        """The values of one report line, named by REPORT_FIELDS: the
        parameters sorted by name, and elapsed_us 0."""
        return (self.identity, {k: self.params[k] for k in sorted(self.params)},
                self.status, self.lhs, self.rhs, 0)

    def to_json(self) -> str:
        """One JSONL report line."""
        return next(_json_lines([self.report_row()]))

    def csv_row(self) -> tuple:
        """One CSV report line: report_row() with the parameters as JSON text."""
        identity, params, *rest = self.report_row()
        return (identity, _json_text(params), *rest)


REPORT_FIELDS = Cell._fields + ("elapsed_us",)


def _json_lines(rows):
    """Yield json.dumps(dict(zip(REPORT_FIELDS, row))) for each row, written directly.

    Every string is quoted by the function json.dumps itself quotes with
    (ensure_ascii), so the bytes are the same; a side that is the other
    side's string object, as _finish makes an equal cell's, is quoted once.
    The parameters and elapsed_us are ints.
    """
    # imported here so that plain and LaTeX output do not load json
    from json.encoder import encode_basestring_ascii as quote
    keys = [quote(name) + ": " for name in REPORT_FIELDS]
    for row in rows:
        items = []
        last = None
        for key, v in zip(keys, row):
            if v.__class__ is str:
                if v is not last:
                    last, quoted = v, quote(v)
                items.append(key + quoted)
            elif v.__class__ is dict:
                items.append(key + "{" + ", ".join([quote(k) + ": " + int.__repr__(x)
                                                    for k, x in v.items()]) + "}")
            else:
                items.append(key + int.__repr__(v))
        yield "{" + ", ".join(items) + "}"


def _finish(identity, params, lhs, rhs) -> Cell:
    # the two sides are values or strings; equal values of one type print
    # one string, so an equal right side is not printed again
    text = str(lhs)
    if lhs.__class__ is rhs.__class__ and lhs == rhs:
        status, other = "equal", text
    else:
        other = str(rhs)
        status = "equal" if text == other else "mismatch"
    return Cell(identity, params, status, text, other)


def _split_sum_polys(n: int, r: int, s: int) -> XPoly:
    # sum_l C(n,l) * lowering_coeff(s, l) * H_{n-l}^{(r)}(x|L) is an Appell
    # sequence: its x^m coefficient is C(n,m) times the split sum of n - m
    return XPoly._trimmed([comb(n, m) * _split_sum_numbers(n - m, r, s) for m in range(n + 1)])


def verify_thm2(n: int, r: int, s: int) -> Cell:
    """Order lowering: H_n^{(r-s)}(x|L) equals the split bracket sum."""
    lhs = fe_poly(n, r - s)
    rhs = _split_sum_polys(n, r, s)
    return _finish("thm2", {"n": n, "r": r, "s": s}, lhs, rhs)


def verify_cor3(n: int, r: int) -> Cell:
    """Lowering order r to 1: the split sum with s = r - 1."""
    lhs = fe_poly(n, 1)
    rhs = _split_sum_polys(n, r, r - 1)
    return _finish("cor3", {"n": n, "r": r}, lhs, rhs)


def verify_cor4(n: int, r: int) -> Cell:
    """Lowering order r to 0: x^n equals the split sum with s = r."""
    lhs = X ** n
    rhs = _split_sum_polys(n, r, r)
    return _finish("cor4", {"n": n, "r": r}, lhs, rhs)


def verify_thm5(n: int, r: int) -> Cell:
    """Three expressions for r!/(1-L)^r S_L(n,r) agree (s = 2r at x = 0)."""
    e1 = frobenius.stirling_lambda(n, r) * factorial(r) * _ONE_MINUS ** (-r)
    e2 = _split_sum_numbers(n, r, 2 * r)
    e3 = frobenius.lowering_coeff(r, n)
    # a route is printed only when its value differs from e1
    differ = [f"{name}: {e}" for name, e in (("split_sum", e2), ("lowering_coeff", e3))
              if e != e1]
    rhs = "; ".join(differ) if differ else e1
    return _finish("thm5", {"n": n, "r": r}, e1, rhs)


def verify_thm6(n: int, r: int) -> Cell:
    """(r-1)!/(1-L)^{r-1} S_L(n,r-1) equals the split sum with s = 2r - 1."""
    e1 = frobenius.stirling_lambda(n, r - 1) * factorial(r - 1) * _ONE_MINUS ** (1 - r)
    e2 = _split_sum_numbers(n, r, 2 * r - 1)
    return _finish("thm6", {"n": n, "r": r}, e1, e2)


def verify_remark(n: int, r: int) -> Cell:
    """Same scalar via order-1 numbers: the split sum with s = r, order 1."""
    e1 = frobenius.stirling_lambda(n, r - 1) * factorial(r - 1) * _ONE_MINUS ** (1 - r)
    e2 = _split_sum_numbers(n, 1, r)
    return _finish("remark", {"n": n, "r": r}, e1, e2)


def verify_eq15_duality(n: int, k: int, r: int) -> Cell:
    """<g^r t^k | H_n^{(r)}> = n! delta_{n,k}."""
    g = fe_series(r, max(n, k))
    lhs = g.mul_t_power(k).functional(fe_poly(n, r))
    rhs = lrat(factorial(n) if n == k else 0)
    return _finish("eq15_duality", {"k": k, "n": n, "r": r}, lhs, rhs)


def verify_eq12_ladder(n: int, r: int) -> Cell:
    """d/dx H_n^{(r)} = n H_{n-1}^{(r)}."""
    lhs = fe_poly(n, r).derivative()
    rhs = n * fe_poly(n - 1, r) if n else XPoly([])
    return _finish("eq12_ladder", {"n": n, "r": r}, lhs, rhs)


def verify_eq22_ladder(n: int, r: int) -> Cell:
    """J H_n^{(r)} = H_n^{(r-1)}."""
    # J H_n^{(r)} is an Appell sequence: its x^k coefficient is C(n,k) (J H_{n-k}^{(r)})(0)
    lhs = XPoly._trimmed([comb(n, k) * _j_at_zero(n - k, r) for k in range(n + 1)])
    rhs = fe_poly(n, r - 1)
    return _finish("eq22_ladder", {"n": n, "r": r}, lhs, rhs)


_COEFF_DENS = ((1,), (1, -1), (1, -2, 1), (1, 1), (2, -1))


def _draw_poly(rng):
    deg = rng.randint(0, 10)
    coeffs = []
    for i in range(deg + 1):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        den = _COEFF_DENS[rng.randrange(len(_COEFF_DENS))]
        c = LambdaRat(num, den) * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if i == deg and c.is_zero:
            c = ONE
        coeffs.append(c)
    r = rng.randint(0, 4)
    return XPoly(coeffs), r


def roundtrip_inputs(seed: int, count: int):
    """Yield the first `count` seeded round-trip inputs (p, r), drawn in order:
    p of degree at most 10, r from 0 to 4, whatever the grid.

    Each input is drawn when it is asked for, so a caller holds one at a time.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield _draw_poly(rng)


def verify_thm1_roundtrip(index: int, p: XPoly, r: int) -> Cell:
    """Basis coefficients of round-trip input `index` agree across the
    evaluation and functional routes, and recombining them restores p."""
    params = {"degree": int(p.degree), "index": index, "r": r}
    e = to_fe_basis(p, r)
    dual = appell_expand(fe_series(r, max(int(p.degree), 0)), p)
    if list(e.coefficients) != dual:
        lhs = "; ".join(str(c) for c in e.coefficients)
        rhs = "; ".join(str(c) for c in dual)
        return _finish("thm1_roundtrip", params, lhs, rhs)
    return _finish("thm1_roundtrip", params, p, from_fe_basis(e))


# ---------------------------------------------------------------------------

def _tally(cells) -> dict:
    # "skipped" stays in the format; no cell below IDENTITIES' bounds runs
    out = {"total": len(cells), "equal": 0, "mismatch": 0, "skipped": 0}
    for c in cells:
        out[c.status] += 1
    return out


class VerificationReport(namedtuple("VerificationReport", "cells grid")):
    """Deterministically ordered cells plus the grid they were run on."""

    __slots__ = ()

    def totals(self) -> dict:
        return _tally(self.cells)

    def tallies(self) -> dict:
        """totals() of each identity that has cells, in cell order."""
        groups = {}
        for c in self.cells:
            groups.setdefault(c.identity, []).append(c)
        return {ident: _tally(group) for ident, group in groups.items()}

    @property
    def ok(self) -> bool:
        return self.totals()["mismatch"] == 0

    def json_lines(self):
        """Yield the JSONL report a line at a time: each cell's, then the summary."""
        yield from _json_lines(c.report_row() for c in self.cells)
        summary = dict(self.totals())
        summary["grid"] = {k: self.grid[k] for k in sorted(self.grid)}
        yield _json_text(summary)

    def to_jsonl(self) -> str:
        return "\n".join(self.json_lines()) + "\n"


def _plan(n_max: int, r_max: int, s_max: int, seed: int):
    """Yield each cell's (identity, verify arguments) in report order.

    Round-trip inputs are drawn as their cells come up, so one is held at a time.
    """
    for ident, (least, grid) in IDENTITIES.items():
        ranges = grid(n_max, r_max, s_max)
        draws = roundtrip_inputs(seed, len(ranges[0])) if ident == "thm1_roundtrip" else None
        for values in product(*ranges):
            args = dict(zip(least, values))
            if draws is not None:
                args["p"], args["r"] = next(draws)
            yield ident, args


def _eval_task(task) -> Cell:
    ident, args = task
    return globals()["verify_" + ident](**args)


def run_suite(n_max: int = 10, r_max: int = 4, s_max: int = 4,
              seed: int = DEFAULT_SEED, jobs: int = 1) -> VerificationReport:
    """Evaluate the full identity grid and collect a report.

    Cell order is deterministic (identity id, then parameters) and no cell
    is timed, so equal grids serialize identically no matter how the work
    was scheduled.
    """
    tasks = _plan(n_max, r_max, s_max, seed)
    if jobs > 1:
        # imported here so that `import feuler` does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            cells = list(ex.map(_eval_task, tasks, chunksize=32))
    else:
        cells = [_eval_task(t) for t in tasks]
    grid = {"n_max": n_max, "r_max": r_max, "s_max": s_max}
    return VerificationReport(cells=cells, grid=grid)

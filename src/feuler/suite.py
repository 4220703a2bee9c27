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
parallel run are byte-identical because no cell is timed: a cell's
``elapsed_us`` field keeps its default 0.

``IDENTITIES`` describes every identity once: the arguments of its
``verify_<id>`` function and the grid a report runs it over.  Both
``run_suite`` and ``feuler verify`` read it.

Routes of the two sides.  "Table" is a row of ``frobenius``, every order
by one integer recurrence for the numerators over (1 - L)^n.  "Weights"
are ``lowering_coeff``, built on the surjection recurrence.  "Stirling
closed form" is ``stirling_lambda``, from ``delta_pow_at_zero``.

    thm2            table of order r - s | weights times order-r tables
    cor3            order-1 table        | weights times order-r tables
    cor4            x^n by XPoly powers  | weights times order-r tables
    thm5            Stirling closed form | weights times order-r numbers; weights alone
    thm6            Stirling closed form | weights times order-r numbers
    remark          Stirling closed form | weights times order-1 numbers
    eq15_duality    TruncSeries powering on the order-r table | n! delta_{n,k}
    eq12_ladder     derivative of the order-r table | n times the order-r table
    eq22_ladder     J shift formula on the order-r table | order r - 1 table
    thm1_roundtrip  evaluation formula, one dot per coefficient | appell_expand on
                    TruncSeries powering, then order-r tables recombined | p
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

from . import frobenius
from .frobenius import fe_numbers, fe_poly, fe_series, from_fe_basis, j_lambda, to_fe_basis
from .scalar import LAMBDA, ONE, LambdaRat, dot, lrat
from .umbral import appell_expand
from .xpoly import X, XPoly

DEFAULT_SEED = 271828

# id -> (least value of each verify_<id> argument, None for any integer;
#        the argument ranges of a report as a function of (n_max, r_max, s_max)).
# Arguments are listed in plan order: cells come in registry order, then with
# the last argument varying fastest.  verify_<id> is looked up by name when a
# cell runs, so a rebound module attribute is what runs.
IDENTITIES = {
    "cor3": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    "cor4": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    "eq12_ladder": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(-r, r + 1))),
    "eq15_duality": ({"n": 0, "r": None, "k": 0},
                     lambda n, r, s: (range(n + 1), range(r + 1), range(n + 1))),
    "eq22_ladder": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(-r, r + 1))),
    "remark": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
    # p and r of each cell come from the seeded draw, see roundtrip_inputs
    "thm1_roundtrip": ({"index": 0}, lambda n, r, s: (range(100),)),
    "thm2": ({"n": 0, "r": None, "s": 0},
             lambda n, r, s: (range(n + 1), range(r + 1), range(s + 1))),
    "thm5": ({"n": 0, "r": 0}, lambda n, r, s: (range(n + 1), range(r + 1))),
    "thm6": ({"n": 0, "r": None}, lambda n, r, s: (range(n + 1), range(1, r + 1))),
}
IDENTITY_IDS = tuple(IDENTITIES)

_ONE_MINUS = ONE - LAMBDA


def _json_text(obj, **options) -> str:
    # imported here so that plain and LaTeX output do not load json
    import json
    return json.dumps(obj, **options)


class Cell:
    """One identity instance: status is equal iff lhs == rhs byte-wise."""

    __slots__ = ("identity", "params", "status", "lhs", "rhs", "elapsed_us")

    def __init__(self, identity: str, params: dict, status: str, lhs: str, rhs: str,
                 elapsed_us: int = 0):
        self.identity = identity
        self.params = params
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.elapsed_us = elapsed_us

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"Cell({fields})"

    def to_json(self) -> str:
        """One report line: fixed key order, parameters sorted by name."""
        return _json_text({
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_us": self.elapsed_us,
        })


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
    # sum_l C(n,l) * lowering_coeff(s, l) * H_{n-l}^{(r)}(x|L), coefficient
    # by coefficient
    terms = [(comb(n, l), frobenius.lowering_coeff(s, l), fe_poly(n - l, r).coeffs)
             for l in range(n + 1)]
    return XPoly._trimmed([dot((c, w, h[m]) for c, w, h in terms[:n - m + 1])
                           for m in range(n + 1)])


def _split_sum_numbers(n: int, r: int, s: int) -> LambdaRat:
    row = fe_numbers(n, r)
    return dot((comb(n, l), frobenius.lowering_coeff(s, l), row[n - l]) for l in range(n + 1))


def verify_thm2(n: int, r: int, s: int) -> Cell:
    """Order lowering: H_n^{(r-s)}(x|L) equals the split bracket sum."""
    lhs = fe_poly(n, r - s)
    rhs = _split_sum_polys(n, r, s)
    return _finish("thm2", {"n": n, "r": r, "s": s}, lhs, rhs)


def verify_cor3(n: int, r: int) -> Cell:
    """Lowering order r to 1: the split sum with s = r - 1."""
    if r < 1:
        return Cell("cor3", {"n": n, "r": r}, "skipped", "", "needs r >= 1")
    lhs = fe_poly(n, 1)
    rhs = _split_sum_polys(n, r, r - 1)
    return _finish("cor3", {"n": n, "r": r}, lhs, rhs)


def verify_cor4(n: int, r: int) -> Cell:
    """Lowering order r to 0: x^n equals the split sum with s = r."""
    if r < 1:
        return Cell("cor4", {"n": n, "r": r}, "skipped", "", "needs r >= 1")
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
    if r < 1:
        return Cell("thm6", {"n": n, "r": r}, "skipped", "", "needs r >= 1")
    e1 = frobenius.stirling_lambda(n, r - 1) * factorial(r - 1) * _ONE_MINUS ** (1 - r)
    e2 = _split_sum_numbers(n, r, 2 * r - 1)
    return _finish("thm6", {"n": n, "r": r}, e1, e2)


def verify_remark(n: int, r: int) -> Cell:
    """Same scalar via order-1 numbers: the split sum with s = r, order 1."""
    if r < 1:
        return Cell("remark", {"n": n, "r": r}, "skipped", "", "needs r >= 1")
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
    lhs = j_lambda(fe_poly(n, r))
    rhs = fe_poly(n, r - 1)
    return _finish("eq22_ladder", {"n": n, "r": r}, lhs, rhs)


_COEFF_DENS = ((1,), (1, -1), (1, -2, 1), (1, 1), (2, -1))


def _draw_poly(rng, max_degree: int, r_cap: int):
    deg = rng.randint(0, max_degree)
    coeffs = []
    for i in range(deg + 1):
        num = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        den = _COEFF_DENS[rng.randrange(len(_COEFF_DENS))]
        c = LambdaRat(num, den) * Fraction(rng.randint(1, 3), rng.randint(1, 3))
        if i == deg and c.is_zero:
            c = ONE
        coeffs.append(c)
    r = rng.randint(0, r_cap)
    return XPoly(coeffs), r


def roundtrip_inputs(seed: int, count: int, max_degree: int = 10, r_cap: int = 4):
    """Yield the first `count` seeded round-trip inputs (p, r), drawn in order.

    Each input is drawn when it is asked for, so a caller holds one at a time.
    """
    rng = random.Random(seed)
    for _ in range(count):
        yield _draw_poly(rng, max_degree, r_cap)


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
    out = {"total": len(cells), "equal": 0, "mismatch": 0, "skipped": 0}
    for c in cells:
        out[c.status] += 1
    return out


class VerificationReport:
    """Deterministically ordered cells plus the grid they were run on."""

    def __init__(self, cells: list, grid: dict):
        self.cells = cells
        self.grid = grid

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cells, self.grid) == (other.cells, other.grid)

    def __repr__(self):
        return f"VerificationReport(cells={self.cells!r}, grid={self.grid!r})"

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

    def to_jsonl(self) -> str:
        lines = [c.to_json() for c in self.cells]
        summary = dict(self.totals())
        summary["grid"] = {k: self.grid[k] for k in sorted(self.grid)}
        lines.append(_json_text(summary))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "VerificationReport":
        # imported here, as in _json_text, so that `import feuler` does not load json
        import json
        cells = []
        summary = None
        for line in text.splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            if "total" in obj:
                summary = obj
                continue
            cells.append(Cell(obj["identity"], obj["params"], obj["status"],
                              obj["lhs"], obj["rhs"], obj["elapsed_us"]))
        if summary is None:
            raise ValueError("report has no summary line")
        report = cls(cells=cells, grid=dict(summary.get("grid", {})))
        got = report.totals()
        for key in ("total", "equal", "mismatch", "skipped"):
            if summary.get(key) != got[key]:
                raise ValueError(f"summary {key}={summary.get(key)} but cells say {got[key]}")
        return report


def _plan(n_max: int, r_max: int, s_max: int, seed: int):
    """Yield each cell's (identity, verify arguments) in report order.

    Round-trip inputs are drawn as their cells come up, so one is held at a time.
    """
    for ident, (least, grid) in IDENTITIES.items():
        ranges = grid(n_max, r_max, s_max)
        draws = (roundtrip_inputs(seed, len(ranges[0]), min(10, n_max), min(4, r_max))
                 if ident == "thm1_roundtrip" else None)
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

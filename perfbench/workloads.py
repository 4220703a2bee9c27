"""What each workload runs, shared by the runner and the worker.

grid        run_suite(n_max=12, r_max=6, s_max=6) + to_jsonl, serial: the
            2661-cell identity report users ask for.
tables      cold large-n table builds.  The gcd-heavy builds stress scalar
            gcd and coefficient growth; the negative-order and Stirling
            builds (CHEAP_BUILDS) make only trivial gcds, so gcd work
            should not move their time.
cli         a closed loop of `feuler` subprocess calls, one client:
            interpreter start-up, import, argparse, parsing, formatting.
"""

from __future__ import annotations

import math
import random
import re
import statistics
from fractions import Fraction

DEFAULT_SEED = 271828
GRID = {"n_max": 12, "r_max": 6, "s_max": 6}
GRID_CELLS = 2661
THM1_CELLS = 100


def invoke_quantiles(seconds: list) -> tuple:
    """(p50, p75) of one repetition's operation latencies, nearest rank.

    p75 is the highest percentile with ten calls beyond it in a 40-call
    cli pass; cells and builds use the same percentile so that the metric
    means one thing on every workload.
    """
    ordered = sorted(seconds)
    return statistics.median(ordered), ordered[math.ceil(0.75 * len(ordered)) - 1]


# (name, callable taking the feuler package).  Order matters: rows built by
# an earlier build are cached for the later ones, as in one user session.
TABLE_BUILDS = (
    ("fe_numbers(48,1)", lambda F: F.fe_numbers(48, 1)),
    ("fe_numbers(24,3)", lambda F: F.fe_numbers(24, 3)),
    ("fe_poly(30,4)", lambda F: F.fe_poly(30, 4)),
    ("fe_series(-3,32)", lambda F: F.fe_series(-3, 32)),
    ("j_lambda(fe_poly(18,3),3)", lambda F: F.j_lambda(F.fe_poly(18, 3), 3)),
    ("surjection_sum(22,11)", lambda F: F.surjection_sum(22, 11)),
    ("fe_poly(30,-2)", lambda F: F.fe_poly(30, -2)),
    ("stirling_lambda(30,k<=30)", lambda F: [F.stirling_lambda(30, k) for k in range(31)]),
)
# Their gcds have one constant operand or operands of degree <= 2, against
# degree 47 in fe_numbers(48,1).
CHEAP_BUILDS = ("fe_poly(30,-2)", "stirling_lambda(30,k<=30)")
ROUND_TRIP = "basis_round_trip(deg 16)"
ROUND_TRIP_ORDER = 2  # fixed: the seed changes the input, not its cost or its rank among the builds


def round_trip_input(F, seed: int):
    """A seeded degree-16 polynomial over Q(L)."""
    rng = random.Random(seed)
    dens = ([1], [1, -1], [1, 1], [2, -1], [1, -2, 1], [1, 0, 1])
    coeffs = []
    for _ in range(17):
        num = F.LambdaPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))])
        den = F.LambdaPoly(rng.choice(dens))
        coeffs.append(F.LambdaRat(num, den) * Fraction(rng.randint(1, 9), rng.randint(1, 9)))
    if coeffs[-1].is_zero:
        coeffs[-1] = F.LambdaRat(1)
    return F.XPoly(coeffs)


# Each call's exit code and stdout digest at the seed commit are in
# expected.json.  The rows in BAD_INPUT are out-of-domain input that the
# documented contract says must exit 2; at the seed commit they do not
# (known defects, reported as such, see run.py).
CLI_CALLS = (
    ("numbers", "--n-max", "8", "--order", "1"),
    ("numbers", "--n-max", "6", "--order", "2", "--format", "latex"),
    ("numbers", "--n-max", "6", "--order", "-2", "--format", "csv"),
    ("numbers", "--n-max", "5", "--order", "3", "--format", "json"),
    ("numbers", "--n-max", "8", "--order", "1", "--lambda", "-1"),
    ("numbers", "--n-max", "6", "--order", "2", "--lambda", "1/2", "--format", "latex"),
    ("numbers", "--n-max", "4", "--lambda", "1"),
    ("poly", "--n", "5", "--order", "1"),
    ("poly", "--n", "6", "--order", "3", "--format", "latex"),
    ("poly", "--n", "4", "--order", "-1", "--format", "csv"),
    ("poly", "--n", "5", "--order", "2", "--format", "json"),
    ("poly", "--n", "4", "--order", "2", "--lambda", "2/3", "--format", "json"),
    ("convert", "--poly", "x^3 - 2*x + 1/3"),
    ("convert", "--poly", "(x - L)^4 / (1 - L)", "--order", "2", "--format", "latex"),
    ("convert", "--poly", "x^5 + L*x^2 - 3/2", "--order", "3", "--format", "csv"),
    ("convert", "--poly", "(2*x + 1)^3 - x*L^2", "--order", "1", "--format", "json"),
    ("convert", "--poly", "x^2*(x - 1)/(2 - L)", "--order", "1", "--lambda", "1/3",
     "--format", "json"),
    ("convert", "--poly", "x^2 + * 3"),
    ("stirling", "--n", "6", "--k", "3"),
    ("stirling", "--n", "8", "--k", "4", "--lambda", "-1"),
    ("stirling", "--n", "7", "--k", "2", "--lambda", "1/2", "--format", "latex"),
    ("stirling", "--n", "9", "--k", "5", "--lambda", "3", "--format", "csv"),
    ("stirling", "--n", "6", "--k", "6", "--lambda", "-2", "--format", "json"),
    ("verify", "--identity", "thm2", "--n", "4", "--r", "2", "--s", "1"),
    ("verify", "--identity", "cor3", "--n", "5", "--r", "3", "--format", "json"),
    ("verify", "--identity", "cor4", "--n", "4", "--r", "2", "--format", "latex"),
    ("verify", "--identity", "thm5", "--n", "5", "--r", "2", "--format", "csv"),
    ("verify", "--identity", "thm6", "--n", "4", "--r", "3"),
    ("verify", "--identity", "remark", "--n", "5", "--r", "2", "--format", "json"),
    ("verify", "--identity", "eq15_duality", "--n", "4", "--k", "4", "--r", "2"),
    ("verify", "--identity", "eq12_ladder", "--n", "5", "--r", "-1", "--format", "latex"),
    ("verify", "--identity", "eq22_ladder", "--n", "4", "--r", "2", "--format", "csv"),
    ("verify", "--identity", "thm1_roundtrip", "--index", "3", "--format", "json"),
    ("verify", "--identity", "thm1_roundtrip", "--index", "7"),
    ("suite", "--n-max", "3", "--r-max", "2", "--s-max", "2", "--format", "latex"),
    ("stirling", "--n", "-1", "--k", "2"),
    ("convert", "--poly", "x", "--order", "-1"),
    ("poly", "--n", "-2"),
    ("verify", "--identity", "thm1_roundtrip", "--index", "-1"),
    ("numbers", "--order", "1200"),
)
BAD_INPUT = frozenset(CLI_CALLS[-5:])


_ELAPSED_JSON = re.compile(rb'"elapsed_us": \d+')
_ELAPSED_CSV = re.compile(rb",\d+\n\Z")


def stable_stdout(argv, out: bytes) -> bytes:
    """stdout with the one field that varies by run, a cell's elapsed_us, zeroed."""
    if argv[0] != "verify":
        return out
    out = _ELAPSED_JSON.sub(b'"elapsed_us": 0', out)
    return _ELAPSED_CSV.sub(b",0\n", out) if "csv" in argv else out


def call_key(argv) -> str:
    return " ".join(argv)


def cli_order(seed: int) -> list:
    """Indices into CLI_CALLS in the order one pass sends them."""
    order = list(range(len(CLI_CALLS)))
    random.Random(seed).shuffle(order)
    return order

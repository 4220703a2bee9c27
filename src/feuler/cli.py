"""Command-line front end: tables, expansions, and identity verification.

The polynomial expression grammar shared by ``convert`` and the tests:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ('^' uint)?
    base     := rational | 'x' | 'L' | '(' expr ')' | '-' base
    rational := int ('/' uint)?

Rationals bind greedily ('3/2^2' is (3/2)^2), division only accepts
divisors free of x, and everything the canonical printers emit parses
back to an equal value.  Parentheses and unary minus signs nest at most
MAX_DEPTH deep, and a power's exponent, and its degree in x and in L,
are at most MAX_DEGREE; past either limit the parse fails.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from itertools import islice

from . import frobenius, suite as suite_mod
from .scalar import LAMBDA, ONE, PoleError, _render, lrat
from .xpoly import X, XPoly


MAX_DEPTH = 100  # parentheses and unary minus signs, counted together
MAX_DEGREE = 1000  # of a power, in x and in L, and of its exponent; and convert's --order
MAX_INDEX = 9999  # of verify's thm1_roundtrip --index: each earlier input is drawn first


class PolyParseError(ValueError):
    """Malformed polynomial expression, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


def _tokenize(text: str) -> list:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch in ("x", "L"):
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expr(self) -> XPoly:
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def term(self) -> XPoly:
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            kind, _, pos = self.advance()
            rhs = self.factor()
            if kind == "*":
                v = v * rhs
            else:
                if rhs.degree > 0:
                    raise PolyParseError("division by a polynomial in x", pos)
                if rhs.is_zero:
                    raise PolyParseError("division by zero", pos)
                v = v * rhs.coeff(0).inverse()
        return v

    def factor(self) -> XPoly:
        v = self.base()
        if self.peek()[0] == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise PolyParseError("expected a nonnegative integer exponent", pos)
            self.advance()
            n = _int(text, pos)
            size = max([len(v.coeffs) - 1] + [max(len(c.p), len(c.q)) - 1 for c in v.coeffs])
            if n > MAX_DEGREE or size * n > MAX_DEGREE:
                raise PolyParseError(f"power of degree above {MAX_DEGREE}", pos)
            v = v ** n
        return v

    def base(self) -> XPoly:
        kind, text, pos = self.peek()
        if kind in ("-", "("):
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise PolyParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        if kind == "-":
            self.advance()
            v = -self.base()
            self.depth -= 1
            return v
        if kind == "int":
            return XPoly.const(self.rational())
        if kind == "x":
            self.advance()
            return X
        if kind == "L":
            self.advance()
            return XPoly.const(LAMBDA)
        if kind == "(":
            self.advance()
            v = self.expr()
            k2, _, p2 = self.peek()
            if k2 != ")":
                raise PolyParseError("expected ')'", p2)
            self.advance()
            self.depth -= 1
            return v
        if kind == "end":
            raise PolyParseError("unexpected end of input", pos)
        raise PolyParseError(f"unexpected {text!r}", pos)

    def rational(self) -> Fraction:
        _, text, pos = self.advance()
        num = _int(text, pos)
        if self.peek()[0] == "/" and self.toks[self.i + 1][0] == "int":
            self.advance()
            _, dtext, dpos = self.advance()
            den = _int(dtext, dpos)
            if den == 0:
                raise PolyParseError("zero denominator", dpos)
            return Fraction(num, den)
        return Fraction(num)


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # a digit int() does not read, or too many digits
        raise PolyParseError("unreadable integer", pos) from None


def parse_poly_expr(text: str) -> XPoly:
    """Parse the expression grammar above into a polynomial over Q(L)."""
    parser = _Parser(text)
    v = parser.expr()
    kind, text_, pos = parser.peek()
    if kind != "end":
        raise PolyParseError(f"unexpected {text_!r}", pos)
    return v


# ---------------------------------------------------------------------------
# LaTeX rendering

def latex_lrat(v) -> str:
    """A value of Q(L), or a rational, in LaTeX."""
    v = lrat(v)
    num = _render(v.a, v.b, v.p, latex=True)
    if v.is_poly:
        return num
    return f"\\frac{{{num}}}{{{_render(1, 1, v.q, latex=True)}}}"


def latex_xpoly(p: XPoly) -> str:
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c.is_zero:
            continue
        body = latex_lrat(c)
        if k:
            xpow = "x" if k == 1 else f"x^{{{k}}}"
            if c == ONE:
                body = xpow
            elif not c.is_poly or sum(1 for v in c.p if v) > 1:
                body = f"\\left({body}\\right){xpow}"
            else:
                body = f"{body}\\,{xpow}"
        parts.append(body)
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------

def _fraction_arg(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value == 1:
        raise argparse.ArgumentTypeError("lambda = 1 is outside the field")
    return value


def _at_least(least: int):
    """argparse type: an integer no less than `least`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a malformed value as "invalid int value"
    return parse


_NATURAL = _at_least(0)


def _csv_text(header, rows) -> str:
    # imported here so that only CSV output loads csv
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(args, header, rows, latex_lines, json_obj) -> str:
    if args.format == "plain":
        return "\n".join("\t".join(str(v) for v in row) for row in rows) + "\n"
    if args.format == "csv":
        return _csv_text(header, rows)
    if args.format == "latex":
        return "\n".join(latex_lines) + "\n"
    return suite_mod._json_text(json_obj) + "\n"


def _emit_row(args, header, row, latex) -> str:
    """One value with its arguments: plain prints the value alone."""
    if args.format == "plain":
        return f"{row[-1]}\n"
    return _emit_table(args, header, [row], [latex], dict(zip(header, row)))


def _cells_csv(cells) -> str:
    return _csv_text(("identity", "params", "status", "lhs", "rhs", "elapsed_us"),
                     [(c.identity, suite_mod._json_text(c.params, sort_keys=True), c.status,
                       c.lhs, c.rhs, c.elapsed_us) for c in cells])


def _cmd_numbers(args, seed: int) -> int:
    r = args.order
    values = frobenius.fe_numbers(args.n_max, r)
    at = "(\\lambda)"
    if args.lam is not None:
        values = [v.evaluate(args.lam) for v in values]
        at = ""
    latex = [f"H_{{{n}}}^{{({r})}}{at} = {latex_lrat(v)} \\\\" for n, v in enumerate(values)]
    rows = [(n, str(v)) for n, v in enumerate(values)]
    obj = {"order": r, "values": [{"n": n, "value": s} for n, s in rows]}
    sys.stdout.write(_emit_table(args, ("n", "value"), rows, latex, obj))
    return 0


def _cmd_poly(args, seed: int) -> int:
    p = frobenius.fe_poly(args.n, args.order)
    if args.lam is not None:
        p = XPoly([lrat(c.evaluate(args.lam)) for c in p.coeffs])
    latex = f"H_{{{args.n}}}^{{({args.order})}}(x\\mid\\lambda) = {latex_xpoly(p)}"
    sys.stdout.write(_emit_row(args, ("n", "order", "poly"), (args.n, args.order, str(p)), latex))
    return 0


def _cmd_convert(args, seed: int) -> int:
    if args.order > MAX_DEGREE:
        sys.stderr.write(f"error: convert needs --order <= {MAX_DEGREE}\n")
        return 2
    try:
        p = parse_poly_expr(args.poly)
    except PolyParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    e = frobenius.to_fe_basis(p, args.order)
    coeffs = list(e.coefficients)
    if args.lam is not None:
        try:
            coeffs = [c.evaluate(args.lam) for c in coeffs]
        except PoleError as exc:
            sys.stderr.write(f"error: a coefficient has a {exc}\n")
            return 2
    latex = [f"C_{{{k}}} = {latex_lrat(c)} \\\\" for k, c in enumerate(coeffs)]
    rows = [(k, str(c)) for k, c in enumerate(coeffs)]
    obj = {"order": args.order, "poly": str(p),
           "coefficients": [{"k": k, "value": s} for k, s in rows]}
    sys.stdout.write(_emit_table(args, ("k", "value"), rows, latex, obj))
    return 0


def _cmd_stirling(args, seed: int) -> int:
    v = frobenius.stirling_lambda(args.n, args.k)
    if args.lam is not None:
        v = v.evaluate(args.lam)
    latex = f"S_{{\\lambda}}({args.n},{args.k}) = {latex_lrat(v)}"
    sys.stdout.write(_emit_row(args, ("n", "k", "value"), (args.n, args.k, str(v)), latex))
    return 0


def _cmd_verify(args, seed: int) -> int:
    least, _ = suite_mod.IDENTITIES[args.identity]
    values = {name: getattr(args, name) for name in least}
    unmet = [f"--{name}" for name, v in values.items() if v is None] or [
        f"--{name} >= {lo}" for name, lo in least.items() if lo is not None and values[name] < lo]
    if unmet:
        sys.stderr.write(f"error: {args.identity} needs {', '.join(unmet)}\n")
        return 2
    if args.identity == "thm1_roundtrip":
        if args.index > MAX_INDEX:
            sys.stderr.write(f"error: thm1_roundtrip needs --index <= {MAX_INDEX}\n")
            return 2
        draws = suite_mod.roundtrip_inputs(seed, args.index + 1)
        values["p"], values["r"] = next(islice(draws, args.index, None))
    cell = getattr(suite_mod, "verify_" + args.identity)(**values)
    if args.format == "json":
        sys.stdout.write(cell.to_json() + "\n")
    elif args.format == "csv":
        sys.stdout.write(_cells_csv([cell]))
    elif args.format == "latex":
        ps = ", ".join(f"{k}={cell.params[k]}" for k in sorted(cell.params))
        sys.stdout.write(
            f"\\texttt{{{cell.identity}}}({ps}): \\textbf{{{cell.status}}} \\\\\n")
    else:
        ps = " ".join(f"{k}={cell.params[k]}" for k in sorted(cell.params))
        sys.stdout.write(f"{cell.identity} {ps} {cell.status}\n"
                         f"lhs: {cell.lhs}\nrhs: {cell.rhs}\n")
    return 0 if cell.status != "mismatch" else 1


def _cmd_suite(args, seed: int) -> int:
    report = suite_mod.run_suite(args.n_max, args.r_max, args.s_max,
                                 seed=seed, jobs=args.jobs)
    if args.format == "json":
        sys.stdout.write(report.to_jsonl())
    elif args.format == "csv":
        sys.stdout.write(_cells_csv(report.cells))
    elif args.format == "latex":
        lines = ["\\begin{tabular}{lrrrr}",
                 "identity & cells & equal & mismatch & skipped \\\\"]
        for ident, t in report.tallies().items():
            lines.append(f"{ident.replace('_', chr(92) + '_')} & {t['total']} & "
                         f"{t['equal']} & {t['mismatch']} & {t['skipped']} \\\\")
        lines.append("\\end{tabular}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        rows = dict(report.tallies(), total=report.totals())
        for name, t in rows.items():
            sys.stdout.write(f"{name}: {t['total']} cells, {t['equal']} equal, "
                             f"{t['mismatch']} mismatch, {t['skipped']} skipped\n")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="feuler",
        description="Exact Frobenius-Euler polynomial tables and identity checks over Q(L).")
    sub = top.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "latex", "csv", "json"),
                     default="plain", help="output format (default plain)")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=_fraction_arg, default=None,
                     metavar="P/Q", help="evaluate at a rational lambda (never 1)")

    p = sub.add_parser("numbers", parents=[fmt, lam],
                       help="table of H_n^{(r)}(L) for n = 0..n-max")
    p.add_argument("--n-max", type=_NATURAL, default=10)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(run=_cmd_numbers)

    p = sub.add_parser("poly", parents=[fmt, lam],
                       help="the polynomial H_n^{(r)}(x|L)")
    p.add_argument("--n", type=_NATURAL, required=True)
    p.add_argument("--order", type=int, default=1)
    p.set_defaults(run=_cmd_poly)

    p = sub.add_parser("convert", parents=[fmt, lam],
                       help="expand a polynomial expression in the order-r basis")
    p.add_argument("--poly", required=True, metavar="EXPR")
    p.add_argument("--order", type=_NATURAL, default=1)
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("stirling", parents=[fmt, lam],
                       help="the L-analogue Stirling number S_L(n,k)")
    p.add_argument("--n", type=_NATURAL, required=True)
    p.add_argument("--k", type=_NATURAL, required=True)
    p.set_defaults(run=_cmd_stirling)

    p = sub.add_parser("verify", parents=[fmt],
                       help="run one identity cell")
    p.add_argument("--identity", required=True, choices=suite_mod.IDENTITY_IDS)
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--seed", type=int, default=suite_mod.DEFAULT_SEED)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("suite", parents=[fmt],
                       help="run the full identity grid and report")
    p.add_argument("--n-max", type=_NATURAL, default=10)
    p.add_argument("--r-max", type=_NATURAL, default=4)
    p.add_argument("--s-max", type=_NATURAL, default=4)
    p.add_argument("--jobs", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=suite_mod.DEFAULT_SEED)
    p.set_defaults(run=_cmd_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads --opt=-- as an empty list and skips the option's type
    if [] in vars(args).values():
        parser.error("'--' is not an option value")
    seed = getattr(args, "seed", suite_mod.DEFAULT_SEED)
    env_seed = os.environ.get("FEULER_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            sys.stderr.write(f"error: FEULER_SEED={env_seed!r} is not an integer\n")
            return 2
    return args.run(args, seed)


def entry():  # console-script hook
    sys.exit(main())

"""Command-line front end: tables, expansions, and identity verification.

The polynomial expression grammar shared by ``convert`` and the tests:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ('^' uint)?
    base     := rational | 'x' | 'L' | '(' expr ')' | '-' base
    rational := int ('/' uint)?

An int is a run of the ASCII digits 0-9; any other character, a
non-ASCII digit among them, is unexpected.  Rationals bind greedily
('3/2^2' is (3/2)^2), division only accepts divisors free of x, and
everything the canonical printers emit parses back to an equal value.
Parentheses and unary minus signs nest at most MAX_DEPTH deep, a
power's exponent, and the degree in x and in L of a power or a product,
are at most MAX_DEGREE, and no integer of a coefficient has more than
MAX_BITS bits; past any limit the parse fails.  Each limit on a power
or a product is checked before it is taken.

Every command writes its output through ``_write``, the one reader of
``--format`` and the one place that renders output text; the fields of a verification cell's report line are those
of ``suite.Cell.report_row``.  Only ``verify`` and ``suite`` import ``suite``:
its identity names and default seed are read when one of them, or its help
or usage error, needs them.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from . import frobenius
from .scalar import LAMBDA, ONE, PoleError, _render, lrat
from .xpoly import X, XPoly


MAX_DEPTH = 100  # parentheses and unary minus signs, counted together
MAX_DEGREE = 1000  # powers in x and L; convert ±--order; stirling --n/--k; verify ±--r, --s, --k
MAX_BITS = 10000  # of a parsed coefficient's integers; str() of an int fails past 4300 digits
MAX_OUT_BITS = 14284  # of a value's integers at --lambda: 2^14284 < 10^4300, str()'s limit
MAX_INDEX = 9999  # verify's thm1_roundtrip --index: each earlier input is drawn first
MAX_ROW = 400  # numbers' --n-max and poly's --n: under 1 s and 50 MB of output at the cap
MAX_ORDER = 10 ** 6  # numbers' and poly's --order, either sign: about 3 s at --n-max 400
MAX_CELL_N = 150  # verify's --n: thm2 --n 150 --r 6 --s 3 takes about 1 s and prints 4.6 MB
MAX_JOBS = 64  # suite's --jobs: the process pool starts all its workers at once


class PolyParseError(ValueError):
    """Malformed polynomial expression, with the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# optional whitespace, then an int, an operator or letter, or any other character
_TOKEN = re.compile(r"\s*(?:([0-9]+)|([-+*/^()xL])|(\S))")


def _tokenize(text: str) -> list:
    toks = []
    # the scan ends where trailing whitespace begins: from each start in it the
    # pattern fails only at the end, which would take time quadratic in its length
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        num, op, bad = m.groups()
        if bad:
            raise PolyParseError(f"unexpected character {bad!r}", m.start(3))
        toks.append(("int", num, m.start(1)) if num else (op, op, m.start(2)))
    toks.append(("end", "", len(text)))
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
            op, _, pos = self.advance()
            rhs = self.term()
            v = _bounded(v + rhs if op == "+" else v - rhs, pos)
        return v

    def term(self) -> XPoly:
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            kind, _, pos = self.advance()
            rhs = self.factor()
            if kind == "/":
                if rhs.degree > 0:
                    raise PolyParseError("division by a polynomial in x", pos)
                if rhs.is_zero:
                    raise PolyParseError("division by zero", pos)
            if max(map(sum, zip(_degrees(v.coeffs), _degrees(rhs.coeffs)))) > MAX_DEGREE:
                raise PolyParseError(f"product of degree above {MAX_DEGREE}", pos)
            if _bits(v) + _bits(rhs) > MAX_BITS:
                raise PolyParseError(f"coefficient of more than {MAX_BITS} bits", pos)
            v = _bounded(v * rhs if kind == "*" else v * rhs.coeff(0).inverse(), pos)
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
            if n > MAX_DEGREE or max(_degrees(v.coeffs)) * n > MAX_DEGREE:
                raise PolyParseError(f"power of degree above {MAX_DEGREE}", pos)
            v = _bounded(_bounded(v, pos, n) ** n, pos)
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
            return _bounded(XPoly.const(self.rational()), pos)
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


def _degrees(coeffs) -> tuple:
    """The degree in x of the polynomial with these coefficients and the largest
    degree in L of a numerator or denominator, each of which adds up over a product."""
    return len(coeffs) - 1, max((max(len(c.p), c.e + len(c.r)) - 1 for c in coeffs), default=0)


def _bits(v: XPoly) -> int:
    """The most bits an integer of v's coefficients may print: a * p_k, b, or
    one of (1 - L)^e * r, at most 2^e times r's.  They add up over a product."""
    return max((max((c.a * max(c.p, key=abs)).bit_length(), c.b.bit_length(),
                    c.e + max(c.r, key=abs).bit_length()) for c in v.coeffs if c.p), default=0)


def _bounded(v: XPoly, pos: int, power: int = 1) -> XPoly:
    """v, unless its coefficients, or those of its power, may print an integer
    past MAX_BITS bits."""
    if _bits(v) * power > MAX_BITS:
        raise PolyParseError(f"coefficient of more than {MAX_BITS} bits", pos)
    return v


def _int(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
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

# what --lambda reads: Fraction() would also take exponents, '_', spaces and
# non-ASCII digits, and build 10^n for '1en' before any cap is checked
_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _fraction_arg(text: str) -> Fraction:
    try:
        if not _RATIONAL.fullmatch(text):
            raise ValueError(text)
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # not P/Q, past int()'s digits, or Q = 0
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc
    if value == 1:
        raise argparse.ArgumentTypeError("lambda = 1 is outside the field")
    return value


def _int_in(least=None, most=None):
    """argparse type: an integer from `least` to `most`; an end left None is open."""
    def parse(text: str) -> int:
        if not text.isascii():  # int() reads any Unicode decimal digit
            raise ValueError(text)
        value = int(text)
        if least is not None and value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be <= {most}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a malformed value as "invalid int value"
    return parse


class TooLargeToPrint(ValueError):
    """A value at --lambda with an integer that str() may not convert."""


def _at_lambda(values, lam: Fraction | None):
    """Each value of Q(L) at lam, or values as they are when lam is None.  Raises
    PoleError at a pole, and TooLargeToPrint when a value would print an integer
    past MAX_OUT_BITS bits: estimated first as the degree in L times lam's bits,
    which bounds the time, then checked."""
    if lam is None:
        return values

    def bits(v: Fraction) -> int:
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())

    _, degree = _degrees(values)
    if degree * bits(lam) <= MAX_OUT_BITS:
        out = [v.evaluate(lam) for v in values]
        if all(bits(v) <= MAX_OUT_BITS for v in out):
            return out
    raise TooLargeToPrint(f"a value at this lambda would print an integer of more than "
                          f"{MAX_OUT_BITS} bits")


def _json_text(obj) -> str:
    import json  # imported here so that only JSON output loads json
    return json.dumps(obj)


def _write(args, header, rows, latex, json_lines, plain=None) -> None:
    """Print a command's output in args.format, the one place that reads it,
    rendering only that format, a line at a time.

    CSV is header then rows, LaTeX the given lines, and JSON the lines that
    json_lines() yields.  Plain is str() of each given line, or else each
    row's values joined by tabs.  A reader that closes stdout ends the output
    quietly, and the command keeps its own exit status.
    """
    try:
        if args.format == "csv":
            import csv  # imported here so that only CSV output loads csv
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            if args.format == "json":
                lines = json_lines()
            elif args.format == "latex":
                lines = latex
            elif plain is None:
                lines = ("\t".join(map(str, row)) for row in rows)
            else:
                lines = map(str, plain)
            lines = iter(lines)  # each ends in a newline, and no lines print one empty line
            sys.stdout.write(next(lines, "") + "\n")
            sys.stdout.writelines(line + "\n" for line in lines)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed: what is still buffered goes nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_numbers(args) -> int:
    r = args.order
    values = _at_lambda(frobenius.fe_numbers(args.n_max, r), args.lam)
    at = "(\\lambda)" if args.lam is None else ""
    latex = (f"H_{{{n}}}^{{({r})}}{at} = {latex_lrat(v)} \\\\" for n, v in enumerate(values))
    _write(args, ("n", "value"), enumerate(values), latex, lambda: [_json_text(
        {"order": r, "values": [{"n": n, "value": str(v)} for n, v in enumerate(values)]})])
    return 0


def _cmd_poly(args) -> int:
    p = frobenius.fe_poly(args.n, args.order)
    if args.lam is not None:
        p = XPoly(_at_lambda(p.coeffs, args.lam))
    head = f"H_{{{args.n}}}^{{({args.order})}}(x\\mid\\lambda) = "
    _write(args, ("n", "order", "poly"), [(args.n, args.order, p)],
           (head + latex_xpoly(q) for q in [p]),
           lambda: [_json_text({"n": args.n, "order": args.order, "poly": str(p)})],
           [p])
    return 0


def _cmd_convert(args) -> int:
    p = parse_poly_expr(args.poly)
    e = frobenius.to_fe_basis(p, args.order)
    coeffs = _at_lambda(e.coefficients, args.lam)
    latex = (f"C_{{{k}}} = {latex_lrat(c)} \\\\" for k, c in enumerate(coeffs))
    _write(args, ("k", "value"), enumerate(coeffs), latex, lambda: [_json_text(
        {"order": args.order, "poly": str(p),
         "coefficients": [{"k": k, "value": str(c)} for k, c in enumerate(coeffs)]})])
    return 0


def _cmd_stirling(args) -> int:
    [v] = _at_lambda([frobenius.stirling_lambda(args.n, args.k)], args.lam)
    head = f"S_{{\\lambda}}({args.n},{args.k}) = "
    _write(args, ("n", "k", "value"), [(args.n, args.k, v)], (head + latex_lrat(w) for w in [v]),
           lambda: [_json_text({"n": args.n, "k": args.k, "value": str(v)})], [v])
    return 0


def _cmd_verify(args) -> int:
    from . import suite as suite_mod
    least, _ = suite_mod.IDENTITIES[args.identity]
    values = {name: getattr(args, name) for name in least}
    unmet = [f"--{name}" for name, v in values.items() if v is None] or [
        f"--{name} >= {lo}" for name, lo in least.items() if lo is not None and values[name] < lo]
    if unmet:
        sys.stderr.write(f"error: {args.identity} needs {', '.join(unmet)}\n")
        return 2
    if args.identity == "thm1_roundtrip":
        seed = suite_mod.DEFAULT_SEED if args.seed is None else args.seed
        draws = suite_mod.roundtrip_inputs(seed, args.index + 1)
        values["p"], values["r"] = next(islice(draws, args.index, None))
    cell = getattr(suite_mod, "verify_" + args.identity)(**values)
    ps = [f"{k}={v}" for k, v in sorted(cell.params.items())]
    latex = [f"\\texttt{{{cell.identity}}}({', '.join(ps)}): \\textbf{{{cell.status}}} \\\\"]
    plain = [f"{cell.identity} {' '.join(ps)} {cell.status}", f"lhs: {cell.lhs}",
             f"rhs: {cell.rhs}"]
    _write(args, suite_mod.REPORT_FIELDS, (c.csv_row() for c in [cell]), latex,
           lambda: [cell.to_json()], plain)
    return 0 if cell.status != "mismatch" else 1


def _cmd_suite(args) -> int:
    from . import suite as suite_mod
    seed = suite_mod.DEFAULT_SEED if args.seed is None else args.seed
    report = suite_mod.run_suite(args.n_max, args.r_max, args.s_max, seed=seed, jobs=args.jobs)
    tallies = report.tallies()
    latex = ["\\begin{tabular}{lrrrr}", "identity & cells & equal & mismatch & skipped \\\\",
             *(f"{ident.replace('_', chr(92) + '_')} & {t['total']} & {t['equal']} & "
               f"{t['mismatch']} & {t['skipped']} \\\\" for ident, t in tallies.items()),
             "\\end{tabular}"]
    plain = [f"{name}: {t['total']} cells, {t['equal']} equal, {t['mismatch']} mismatch, "
             f"{t['skipped']} skipped" for name, t in dict(tallies, total=report.totals()).items()]
    _write(args, suite_mod.REPORT_FIELDS, (c.csv_row() for c in report.cells), latex,
           report.json_lines, plain)
    return 0 if report.ok else 1


class _IdentityIds:
    """verify's --identity choices: suite.IDENTITY_IDS, read when argparse tests
    (``in`` falls back to ``__iter__``) or lists them, so that only verify, its
    help and its usage errors import suite."""

    def __iter__(self):
        from . import suite
        return iter(suite.IDENTITY_IDS)


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
    p.add_argument("--n-max", type=_int_in(0, MAX_ROW), default=10)
    p.add_argument("--order", type=_int_in(-MAX_ORDER, MAX_ORDER), default=1)
    p.set_defaults(run=_cmd_numbers)

    p = sub.add_parser("poly", parents=[fmt, lam],
                       help="the polynomial H_n^{(r)}(x|L)")
    p.add_argument("--n", type=_int_in(0, MAX_ROW), required=True)
    p.add_argument("--order", type=_int_in(-MAX_ORDER, MAX_ORDER), default=1)
    p.set_defaults(run=_cmd_poly)

    p = sub.add_parser("convert", parents=[fmt, lam],
                       help="expand a polynomial expression in the order-r basis")
    p.add_argument("--poly", required=True, metavar="EXPR")
    p.add_argument("--order", type=_int_in(-MAX_DEGREE, MAX_DEGREE), default=1)
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("stirling", parents=[fmt, lam],
                       help="the L-analogue Stirling number S_L(n,k)")
    p.add_argument("--n", type=_int_in(0, MAX_DEGREE), required=True)
    p.add_argument("--k", type=_int_in(0, MAX_DEGREE), required=True)
    p.set_defaults(run=_cmd_stirling)

    p = sub.add_parser("verify", parents=[fmt],
                       help="run one identity cell")
    # set after add_argument, which would list the choices, and so import suite, at once
    p.add_argument("--identity", required=True).choices = _IdentityIds()
    # only the work caps: suite.IDENTITIES holds each identity's lower bounds
    p.add_argument("--n", type=_int_in(most=MAX_CELL_N))
    p.add_argument("--r", type=_int_in(-MAX_DEGREE, MAX_DEGREE))
    p.add_argument("--s", type=_int_in(most=MAX_DEGREE))
    p.add_argument("--k", type=_int_in(most=MAX_DEGREE))
    p.add_argument("--index", type=_int_in(most=MAX_INDEX))
    p.add_argument("--seed", type=_int_in())  # None: suite.DEFAULT_SEED
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("suite", parents=[fmt],
                       help="run the full identity grid and report")
    p.add_argument("--n-max", type=_int_in(0), default=10)
    p.add_argument("--r-max", type=_int_in(0), default=4)
    p.add_argument("--s-max", type=_int_in(0), default=4)
    p.add_argument("--jobs", type=_int_in(1, MAX_JOBS), default=1)
    p.add_argument("--seed", type=_int_in())  # None: suite.DEFAULT_SEED
    p.set_defaults(run=_cmd_suite)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads --opt=-- as an empty list and skips the option's type
    if [] in vars(args).values():
        parser.error("'--' is not an option value")
    try:
        return args.run(args)
    except (PolyParseError, PoleError, TooLargeToPrint) as exc:  # of --poly or at --lambda
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():  # console-script hook
    sys.exit(main())

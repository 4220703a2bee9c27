"""Span tracing of feuler's layers from outside the package.

``Tracer.install()`` replaces the functions and methods listed in
``TARGETS`` (and the ten ``suite.verify_*`` cell functions) with wrappers
that record one span per call: name, start, end, parent span and group
(the cell, build or CLI call that caused it).  A function imported by
name into another module is a separate binding, so every module
attribute that holds the original object is rebound.  Spans stay in flat
arrays in memory; ``Tracer.raw`` sums calls and self time per name,
``layer_metrics`` turns the sums into metrics, and ``Tracer.write`` saves
the spans when the repetition ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from array import array
from fractions import Fraction

# (module, attribute path, metric name); several attributes may share a name.
TARGETS = (
    ("scalar", "LambdaRat.__add__", "scalar.add"),
    ("scalar", "LambdaRat.__radd__", "scalar.add"),
    ("scalar", "LambdaRat.__mul__", "scalar.mul"),
    ("scalar", "LambdaRat.__rmul__", "scalar.mul"),
    ("scalar", "LambdaRat.inverse", "scalar.inverse"),
    ("scalar", "LambdaRat.__pow__", "scalar.pow"),
    ("scalar", "LambdaRat.__init__", "scalar.new"),
    ("xpoly", "XPoly.shift", "xpoly.shift"),
    ("xpoly", "XPoly.__mul__", "xpoly.mul"),
    ("xpoly", "XPoly.__rmul__", "xpoly.mul"),
    ("xpoly", "XPoly.__add__", "xpoly.add"),
    ("xpoly", "XPoly.__radd__", "xpoly.add"),
    ("xpoly", "XPoly.evaluate", "xpoly.evaluate"),
    ("xpoly", "XPoly.derivative", "xpoly.derivative"),
    ("umbral", "TruncSeries.__mul__", "umbral.series_mul"),
    ("umbral", "TruncSeries.__rmul__", "umbral.series_mul"),
    ("umbral", "TruncSeries.recip", "umbral.recip"),
    ("umbral", "TruncSeries.__pow__", "umbral.pow"),
    ("umbral", "TruncSeries.functional", "umbral.functional"),
    ("umbral", "TruncSeries.mul_t_power", "umbral.mul_t_power"),
    ("umbral", "appell_expand", "umbral.appell_expand"),
    ("frobenius", "fe_numbers", "frobenius.fe_numbers"),
    ("frobenius", "fe_poly", "frobenius.fe_poly"),
    ("frobenius", "fe_series", "frobenius.fe_series"),
    ("frobenius", "j_lambda", "frobenius.j_lambda"),
    ("frobenius", "lowering_coeff", "frobenius.lowering_coeff"),
    ("frobenius", "stirling_lambda", "frobenius.stirling_lambda"),
    ("frobenius", "delta_pow_at_zero", "frobenius.delta_pow_at_zero"),
    ("frobenius", "surjection_sum", "frobenius.surjection_sum"),
    ("frobenius", "to_fe_basis", "frobenius.to_fe_basis"),
    ("frobenius", "from_fe_basis", "frobenius.from_fe_basis"),
    ("suite", "run_suite", "suite.run_suite"),
    ("suite", "VerificationReport.to_jsonl", "suite.to_jsonl"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_poly_expr", "cli.parse_poly_expr"),
)

IDENTITIES = ("cor3", "cor4", "eq12_ladder", "eq15_duality", "eq22_ladder",
              "remark", "thm1_roundtrip", "thm2", "thm5", "thm6")

# Names reported as <name>.calls and <name>.self_s.
TIMED = tuple(dict.fromkeys(name for _, _, name in TARGETS if name != "suite.run_suite"))

_FIELDS = (("name", "i"), ("parent", "q"), ("group", "q"),
           ("start", "d"), ("end", "d"), ("gap", "d"))


def p50_and_tail(values):
    """Median and the highest sample with ten samples above it.

    With fewer than 21 samples that sample would not lie above the median;
    the slowest is used instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    return statistics.median(ordered), ordered[n - 11 if n >= 21 else n - 1]


def _copy_names(dst, src):
    for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
        try:
            setattr(dst, attr, getattr(src, attr))
        except AttributeError:
            pass
    dst.__wrapped__ = src


class Tracer:
    """Flat in-memory span store plus the counters read at the scalar layer."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # gap: time its children's wrappers spend outside their own spans,
        # excluded from a span's self time
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self.stack = [-1]
        self.current_group = -1
        self.hold_group = False  # set while a CLI call or table build owns the group
        self.counts = {"add": 0, "add_same_den": 0, "mul": 0, "mul_const": 0, "fe_poly": 0}
        self.peak_coeff_bits = 0
        self.max_den_degree = 0
        self.fe_poly_keys = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_group(self) -> int:
        self.current_group += 1
        return self.current_group

    def wrap(self, name, fn, pre=None, post=None):
        nid = self.name_id(name)
        names, parents, groups = self.name, self.parent, self.group
        starts, ends, gaps, stack = self.start, self.end, self.gap, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t_in = clock()
            parent = stack[-1]
            i = len(starts)
            names.append(nid)
            parents.append(parent)
            groups.append(tracer.current_group)
            ends.append(0.0)
            gaps.append(0.0)
            if pre is not None:
                pre(args, kwargs)
            stack.append(i)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = ends[i] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            if parent >= 0:
                # the wrapper's own work before start and after end
                gaps[parent] += clock() - t_in - (end - start)
            return result

        _copy_names(wrapper, fn)
        return wrapper

    # -- counters read from operands and results -------------------------

    def _hooks(self, scalar):
        LambdaRat, LambdaPoly = scalar.LambdaRat, scalar.LambdaPoly
        one = (Fraction(1),)
        counts = self.counts

        def den_of(v):
            return v.den.coeffs if isinstance(v, LambdaRat) else one

        def is_const(v):
            if isinstance(v, LambdaRat):
                return len(v.num.coeffs) <= 1 and v.den.coeffs == one
            if isinstance(v, LambdaPoly):
                return len(v.coeffs) <= 1
            return isinstance(v, (int, Fraction))

        def add_pre(args, kwargs):
            counts["add"] += 1
            if den_of(args[0]) == den_of(args[1]):
                counts["add_same_den"] += 1

        def mul_pre(args, kwargs):
            counts["mul"] += 1
            if is_const(args[0]) or is_const(args[1]):
                counts["mul_const"] += 1

        def record(value):
            if type(value) is not LambdaRat:
                return
            deg = len(value.den.coeffs) - 1
            if deg > self.max_den_degree:
                self.max_den_degree = deg
            peak = self.peak_coeff_bits
            for c in value.num.coeffs:
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
                if b > peak:
                    peak = b
            for c in value.den.coeffs:
                b = c.numerator.bit_length()
                if b > peak:
                    peak = b
            self.peak_coeff_bits = peak

        def result_post(args, result):
            record(result)

        def new_post(args, result):
            record(args[0])

        def fe_poly_pre(args, kwargs):
            counts["fe_poly"] += 1
            r = args[1] if len(args) > 1 else kwargs.get("r", 1)
            self.fe_poly_keys.add((args[0], r))

        return {
            "scalar.add": (add_pre, result_post),
            "scalar.mul": (mul_pre, result_post),
            "scalar.inverse": (None, result_post),
            "scalar.pow": (None, result_post),
            "scalar.new": (None, new_post),
            "frobenius.fe_poly": (fe_poly_pre, None),
        }

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target and rebind every module attribute that held it."""
        import feuler
        from feuler import cli, frobenius, scalar, suite, umbral, xpoly
        mods = {"scalar": scalar, "xpoly": xpoly, "umbral": umbral,
                "frobenius": frobenius, "suite": suite, "cli": cli}
        hooks = self._hooks(scalar)
        replaced = {}
        for mod_name, path, name in TARGETS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if id(orig) not in replaced:
                pre, post = hooks.get(name, (None, None))
                replaced[id(orig)] = (orig, self.wrap(name, orig, pre, post))
            setattr(owner, attr, replaced[id(orig)][1])
        for ident in IDENTITIES:
            fn = getattr(suite, "verify_" + ident)
            replaced[id(fn)] = (fn, self._cell_wrapper("suite." + ident, fn))
        # bindings made by `from .x import name`, and the package namespace
        for mod in list(mods.values()) + [feuler]:
            for key, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])

    def _cell_wrapper(self, name, fn):
        inner = self.wrap(name, fn)
        tracer = self

        def cell(*args, **kwargs):
            if not tracer.hold_group:
                tracer.new_group()
            return inner(*args, **kwargs)

        _copy_names(cell, fn)
        return cell

    # -- reduction and output ----------------------------------------------

    def raw(self) -> dict:
        """Sums that merge across processes: calls, self time, cell latencies."""
        n = len(self.start)
        starts, ends, parents, gaps, name = self.start, self.end, self.parent, self.gap, self.name
        dur = [ends[k] - starts[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = parents[k]
            if p >= 0:
                child[p] += dur[k]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        lat = {}
        cell_ids = {i: nm[6:] for i, nm in enumerate(self.names)
                    if nm.startswith("suite.") and nm[6:] in IDENTITIES}
        for k in range(n):
            nid = name[k]
            calls[nid] += 1
            self_s[nid] += dur[k] - child[k] - gaps[k]
            if nid in cell_ids:
                lat.setdefault(cell_ids[nid], []).append(dur[k])
        return {"calls": dict(zip(self.names, calls)),
                "self_s": dict(zip(self.names, self_s)),
                "cell_s": lat,
                "counts": dict(self.counts, fe_poly_distinct=len(self.fe_poly_keys)),
                "peak_coeff_bits": self.peak_coeff_bits,
                "max_den_degree": self.max_den_degree,
                "spans": n}

    def write(self, path: str):
        """Save the spans: one JSON header line, then each field's raw array."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {"names": self.names, "count": len(self.start),
                  "fields": [[f, c] for f, c in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)


def merge_raw(raws: list) -> dict:
    """Combine raw() results of several processes (one pass of CLI calls)."""
    out = {"calls": {}, "self_s": {}, "cell_s": {}, "counts": {},
           "peak_coeff_bits": 0, "max_den_degree": 0, "spans": 0}
    for r in raws:
        for key in ("calls", "self_s", "counts"):
            for k, v in r[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, v in r["cell_s"].items():
            out["cell_s"].setdefault(k, []).extend(v)
        out["peak_coeff_bits"] = max(out["peak_coeff_bits"], r["peak_coeff_bits"])
        out["max_den_degree"] = max(out["max_den_degree"], r["max_den_degree"])
        out["spans"] += r["spans"]
    return out


def layer_metrics(raw: dict) -> dict:
    """Per-layer metrics {name: (value, unit)} from one raw() result."""
    calls, self_s, counts = raw["calls"], raw["self_s"], raw["counts"]
    out = {}
    for nm in TIMED:
        if nm != "suite.to_jsonl":
            out[nm + ".calls"] = (calls.get(nm, 0), "count")
        out[nm + ".self_s"] = (self_s.get(nm, 0.0), "s")
    for ident in IDENTITIES:
        nm = "suite." + ident
        lat = raw["cell_s"].get(ident, [])
        p50, tail = p50_and_tail(lat) if lat else (0.0, 0.0)
        out[nm + ".cells"] = (calls.get(nm, 0), "count")
        out[nm + ".self_s"] = (self_s.get(nm, 0.0), "s")
        out[nm + ".p50_us"] = (p50 * 1e6, "us")
        out[nm + ".tail_us"] = (tail * 1e6, "us")

    def share(part, whole):
        return counts.get(part, 0) / counts[whole] if counts.get(whole) else 0.0

    out["scalar.mul.const_share"] = (share("mul_const", "mul"), "share")
    out["scalar.add.same_den_share"] = (share("add_same_den", "add"), "share")
    out["scalar.out.peak_coeff_bits"] = (raw["peak_coeff_bits"], "bits")
    out["scalar.out.max_den_degree"] = (raw["max_den_degree"], "degree")
    out["frobenius.fe_poly.repeat_share"] = (1 - share("fe_poly_distinct", "fe_poly")
                                             if counts.get("fe_poly") else 0.0, "share")
    return out

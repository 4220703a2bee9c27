"""One repetition of a workload in a fresh interpreter.

Started by run.py with one JSON argument; prints one JSON line with the
timings, the values the runner checks, and (traced) the per-layer sums.
Every repetition starts cold: feuler's caches are never reset in place,
because clear_caches() leaves the lru_caches and the suite's series
cache warm, which no user run gets.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time

import feuler as F
from feuler import cli, suite

import hostspeed
import tracing
import workloads as W

clock = time.perf_counter


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def as_text(value) -> str:
    if isinstance(value, list):
        return "\n".join(str(v) for v in value)
    return str(value)


def sampled(tracer):
    """Host speed probes for an untraced body; none while tracing, whose
    spans would count them."""
    return contextlib.nullcontext(None) if tracer is not None else hostspeed.Sampler()


def spent(speed):
    return speed.spent if speed is not None else 0.0


def run_grid(spec, tracer):
    seed = spec["seed"]
    cell_s = []
    with sampled(tracer) as speed:
        if tracer is not None:
            tracer.install()
        else:
            # run_suite looks _eval_task up at call time and zeroes
            # elapsed_us, so each cell is timed here
            task = suite._eval_task

            def timed(t):
                s0 = speed.spent
                t0 = clock()
                cell = task(t)
                cell_s.append(clock() - t0 - (speed.spent - s0))
                return cell

            suite._eval_task = timed
        t0 = clock()
        report = F.run_suite(**W.GRID, seed=seed, jobs=1)
        text = report.to_jsonl()
        wall = clock() - t0 - spent(speed)
    out = {"wall_s": wall}
    if tracer is not None:
        out["raw"] = tracer.raw()
    else:
        out["speed"] = hostspeed.factor(speed.probes)
        out["op_p50_s"], out["op_tail_s"] = W.invoke_quantiles(cell_s)
        out["ops"] = len(cell_s)
    lines = text.splitlines()
    fixed, thm1 = [], []
    for line in lines[:-1]:
        (thm1 if json.loads(line)["identity"] == "thm1_roundtrip" else fixed).append(line)
    fixed.append(lines[-1])
    totals = report.totals()
    out["check"] = {"total": totals["total"], "mismatch": totals["mismatch"],
                    "sha_all": sha(text), "sha_fixed": sha("\n".join(fixed)),
                    "thm1_cells": len(thm1)}
    return out


def run_tables(spec, tracer):
    p, r = W.round_trip_input(F, spec["seed"]), W.ROUND_TRIP_ORDER
    if tracer is not None:
        tracer.install()
        tracer.hold_group = True
    build_s = {}
    results = {}
    with sampled(tracer) as speed:
        t_all = clock()
        for name, build in W.TABLE_BUILDS:
            if tracer is not None:
                tracer.new_group()
            s0 = spent(speed)
            t0 = clock()
            results[name] = build(F)
            build_s[name] = clock() - t0 - (spent(speed) - s0)
        if tracer is not None:
            tracer.new_group()
        s0 = spent(speed)
        t0 = clock()
        expansion = F.to_fe_basis(p, r)
        back = F.from_fe_basis(expansion)
        build_s[W.ROUND_TRIP] = clock() - t0 - (spent(speed) - s0)
        wall = clock() - t_all - spent(speed)
    out = {"wall_s": wall, "build_s": build_s}
    if tracer is not None:
        out["raw"] = tracer.raw()
    else:
        out["speed"] = hostspeed.factor(speed.probes)
        # the cheap builds are the control, reported apart by run.py
        heavy = [t for name, t in build_s.items() if name not in W.CHEAP_BUILDS]
        out["op_p50_s"], out["op_tail_s"] = W.invoke_quantiles(heavy)
        out["ops"] = len(heavy)
    digests = {name: sha(as_text(v)) for name, v in results.items()}
    digests[W.ROUND_TRIP] = sha(as_text(list(expansion.coefficients)))
    check = {"digests": digests, "round_trip_exact": back == p}
    if spec.get("once"):
        # independent route to the same coefficients: the Appell functional
        t0 = clock()
        dual = F.appell_expand(F.fe_series(r, 16), p)
        check["dual_route_equal"] = dual == list(expansion.coefficients)
        out["once_s"] = clock() - t0
    out["check"] = check
    return out


def run_cli_call(spec, tracer):
    tracer.install()
    tracer.hold_group = True
    tracer.new_group()
    stdout, stderr = io.StringIO(), io.StringIO()
    traceback = False
    t0 = clock()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(list(spec["argv"]))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # an uncaught error is what a user would see as a traceback
            rc, traceback = 1, True
    wall = clock() - t0
    return {"wall_s": wall, "raw": tracer.raw(),
            "check": {"rc": rc, "traceback": traceback, "sha": hashlib.sha256(
                W.stable_stdout(spec["argv"], stdout.getvalue().encode())).hexdigest()}}


def main():
    spec = json.loads(sys.argv[1])
    tracer = tracing.Tracer() if spec["trace"] else None
    if spec["workload"] == "cli":
        out = run_cli_call(spec, tracer)
    elif spec["workload"] == "tables":
        out = run_tables(spec, tracer)
    else:
        out = run_grid(spec, tracer)
    if tracer is not None and spec.get("spans"):
        tracer.write(spec["spans"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

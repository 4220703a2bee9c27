"""feuler benchmark: one workload, measured cold, outputs checked.

    python3 perfbench/run.py --workload grid|tables|cli|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(worker.py, or `python -m feuler` for cli), so caches start cold as they
do for a user.  Repetitions continue while another one fits in --seconds;
each metric is the median over them.  set-up time is the median of
many `import feuler` timings, each made inside a fresh interpreter.
Every timing in the metrics is corrected for the host's speed at the
moment it was taken (hostspeed.py); the raw figures are printed too.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the layers from
outside (tracing.py), alternates traced and untraced repetitions, and
prints per-layer metrics plus the tracing overhead.  The last stdout line
is one JSON object: correct, attempted, failed, metrics (with --workload
all, metric names are prefixed by the workload).  The exit code is 1 when
any output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import hostspeed
import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_FIRST = 8  # `import feuler` shots before the first repetition
SETUP_EACH = 4  # and after each one
SETUP_PROBES = 4
# timed inside the child, so process creation and interpreter start-up,
# which feuler does not control, stay out of the figure; the host is
# probed right after the import
SETUP_CODE = ("import sys, time; t0 = time.perf_counter(); import feuler; "
              "t1 = time.perf_counter(); sys.path.insert(0, {here!r}); import hostspeed; "
              "print(t1 - t0, hostspeed.factor([hostspeed.probe() for _ in range({n})]))"
              ).format(here=str(HERE), n=SETUP_PROBES)
RUN_LIMIT_S = 170  # children still running then are killed, so a workload ends within 180 s
WORKLOADS = ("grid", "tables", "cli")
clock = time.perf_counter


class Child:
    """Result of one child process: exit code, output, wall time, peak RSS."""

    def __init__(self, argv, env, deadline, capture_stderr=False):
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                                stderr=subprocess.PIPE if capture_stderr else None,
                                start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - t0), _kill_group, (proc.pid,))
        timer.start()
        err = []
        reader = None
        if capture_stderr:
            reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
            reader.start()
        try:
            self.stdout = proc.stdout.read()
            # wait4 rather than wait: its rusage is this child's (and its
            # reaped workers') peak RSS alone
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.wall_s = clock() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        if reader is not None:
            reader.join()
            proc.stderr.close()
        proc.stdout.close()
        self.stderr = err[0] if err else b""
        self.peak_rss_mb = usage.ru_maxrss / 1024.0


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Run:
    def __init__(self, args, workload, env, expected):
        self.args = args
        self.workload = workload
        self.deadline = clock() + RUN_LIMIT_S
        self.env = env
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = []
        self.setup = []  # (raw seconds, host speed factor) per shot
        self.report_digests = []

    def fail(self, message, count=1):
        self.failed += count
        self.problems.append(message)

    # -- grid, tables: one worker per repetition ---------------------------

    def worker(self, trace, extra=None, tag=""):
        spec = {"workload": self.workload, "seed": self.args.seed, "trace": trace}
        if trace:
            spec["spans"] = str(OUT / "spans" / f"{self.workload}{tag}.spans")
        spec.update(extra or {})
        child = Child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], self.env,
                      self.deadline)
        if child.rc != 0:
            raise RuntimeError(f"worker exited {child.rc} on {self.workload}")
        rep = json.loads(child.stdout.decode().splitlines()[-1])
        rep["process_s"] = child.wall_s
        rep["peak_rss_mb"] = child.peak_rss_mb
        return rep

    def check_grid(self, rep):
        exp = self.expected["grid"]
        chk = rep["check"]
        self.attempted += chk["total"] + 1
        if chk["total"] != W.GRID_CELLS or chk["thm1_cells"] != W.THM1_CELLS:
            self.fail(f"grid has {chk['total']} cells, {chk['thm1_cells']} round trips",
                      max(1, W.GRID_CELLS - chk["total"]))
        if chk["mismatch"]:
            self.fail(f"{chk['mismatch']} mismatched cells", chk["mismatch"])
        anchored = chk["sha_fixed"] == exp["sha_fixed"]
        if self.args.seed == W.DEFAULT_SEED:
            anchored = anchored and chk["sha_all"] == exp["sha_anchor"]
        if not anchored:
            self.fail("report bytes miss the anchor")

    def check_tables(self, rep):
        exp = self.expected["tables"]
        chk = rep["check"]
        self.attempted += len(chk["digests"])
        for name, digest in chk["digests"].items():
            want = exp.get(name)
            if name == W.ROUND_TRIP:
                want = want if self.args.seed == W.DEFAULT_SEED else None
                ok = chk["round_trip_exact"] and chk.get("dual_route_equal", True)
                ok = ok and (want is None or digest == want)
            else:
                ok = digest == want
            if not ok:
                self.fail(f"table build {name} is wrong")

    def repetition(self, trace, first):
        rep = self.worker(trace, {"once": first}, tag=f"-rep{len(self.report_digests)}")
        (self.check_grid if self.workload == "grid" else self.check_tables)(rep)
        self.report_digests.append(rep["check"].get("sha_all"))
        if self.report_digests[-1] != self.report_digests[0]:
            self.fail("report bytes differ between repetitions")
        return rep

    # -- cli: a closed loop of subprocess calls ----------------------------

    def cli_pass(self, trace):
        """One pass over the call list; returns wall, latencies, peak RSS, raws."""
        exp = self.expected["cli"]
        lat, rss, raws, defects = [], [], [], 0
        # untraced: the host is probed between calls, here, on the CPU the
        # calls run on (main pins the benchmark to one)
        probes = [] if trace else [hostspeed.probe()]
        corrected = 0.0
        for idx in W.cli_order(self.args.seed):
            argv = W.CLI_CALLS[idx]
            key = W.call_key(argv)
            if trace:
                spec = {"workload": "cli", "seed": self.args.seed, "trace": True,
                        "argv": list(argv), "spans": str(OUT / "spans" / f"cli-call{idx}.spans")}
                child = Child([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              self.env, self.deadline)
                if child.rc != 0:
                    raise RuntimeError(f"traced cli worker exited {child.rc} on {key}")
                out = json.loads(child.stdout.decode().splitlines()[-1])
                rc, digest, traceback = (out["check"]["rc"], out["check"]["sha"],
                                         out["check"]["traceback"])
                raws.append(out["raw"])
            else:
                child = Child([sys.executable, "-m", "feuler", *argv], self.env,
                              self.deadline, capture_stderr=True)
                digest = hashlib.sha256(W.stable_stdout(argv, child.stdout)).hexdigest()
                rc = child.rc
                traceback = b"Traceback (most recent call last)" in child.stderr
            lat.append(child.wall_s)
            rss.append(child.peak_rss_mb)
            if not trace:
                probes.append(hostspeed.probe())
                corrected += child.wall_s * hostspeed.factor(probes[-2:])
            self.attempted += 1
            if argv in W.BAD_INPUT:
                defects += rc != 2 or traceback
            elif rc != exp[key]["rc"] or digest != exp[key]["sha"] or traceback:
                self.fail(f"cli call `{key}` gave exit {rc}, traceback={traceback}")
        wall = sum(lat)
        p50, tail = W.invoke_quantiles(lat)
        rep = {"wall_s": wall, "op_p50_s": p50, "op_tail_s": tail, "ops": len(lat),
               "peak_rss_mb": max(rss), "raws": raws, "defects": defects}
        if not trace:
            rep["speed"] = corrected / wall
        return rep

    def loop(self, one):
        """Repetitions until --seconds is used: untraced ones, or with
        --trace 1 traced and untraced in turn.  Set-up shots are spread over
        the run, so their median covers all of it."""
        trace = self.args.trace
        untraced, traced = [], []
        t_start = clock()
        self.setup_shots(SETUP_FIRST)
        while True:
            t_rep = clock()
            want_trace = trace and len(traced) <= len(untraced)
            rep = one(want_trace, not untraced and not want_trace)
            (traced if want_trace else untraced).append(rep)
            self.setup_shots(SETUP_EACH)
            done = untraced and (traced or not trace)
            # the checks made once a run do not recur in the next repetition
            next_s = clock() - t_rep - rep.get("once_s", 0.0)
            if done and clock() - t_start + next_s > self.args.seconds:
                return untraced, traced

    def setup_shots(self, n):
        for _ in range(n):
            child = Child([sys.executable, "-c", SETUP_CODE], self.env, self.deadline)
            if child.rc != 0:
                raise RuntimeError("`import feuler` failed")
            raw, speed = map(float, child.stdout.split())
            self.setup.append((raw, speed))

    # -- metrics -----------------------------------------------------------

    def measure(self):
        if self.workload == "cli":
            untraced, traced = self.loop(lambda trace, first: self.cli_pass(trace))
            for p in traced:
                p["raw"] = tracing.merge_raw(p.pop("raws"))
            defects = median([p["defects"] for p in untraced + traced])
            self.notes.append(
                f"known defects: {defects:g} of {len(W.BAD_INPUT)} bad-input calls per pass "
                "do not exit 2 (not counted as failed)")
        else:
            untraced, traced = self.loop(self.repetition)
            defects = 0
        n_ops = untraced[0]["ops"]
        # Operation latencies are printed raw, not gated: each samples the
        # host's speed at one moment, and over ten runs on a shared 2-vCPU
        # VM their spread reached the widest bound a metric may have.
        p50_ms = 1e3 * median([r["op_p50_s"] for r in untraced])
        tail_ms = 1e3 * median([r["op_tail_s"] for r in untraced])
        self.notes.append(
            f"{len(untraced)} untraced repetitions of {n_ops} operations each; "
            f"invoke_p50_ms = {p50_ms:.6g} ms and invoke_tail_ms = {tail_ms:.6g} ms, "
            f"the per-repetition p50 and p75 (rank {math.ceil(0.75 * n_ops)} of {n_ops}), "
            "median over repetitions")
        self.notes.append("raw wall_s per repetition: " + ", ".join(
            f"{r['wall_s']:.3f}" for r in untraced) + "; host speed factor: " + ", ".join(
            f"{r['speed']:.3f}" for r in untraced))
        self.notes.append(
            f"raw setup_s = {median([raw for raw, _ in self.setup]):.6g} s, "
            f"median of {len(self.setup)} set-up shots; host speed factor "
            f"{median([speed for _, speed in self.setup]):.3f}")
        if not self.args.trace:
            return {
                "setup_s": (median([raw * speed for raw, speed in self.setup]), "s"),
                "wall_s": (median([r["wall_s"] * r["speed"] for r in untraced]), "s"),
                "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
            }
        per_rep = [tracing.layer_metrics(r["raw"]) for r in traced]
        metrics = {name: (median([m[name][0] for m in per_rep]), unit)
                   for name, (_, unit) in per_rep[0].items()}
        traced_wall = median([r["wall_s"] for r in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - median([r["wall_s"] for r in untraced]), "s")
        metrics["cli.bad_input.not_rejected"] = (defects, "count")
        # the control of tables: builds whose gcds are trivial, untraced and
        # corrected like wall_s
        cheap = [r["speed"] * sum(t for name, t in r["build_s"].items() if name in W.CHEAP_BUILDS)
                 for r in untraced if "build_s" in r]
        gcd = [r["speed"] * sum(t for name, t in r["build_s"].items()
                                if name not in W.CHEAP_BUILDS)
               for r in untraced if "build_s" in r]
        metrics["tables.cheap_builds_s"] = (median(cheap) if cheap else 0.0, "s")
        metrics["tables.gcd_builds_s"] = (median(gcd) if gcd else 0.0, "s")
        self.notes.append(f"{len(traced)} traced repetitions, "
                          f"{median([r['raw']['spans'] for r in traced]):.0f} spans each")
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=44)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "feuler" / "__init__.py").is_file():
        sys.stderr.write(f"error: no feuler package under {SRC}; run from a full checkout\n")
        return 2
    # one CPU for the runner and every child it starts, so that the host
    # probes of cli run where the calls run
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FEULER_SEED", None)  # it would override the seed the benchmark passes
    expected = json.loads((HERE / "expected.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        run = Run(args, name, env, expected)
        measured = run.measure()
        for metric, (value, unit) in measured.items():
            print(f"{name} {metric} = {value:.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        for note in run.notes + run.problems:
            print(f"{name}: {note}")
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the dual-cube simulator: host time per simulated D_prefix /
D_sort run on the flat and sharded engines, every output checked.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sort_d6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5      # every workload
    python3 perfbench/run.py --self-test                     # fault injection

The script builds perfbench/worker.cpp and the library sources in Release
mode under $CARGO_TARGET_DIR (default .bench_build), then runs the worker
as a closed loop: one caller, the shared pool pinned to nproc-1 workers.
Each op is one complete simulated algorithm run whose result and Counters
the worker checks off the clock. A failed op is counted by cause
(wrong_result, wrong_counters, exception, crash, hang); after any failure
the worker process is discarded and a fresh one continues with new inputs.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics (see perfbench/README.md). Earlier stdout
lines are a human-readable report with the environment stamp.
"""

import argparse
import hashlib
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> simulated nodes per op, span of the algorithm call.
WORKLOADS = {
    "prefix_flat_d8": (1 << 15, "core.dual_prefix"),
    "sort_d6": (1 << 11, "core.dual_sort"),
    "prefix_sharded_d11": (1 << 21, "core.sharded_dual_prefix"),
}

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.p10", "ms"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("op_rel.p10", "ratio"),
    ("op_rel.p50", "ratio"),
    ("nodes_per_s", "nodes/s"),
    ("error_rate", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER = [
    ("support.pool.dispatch_us", "us"),
    ("support.pool.steals_per_op", "count"),
    ("support.pool.speedup", "ratio"),
    ("topology.build_ms", "ms"),
    ("sim.schedule.record_ms", "ms"),
    ("sim.schedule.hits_per_op", "count"),
    ("sim.schedule.misses_per_op", "count"),
    ("sim.schedule.bytes", "bytes"),
    ("sim.schedule_store.load_ms", "ms"),
    ("sim.machine.construct_us", "us"),
    ("sim.machine.gather_us", "us"),
    ("sim.machine.compute_us", "us"),
    ("sim.machine.host_ns_per_msg", "ns"),
    ("sim.machine.comm_cycles", "count"),
    ("sim.machine.comp_steps", "count"),
    ("sim.machine.messages", "count"),
    ("sim.machine.ops", "count"),
    ("sim.machine.arena_bytes", "bytes"),
    ("sim.shard.construct_ms", "ms"),
    ("sim.trace.flight_ratio", "ratio"),
    ("core.self_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
]

CAUSES = ["wrong_result", "wrong_counters", "exception", "crash", "hang"]

SETUP_REPS = 5       # cold set-ups before the first worker's loop
SETUP_EVERY = 2.0    # then one more per this many seconds of untraced loop
SEGMENTS = 4         # worker processes, one after another, per untraced run
WARMUP_OPS = 3       # checked but untimed ops after set-up
OP_DEADLINE = 2.0       # seconds an op may take before it counts as a hang
SETUP_DEADLINE = 15.0   # seconds per cold set-up before it counts as a hang
SESSION_SLACK = 60.0    # set-up and respawn time a session may add
MAX_SPAWNS = 200        # respawn limit per session


# ---- build -----------------------------------------------------------------

def build():
    """Configures and builds the worker; returns its path. Output goes to
    stderr so stdout stays the report."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = os.path.join(target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", "3"],
                   stdout=sys.stderr, check=True)
    return bdir, os.path.join(bdir, "perfbench_worker")


# ---- one worker process ------------------------------------------------------

class Session:
    """Runs one workload for `seconds` of measured loop, split over
    `segments` worker processes run one after another, and respawns the
    worker after every failure. Collects per-op records and failures.

    Each process lays out its heap anew, which moves op times by a few
    percent from process to process; several shorter processes per run
    average that out."""

    def __init__(self, worker, workload, seed, seconds, trace, deadline,
                 threads, inject=None, store_dir=None, trace_out=None,
                 setup_reps=SETUP_REPS, segments=1):
        self.worker = worker
        self.setup_reps = setup_reps
        self.segment = seconds / segments
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = deadline
        self.threads = threads
        self.inject = inject
        self.store_dir = store_dir
        self.trace_out = trace_out
        self.env_stamp = None
        self.setups = []        # seconds per cold set-up
        self.ops = []           # "op" records of the measured loop
        self.unmeasured = 0     # checked set-up, warm-up and probe ops
        self.failures = {c: 0 for c in CAUSES}
        self.lost_ns = 0        # loop time lost to crashes and hangs
        self.peak_rss_kb = 0
        self.probes = None
        self.spawns = 0

    def attempted(self):
        return len(self.ops) + self.unmeasured + self.failures["crash"] + \
            self.failures["hang"]

    def failed(self):
        return sum(self.failures.values())

    def run(self):
        op_base = 0
        loop_start = None
        give_up = time.monotonic() + self.seconds + SESSION_SLACK
        while self.spawns < MAX_SPAWNS and time.monotonic() < give_up:
            remaining = self.seconds
            if loop_start is not None:
                remaining -= time.monotonic() - loop_start
                if remaining <= 0:
                    break
            first = self.spawns == 0
            self.spawns += 1
            span = min(remaining, self.segment)
            args = [self.worker, "--workload", self.workload,
                    "--seed", str(self.seed), "--seconds", f"{span:.3f}",
                    "--trace", "1" if self.trace else "0",
                    "--probes", "0" if self.probes else "1",
                    "--op-base", str(op_base),
                    "--setup-reps", str(self.setup_reps if first else 1),
                    "--warmup", str(WARMUP_OPS),
                    "--setup-every", "0" if self.trace else str(SETUP_EVERY)]
            if self.inject:
                args += ["--inject", self.inject]
            if self.store_dir:
                args += ["--store-dir", self.store_dir]
            if self.trace_out:
                args += ["--trace-out", self.trace_out]
            seen, started, ok = self._one_worker(args)
            if started is not None and loop_start is None:
                loop_start = started
            if ok and remaining - span <= self.segment / 4:
                break
            op_base += seen + 1  # fresh inputs; never retry a failed op's
        return self

    def _count(self, status):
        if status == "ok":
            self.unmeasured += 1
            return False
        self.failures[status] += 1
        return True

    def _one_worker(self, args):
        """Runs one worker until it exits, fails or hangs. Returns (checked
        ops it reported, parent time its loop started or None, clean
        exit)."""
        env = dict(os.environ, DC_THREADS=str(self.threads))
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, env=env)
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        buf = b""
        seen = 0
        set_up = False          # past the cold set-ups
        loop_started = None
        last = time.monotonic()
        failed_reported = hung = eof = False
        try:
            while True:
                limit = self.deadline if set_up else SETUP_DEADLINE
                wait = last + limit - time.monotonic()
                if wait <= 0 or not sel.select(timeout=wait):
                    hung = True
                    break
                chunk = os.read(proc.stdout.fileno(), 65536)
                if not chunk:
                    eof = True
                    break
                buf += chunk
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    last = time.monotonic()
                    ev = json.loads(line)
                    kind = ev["ev"]
                    if kind == "env":
                        self.env_stamp = ev
                    elif kind == "setup":
                        seen += 1
                        failed_reported |= self._count(ev["status"])
                        if ev["status"] == "ok":
                            self.setups.append(
                                (ev["build_ns"] + ev["first_op_ns"]) / 1e9)
                    elif kind in ("warmup", "probe_op"):
                        seen += 1
                        set_up = True
                        failed_reported |= self._count(ev["status"])
                    elif kind == "probes":
                        self.probes = ev
                    elif kind == "phase":
                        set_up = True
                        loop_started = last
                    elif kind == "op":
                        seen += 1
                        if ev["status"] != "ok":
                            self.failures[ev["status"]] += 1
                            failed_reported = True
                        self.ops.append(ev)
                    elif kind == "end":
                        self.peak_rss_kb = max(self.peak_rss_kb,
                                               ev["peak_rss_kb"])
        finally:
            sel.close()
            if not eof:
                proc.kill()
            proc.stdout.close()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if hung:
            self.failures["hang"] += 1
            if loop_started:
                self.lost_ns += int(self.deadline * 1e9)
            return seen, loop_started, False
        if proc.returncode == 0 and not failed_reported:
            return seen, loop_started, True
        if not failed_reported:
            # Died without reporting: a signal, or an abort or exit in the
            # program outside the checked path.
            self.failures["crash"] += 1
            if loop_started:
                self.lost_ns += int((time.monotonic() - last) * 1e9)
        return seen, loop_started, False


# ---- metrics ---------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    v = sorted(values)
    if not v:
        return float("nan")
    pos = (len(v) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def end_to_end(s, nodes):
    ok = [o for o in s.ops if o["status"] == "ok"]
    ok_wall = [o["wall_ns"] for o in ok]
    # Op time in units of the reference kernel timed right after it: the
    # shared host's speed changes move both, so the ratio cancels them.
    ok_rel = [o["wall_ns"] / o["ref_ns"] for o in ok]
    all_wall_ns = sum(o["wall_ns"] for o in s.ops) + s.lost_ns
    attempted = s.attempted()
    return {
        "setup_s": statistics.median(s.setups) if s.setups else float("nan"),
        "op_ms.p10": percentile(ok_wall, 10) / 1e6,
        "op_ms.p50": percentile(ok_wall, 50) / 1e6,
        "op_ms.p90": percentile(ok_wall, 90) / 1e6,
        "op_rel.p10": percentile(ok_rel, 10),
        "op_rel.p50": percentile(ok_rel, 50),
        "nodes_per_s": len(ok_wall) * nodes / (all_wall_ns / 1e9)
        if all_wall_ns else float("nan"),
        "error_rate": s.failed() / attempted if attempted else float("nan"),
        "cpu_ms_per_op": percentile([o["cpu_ns"] for o in s.ops], 50) / 1e6,
        "peak_rss_mb": s.peak_rss_kb / 1024.0,
    }


def per_layer(traced, serial):
    """Per-layer metrics: the worker's probes plus figures derived from the
    traced session's op records and the single-thread session."""
    ok = [o for o in traced.ops if o["status"] == "ok"]
    bare = percentile([o["wall_ns"] for o in ok if not o["traced"]], 50)
    traced_p50 = percentile([o["wall_ns"] for o in ok if o["traced"]], 50)
    serial_p50 = percentile(
        [o["wall_ns"] for o in serial.ops if o["status"] == "ok"], 50)
    last = ok[-1] if ok else {}
    lay = dict(traced.probes or {})
    lay.update({
        "support.pool.steals_per_op": mean([o["steals"] for o in ok]),
        "support.pool.speedup": serial_p50 / bare,
        "sim.schedule.hits_per_op": mean([o["hits"] for o in ok]),
        "sim.schedule.misses_per_op": mean([o["misses"] for o in ok]),
        "sim.schedule.bytes": last.get("schedule_bytes", float("nan")),
        "sim.machine.host_ns_per_msg":
            bare / last["messages"] if last else float("nan"),
        "sim.machine.comm_cycles": last.get("comm_cycles", float("nan")),
        "sim.machine.comp_steps": last.get("comp_steps", float("nan")),
        "sim.machine.messages": last.get("messages", float("nan")),
        "sim.machine.ops": last.get("ops", float("nan")),
        "sim.machine.arena_bytes": last.get("arena_bytes", float("nan")),
        "core.self_ms": percentile(
            [o["self_ns"] for o in ok if o["traced"]], 50) / 1e6,
        "bench.trace_overhead": traced_p50 / bare,
    })
    return {name: float(lay.get(name, float("nan"))) for name, _ in PER_LAYER}


# ---- environment stamp -------------------------------------------------------

def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, base))):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def stamp(session, threads):
    env = dict(session.env_stamp or {})
    env.pop("ev", None)
    env["DC_THREADS"] = threads
    env["git_sha"] = git_sha()
    env["src_digest"] = source_digest()
    return env


# ---- report ----------------------------------------------------------------

def fmt(v):
    if isinstance(v, float) and not math.isfinite(v):
        return "nan"
    return f"{v:.6g}"


def run_workload(worker, bdir, name, seed, seconds, trace, threads):
    """Runs one workload; prints its report; returns (correct, attempted,
    failed, metrics dict name -> (value, unit))."""
    nodes, algo = WORKLOADS[name]
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    if not trace:
        s = Session(worker, name, seed, seconds, False, OP_DEADLINE,
                    threads, segments=SEGMENTS).run()
        sessions = [s]
        vals = end_to_end(s, nodes)
        units = dict(END_TO_END)
    else:
        store = os.path.join(bdir, f"store-{os.getpid()}")
        shutil.rmtree(store, ignore_errors=True)
        os.makedirs(store)
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        try:
            s = Session(worker, name, seed, seconds, True, OP_DEADLINE, threads,
                        store_dir=store,
                        trace_out=os.path.join(traces, f"{name}-{seed}.jsonl"))
            s.run()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        # Single-thread baseline for support.pool.speedup: same ops, one
        # participant.
        serial = Session(worker, name, seed + 1, max(1.0, seconds / 4), False,
                         OP_DEADLINE * 4, 1, setup_reps=1).run()
        sessions = [s, serial]
        vals = per_layer(s, serial)
        units = dict(PER_LAYER)
    print("env " + json.dumps(stamp(s, threads), sort_keys=True))
    attempted = sum(x.attempted() for x in sessions)
    failed = sum(x.failed() for x in sessions)
    causes = {c: sum(x.failures[c] for x in sessions) for c in CAUSES}
    print(f"ops attempted={attempted} failed={failed} measured={len(s.ops)} "
          f"workers={sum(x.spawns for x in sessions)} "
          f"error_rate={fmt(failed / attempted if attempted else float('nan'))}")
    print("error_rate by cause: " + "  ".join(
        f"{c}={fmt(causes[c] / attempted if attempted else float('nan'))}"
        f" ({causes[c]})" for c in CAUSES))
    for k, v in vals.items():
        label = k if k != "core.self_ms" else f"core.self_ms ({algo}_ms)"
        print(f"  {label:<44} {fmt(v):>14} {units[k]}")
    correct = all(causes[c] == 0
                  for c in ("wrong_result", "wrong_counters", "exception"))
    # A run that could not measure every metric is not a valid result.
    correct = correct and all(math.isfinite(v) for v in vals.values())
    metrics = {k: (v, units[k]) for k, v in vals.items()}
    return correct, attempted, failed, metrics


def declared_metrics(trace, metrics):
    """Names the result line carries: the end_to_end (or per_layer) list of
    BENCHMARK.json, or every metric when the file is absent. The report
    above the result line always shows every metric."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except OSError:
        return set(metrics)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def result_line(correct, attempted, failed, metrics):
    out = {"correct": bool(correct), "attempted": int(attempted),
           "failed": int(failed),
           "metrics": {k: {"value": v if math.isfinite(v) else None,
                           "unit": u} for k, (v, u) in metrics.items()}}
    return json.dumps(out)


# ---- self-test ---------------------------------------------------------------

SELF_TESTS = [
    # (injected fault, workload, cause it must be counted under)
    ("corrupt_prefix", "prefix_sharded_d11", "wrong_result"),
    ("unsorted", "sort_d6", "wrong_result"),
    ("counter_off", "sort_d6", "wrong_counters"),
    ("sleep", "sort_d6", "hang"),
    ("abort", "sort_d6", "crash"),
]


def self_test(worker, threads):
    """Injects each fault once into a short run and checks that it is
    counted under its own cause, that the run continues, and that every
    end-to-end metric still prints with its unit."""
    bad = 0
    at = SETUP_REPS + WARMUP_OPS + 5  # a few ops into the measured loop
    for kind, name, cause in SELF_TESTS:
        s = Session(worker, name, 7, 3.0, False, 1.0, threads,
                    inject=f"{kind}@{at}").run()
        vals = end_to_end(s, WORKLOADS[name][0])
        after = sum(1 for o in s.ops[6:] if o["status"] == "ok")
        problems = []
        if s.failures[cause] != 1 or s.failed() != 1:
            problems.append(f"failures={s.failures}")
        if after == 0:
            problems.append("run did not continue after the failure")
        if s.spawns != 2:
            problems.append(f"workers={s.spawns}, want 2")
        for k, unit in END_TO_END:
            if not math.isfinite(vals[k]) or not unit:
                problems.append(f"{k} missing")
        ok = not problems
        bad += not ok
        print(f"self-test {kind:<15} {name:<20} -> {cause:<15} "
              f"{'PASS' if ok else 'FAIL ' + '; '.join(problems)}  "
              f"(attempted={s.attempted()} ok_after={after} "
              f"error_rate={fmt(vals['error_rate'])})")
    return bad == 0


# ---- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    cores = len(os.sched_getaffinity(0))
    threads = max(1, cores - 1)  # caller + workers fit the cores
    bdir, worker = build()
    if args.self_test:
        return 0 if self_test(worker, threads) else 1

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        c, a, f, m = run_workload(worker, bdir, name, args.seed, args.seconds,
                                  bool(args.trace), threads)
        correct, attempted, failed = correct and c, attempted + a, failed + f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{name}.{k}": v for k, v in m.items()})
    if len(names) == 1:
        metrics = {k: v for k, v in metrics.items()
                   if k in declared_metrics(bool(args.trace), metrics)}
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so running workers are killed and
    # reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        sys.exit(1)

#!/usr/bin/env python3
"""Benchmark of sepkit, one workload per process.

    python3 sepbench/run.py --workload enum --seed 1 --seconds 25 --trace 0
    python3 sepbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source tree: sepkit is imported from ./src and
nowhere else. A run sets up nine times (import, inputs made from the
seed and written as .gr files, read back through sepkit.pace, one
untimed warm-up per operation kind), then runs whole rounds of its
operations as a closed loop with one client until the operations have
taken --seconds. Every output is checked by sepbench/check.py, outside
every timing. The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
--trace 0 and the per-layer metrics (per round) with --trace 1. The line
before it reports the raw timings, the machine-speed probe, the backend
and a digest of the outputs.

Host-speed scaling: every set-up and every operation runs between two
runs of the probe, a fixed dict- and set-heavy pure-Python loop, and its
wall time is scaled by P_REF / (median probe time around it). The
end-to-end times are therefore seconds on a host where the probe takes
P_REF. A shared
2-core host drifts in speed by up to 1.8x over minutes, wall and CPU
time alike; the probe drifts with it, so the scaled times stay steady
while every change in sepkit still shows in full.

``--workload all`` runs each workload in a process of its own and
prints their results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import check
import tracing
import workloads

SETUP_REPS = 9
P_REF = 0.020  # seconds: the probe's time at the reference host speed
OUT_DIR = ".sepbench_out"
MODULES = (
    "sepkit",
    "sepkit.cli",
    "sepkit.flow",
    "sepkit.graph",
    "sepkit.leftmost",
    "sepkit.oracle",
    "sepkit.pace",
    "sepkit.treewidth",
)


def probe() -> float:
    """Time of a fixed dict- and set-heavy pure-Python loop: how fast the
    host runs code like sepkit's right now."""
    t0 = time.perf_counter()
    acc = set()
    for r in range(40):
        table = {}  # small, so that the probe adds nothing to peak_rss_mb
        for i in range(1000):
            table[(i * 7919 + r) % 10_007] = frozenset((i, i + 1))
        for key, pair in table.items():
            if key & 1:
                acc |= pair
    return time.perf_counter() - t0


class Clock:
    """Times calls between two probes and scales them to the reference
    host speed."""

    def __init__(self):
        self.calls: list[tuple[float, float, float]] = []  # (raw s, probe before, probe after)

    def time(self, fn):
        """Run fn between two probes: (result, exception or None, call index)."""
        before = probe()
        t0 = time.perf_counter()
        try:
            result, exc = fn(), None
        except Exception as e:
            result, exc = None, e
        raw = time.perf_counter() - t0
        after = probe()
        self.calls.append((raw, before, after))
        return result, exc, len(self.calls) - 1

    def raw(self, i: int) -> float:
        return self.calls[i][0]

    def scaled(self, i: int) -> float:
        """Call i's time at the reference host speed. The host speed is the
        median of the probes around calls i-2..i+2: a few seconds, short
        beside the host's drift, long beside one probe's jitter."""
        near = self.calls[max(0, i - 2) : i + 3]
        return self.calls[i][0] * P_REF / statistics.median(p for _, b, a in near for p in (b, a))

    def probes(self) -> list[float]:
        return [p for _, b, a in self.calls for p in (b, a)]


def import_sepkit(src: str) -> dict:
    """Import sepkit afresh from ``src``."""
    for name in [m for m in sys.modules if m == "sepkit" or m.startswith("sepkit.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    found = os.path.realpath(mods["sepkit"].__file__)
    if not found.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"sepbench: sepkit was imported from {found}, not from {src}")
    return mods


def set_up(workload: str, seed: int, src: str, rundir: str):
    """One set-up: (modules, ops, warm-up ops, warm-up results)."""
    mods = import_sepkit(src)
    maker = workloads.Maker(mods, rundir)
    ops, warm = workloads.BUILDERS[workload](mods, maker, seed)
    return mods, ops, warm, [op.run() for op in warm]


class Rounds:
    """Whole rounds of the operations, timed one operation at a time."""

    def __init__(self, ops, clock: Clock, reference=None):
        self.ops = ops
        self.clock = clock
        self.reference = reference  # digests that every round must repeat
        self.calls: list[int] = []  # clock indices of every attempted operation
        self.done: list[int] = []  # ... and of those that completed and passed their check
        self.by_op: dict[str, list[float]] = {op.name: [] for op in ops}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.rounds = 0
        self.elapsed = 0.0
        self.digests: list[str] = []

    def run(self, seconds: float) -> None:
        while True:
            digests = []
            for op in self.ops:
                self.attempted += 1
                result, exc, i = self.clock.time(op.run)
                self.calls.append(i)
                self.elapsed += self.clock.raw(i)
                if exc is not None:
                    self.failed += 1
                    self.wrong += 1
                    print(f"sepbench: {op.name} raised", file=sys.stderr)
                    traceback.print_exception(exc)
                    digests.append("raised")
                    continue
                out = op.collect(result)
                digests.append(op.digest(out))
                try:
                    op.check(out)
                except check.CheckFailed as e:
                    self.failed += 1
                    self.wrong += 1
                    print(f"sepbench: {op.name}: {e}", file=sys.stderr)
                    continue
                self.done.append(i)
                self.by_op[op.name].append(self.clock.raw(i))
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                self.wrong += 1
                bad = [op.name for op, a, b in zip(self.ops, digests, self.reference) if a != b]
                print(f"sepbench: outputs differ from the reference round: {bad}", file=sys.stderr)
            self.digests = self.reference
            self.rounds += 1
            if self.elapsed >= seconds:
                return

    def _time(self, scaled: bool):
        return self.clock.scaled if scaled else self.clock.raw

    def ops_per_s(self, scaled: bool = True) -> float:
        t = self._time(scaled)
        return len(self.done) / sum(t(i) for i in self.calls)

    def op_p50_s(self, scaled: bool = True) -> float:
        t = self._time(scaled)
        return statistics.median(t(i) for i in (self.done or self.calls))


def run_workload(args) -> int:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    rundir = os.path.join(OUT_DIR, f"run-{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        clock = Clock()
        setups = []
        for _ in range(SETUP_REPS):
            # Free the previous set-up first, so that peak_rss_mb holds one
            # set of inputs, not two.
            setup = None
            gc.collect()
            setup, exc, i = clock.time(lambda: set_up(args.workload, args.seed, src, rundir))
            if exc is not None:
                raise exc
            setups.append(i)
        mods, ops, warm, warm_raw = setup
        warm_wrong = 0
        for op, raw_out in zip(warm, warm_raw):
            try:
                op.check(op.collect(raw_out))
            except check.CheckFailed as e:
                warm_wrong += 1
                print(f"sepbench: warm-up {op.name}: {e}", file=sys.stderr)

        if args.trace:
            # A third of the time untraced, as the reference for the
            # outputs and for the tracing overhead, then two thirds traced.
            untraced = Rounds(ops, clock)
            untraced.run(args.seconds / 3)
            tracer = tracing.Tracer()
            tracer.install(mods)
            try:
                main = Rounds(ops, clock, reference=untraced.reference)
                main.run(args.seconds * 2 / 3)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl"))
            metrics = tracer.metrics(main.rounds)
            metrics["trace.ops_per_s"] = {"value": main.ops_per_s(), "unit": "ops/s"}
            metrics["trace.overhead"] = {
                "value": 1 - main.ops_per_s() / untraced.ops_per_s(),
                "unit": "ratio",
            }
            phases = [untraced, main]
        else:
            main = Rounds(ops, clock)
            main.run(args.seconds)
            metrics = {
                "setup_s": {"value": statistics.median(clock.scaled(i) for i in setups), "unit": "s"},
                "ops_per_s": {"value": main.ops_per_s(), "unit": "ops/s"},
                "op_p50_s": {"value": main.op_p50_s(), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
            phases = [main]
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "backend": mods["sepkit"].backend_name(),
            "rounds": main.rounds,
            "ops_per_round": len(ops),
            "raw": {
                "setup_s": statistics.median(clock.raw(i) for i in setups),
                "ops_per_s": main.ops_per_s(scaled=False),
                "op_p50_s": main.op_p50_s(scaled=False),
            },
            "op_median_s": {name: statistics.median(ts) for name, ts in main.by_op.items() if ts},
            "probe_s": {
                "first": clock.probes()[0],
                "last": clock.probes()[-1],
                "median": statistics.median(clock.probes()),
            },
            "outputs_sha256": hashlib.sha256("\n".join(main.digests).encode()).hexdigest(),
        }
        print(json.dumps(info))
        result = {
            "correct": warm_wrong == 0 and all(p.wrong == 0 for p in phases),
            "attempted": len(warm) + sum(p.attempted for p in phases),
            "failed": warm_wrong + sum(p.failed for p in phases),
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run_subprocess(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run of one workload in a process of its own: (info, result)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def run_all(args) -> int:
    results = {}
    for w in workloads.WORKLOADS:
        info, result = run_subprocess(w, args.seed, args.seconds, args.trace)
        results[w] = result
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} rounds={info['rounds']} backend={info['backend']} "
              f"probe_s median={info['probe_s']['median']:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
        for name, t in info["op_median_s"].items():
            print(f"  {'op ' + name:40s} {t:.4f} s (median wall time)")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "sepkit", "__init__.py")):
        print("sepbench: no src/sepkit here; run from the root of a sepkit source tree", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

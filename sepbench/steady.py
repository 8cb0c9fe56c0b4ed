#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of the same code.

    python3 sepbench/steady.py

Run from the root of a sepkit source tree. For i in 0..4 and each
workload of BENCHMARK.json it runs set A with seed 1+i and set B with
seed 6+i, alternating which set goes first, each run in a process of its
own and for run_seconds of BENCHMARK.json. For every workload and end-to-end
metric it prints both medians, the gap of B's median from A's in the
metric's worse direction, the quartile spread (Q3-Q1)/median of each set
and of both pooled, and whether the gap and the spreads lie within the
bound in BENCHMARK.json; every metric, setup_s too, is gated on both.
The unscaled timings and the machine-speed probe of each run are printed
beside the metrics, so that a drifting host shows in the record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import run_subprocess

RUNS = 5  # runs per set and workload, so ten runs of each workload in all


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs: dict = {(w, s): [] for w in names for s in "AB"}
    for i in range(RUNS):
        for w in names:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = 1 + i + (RUNS if s == "B" else 0)
                info, result = run_subprocess(w, seed, seconds, 0)
                runs[(w, s)].append((info, result))
                m = result["metrics"]
                print(f"{w:9s} set {s} seed {seed:3d}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v['value']:.5g}" for k, v in m.items())
                      + " | raw " + " ".join(f"{k}={v:.5g}" for k, v in info["raw"].items())
                      + f" probe_s {info['probe_s']['first']:.4f}/{info['probe_s']['median']:.4f}"
                      + f"/{info['probe_s']['last']:.4f} outputs {info['outputs_sha256'][:12]}",
                      flush=True)

    ok = True
    summary = {}
    print()
    print(f"{'workload':9s} {'metric':12s} {'median A':>10s} {'median B':>10s} {'gap':>7s} "
          f"{'spr A':>6s} {'spr B':>6s} {'spr AB':>6s} {'bound':>5s}  within")
    for w in names:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for _, r in runs[(w, "A")]]
            b = [r["metrics"][name]["value"] for _, r in runs[(w, "B")]]
            ma, mb = statistics.median(a), statistics.median(b)
            gap = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            sa, sb, sab = spread(a), spread(b), spread(a + b)
            within = gap <= bound and max(sa, sb, sab) <= bound
            ok &= within
            summary[f"{w}/{name}"] = {"median_a": ma, "median_b": mb, "gap": gap,
                                      "spread_a": sa, "spread_b": sb, "spread_ab": sab,
                                      "bound": bound, "within": within}
            print(f"{w:9s} {name:12s} {ma:10.5g} {mb:10.5g} {gap:+7.3f} "
                  f"{sa:6.3f} {sb:6.3f} {sab:6.3f} {bound:5.2f}  {'yes' if within else 'NO'}")
        for name in ("setup_s", "ops_per_s", "op_p50_s"):
            a = [i["raw"][name] for i, _ in runs[(w, "A")]]
            b = [i["raw"][name] for i, _ in runs[(w, "B")]]
            print(f"{w:9s} {'raw ' + name:12s} {statistics.median(a):10.5g} {statistics.median(b):10.5g} "
                  f"{'':7s} {spread(a):6.3f} {spread(b):6.3f} {spread(a + b):6.3f}  (unscaled, not gated)")
        shares = {s: {r["failed"] / r["attempted"] for _, r in runs[(w, s)]} for s in "AB"}
        probes = {s: statistics.median(i["probe_s"]["median"] for i, _ in runs[(w, s)]) for s in "AB"}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok &= same and all(r["correct"] for s in "AB" for _, r in runs[(w, s)])
        print(f"{w:9s} failed share A={sorted(shares['A'])} B={sorted(shares['B'])} "
              f"({'equal' if same else 'DIFFERENT'}); median probe_s A={probes['A']:.4f} B={probes['B']:.4f}")
    print(json.dumps({"steady": ok, "seconds": seconds, "runs_per_set": RUNS, "metrics": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

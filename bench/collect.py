"""Repeat the benchmark over seeds and summarise its spread.

    python3 bench/collect.py --seeds 1-10 [--workloads het_layer ...]
                             [--traced] [--write-baseline]

Runs ``run.py`` once per seed and workload, one after another, and prints,
for each end-to-end metric, the median, the quartiles and the spread
(inter-quartile distance as a share of the median) next to the metric's
bound from BENCHMARK.json.  ``--traced`` adds one traced run per workload.
``--write-baseline`` stores everything in bench/baseline.json together with
the layer-to-metric map of bench/layer_map.json; workloads not run keep
their earlier entries.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "report": lines[:-1]}


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            t0 = time.perf_counter()
            res = run_once(workload, seed, seconds, 0)
            res["wall_s"] = time.perf_counter() - t0
            runs.append(res)
            r = res["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"wall {res['wall_s']:.1f} s", flush=True)
        entry = {"runs": len(runs),
                 "wall_s_max": max(r["wall_s"] for r in runs),
                 "all_correct": all(r["result"]["correct"] for r in runs),
                 "end_to_end": {}}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            entry["end_to_end"][name] = spread(values)
            s = entry["end_to_end"][name]
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {s['spread']:.3f}  "
                  f"(bound {bounds[name]})", flush=True)
        if args.traced:
            res = run_once(workload, seeds_of(args.seeds)[0], seconds, 1)
            entry["traced"] = {"seed": seeds_of(args.seeds)[0],
                               "metrics": res["result"]["metrics"],
                               "report": res["report"]}
            print("\n".join(res["report"]), flush=True)
        summary[workload] = entry

    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        with open(os.path.join(HERE, "layer_map.json")) as fh:
            layer_map = json.load(fh)
        kept = {}
        if os.path.exists(path):
            with open(path) as fh:
                kept = json.load(fh)["workloads"]
        # workloads not run this time keep their earlier entries
        doc = {"run_seconds": seconds, "seeds": args.seeds,
               "machine": os.uname().machine, "cpus": os.cpu_count(),
               "layer_map": layer_map,
               "workloads": {w: summary.get(w, kept.get(w))
                             for w in [w["name"] for w in bench["workloads"]]
                             if w in summary or w in kept}}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""fhnwave benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload het_layer --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads: c_curve, het_layer, hopf_cli (see ``workloads.py``
and BENCHMARK.json for why each was chosen).

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh-process imports), then one fresh single-threaded process that runs
solves back to back for ``--seconds`` and checks every output afterwards.
``--trace 1`` gives the per-layer metrics instead: a traced pass for
``--seconds``, then untraced, traced and untraced replays of its first
third of inputs; the replays give the tracing overhead, and the traced
replay must repeat the first pass's counts and solved values exactly.  On
c_curve both modes also solve and check one full ``locate_c_curve`` after
the window; the traced run reports its shots and seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status is 0
when the benchmark ran (correct or not) and non-zero, without a result
line, when it could not run.
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
WORKLOADS = ("c_curve", "het_layer", "hopf_cli")
SETUP_REPEATS = 5
MIX_SHOTS = 48  # mix shots timed per point by record_speeds.py
CHILD_TIMEOUT = 150.0

SETUP_CODE = """
import time
t0 = time.perf_counter()
import fhnwave.cli
from fhnwave.integrate import integrate
integrate(lambda t, y: -y, [1.0], (0.0, 0.1))
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str]) -> dict:
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup() -> float:
    # byte-compile once so every timed import reads cached bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], cwd=ROOT, env=child_env(),
                   check=True, capture_output=True, timeout=CHILD_TIMEOUT)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              check=True, timeout=CHILD_TIMEOUT)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten solves beyond it: the value at
    rank n - 10 of the sorted sample, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise RuntimeError(f"{n} solves: too few for a tail with ten beyond")
    return ordered[n - 11], 100.0 * (n - 10) / n


def child_argv(args, *extra) -> list[str]:
    return [os.path.join(HERE, "child.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + list(extra)


def end_to_end(args) -> dict:
    setup_s = measure_setup()
    res = run_child(child_argv(args, "--seconds", str(args.seconds),
                               "--locate",
                               str(int(args.workload == "c_curve"))))
    solves = res["solves"]
    n = len(solves)
    failed = sum(1 for s in solves if s["error"])
    # the timings cover whole cycles of the input order only: a cycle has
    # the workload's mix of cheap and expensive solves, and the part cycle
    # cut by the deadline would make the figures depend on where it fell
    timed = solves[:n - n % res["cycle"]]
    times = [s["dt"] for s in timed]
    tail_s, pct = tail(times)
    print(f"workload {args.workload}, seed {args.seed}: {n} solves in "
          f"{res['window_s']:.2f} s, closed loop, one caller")
    for s in solves:
        if s["error"]:
            print(f"  FAILED solve {s['input']}: {s['error']}")
    print(f"  checks: {n - failed} of {n} outputs verified outside the window"
          + ("; first solves compared with reference.json"
             if res.get("reference_checked") else ""))
    for msg in res["problems"]:
        print(f"  CHECK {msg}")
    refused = sum(1 for s in solves if s.get("refused"))
    if refused:
        print(f"  {refused} solves refused as escaped, each confirmed by "
              "the DOP853 oracle")
    if "locate" in res:
        loc = res["locate"]
        print(f"  locate_c_curve(p={loc['p']:.6g}, eps={loc['eps']:.3g}): "
              f"s1={loc.get('s1')!r}, s2={loc.get('s2')!r}, "
              f"{loc['seconds']:.2f} s (checked, not gated)")
        with open(os.path.join(HERE, "c_curve_speeds.json")) as fh:
            points = json.load(fh)
        locate_ms = 1e3 * (sum(pt["seconds"] for pt in points)
                           / sum(pt["shots"] for pt in points))
        mix_ms = 1e3 * (sum(pt["mix_seconds"] for pt in points)
                        / (MIX_SHOTS * len(points)))
        print(f"  mean shot {1e3 * res['window_s'] / n:.1f} ms; when "
              f"c_curve_speeds.json was recorded, locate_c_curve took "
              f"{locate_ms:.1f} ms per shot and the mix {mix_ms:.1f} ms")
    metrics = {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (sum(1 for s in timed if not s["error"])
                         / sum(times), "1/s"),
        "solve_s_p50": (statistics.median(times), "s"),
        "solve_s_tail": (tail_s, "s"),
        "verified_fraction": ((n - failed) / n, "fraction"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:18s} {value:.6g} {unit}")
    print(f"  failed_fraction    {failed / n:.6g} fraction ({failed} of {n})")
    print(f"  timings over the first {len(timed)} solves, "
          f"{len(timed) // res['cycle']} whole cycles of {res['cycle']}")
    print(f"  solve_s_tail is p{pct:.1f} of {len(timed)} solves"
          + ("" if pct >= 90.0 else
             ": below p90, so on this workload it is not a tail"))
    return {"correct": failed == 0 and not res["problems"], "attempted": n,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def per_layer(args) -> dict:
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    stem = os.path.join(trace_dir, f"{args.workload}-{args.seed}")
    first = run_child(child_argv(args, "--seconds", str(args.seconds),
                                 "--trace", "1",
                                 "--trace-file", stem + ".jsonl", "--locate",
                                 str(int(args.workload == "c_curve"))))
    n = len(first["solves"])
    k = max(1, n // 3)
    # untraced replays on both sides of the traced one, so a drift in the
    # machine's speed does not read as tracing overhead
    plain = run_child(child_argv(args, "--count", str(k)))
    again = run_child(child_argv(args, "--count", str(k), "--trace", "1"))
    plain2 = run_child(child_argv(args, "--count", str(k)))

    problems = list(first["problems"])
    layers = first["layers"]
    locate = layers.pop("locate", None)
    keys = ("rhs_calls", "steps", "integrate_calls", "homoclinic_shots",
            "fast_layer_shots")
    for i in range(k):
        values = [r["solves"][i]["value"] for r in (first, plain, again, plain2)]
        if any(v != values[0] for v in values):
            problems.append(f"solve {i} values differ between passes: "
                            f"{values}")
        ca, cc = layers[str(i)]["counts"], again["layers"][str(i)]["counts"]
        if any(ca[key] != cc[key] for key in keys):
            problems.append(f"solve {i} counts differ between traced runs: "
                            f"{[ca[x] for x in keys]} vs "
                            f"{[cc[x] for x in keys]}")
    traced = sum(s["dt"] for s in again["solves"])
    untraced = 0.5 * sum(s["dt"] for r in (plain, plain2) for s in r["solves"])
    overhead = 100.0 * (traced / untraced - 1.0)

    total = {key: 0.0 for key in next(iter(layers.values()))["counts"]}
    self_s = {key: 0.0 for key in next(iter(layers.values()))["self"]}
    solve_time = 0.0
    for rec in layers.values():
        for key, value in rec["counts"].items():
            total[key] += value
        for key, value in rec["self"].items():
            self_s[key] += value
        solve_time += rec["total"]

    def ratio(a, b):
        return a / b if b else 0.0

    nbytes = sum(s.get("bytes", 0) for s in first["solves"])
    locate_shots = locate["counts"]["homoclinic_shots"] if locate else 0
    locate_s = locate["total"] if locate else 0.0
    if locate and not locate_shots:
        problems.append("locate_c_curve recorded no escape_side shots")
    metrics = {
        "model.rhs_calls": (total["rhs_calls"] / n, "count"),
        "model.rhs_us": (1e6 * ratio(total["rhs_s"], total["rhs_calls"]), "us"),
        "model.self_s": (self_s["model"] / n, "s"),
        "integrate.calls": (total["integrate_calls"] / n, "count"),
        "integrate.steps": (total["steps"] / n, "count"),
        "integrate.rhs_per_step": (ratio(total["rhs_calls"], total["steps"]),
                                   "ratio"),
        "integrate.self_s": (total["integrate_s"] / n, "s"),
        "integrate.fallback_ends": (total["fallback_ends"] / n, "count"),
        "homoclinic.shots": (total["homoclinic_shots"] / n, "count"),
        "homoclinic.shot_ms": (1e3 * ratio(total["homoclinic_shot_s"],
                                           total["homoclinic_shots"]), "ms"),
        "homoclinic.self_s": (self_s["homoclinic"] / n, "s"),
        "homoclinic.locate_shots": (locate_shots, "count"),
        "homoclinic.locate_s": (locate_s, "s"),
        "fast_layer.shots": (total["fast_layer_shots"] / n, "count"),
        "fast_layer.shot_ms": (1e3 * ratio(total["fast_layer_shot_s"],
                                           total["fast_layer_shots"]), "ms"),
        "fast_layer.solve_ok_ratio": (ratio(total["find_het_ok"],
                                            total["find_het_calls"]), "ratio"),
        "fast_layer.self_s": (self_s["fast_layer"] / n, "s"),
        "slow_reduced.self_s": (self_s["slow_reduced"] / n, "s"),
        "bifurcation.hopf_points": (total["hopf_points"] / n, "count"),
        "bifurcation.l1_us": (1e6 * ratio(total["l1_s"], total["l1_calls"]),
                              "us"),
        "bifurcation.self_s": (self_s["bifurcation"] / n, "s"),
        "cli.self_s": (self_s["cli"] / n, "s"),
        "cli.bytes": (nbytes / n, "bytes"),
    }
    print(f"workload {args.workload}, seed {args.seed}: traced, {n} solves; "
          f"replayed {k} untraced, traced, untraced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:.6g} {unit}")
    print("  self time by layer, share of traced solve time: "
          + ", ".join(f"{layer} {100 * t / solve_time:.1f}%"
                      for layer, t in self_s.items()))
    print(f"  untraced remainder (time in a solve outside every wrapped "
          f"call) {100 * first['remainder']:.2f}% of traced solve time")
    if locate_shots:
        loc = first["locate"]
        same = [s["dt"] for s in first["solves"]
                if (s["input"]["p"], s["input"]["eps"]) == (loc["p"],
                                                            loc["eps"])]
        print(f"  locate_c_curve(p={loc['p']:.6g}, eps={loc['eps']:.3g}): "
              f"{locate_shots} shots in {locate_s:.3f} s, "
              f"{1e3 * locate_s / locate_shots:.1f} ms per shot; the mix's "
              f"{len(same)} shots at that point took "
              f"{1e3 * sum(same) / max(1, len(same)):.1f} ms each")
    print(f"  tracing overhead {overhead:+.1f}% ({traced:.3f} s traced vs "
          f"{untraced:.3f} s untraced over the same {k} solves)")
    print(f"  determinism: counts and values of {k} solves "
          + ("repeat exactly" if not any("differ" in p for p in problems)
             else "DIFFER"))
    for msg in problems:
        print(f"  CHECK {msg}")
    failed = sum(1 for s in first["solves"] if s["error"])
    return {"correct": failed == 0 and not problems, "attempted": n,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "fhnwave", "__init__.py")):
        print(f"no fhnwave sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.SubprocessError, OSError,
            ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(f"  (benchmark wall time {time.perf_counter() - t0:.1f} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

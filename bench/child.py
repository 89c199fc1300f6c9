"""One workload pass in a fresh process: the closed loop, then the checks.

Run by ``run.py``; prints one JSON object as its last line.  A single
caller issues each solve only after the previous one returned.  With
``--count`` the pass replays exactly the first N inputs instead of running
for ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fhnwave  # noqa: E402
import fhnwave.cli  # noqa: E402,F401  (imports every layer)

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, locate_point, locate_problems  # noqa: E402

DEFAULT_SEED = 0

#: Solve id of the full locate_c_curve in a traced run's span table.
LOCATE = "locate"

#: Largest share of traced solve time the untraced remainder (the
#: ``bench`` layer: time in a solve outside every wrapped call) may take.
REMAINDER_MAX = 0.02

#: A timed pass runs past --seconds if needed until this many solves, and
#: one whole input cycle, have completed, so the tail percentile with ten
#: solves beyond it exists.
MIN_SOLVES = 11


def close(a, b, tol) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= tol[0] + tol[1] * abs(b)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--locate", type=int, default=0,
                    help="also solve and check one full locate_c_curve")
    ap.add_argument("--record", type=int, default=0,
                    help="skip the reference comparison (while recording it)")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]

    api = {name: getattr(fhnwave, name) for name in tracing.LAYERS}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        api = tracer.install(fhnwave)

    work_dir = os.path.join(ROOT, ".bench_build", "work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        result = run_pass(args, spec, api, tracer, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


def run_pass(args, spec, api, tracer, work_dir):
    """The timed loop, then the checks; None if a required layer went
    unrecorded."""
    # tiny warm-up outside the window
    api["integrate"].integrate(lambda t, y: -y, [1.0], (0.0, 0.1))

    inputs = spec["inputs"](args.seed)
    solves = []
    start = time.perf_counter()
    deadline = start + args.seconds
    least = max(MIN_SOLVES, spec["cycle"])
    while (len(solves) < args.count if args.count
           else time.perf_counter() < deadline or len(solves) < least):
        index = len(solves)
        inp = next(inputs)
        extra = ((os.path.join(work_dir, str(index)),)
                 if args.workload == "hopf_cli" else ())
        if tracer:
            tracer.begin_solve(index, args.workload)
        t0 = time.perf_counter()
        try:
            out, error = spec["solve"](api, inp, *extra), None
        except Exception as exc:  # a failed solve is counted, not fatal
            out, error = {"value": []}, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_solve()
        solves.append({"input": inp, "dt": dt, "error": error, **out})
    window = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- outside the timed window: tracing is idle (no solve open)
    for rec in solves:
        if rec["error"] is None and "collect" in spec:
            spec["collect"](rec["input"], rec)
        if rec["error"] is None:
            try:
                rec["error"] = spec["check"](fhnwave, rec["input"], rec)
            except Exception as exc:
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
        rec.pop("text", None)

    result = {"solves": solves, "window_s": window, "rss_mb": rss_mb,
              "cycle": spec["cycle"], "problems": []}

    if args.locate:
        result["locate"], problems = run_locate(args.seed, api, tracer)
        result["problems"] += [f"locate_c_curve: {msg}" for msg in problems]

    if args.seed == DEFAULT_SEED and not args.record and spec["tol"]:
        result["problems"] += reference_problems(args.workload, solves,
                                                 spec["tol"])
        result["reference_checked"] = True

    if tracer:
        table = tracing.layer_table(tracer.spans)
        for i, rec in enumerate(solves):
            root = table[i]["total"]
            if not rec["dt"] <= root <= rec["dt"] + 1e-3:
                result["problems"].append(
                    f"solve span {root:.6f} s does not enclose the solve's "
                    f"measured {rec['dt']:.6f} s")
        remainder = sum(table[i]["self"]["bench"] for i in range(len(solves)))
        traced = sum(table[i]["total"] for i in range(len(solves)))
        result["remainder"] = remainder / traced
        if not remainder <= REMAINDER_MAX * traced:
            result["problems"].append(
                f"{100 * remainder / traced:.1f}% of traced solve time lies "
                "outside every wrapped call: a layer is not traced")
        for layer in spec["layers"]:
            seen = sum(1 for s in tracer.spans if s[tracing.LAYER] == layer)
            if layer == "model":
                seen += sum(s[tracing.RHS_N] for s in tracer.spans)
            if not seen:
                print(f"layer {layer} recorded no calls on {args.workload}: "
                      "a name it is reached through was rebound",
                      file=sys.stderr)
                return None
        result["layers"] = {str(k): v for k, v in table.items()}
        if args.trace_file:
            tracer.dump(args.trace_file)
        tracer.uninstall()
    return result


def run_locate(seed, api, tracer):
    """Solve one full locate_c_curve at the seed's recorded point (a traced
    solve of its own when tracing) and check it."""
    ref = locate_point(seed)
    if tracer:
        tracer.begin_solve(LOCATE, LOCATE)
    t0 = time.perf_counter()
    try:
        pt = api["homoclinic"].locate_c_curve(ref["p"], ref["eps"])
    except Exception as exc:
        pt = exc
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end_solve()
    info = {"p": ref["p"], "eps": ref["eps"], "seconds": seconds}
    if isinstance(pt, Exception):
        return info, [f"raised {type(pt).__name__}: {pt}"]
    info.update(s1=pt.s1, s2=pt.s2)
    return info, locate_problems(fhnwave, ref, pt)


def reference_problems(workload, solves, tol) -> list[str]:
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return ["reference.json missing"]
    with open(path) as fh:
        ref = json.load(fh).get(workload)
    if ref is None:
        return [f"no reference for {workload}"]
    problems = []
    for i, (want, rec) in enumerate(zip(ref["values"], solves)):
        got = rec["value"]
        if len(got) != len(want) or not all(
                close(a, b, tol) for a, b in zip(got, want)):
            problems.append(f"solve {i}: {got} differs from reference {want}")
    return problems


if __name__ == "__main__":
    sys.exit(main())

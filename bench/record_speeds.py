"""Record bench/c_curve_speeds.json: the C-curve speeds the c_curve shots
are drawn around.

    python3 bench/record_speeds.py

Solves ``locate_c_curve`` at default settings on a stratified (p, eps) grid
over the criterion-14 box (p in [0.015, 0.05], eps log-uniform in
[1e-4, 1e-2]; one point at the centre of each cell) and stores, per point,
both speeds, the escape side below the first speed, the number of
``escape_side`` shots the solve took and its wall time.  Each speed is
confirmed by the scipy DOP853 oracle of ``workloads.py``: the escape side
must flip between s -+ 1e-7.  Right after each solve, 48 shots of the
benchmark's mix at the same point are timed too (``mix_seconds``): their
mean should match the solve's time per shot.  Re-record only when a change
is meant to move the speeds, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from fhnwave import homoclinic  # noqa: E402

from workloads import (c_curve_shot, kronecker, log_uniform,  # noqa: E402
                       oracle_escape_side)

N_P, N_EPS = 6, 4
MIX_SHOTS = 48


def main() -> int:
    shots = [0]
    escape_side = homoclinic.escape_side

    def counted(*args, **kwargs):
        shots[0] += 1
        return escape_side(*args, **kwargs)

    homoclinic.escape_side = counted
    points = []
    scan, bisect = kronecker(0, 1, stream=3), kronecker(0, 2, stream=4)
    for i in range(N_P):
        for j in range(N_EPS):
            p = 0.015 + 0.035 * (i + 0.5) / N_P
            eps = log_uniform((j + 0.5) / N_EPS, 1e-4, 1e-2)
            shots[0] = 0
            t0 = time.perf_counter()
            pt = homoclinic.locate_c_curve(p, eps)
            seconds = time.perf_counter() - t0
            side_lo = escape_side(p, 0.05, eps)
            for speed, below in ((pt.s1, side_lo), (pt.s2, -side_lo)):
                got = (oracle_escape_side(p, speed - 1e-7, eps),
                       oracle_escape_side(p, speed + 1e-7, eps))
                if got != (below, -below):
                    print(f"p={p} eps={eps}: oracle sides {got} around "
                          f"s={speed}, expected {(below, -below)}",
                          file=sys.stderr)
                    return 1
            rec = {"p": p, "eps": eps, "s1": pt.s1, "s2": pt.s2,
                   "side_below_s1": side_lo, "shots": shots[0],
                   "seconds": seconds}
            mix = [c_curve_shot(rec, next(scan if k % 4 == 0 else bisect))
                   for k in range(MIX_SHOTS)]
            t0 = time.perf_counter()
            for shot in mix:
                escape_side(shot["p"], shot["s"], shot["eps"])
            rec["mix_seconds"] = time.perf_counter() - t0
            points.append(rec)
            print(f"p={p:.6g} eps={eps:.3g}: s1={pt.s1!r} s2={pt.s2!r} "
                  f"{shots[0]} shots, {seconds:.2f} s "
                  f"({1e3 * seconds / shots[0]:.1f} ms/shot; mix "
                  f"{1e3 * rec['mix_seconds'] / MIX_SHOTS:.1f} ms/shot)",
                  flush=True)
    homoclinic.escape_side = escape_side
    total_s = sum(pt["seconds"] for pt in points)
    total_shots = sum(pt["shots"] for pt in points)
    mix_s = sum(pt["mix_seconds"] for pt in points)
    print(f"{len(points)} points: {total_shots} shots in {total_s:.1f} s, "
          f"{1e3 * total_s / total_shots:.1f} ms per shot; the mix took "
          f"{1e3 * mix_s / (MIX_SHOTS * len(points)):.1f} ms per shot")
    with open(os.path.join(HERE, "c_curve_speeds.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(f" {json.dumps(pt)}" for pt in points)
                 + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

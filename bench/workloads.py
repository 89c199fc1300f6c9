"""Seeded inputs, solves and output checks of the three benchmark workloads.

The het_layer and hopf_cli inputs are stratified: each coordinate of the
unit cube is cut into strata visited in a fixed bit-reversed order, and the
seed only places the point inside its stratum.  Every prefix of the
sequence covers each coordinate evenly and every seed visits the strata in
the same order, so runs with different seeds see the same mix of cheap and
expensive inputs.  The c_curve shots come from a seeded low-discrepancy
sequence instead, which covers the coordinates jointly.

The checks use oracles that share no code with fhnwave where one is cheap:
the saddle-focus and its unstable direction are recomputed here and the
escape side of each C-curve scan shot re-integrated with scipy's DOP853
(a bisection shot, which may lie within 1e-12 of a speed, is checked
against the speeds recorded in ``c_curve_speeds.json`` instead, each of
them confirmed by that oracle when it was recorded); the Hopf residual is
recomputed from the Jacobian written out here; the canard closed forms are
re-derived.  Checks run outside the timed window.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stdout

import numpy as np
from scipy.integrate import solve_ivp

HERE = os.path.dirname(os.path.abspath(__file__))
SQRT91 = math.sqrt(91.0)
X_MINUS = (11.0 - SQRT91) / 30.0


def c0(x):
    return x * (x - 1.0) * (0.1 - x)


def c0_prime(x):
    return -3.0 * x * x + 2.2 * x - 0.1


def equilibrium_x1(p: float) -> float:
    """Unique real root of x^3 - 1.1 x^2 + 1.1 x = p."""
    roots = np.roots([1.0, -1.1, 1.1, -p])
    return float(roots[np.argmin(np.abs(roots.imag))].real)


#: Fold value p_- and the double-heteroclinic p* (where c0(x1*) = 209/3375
#: on the left branch); het_layer draws p from (p* + 1e-4, p_- - 1e-4).
P_MINUS = X_MINUS - c0(X_MINUS)
_x_star = min(r.real for r in np.roots([-1.0, 1.1, -0.1, -209.0 / 3375.0])
              if abs(r.imag) < 1e-12)
P_STAR = _x_star - 209.0 / 3375.0


STRATA = 8


def sequence(seed: int, dim: int):
    """Infinite seeded stratified sequence in [0, 1)^dim.

    Coordinate j of point k lies in stratum order[(k + 3j) mod STRATA],
    where order is the bit-reversal permutation; the shift keeps the
    coordinates from moving in lockstep, but each stratum of one coordinate
    still meets a fixed few strata of another.  The seed places the point
    in the middle 40% of its stratum: solve cost jumps tenfold inside some
    strata (where het_layer's scan shots start to time out), and a point
    free to cross such a jump would make the spread between seeds measure
    where the jump fell rather than the program.
    """
    bits = STRATA.bit_length() - 1
    order = [int(f"{k:0{bits}b}"[::-1], 2) for k in range(STRATA)]
    rng = random.Random(seed)
    k = 0
    while True:
        yield [(order[(k + 3 * j) % STRATA] + 0.3 + 0.4 * rng.random())
               / STRATA for j in range(dim)]
        k += 1


def kronecker(seed: int, dim: int, stream: int):
    """Infinite seeded low-discrepancy sequence in [0, 1)^dim.

    Roberts' R_dim sequence (point k is k * alpha mod 1, alpha the powers
    of the inverse of the root of x^(dim+1) = x + 1) shifted by a seeded
    offset.  Every prefix covers the cube evenly in all coordinates
    jointly, which the shifted strata of ``sequence`` do not: there each
    stratum of one coordinate meets only a few strata of another.
    ``stream`` gives independent sequences for one seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    alpha = [phi ** -(j + 1) for j in range(dim)]
    rng = random.Random(f"{seed}/{stream}")
    offset = [rng.random() for _ in range(dim)]
    k = 0
    while True:
        yield [(offset[j] + k * alpha[j]) % 1.0 for j in range(dim)]
        k += 1


def log_uniform(x: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** x


# ----------------------------------------------------------------- c_curve

#: locate_c_curve's default scan: the grid its first 24 shots visit.
SCAN_GRID = np.linspace(0.05, 1.55, 24)
SCAN_SPACING = float(SCAN_GRID[1] - SCAN_GRID[0])

#: A shot closer than this to a recorded speed may fall on either side:
#: the integrator's tolerance sensitivity (~3e-11) moves the speed itself.
SIDE_TOL = 1e-9


def c_curve_points() -> list[dict]:
    """The (p, eps) grid over the criterion-14 box with both C-curve speeds
    per point, as recorded by ``record_speeds.py`` from ``locate_c_curve``."""
    with open(os.path.join(HERE, "c_curve_speeds.json")) as fh:
        return json.load(fh)


def c_curve_inputs(seed):
    """Shots in the mix of a default ``locate_c_curve``: every fourth is a
    scan shot (24 of its 96 shots), the others are bisection shots (36 per
    speed); see ``c_curve_shot``."""
    points = c_curve_points()
    scan = kronecker(seed, 2, stream=1)
    bisect = kronecker(seed, 3, stream=2)
    k = 0
    while True:
        x = next(scan if k % 4 == 0 else bisect)
        yield c_curve_shot(points[int(x[0] * len(points))], x[1:])
        k += 1


def c_curve_shot(pt: dict, x: list) -> dict:
    """One shot at the recorded point ``pt``.  With one coordinate in ``x``
    it is a scan shot at a grid point; with two it is a bisection shot at a
    log-uniform distance in [1e-12, spacing / 2] from s1 or s2, below or
    above it, inside the grid cell that brackets that speed, which is where
    bisection steps to a width of 1e-12 land."""
    if len(x) == 1:
        extra = {"s": float(SCAN_GRID[int(x[0] * len(SCAN_GRID))])}
    else:
        quarter = int(4 * x[0])  # speed s1 or s2, below or above it
        root = pt["s2" if quarter >= 2 else "s1"]
        d = log_uniform(x[1], 1e-12, 0.5 * SCAN_SPACING)
        s = root - d if quarter % 2 == 0 else root + d
        cell = int(np.searchsorted(SCAN_GRID, root)) - 1
        if not SCAN_GRID[cell] < s < SCAN_GRID[cell + 1]:
            s = 2.0 * root - s
        extra = {"s": s, "root": root}
    return {"p": pt["p"], "eps": pt["eps"], **extra,
            "below_s1": pt["side_below_s1"], "s1": pt["s1"], "s2": pt["s2"]}


def c_curve_solve(api, inp):
    side = api["homoclinic"].escape_side(inp["p"], inp["s"], inp["eps"])
    return {"value": [side]}


def expected_side(inp) -> int:
    """Escape side at s implied by the recorded speeds: one side below s1
    and above s2, the other between them."""
    inside = inp["s1"] < inp["s"] < inp["s2"]
    return -inp["below_s1"] if inside else inp["below_s1"]


def oracle_escape_side(p, s, eps, offset=1e-8):
    """Escape side of the unstable manifold of q, by scipy DOP853."""
    x = equilibrium_x1(p)
    es = eps / s
    A = np.array([[0.0, 1.0, 0.0], [-0.2 * c0_prime(x), s / 5.0, 0.2],
                  [es, 0.0, -es]])
    w, v = np.linalg.eig(A)
    k = [i for i in range(3) if abs(w[i].imag) < 1e-9 * max(1.0, abs(w[i].real))
         and w[i].real > 0.0]
    if len(k) != 1:
        return None
    d = v[:, k[0]].real
    d = d / np.linalg.norm(d)
    if d[0] < 0.0:
        d = -d

    def field(t, y):
        return [y[1], 0.2 * (s * y[1] - c0(y[0]) + y[2] - p), es * (y[0] - y[2])]

    right = lambda t, y: y[0] - 2.0
    left = lambda t, y: y[0] + 2.0
    right.terminal = left.terminal = True
    sol = solve_ivp(field, (0.0, min(1e4, 100.0 / eps)),
                    np.array([x, 0.0, x]) + offset * d, method="DOP853",
                    rtol=1e-10, atol=1e-12, events=[right, left])
    if sol.status == 1:
        return 1 if len(sol.t_events[0]) else -1
    return 1 if sol.y[0, -1] > 11.0 / 30.0 else -1


def c_curve_check(fh, inp, out):
    side = out["value"][0]
    if side not in (-1, 1):
        return f"escape side {side!r}, not -1 or +1"
    if "root" not in inp:
        expected = oracle_escape_side(inp["p"], inp["s"], inp["eps"])
        if side != expected:
            return f"escape side {side} but DOP853 oracle gives {expected}"
        return None
    if abs(inp["s"] - inp["root"]) < SIDE_TOL:
        return None
    if side != expected_side(inp):
        return (f"escape side {side} at s={inp['s']!r}, but the recorded "
                f"speeds {inp['s1']!r}, {inp['s2']!r} give "
                f"{expected_side(inp)}")
    return None


def locate_point(seed: int) -> dict:
    """The recorded point a run solves with a full ``locate_c_curve``."""
    points = c_curve_points()
    return points[seed % len(points)]


def locate_problems(fh, ref, pt) -> list[str]:
    """The C-curve checks of one ``locate_c_curve`` result ``pt``, solved at
    the recorded point ``ref``."""
    p, eps = ref["p"], ref["eps"]
    problems = []
    if not pt.s1 < pt.s2:
        problems.append(f"s1 {pt.s1} not below s2 {pt.s2}")
    if not pt.bracket_width <= 1e-12:
        problems.append(f"bracket width {pt.bracket_width:.3g} above 1e-12")
    # the escape side flips across each speed; 1e-9 is above the
    # integrator's tolerance sensitivity (~3e-11) and far below the gap
    for speed in (pt.s1, pt.s2):
        lo = fh.homoclinic.escape_side(p, speed - SIDE_TOL, eps)
        hi = fh.homoclinic.escape_side(p, speed + SIDE_TOL, eps)
        if lo == hi:
            problems.append(f"no flip of the escape side across s={speed}")
    for key in ("s1", "s2"):
        if not abs(getattr(pt, key) - ref[key]) <= 1e-8:
            problems.append(f"{key} {getattr(pt, key)!r} differs from the "
                            f"recorded {ref[key]!r}")
    return problems


# --------------------------------------------------------------- het_layer

def het_layer_inputs(seed):
    lo, hi = P_STAR + 1e-4, P_MINUS - 1e-4
    for x in sequence(seed, 2):
        p = lo + (hi - lo) * x[0]
        yield {"kind": "upper", "p": p}
        yield {"kind": "return", "p": p, "s": 0.05 + 1.4 * x[1]}


def het_layer_solve(api, inp):
    if inp["kind"] == "upper":
        conn = api["homoclinic"].upper_connection(inp["p"])
        return {"value": [conn.s, conn.pbar, conn.section_gap]}
    v = api["homoclinic"].return_height_at(inp["p"], inp["s"])
    return {"value": [v]}


GAP_TOL = 1e-8  # the solvers' default gap_tol


def het_layer_check(fh, inp, out):
    shoot = fh.fast_layer.shoot_heteroclinic
    if inp["kind"] == "upper":
        s, pbar, gap = out["value"]
        direction = "left-to-right"
    else:
        s = inp["s"]
        pbar = inp["p"] - equilibrium_x1(inp["p"]) - out["value"][0]
        direction = "right-to-left"
        gap = shoot(pbar, s, 1e-8, direction)
    if not abs(gap) <= GAP_TOL:
        return f"section gap {gap:.3g} above {GAP_TOL}"
    reshot = shoot(pbar, s, 2e-8, direction)
    if not abs(reshot) <= GAP_TOL:
        return f"gap {reshot:.3g} at offset 2e-8"
    return None


# ---------------------------------------------------------------- hopf_cli

def hopf_cli_inputs(seed):
    # The Hopf curve, the headline artifact, comes twice per cycle: with the
    # four kinds at equal weight the median solve would sit on the edge
    # between two cost clusters (canard-stability ~5 ms, hopf-curve ~40 ms).
    for x in sequence(seed, 5):
        eps = [log_uniform(v, 1e-4, 1e-2) for v in x[:3]]
        yield {"kind": "hopf-curve", "eps": eps[0],
               "n": 100 + round(200 * x[3])}
        yield {"kind": "gh-track", "eps": sorted(eps, reverse=True)}
        yield {"kind": "canard", "eps": eps[1]}
        yield {"kind": "canard-stability"}
        yield {"kind": "hopf-curve", "eps": eps[2],
               "n": 100 + round(200 * x[4])}


def hopf_cli_argv(inp, out_dir):
    argv = [inp["kind"], "--out-dir", out_dir]
    if inp["kind"] == "gh-track":
        argv += ["--eps"] + [repr(e) for e in inp["eps"]]
    elif "eps" in inp:
        argv += ["--eps", repr(inp["eps"])]
    if "n" in inp:
        argv += ["--n", str(inp["n"])]
    return argv


def hopf_cli_solve(api, inp, out_dir):
    sink = io.StringIO()
    with redirect_stdout(sink):
        code = api["cli"].main(hopf_cli_argv(inp, out_dir))
    if code != 0:
        raise RuntimeError(f"cli exit {code}: {sink.getvalue().strip()}")
    return {"path": sink.getvalue().strip().splitlines()[-1]}


def hopf_cli_collect(inp, out):
    """Read the artifact back after the timed window."""
    with open(out.pop("path"), "rb") as fh:
        data = fh.read()
    out.update(value=_artifact_values(inp, data), bytes=len(data),
               text=data.decode())


def _csv_rows(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(body))


def _artifact_values(inp, data):
    """A few numbers of the artifact for the reference comparison."""
    text = data.decode()
    if inp["kind"] == "canard":
        d = json.loads(text)["data"]
        return [d["p_maximal"], d["p_hopf_minus"], d["p_hopf_plus"]]
    rows = _csv_rows(text)
    if inp["kind"] == "hopf-curve":
        return [float(rows[i][c]) for i in (0, len(rows) // 2, -1)
                for c in ("p", "s")]
    if inp["kind"] == "gh-track":
        return [float(r[c]) for r in rows for c in ("p", "s")]
    return [float(rows[0]["R"]), float(rows[-1]["R"])]


def _hopf_residual(p, s, eps, x1):
    es = eps / s
    A = np.array([[0.0, 1.0, 0.0], [-0.2 * c0_prime(x1), s / 5.0, 0.2],
                  [es, 0.0, -es]])
    _, c2, c1, c0_ = np.poly(A)
    return abs(c0_ - c1 * c2)


def hopf_cli_check(fh, inp, out):
    text = out["text"]
    kind = inp["kind"]
    if kind == "hopf-curve":
        rows = _csv_rows(text)
        if len(rows) != inp["n"]:
            return f"{len(rows)} Hopf rows, expected {inp['n']}"
        worst = max(_hopf_residual(float(r["p"]), float(r["s"]),
                                   float(r["eps"]), float(r["x1_star"]))
                    for r in rows)
        if not worst < 1e-10:
            return f"Hopf residual {worst:.3g}"
    elif kind == "gh-track":
        rows = _csv_rows(text)
        for eps in inp["eps"]:
            n = sum(1 for r in rows if float(r["eps"]) == eps)
            if n != 2:
                return f"{n} GH points at eps={eps}"
    elif kind == "canard":
        d = json.loads(text)["data"]
        eps = inp["eps"]
        disc = (11728171.0 / 182250000.0 - 359.0 * eps / 1350.0
                + 509.0 * eps**2 / 2700.0 - eps**3 / 27.0)
        want = (P_MINUS + 0.625 * eps, 2057.0 / 6750.0 - math.sqrt(disc),
                2057.0 / 6750.0 + math.sqrt(disc))
        got = (d["p_maximal"], d["p_hopf_minus"], d["p_hopf_plus"])
        if max(abs(a - b) for a, b in zip(got, want)) > 1e-12:
            return f"canard values {got} differ from closed forms {want}"
    else:
        R = [float(r["R"]) for r in _csv_rows(text)]
        if not (all(v < 0.0 for v in R)
                and all(b < a for a, b in zip(R, R[1:]))):
            return "R(h) not negative and decreasing"
    return None


# --------------------------------------------------------------- registry

#: inputs, solve, check, the layers a traced run must see, and the
#: (abs, rel) tolerance of the default-seed reference comparison, taken
#: from each solver's tolerance sensitivity: a section gap accepted at
#: gap_tol = 1e-8 with slope of order 0.1 to 1 pins speed and height to
#: 1e-7; the Hopf and canard values are closed forms or brentq roots at
#: xtol 1e-13.  c_curve has no reference values: its checks already hold
#: every shot to the recorded speeds, and its locate_c_curve to them.
#: ``cycle`` is the length of the input order's repeating mix (STRATA
#: strata of solve pairs or of the five artifact kinds; one scan and three
#: bisection shots); timings cover whole cycles.
WORKLOADS = {
    "c_curve": dict(inputs=c_curve_inputs, solve=c_curve_solve,
                    check=c_curve_check,
                    layers=("model", "integrate", "homoclinic"),
                    tol=None, cycle=4),
    "het_layer": dict(inputs=het_layer_inputs, solve=het_layer_solve,
                      check=het_layer_check,
                      layers=("model", "integrate", "fast_layer",
                              "homoclinic"),
                      tol=(1e-7, 0.0), cycle=2 * STRATA),
    "hopf_cli": dict(inputs=hopf_cli_inputs, solve=hopf_cli_solve,
                     collect=hopf_cli_collect, check=hopf_cli_check,
                     layers=("model", "bifurcation", "slow_reduced", "cli"),
                     tol=(0.0, 1e-9), cycle=5 * STRATA),
}

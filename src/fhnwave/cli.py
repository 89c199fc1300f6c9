"""Command-line surface: one subcommand per bifurcation-diagram artifact.

Every subcommand writes a CSV or JSON artifact with a metadata header
(schema version, parameters, tolerances) into the output directory
(``--out-dir`` or the FHNWAVE_OUT_DIR environment variable, default the
working directory).  Writes are atomic (write-then-rename) and, for fixed
inputs, byte-identical on one platform.

Exit codes: 0 success, 1 numerical failure (a diagnostic JSON is printed),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, bifurcation, fast_layer, homoclinic, model, slow_reduced
from .curves import CurveBranch
from .integrate import IntegrationError
from .model import DomainError

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- emission

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fhnwave-")
    try:
        # mkstemp creates 0600; give the artifact the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, branch: CurveBranch, meta: dict) -> None:
    """CSV with '# key: value' metadata header lines, then the table."""
    lines = [f"# schema_version: {SCHEMA_VERSION}",
             f"# package_version: {__version__}"]
    lines += [f"# {k}: {_fmt(v)}" for k, v in sorted(meta.items())]
    lines.append(",".join(branch.columns))
    for pt in branch.points:
        lines.append(",".join(_fmt(v) for v in pt))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict, meta: dict) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "package_version": __version__,
           "meta": meta, "data": payload}
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _out_path(args, default_name: str) -> str:
    out_dir = args.out_dir or os.environ.get("FHNWAVE_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, default_name)


def _maybe_plot_script(args, csv_path: str, xcol: str, ycol: str) -> None:
    if not getattr(args, "plot_script", False):
        return
    name = os.path.splitext(csv_path)[0]
    script = (f"set datafile separator ','\n"
              f"plot '{os.path.basename(csv_path)}' "
              f"using '{xcol}':'{ycol}' with linespoints\n")
    _atomic_write(name + ".gp", script)


# ------------------------------------------------------------- subcommands

def cmd_folds(args) -> int:
    p_minus, p_plus = model.slow_fold_params()
    path = _out_path(args, "folds.json")
    write_json(path, {"x_minus": model.X_MINUS, "x_plus": model.X_PLUS,
                      "p_minus": p_minus, "p_plus": p_plus}, {})
    print(path)
    return 0


def cmd_slow_bif(args) -> int:
    p_minus, p_plus = model.slow_fold_params()
    path = _out_path(args, "slow_bif.json")
    write_json(path, {
        "p_minus": p_minus, "p_plus": p_plus,
        "sum": p_minus + p_plus,
        "involution_p": model.P_INVOLUTION,
    }, {})
    print(path)
    return 0


def cmd_fast_equilibria(args) -> int:
    eqs = fast_layer.layer_equilibria(args.pbar, args.s)
    data = [{"x1": eq.x1, "kind": eq.kind.value, "branch": eq.branch.value,
             "eigenvalues_re": [float(w.real) for w in eq.eigenvalues],
             "eigenvalues_im": [float(w.imag) for w in eq.eigenvalues]}
            for eq in eqs]
    path = _out_path(args, "fast_equilibria.json")
    write_json(path, {"equilibria": data,
                      "pbar_l": model.PBAR_L, "pbar_r": model.PBAR_R},
               {"pbar": args.pbar, "s": args.s})
    print(path)
    return 0


def cmd_double_het(args) -> int:
    pbar_star = fast_layer.double_het_pbar()
    gap = fast_layer.shoot_heteroclinic(pbar_star, 0.0, offset=args.offset)
    p_star, _ = homoclinic.double_het_point()
    path = _out_path(args, "double_het.json")
    write_json(path, {"pbar_star": pbar_star, "section_gap": gap,
                      "p_star": p_star}, {"offset": args.offset})
    print(path)
    return 0


def cmd_het_curve(args) -> int:
    left, right = fast_layer.het_v_curve(s_max=args.s_max, step=args.step)
    merged = CurveBranch(columns=("branch", "pbar", "s", "section_gap"))
    for name, br in (("left-to-right", left), ("right-to-left", right)):
        for pt in br.points:
            merged.points.append((name,) + tuple(pt))
    path = _out_path(args, "het_curve.csv")
    write_csv(path, merged, {"s_max": args.s_max, "step": args.step})
    _maybe_plot_script(args, path, "pbar", "s")
    print(path)
    return 0


def cmd_hopf_curve(args) -> int:
    branch = bifurcation.hopf_curve(args.eps, n=args.n)
    path = _out_path(args, "hopf_curve.csv")
    asym = bifurcation.hopf_asymptotes()
    meta = {"eps": args.eps, "n": args.n,
            "asymptote_p_minus": asym["p_minus"],
            "asymptote_p_plus": asym["p_plus"]}
    write_csv(path, branch, meta)
    _maybe_plot_script(args, path, "p", "s")
    print(path)
    return 0


def cmd_gh_track(args) -> int:
    b1, b2 = bifurcation.gh_track(args.eps)
    merged = CurveBranch(columns=("gh",) + b1.columns)
    for idx, br in ((1, b1), (2, b2)):
        for pt in br.points:
            merged.points.append((idx,) + tuple(pt))
    meta = {"eps_grid": args.eps}
    for idx, br in ((1, b1), (2, b2)):
        meta[f"gh{idx}_p_limit"] = bifurcation.extrapolate_to_zero(
            br.column("p"))
        meta[f"gh{idx}_s_limit"] = bifurcation.extrapolate_to_zero(
            br.column("s"))
    path = _out_path(args, "gh_track.csv")
    write_csv(path, merged, meta)
    print(path)
    return 0


def cmd_canard(args) -> int:
    info = slow_reduced.canard_info(args.eps)
    path = _out_path(args, "canard.json")
    write_json(path, {"eps": info.eps, "p_maximal": info.p_maximal,
                      "p_hopf_minus": info.p_hopf_minus,
                      "p_hopf_plus": info.p_hopf_plus}, {})
    print(path)
    return 0


def cmd_canard_stability(args) -> int:
    hs = np.linspace(slow_reduced.H_MAX / args.n, slow_reduced.H_MAX, args.n)
    branch = CurveBranch(columns=("h", "R"))
    for h in hs:
        branch.points.append((float(h), slow_reduced.canard_stability_R(
            float(h), abs_tol=args.abs_tol)))
    path = _out_path(args, "canard_stability.csv")
    write_csv(path, branch, {"n": args.n, "abs_tol": args.abs_tol})
    _maybe_plot_script(args, path, "h", "R")
    print(path)
    return 0


def cmd_reduced_orbit(args) -> int:
    orbit = slow_reduced.simulate_reduced(args.p, args.s, args.eps,
                                          variant=args.variant,
                                          t_end=args.t_end)
    path = _out_path(args, "reduced_orbit.json")
    write_json(path, {
        "x1_amplitude": orbit.x1_amplitude,
        "x1_peak_to_peak": orbit.x1_peak_to_peak,
        "x2_amplitude": orbit.x2_amplitude,
        "x2_max": orbit.x2_max,
        "x2_excursions": orbit.x2_excursions,
    }, {"p": args.p, "s": args.s, "eps": args.eps, "variant": args.variant,
        "t_end": args.t_end})
    print(path)
    return 0


def cmd_c_curve(args) -> int:
    branch = CurveBranch(columns=("p", "s1", "s2", "eps", "bracket_width"))
    for p in args.p:
        pt = homoclinic.locate_c_curve(p, args.eps,
                                       s_scan=(args.s_lo, args.s_hi),
                                       bracket_tol=args.bracket_tol)
        branch.points.append((pt.p, pt.s1, pt.s2, pt.eps, pt.bracket_width))
    path = _out_path(args, "c_curve.csv")
    write_csv(path, branch, {"eps": args.eps, "bracket_tol": args.bracket_tol,
                             "s_scan": (args.s_lo, args.s_hi)})
    _maybe_plot_script(args, path, "p", "s2")
    print(path)
    return 0


def cmd_singular_diagram(args) -> int:
    diagram = homoclinic.assemble_singular_diagram(n_curve=args.n)
    path = _out_path(args, "singular_diagram.json")
    write_json(path, diagram.to_dict(), {"n": args.n})
    print(path)
    return 0


# ------------------------------------------------------------------ parser

def _positive_int(text: str) -> int:
    """argparse type for a point count: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fhnwave",
        description="Bifurcation structure of the FitzHugh-Nagumo "
                    "traveling-wave ODE.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=func)
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: FHNWAVE_OUT_DIR "
                             "or the working directory)")
        return sp

    add("folds", cmd_folds, "fold points of the critical manifold")
    add("slow-bif", cmd_slow_bif, "slow-flow bifurcation values p_-, p_+")

    sp = add("fast-equilibria", cmd_fast_equilibria,
             "layer-problem equilibria and their types")
    sp.add_argument("--pbar", type=float, required=True,
                    help="layer parameter p - y")
    sp.add_argument("--s", type=float, default=0.0, help="wave speed")

    sp = add("double-het", cmd_double_het,
             "s = 0 double heteroclinic of the layer problem")
    sp.add_argument("--offset", type=float, default=1e-8,
                    help="shooting offset along the separatrices")

    sp = add("het-curve", cmd_het_curve,
             "V-shaped curve of layer heteroclinics in (pbar, s)")
    sp.add_argument("--s-max", type=float, default=1.45,
                    help="largest speed of the grid")
    sp.add_argument("--step", type=float, default=0.03,
                    help="spacing of the speed grid")
    sp.add_argument("--plot-script", action="store_true",
                    help="also emit a gnuplot script")

    sp = add("hopf-curve", cmd_hopf_curve, "Hopf U-curve at fixed eps")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n", type=_positive_int, default=200,
                    help="number of points")
    sp.add_argument("--plot-script", action="store_true",
                    help="also emit a gnuplot script")

    sp = add("gh-track", cmd_gh_track,
             "generalized-Hopf points over an eps grid, with eps -> 0 "
             "extrapolation")
    sp.add_argument("--eps", type=float, nargs="+",
                    default=[1e-2, 1e-3, 1e-4], help="eps grid")

    sp = add("canard", cmd_canard,
             "reduced Hopf values and the maximal-canard location")
    sp.add_argument("--eps", type=float, required=True)

    sp = add("canard-stability", cmd_canard_stability,
             "slow-divergence integral R(h) over the canard family")
    sp.add_argument("--n", type=_positive_int, default=50,
                    help="grid size in h")
    sp.add_argument("--abs-tol", type=float, default=1e-10,
                    help="quadrature tolerance")
    sp.add_argument("--plot-script", action="store_true",
                    help="also emit a gnuplot script")

    sp = add("reduced-orbit", cmd_reduced_orbit,
             "forward orbit of a two-variable reduction with summary")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--variant", choices=("eq17", "eq18"), default="eq18",
                    help="reduction chart; eq18 escapes (exit 1) on "
                         "oscillations with s*eps below ~4e-3, eq17 holds")
    sp.add_argument("--t-end", type=float, default=60.0,
                    help="slow-time horizon")

    sp = add("c-curve", cmd_c_curve,
             "homoclinic speeds by unstable-manifold splitting")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--p", type=float, nargs="+", required=True,
                    help="one or more p values")
    sp.add_argument("--s-lo", type=float, default=0.05)
    sp.add_argument("--s-hi", type=float, default=1.55)
    sp.add_argument("--bracket-tol", type=float, default=1e-12,
                    help="bisection bracket width (0: bisect until the "
                         "bracket cannot shrink)")
    sp.add_argument("--plot-script", action="store_true",
                    help="also emit a gnuplot script")

    sp = add("singular-diagram", cmd_singular_diagram,
             "machine-readable singular (eps = 0) bifurcation diagram")
    sp.add_argument("--n", type=_positive_int, default=25,
                    help="points on the fast-wave curve")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, IntegrationError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc),
                          "command": args.command}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: one subcommand per bifurcation-diagram artifact.

Each ``cmd_*`` handler only computes: it returns ``(file_name, payload,
meta)``, where the payload is a ``CurveBranch`` (written as CSV) or a
``dict`` (written as JSON) and ``meta`` goes into the metadata header.
``main`` alone writes the artifact, with its header (schema version,
parameters, tolerances), into the output directory (``--out-dir`` or the
FHNWAVE_OUT_DIR environment variable, default the working directory),
adds the gnuplot script asked for by ``--plot-script`` and prints the
path.  A failing command creates no directory and no file.  Writes are
atomic (write-then-rename) and, for fixed inputs, byte-identical on one
platform.

Exit codes: 0 success, 1 numerical failure (a diagnostic JSON is printed),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
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

#: What a ``cmd_*`` handler returns: (file_name, payload, meta).
Artifact = tuple[str, dict | CurveBranch, dict]


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


def _stack(columns: tuple[str, ...], labelled) -> CurveBranch:
    """One branch of the rows of (label, branch) pairs, each row prefixed
    with its label."""
    return CurveBranch(columns=columns,
                       points=[(label,) + tuple(pt)
                               for label, br in labelled for pt in br.points])


# ------------------------------------------------------------- subcommands

def cmd_folds(args) -> Artifact:
    return "folds.json", {"x_minus": model.X_MINUS, "x_plus": model.X_PLUS,
                          "p_minus": model.P_MINUS, "p_plus": model.P_PLUS}, {}


def cmd_slow_bif(args) -> Artifact:
    return "slow_bif.json", {
        "p_minus": model.P_MINUS, "p_plus": model.P_PLUS,
        "sum": model.P_MINUS + model.P_PLUS,
        "involution_p": model.P_INVOLUTION,
    }, {}


def cmd_fast_equilibria(args) -> Artifact:
    eqs = fast_layer.layer_equilibria(args.pbar, args.s)
    data = [{"x1": eq.x1, "kind": eq.kind.value, "branch": eq.branch.value,
             "eigenvalues_re": [float(w.real) for w in eq.eigenvalues],
             "eigenvalues_im": [float(w.imag) for w in eq.eigenvalues]}
            for eq in eqs]
    return "fast_equilibria.json", {
        "equilibria": data, "pbar_l": model.PBAR_L, "pbar_r": model.PBAR_R,
    }, {"pbar": args.pbar, "s": args.s}


def cmd_double_het(args) -> Artifact:
    pbar_star, p_star = fast_layer.PBAR_STAR, homoclinic.P_STAR
    gap = fast_layer.shoot_heteroclinic(pbar_star, 0.0, offset=args.offset)
    return "double_het.json", {"pbar_star": pbar_star, "section_gap": gap,
                               "p_star": p_star}, {"offset": args.offset}


def cmd_het_curve(args) -> Artifact:
    left, right = fast_layer.het_v_curve(s_max=args.s_max, step=args.step)
    merged = _stack(("branch", "pbar", "s", "section_gap"),
                    (("left-to-right", left), ("right-to-left", right)))
    return "het_curve.csv", merged, {"s_max": args.s_max, "step": args.step}


def cmd_hopf_curve(args) -> Artifact:
    branch = bifurcation.hopf_curve(args.eps, n=args.n)
    asym = bifurcation.hopf_asymptotes()
    return "hopf_curve.csv", branch, {
        "eps": args.eps, "n": args.n,
        "asymptote_p_minus": asym["p_minus"],
        "asymptote_p_plus": asym["p_plus"]}


def cmd_gh_track(args) -> Artifact:
    b1, b2 = bifurcation.gh_track(args.eps)
    meta = {"eps_grid": args.eps}
    for idx, br in ((1, b1), (2, b2)):
        meta[f"gh{idx}_p_limit"] = bifurcation.extrapolate_to_zero(
            br.column("p"))
        meta[f"gh{idx}_s_limit"] = bifurcation.extrapolate_to_zero(
            br.column("s"))
    return ("gh_track.csv",
            _stack(("gh",) + b1.columns, ((1, b1), (2, b2))), meta)


def cmd_canard(args) -> Artifact:
    ph_minus, ph_plus = slow_reduced.reduced_hopf_values(args.eps)
    p_maximal = slow_reduced.maximal_canard_p(args.eps)
    return "canard.json", {"eps": args.eps, "p_maximal": p_maximal,
                           "p_hopf_minus": ph_minus,
                           "p_hopf_plus": ph_plus}, {}


def cmd_canard_stability(args) -> Artifact:
    hs = np.linspace(slow_reduced.H_MAX / args.n, slow_reduced.H_MAX, args.n)
    branch = CurveBranch(columns=("h", "R"))
    for h in hs:
        branch.points.append((float(h), slow_reduced.canard_stability_R(
            float(h), abs_tol=args.abs_tol)))
    return "canard_stability.csv", branch, {"n": args.n,
                                            "abs_tol": args.abs_tol}


def cmd_reduced_orbit(args) -> Artifact:
    orbit = slow_reduced.simulate_reduced(args.p, args.s, args.eps,
                                          variant=args.variant,
                                          t_end=args.t_end)
    return "reduced_orbit.json", {
        "x1_amplitude": orbit.x1_amplitude,
        "x1_peak_to_peak": orbit.x1_peak_to_peak,
        "x2_amplitude": orbit.x2_amplitude,
        "x2_max": orbit.x2_max,
        "x2_excursions": orbit.x2_excursions,
    }, {"p": args.p, "s": args.s, "eps": args.eps, "variant": args.variant,
        "t_end": args.t_end}


def cmd_c_curve(args) -> Artifact:
    branch = CurveBranch(columns=homoclinic.C_CURVE_COLUMNS)
    for p in args.p:
        branch.points.append(homoclinic.locate_c_curve(
            p, args.eps, s_scan=(args.s_lo, args.s_hi),
            bracket_tol=args.bracket_tol).row())
    return "c_curve.csv", branch, {"eps": args.eps,
                                   "bracket_tol": args.bracket_tol,
                                   "s_scan": (args.s_lo, args.s_hi)}


def cmd_singular_diagram(args) -> Artifact:
    diagram = homoclinic.assemble_singular_diagram(n_curve=args.n)
    return "singular_diagram.json", diagram.to_dict(), {"n": args.n}


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

    def add(name, func, help_text, plot=None):
        """Register a subcommand; ``plot=(xcol, ycol)`` adds --plot-script
        for a gnuplot script of those CSV columns."""
        sp = sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.set_defaults(func=func, plot=plot, plot_script=False)
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: FHNWAVE_OUT_DIR "
                             "or the working directory)")
        if plot:
            sp.add_argument("--plot-script", action="store_true",
                            help="also emit a gnuplot script")
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
             "V-shaped curve of layer heteroclinics in (pbar, s)",
             plot=("pbar", "s"))
    sp.add_argument("--s-max", type=float, default=1.45,
                    help="largest speed of the grid")
    sp.add_argument("--step", type=float, default=0.03,
                    help="spacing of the speed grid")

    sp = add("hopf-curve", cmd_hopf_curve, "Hopf U-curve at fixed eps",
             plot=("p", "s"))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--n", type=_positive_int, default=200,
                    help="number of points")

    sp = add("gh-track", cmd_gh_track,
             "generalized-Hopf points over an eps grid, with eps -> 0 "
             "extrapolation")
    sp.add_argument("--eps", type=float, nargs="+",
                    default=[1e-2, 1e-3, 1e-4], help="eps grid")

    sp = add("canard", cmd_canard,
             "reduced Hopf values and the maximal-canard location")
    sp.add_argument("--eps", type=float, required=True)

    sp = add("canard-stability", cmd_canard_stability,
             "slow-divergence integral R(h) over the canard family",
             plot=("h", "R"))
    sp.add_argument("--n", type=_positive_int, default=50,
                    help="grid size in h")
    sp.add_argument("--abs-tol", type=float, default=1e-10,
                    help="quadrature tolerance")

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
             "homoclinic speeds by unstable-manifold splitting",
             plot=("p", "s2"))
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--p", type=float, nargs="+", required=True,
                    help="one or more p values")
    sp.add_argument("--s-lo", type=float, default=0.05)
    sp.add_argument("--s-hi", type=float, default=1.55)
    sp.add_argument("--bracket-tol", type=float, default=1e-12,
                    help="bisection bracket width (0: bisect until the "
                         "bracket cannot shrink)")

    sp = add("singular-diagram", cmd_singular_diagram,
             "machine-readable singular (eps = 0) bifurcation diagram")
    sp.add_argument("--n", type=_positive_int, default=25,
                    help="points on the fast-wave curve")

    return parser


#: One parser per process, built by the first ``main`` call rather than at
#: import, so that importing the module stays cheap.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        name, payload, meta = args.func(args)
    except (DomainError, IntegrationError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__,
                          "message": str(exc),
                          "command": args.command}))
        return 1
    path = _out_path(args, name)
    if isinstance(payload, CurveBranch):
        write_csv(path, payload, meta)
    else:
        write_json(path, payload, meta)
    if args.plot_script:
        xcol, ycol = args.plot
        _atomic_write(os.path.splitext(path)[0] + ".gp",
                      f"set datafile separator ','\n"
                      f"plot '{name}' using '{xcol}':'{ycol}' "
                      f"with linespoints\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Homoclinic wave speeds: singular construction and finite-eps location.

The singular (eps = 0) homoclinic skeleton in the (p, s) parameter plane
consists of a segment of slow waves on the axis s = 0 and the curve AC of
fast waves: the speed of the upward layer heteroclinic at the equilibrium
height y = x1*(p) (``singular_upper_curve``).  The downward jump of a fast
wave at speed s returns at the height y = x1*(p) + v that
``return_height_at`` gives.  For eps > 0 the actual homoclinic speeds are
located without computing the orbits: the one-dimensional unstable
manifold of the saddle-focus q eventually escapes left or right, and the
speeds at which the classification flips are the homoclinic bifurcation
values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bifurcation, model, roots, slow_reduced
from .curves import CurveBranch
from .fast_layer import (EDGE_MARGIN, PBAR_STAR, HetConnection, find_het,
                         mirror_pbar, shoot_heteroclinic)
from .integrate import IntegratorOptions, integrate
from .model import DomainError, ModelParams

#: p* of the point A = (p*, 0): the equilibrium height meets the s = 0
#: double heteroclinic (p - x1*(p) = pbar*) where x1* is the left root
#: (11 - sqrt(273))/30 of the layer cubic at pbar*.
P_STAR = model.equilibrium_p((11.0 - math.sqrt(273.0)) / 30.0)

#: Escape abscissa for the unstable-manifold classification.
ESCAPE_X1 = 2.0

#: Separatrix abscissa used by the time-out fallback classifier.
_MIDDLE_X1 = 11.0 / 30.0

#: Integrator settings of an escape shot, which runs for min(1e4, 100/eps).
_ESCAPE_OPTS = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12,
                                 escape_radius=50.0)

#: Flip brackets narrower than this are one (exponentially thin) bundle.
BUNDLE_WIDTH = 1e-10

#: Speeds on the escape-side scan of ``locate_c_curve``.
N_SCAN = 24

#: Section gap accepted at the layer connections of the singular skeleton.
GAP_TOL = 1e-8

#: Columns of a C-curve row (see ``CCurvePoint.row``).
C_CURVE_COLUMNS = ("p", "s1", "s2", "eps", "bracket_width")


@dataclass
class CCurvePoint:
    """Bracketed pair of homoclinic speeds at one (p, eps)."""

    p: float
    s1: float
    s2: float
    eps: float
    bracket_width: float

    def row(self) -> tuple:
        """The point as a curve row in ``C_CURVE_COLUMNS`` order."""
        return (self.p, self.s1, self.s2, self.eps, self.bracket_width)


@dataclass
class SingularDiagram:
    """Machine-readable singular (eps = 0) bifurcation diagram.

    A = (p*, 0) is the double heteroclinic, B = (p_-, 0) the fold-crossing
    on the axis, C = (p_-, s*) the upper end of the fast-wave curve.  AB is
    the slow-wave segment, AC the fast-wave curve.
    """

    A: tuple[float, float]
    B: tuple[float, float]
    C: tuple[float, float]
    segment_ab: list[tuple[float, float]]
    curve_ac: list[tuple[float, float]]
    hopf_asymptotes: dict
    canard_p: float
    fold_p: tuple[float, float] = (model.P_MINUS, model.P_PLUS)

    def to_dict(self) -> dict:
        return {
            "A": list(self.A), "B": list(self.B), "C": list(self.C),
            "segment_ab": [list(q) for q in self.segment_ab],
            "curve_ac": [list(q) for q in self.curve_ac],
            "hopf_asymptotes": self.hopf_asymptotes,
            "canard_p": self.canard_p,
            "fold_p": list(self.fold_p),
        }


def equilibrium_pbar(p: float) -> float:
    """Layer parameter p - y at the equilibrium height y = x1*(p)."""
    return p - model.equilibrium_x1(p)


def s_star() -> float:
    """Terminal speed of the fast-wave curve at p = p_-.

    There the left saddle and the middle equilibrium of the layer problem
    collide at the fold, and the connection leaves along the strong
    unstable direction of the saddle-node.
    """
    conn = find_het(pbar=model.PBAR_R, scan=(1.2, 1.8), gap_tol=GAP_TOL)
    return conn.s


def upper_connection(p: float) -> HetConnection:
    """Left-to-right layer connection at the equilibrium height y = x1*(p)."""
    if model.equilibrium_x1(p) >= model.X_MINUS:
        raise DomainError(
            f"equilibrium at p={p:.6g} is not on the left branch: no "
            "singular homoclinic departs from it")
    pbar = equilibrium_pbar(p)
    if not model.PBAR_L < pbar < model.PBAR_R:
        raise DomainError(
            f"height pbar={pbar:.6g} outside the three-equilibria band")
    return find_het(pbar=pbar, scan=(0.0, 1.6), gap_tol=GAP_TOL)


def singular_upper_curve(n: int = 30) -> CurveBranch:
    """Fast-wave speed curve s(p) at the equilibrium height (A to C).

    Spans the full admissible band between p* and p_-, shrunk by a small
    margin at both ends, where the speed tends to 0 and to the saddle-node
    limit s*.
    """
    ps = np.linspace(P_STAR + 1e-4, model.P_MINUS - 1e-4, n)
    branch = CurveBranch(columns=("p", "s", "pbar"),
                         meta={"height": "equilibrium"})
    for p in ps:
        conn = upper_connection(float(p))
        branch.points.append((float(p), conn.s, conn.pbar))
    return branch


def return_height_at(p: float, s: float) -> float:
    """Return offset v whose right-to-left connection runs at speed s.

    That connection's layer parameter pbar is the mirror image of the
    left-to-right one solved at speed s; v follows from p - x1*(p) - v =
    pbar.  Its pbar falls toward the band edge PBAR_L as s grows; within
    ``EDGE_MARGIN`` of it (on the speed of AC, once p_- - p is below about
    1e-3) it raises a ``DomainError`` that says so.
    """
    scan = (mirror_pbar(PBAR_STAR - 1e-9), model.PBAR_R - EDGE_MARGIN)
    try:
        conn = find_het(s=s, scan=scan, gap_tol=GAP_TOL)
    except DomainError:
        # negative at the scan's band-edge end: the root lies beyond it
        gap = -shoot_heteroclinic(scan[1], s)
        if gap < 0.0:
            raise DomainError(
                f"no return height at p={p}, s={s}: the right-to-left "
                f"connection lies within EDGE_MARGIN={EDGE_MARGIN:g} of the "
                f"band edge PBAR_L={model.PBAR_L:.6g}, or past it (gap "
                f"{gap:.3g} at pbar={mirror_pbar(scan[1]):.6g})") from None
        raise
    return equilibrium_pbar(p) - mirror_pbar(conn.pbar)


def _unstable_direction(p: float, s: float, eps: float):
    """Saddle-focus q and its real unstable direction, oriented x1-up: the
    root lambda in (0, 1 + max|c_i|) of the characteristic polynomial (c0 < 0
    on the equilibrium curve) and its eigenvector (1, lambda, e/(lambda + e)).
    The deflated quadratic must have no positive root."""
    x1s = model.equilibrium_x1(p)
    c0, c1, c2 = bifurcation.char_poly_coeffs(x1s, s, eps)
    poly = lambda lam: ((lam + c2) * lam + c1) * lam + c0
    bound = 1.0 + max(abs(c0), abs(c1), abs(c2))
    try:
        lam = roots.refine(poly, 0.0, bound, c0, poly(bound), xtol=1e-15)[0]
    except DomainError as exc:  # an overflow at the bound
        raise DomainError(f"no unstable eigenvalue of q at p={p}, s={s}, "
                          f"eps={eps}: {exc}") from None
    b, c = c2 + lam, c1 + lam * (c2 + lam)  # deflated: x^2 + b*x + c
    if lam <= 0.0 or (b < 0.0 and b * b >= 4.0 * c):
        raise DomainError(f"expected one real unstable eigenvalue at p={p}, "
                          f"s={s}: {lam}, roots of x^2 + {b}*x + {c}")
    e = eps / s
    v3 = e / (lam + e)
    return (np.array([x1s, 0.0, x1s]),
            np.array([1.0, lam, v3]) / math.hypot(1.0, lam, v3))


def escape_side(p: float, s: float, eps: float, offset: float = 1e-8) -> int:
    """-1 or +1: side on which the unstable manifold of q escapes.

    The manifold is launched toward increasing x1 and integrated in fast
    time (at most min(1e4, 100/eps)) until |x1| reaches the escape
    abscissa; on time-out the side of the final x1 relative to the middle
    branch decides.  Needs eps > 0 and a finite offset > 0.
    """
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0 for the escape time, got {eps}")
    if not 0.0 < offset < math.inf:
        raise DomainError(f"offset must be finite and > 0, got {offset}")
    params = ModelParams(eps=eps, s=s, p=p)
    state, direction = _unstable_direction(p, s, eps)
    field = lambda t, y: model.full_field(y, params)
    traj = integrate(field, state + offset * direction,
                     (0.0, min(1e4, 100.0 / eps)), _ESCAPE_OPTS,
                     levels=(ESCAPE_X1, -ESCAPE_X1))
    if traj.event is not None:
        return 1 if traj.event.index == 0 else -1
    return 1 if float(traj.final_state[0]) > _MIDDLE_X1 else -1


def locate_c_curve(p: float, eps: float,
                   s_scan: tuple[float, float] = (0.05, 1.55),
                   bracket_tol: float = 1e-12,
                   offset: float = 1e-8) -> CCurvePoint:
    """Both homoclinic speeds at (p, eps) by unstable-manifold splitting.

    Scans s over ``s_scan`` (``N_SCAN`` speeds), brackets each flip of the
    left/right escape classification and bisects it to ``bracket_tol``.
    Flips closer than the bundle width count as one C-curve point; anything
    other than exactly two distinct speeds raises with the count found.
    Needs 0 < s_lo < s_hi < inf for ``s_scan = (s_lo, s_hi)``.
    """
    s_lo, s_hi = s_scan
    if not 0.0 < s_lo < s_hi < math.inf:  # also rejects NaN
        raise DomainError(f"s_scan must satisfy 0 < s_lo < s_hi < inf, "
                          f"got {s_scan}")
    if not 0.0 <= bracket_tol < math.inf:
        raise DomainError(f"bracket_tol must be finite and >= 0, "
                          f"got {bracket_tol}")
    side = lambda s: escape_side(p, s, eps, offset=offset)
    found: list[tuple[float, float]] = []
    for cell in roots.scan(side, np.linspace(s_lo, s_hi, N_SCAN)):
        lo, hi, _, _ = roots.refine(side, *cell, xtol=bracket_tol)
        if found and 0.5 * (lo + hi) - 0.5 * sum(found[-1]) < BUNDLE_WIDTH:
            continue  # same exponentially thin bundle
        found.append((lo, hi))
    if len(found) != 2:
        raise DomainError(
            f"expected 2 splitting speeds at p={p}, eps={eps}; "
            f"found {len(found)} in {s_scan}")
    (lo1, hi1), (lo2, hi2) = found
    return CCurvePoint(p=p, s1=0.5 * (lo1 + hi1), s2=0.5 * (lo2 + hi2),
                       eps=eps, bracket_width=max(hi1 - lo1, hi2 - lo2))


def trace_c_curve(eps: float, p_grid,
                  bracket_tol: float = 1e-12) -> CurveBranch:
    """Map locate_c_curve over a p-grid: each point is solved on its own.

    Per-point failures are recorded in meta["failures"] and the trace
    continues.
    """
    branch = CurveBranch(columns=C_CURVE_COLUMNS,
                         meta={"eps": eps, "failures": []})
    for p in p_grid:
        try:
            pt = locate_c_curve(float(p), eps, bracket_tol=bracket_tol)
        except DomainError as exc:
            branch.meta["failures"].append((float(p), str(exc)))
            continue
        branch.points.append(pt.row())
    return branch


def assemble_singular_diagram(n_curve: int = 25) -> SingularDiagram:
    """Compose the singular skeleton: A, B, C, segment AB, curve AC,
    the Hopf asymptotes and the eps = 0 canard abscissa."""
    s_term = s_star()
    ab = [(float(p), 0.0)
          for p in np.linspace(P_STAR, model.P_MINUS, n_curve)]
    curve = singular_upper_curve(n=n_curve)
    ac = ([(P_STAR, 0.0)]
          + [(q[0], q[1]) for q in curve.points]
          + [(model.P_MINUS, s_term)])
    canard_p = slow_reduced.reduced_hopf_values(0.0)[0]
    return SingularDiagram(
        A=(P_STAR, 0.0), B=(model.P_MINUS, 0.0), C=(model.P_MINUS, s_term),
        segment_ab=ab, curve_ac=ac,
        hopf_asymptotes=bifurcation.hopf_asymptotes(),
        canard_p=canard_p,
    )

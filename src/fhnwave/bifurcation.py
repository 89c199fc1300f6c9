"""Full-system Hopf analysis: the parametric Hopf U-curve, its singular
asymptotes, the first Lyapunov coefficient along the curve, and tracking of
the generalized-Hopf (Bautin) points in (p, s, eps).

The monic characteristic polynomial lambda^3 + c2*lambda^2 + c1*lambda + c0
of the fast-time Jacobian has a pure imaginary pair exactly when c0 = c1*c2
(and c1 > 0), which yields the parametric curve

    s(x1*)^2 = 50*eps*(eps - 1) / (1 + 10*eps - 22*x1* + 30*x1*^2)
    p(x1*)   = x1*^3 - 1.1*x1*^2 + 1.1*x1*

The p(x1*) used here is the equilibrium condition p = x1 - c0(x1),
written out as the cubic above.  The coefficients and the first Lyapunov
coefficient are closed forms: no point runs an eigensolve or linear solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, roots
from .curves import CurveBranch
from .model import DomainError

#: Hopf residual |c0 - c1*c2| accepted for emitted curve points.
RESIDUAL_TOL = 1e-10

#: |omega| below this is a fold-Hopf degeneracy; l1 is meaningless there.
OMEGA_DEGENERATE = 1e-6

#: Columns of a Hopf-point row (see ``HopfPoint.row``).
HOPF_COLUMNS = ("p", "s", "eps", "x1_star", "omega", "l1", "criticality")

#: Points of the l1 scan in ``gh_locate``.
N_SCAN = 160


@dataclass
class HopfPoint:
    p: float
    s: float
    eps: float
    x1_star: float
    omega: float
    l1: float
    criticality: str  # "super", "sub" or "degenerate"
    residual: float

    def row(self) -> tuple:
        """The point as a curve row in ``HOPF_COLUMNS`` order."""
        return (self.p, self.s, self.eps, self.x1_star, self.omega, self.l1,
                self.criticality)


def char_poly_coeffs(x1_star: float, s: float, eps: float) -> tuple[float, float, float]:
    """Monic characteristic-polynomial coefficients (c0, c1, c2) of the
    fast-time Jacobian [[0, 1, 0], [a, sigma, 1/5], [e, 0, -e]] at x1_star,
    where a = -c0'(x1*)/5, sigma = s/5 and e = eps/s."""
    if not (math.isfinite(x1_star) and 0.0 < s < math.inf
            and 0.0 <= eps < math.inf):  # also rejects NaN
        raise DomainError(f"need finite x1_star, s > 0, eps >= 0: {x1_star}, {s}, {eps}")
    a = -0.2 * model.cubic_prime(x1_star)
    sigma, e = s / 5.0, eps / s
    return -e * (a + 0.2), -a - sigma * e, e - sigma


def hopf_interval(eps: float) -> tuple[float, float]:
    """x1* interval where 1 + 10*eps - 22*x1* + 30*x1*^2 < 0."""
    if not 0.0 <= eps < math.inf:  # also rejects NaN
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    disc = 364.0 - 1200.0 * eps
    if disc <= 0.0:
        raise DomainError(f"no Hopf interval at eps={eps}")
    r = math.sqrt(disc) / 60.0
    return 11.0 / 30.0 - r, 11.0 / 30.0 + r


def hopf_point(x1_star: float, eps: float) -> HopfPoint:
    """Hopf point of the parametric curve at the given equilibrium abscissa."""
    denom = 1.0 + 10.0 * eps - 22.0 * x1_star + 30.0 * x1_star**2
    if denom >= 0.0:
        raise DomainError(f"x1*={x1_star} outside the Hopf interval")
    s = math.sqrt(50.0 * eps * (eps - 1.0) / denom)
    p = model.equilibrium_p(x1_star)
    c0, c1, c2 = char_poly_coeffs(x1_star, s, eps)
    omega = math.sqrt(c1) if c1 > 0.0 else float("nan")
    point = HopfPoint(p=p, s=s, eps=eps, x1_star=x1_star, omega=omega,
                      l1=float("nan"), criticality="degenerate",
                      residual=abs(c0 - c1 * c2))
    try:
        point.l1 = lyapunov_l1(point)
    except DomainError:
        point.l1 = float("nan")
    if not math.isnan(point.l1):
        point.criticality = "super" if point.l1 < 0.0 else "sub"
    return point


def hopf_curve(eps: float, n: int = 200) -> CurveBranch:
    """The Hopf U-curve at fixed eps as n points swept in x1*.

    The sweep is inset from the interval endpoints, where s diverges (the
    vertical asymptotes of the singular limit), by 1e-4 of its width.
    """
    lo, hi = hopf_interval(eps)
    inset = 1e-4 * (hi - lo)
    branch = CurveBranch(columns=HOPF_COLUMNS,
                         meta={"eps": eps, "kind": "hopf"})
    for x1 in np.linspace(lo + inset, hi - inset, n):
        branch.points.append(hopf_point(float(x1), eps).row())
    return branch


def hopf_asymptotes() -> dict:
    """Singular-limit skeleton of the U-curve.

    Two vertical lines {p_-} x [0, inf) and {p_+} x [0, inf) plus the
    horizontal segment [p_-, p_+] x {0}.
    """
    return {
        "p_minus": model.P_MINUS,
        "p_plus": model.P_PLUS,
        "horizontal_segment": ((model.P_MINUS, 0.0), (model.P_PLUS, 0.0)),
    }


def lyapunov_l1(point: HopfPoint) -> float:
    """First Lyapunov coefficient at a Hopf point of the full system.

    Kuznetsov's projection formula in closed form.  B and C are multiples
    of e2 that read x1-components only, so each linear solve reduces to the
    x1-component of a solve against e2.  The eigenvectors A q = i*omega*q,
    A^T p = -i*omega*p are q = (1, i*omega, e/(i*omega + e)) and
    p = (-i*omega - sigma, 1, (1/5)/(e - i*omega)); scaling q to unit norm
    (l1 scales with |q|^2) and p to <p, q> = 1 leaves the common factor
    1/(|q|^2 <p, q>).  Only the sign and its zero crossings are used.
    """
    c0, c1, c2 = char_poly_coeffs(point.x1_star, point.s, point.eps)
    scale = max(1.0, abs(c0), abs(c1 * c2))  # coefficients grow ~s^2 near the asymptotes
    if abs(c0 - c1 * c2) > RESIDUAL_TOL * scale:
        raise DomainError(f"not on the Hopf set: residual {point.residual:.3g}")
    omega = math.sqrt(c1) if c1 > 0.0 else 0.0
    if omega < OMEGA_DEGENERATE:
        return float("nan")

    a = -0.2 * model.cubic_prime(point.x1_star)
    sigma, e, iw = point.s / 5.0, point.eps / point.s, 1j * omega
    q_norm2 = 1.0 + c1 + e * e / (c1 + e * e)
    p_dot_q = 2.0 * iw - sigma + 0.2 * e / (e + iw) ** 2
    b2 = -0.2 * model.cubic_second(point.x1_star)  # d2(x2')/dx1^2
    c3 = -0.2 * model.cubic_third()                # d3(x2')/dx1^3
    solve_0 = 1.0 / (a + 0.2)                      # (A^-1 e2)_1
    solve_2w = 1.0 / (-a + (2.0 * iw - sigma) * 2.0 * iw
                      - 0.2 * e / (2.0 * iw + e))  # ((2i omega - A)^-1 e2)_1
    terms = (c3 - 2.0 * b2 * b2 * solve_0 + b2 * b2 * solve_2w) / (q_norm2 * p_dot_q)
    return terms.real / (2.0 * omega)


def gh_locate(eps: float) -> list[HopfPoint]:
    """Generalized Hopf points: zeros of l1 along the left half of the
    Hopf curve.

    Scans l1 over the x1* sweep (``N_SCAN`` points) and refines each sign
    change by a bracketed solve, so the points come in x1* order.  Each is
    labelled ``degenerate``: its l1 is a root, so the sign left there is
    round-off.  The sweep stops at x1* = 11/30; the curve is symmetric
    about that abscissa, so the right-half points are the mirror images of
    the left-half ones.
    """
    lo, hi = hopf_interval(eps)
    hi = min(hi, 11.0 / 30.0)
    # geometric spacing from the left edge: the high-s GH point sits at an
    # x1*-offset that shrinks with eps (the curve steepens into the
    # asymptote), so a uniform grid loses it for eps below ~1e-3
    xs = lo + (hi - lo) * np.geomspace(1e-8, 1.0, N_SCAN)
    xs[-1] = hi - 1e-4 * (hi - lo)

    found = []
    l1_of = lambda x: hopf_point(x, eps).l1
    for cell in roots.scan(l1_of, xs):
        x_root = roots.refine(l1_of, *cell, xtol=1e-13, rtol=1e-14)[0]
        point = hopf_point(x_root, eps)
        point.criticality = "degenerate"
        found.append(point)
    return found


def gh_track(eps_grid) -> tuple[CurveBranch, CurveBranch]:
    """Track the two left-half GH points over an eps grid.

    Points are branch-matched by their ordering in x1* along the curve
    (the branch closer to the left asymptote keeps the larger s).  Raises
    if some eps does not yield exactly two points.
    """
    b1 = CurveBranch(columns=HOPF_COLUMNS, meta={"gh": 1})
    b2 = CurveBranch(columns=HOPF_COLUMNS, meta={"gh": 2})
    for eps in eps_grid:
        pts = gh_locate(float(eps))
        if len(pts) != 2:
            raise DomainError(
                f"expected 2 GH points at eps={eps}, found {len(pts)}")
        # in x1* order; the smaller x1* sits near the asymptote: GH2, large s
        b1.points.append(pts[1].row())
        b2.points.append(pts[0].row())
    return b1, b2


def extrapolate_to_zero(values) -> float:
    """Aitken delta-squared extrapolation of a sequence computed along a
    decreasing eps grid; no convergence rate is assumed."""
    v = [float(x) for x in values]
    if len(v) < 3:
        return v[-1]
    v0, v1, v2 = v[-3], v[-2], v[-1]
    denom = (v2 - v1) - (v1 - v0)
    if denom == 0.0:
        return v2
    return v2 - (v2 - v1) ** 2 / denom

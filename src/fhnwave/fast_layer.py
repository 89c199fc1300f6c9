"""Layer-problem analysis: Hamiltonian structure at s = 0, heteroclinic
shooting across the mid-section, and the V-shaped curve of connections in
(pbar, s) parameter space as bracketed solves on a speed grid.

For s = 0 the layer problem is Hamiltonian with H = x2^2/2 + V(x1); the two
saddles are connected exactly when they sit on the same potential level,
which pins the double connection at pbar* = -209/3375.  For s > 0 the field
is area expanding (divergence s/5) and single connections are located as
zeros of the section gap h(pbar, s).

A shot always joins the outer layer equilibria, the first and last roots
of ``model.fast_equilibria_x1``, from left to right.  Inside the band
(pbar_l, pbar_r) both are saddles.  At a band edge the middle equilibrium
has merged with one of them into a fold: a shot may depart from the fold,
along its strong unstable direction, when s > 0, but never arrive at it.

R: (x1, x2, pbar) -> (11/15 - x1, -x2, pbar_l + pbar_r - pbar) maps the
layer field to itself at the same s and swaps the outer saddles, so a
right-to-left connection is the mirror image of a left-to-right one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, roots
from .curves import CurveBranch
from .integrate import IntegratorOptions, integrate
from .model import DomainError, EquilibriumInfo

#: Sentinel magnitude standing in for "no section crossing" gap values;
#: signed by escape side so bracketing root solvers keep working.
GAP_SENTINEL = 1e6

_SHOT_OPTS = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)

#: Fast-time horizon of a shot to the section.
SHOT_TIME = 5000.0

#: Layer parameter of the s = 0 double heteroclinic: the saddles share a
#: potential level when the cubic is balanced about its inflection point
#: 11/30, which puts the roots at 11/30 and 11/30 +- sqrt(273)/30.
PBAR_STAR = -209.0 / 3375.0

#: Distance kept from a band edge where it closes a bracket in pbar.
EDGE_MARGIN = 1e-6

#: Smallest V-curve speed step.  At 1e-12 the connection moves less in pbar
#: than the ~1e-13 section-gap noise, so a branch could end early as
#: "no-connection"; steps down to 2e-12 ran complete, 1e-10 keeps a margin.
MIN_STEP = 1e-10


def potential(x1, pbar):
    """Potential V(x1) of the s = 0 layer problem, V' = (c0(x1) + pbar)/5."""
    x1 = np.asarray(x1, dtype=float)
    return pbar * x1 / 5.0 - x1**2 / 100.0 + 11.0 * x1**3 / 150.0 - x1**4 / 20.0


def hamiltonian(state, pbar):
    """H = x2^2/2 + V(x1), kept as the tests' oracle: conserved at s = 0."""
    x1, x2 = state[0], state[1]
    return 0.5 * x2 * x2 + potential(x1, pbar)


@dataclass
class HetConnection:
    """A located heteroclinic connection of the layer problem."""

    pbar: float
    s: float
    section_gap: float


def layer_equilibria(pbar: float, s: float = 0.0) -> list[EquilibriumInfo]:
    """Equilibria (x1, 0) of the layer problem, sorted by x1, with the
    eigendata of the layer Jacobian at speed s."""
    if not math.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    infos = []
    for x1 in model.fast_equilibria_x1(pbar):
        eigenvalues = np.linalg.eigvals(model.fast_jacobian(x1, s))
        infos.append(EquilibriumInfo(
            state=np.array([x1, 0.0]), eigenvalues=eigenvalues,
            kind=model.classify_eigenvalues(eigenvalues),
            branch=model.branch_of(x1)))
    return infos


def saddle_eigendirections(x1: float, s: float, toward: float):
    """Unit (unstable, stable) eigenvectors of A(x1) at a layer saddle or fold.

    With a = -c0'(x1)/5 and sigma = s/5 the eigenvalues of A are
    lambda = sigma/2 +- sqrt(sigma^2/4 + a) with eigenvectors (1, lambda);
    at a fold (a = 0) with s > 0 the unstable one is the strong direction
    (1, s/5).  Both vectors are oriented so their x1-component points
    toward the abscissa ``toward`` (into the strip between the outer
    equilibria).
    """
    a = -0.2 * model.cubic_prime(x1)
    if a < -model.FOLD_TOL:
        raise DomainError(f"x1={x1} is neither a layer saddle nor a fold")
    half = 0.1 * s
    root = math.sqrt(half * half + max(a, 0.0))
    sign = 1.0 if toward >= x1 else -1.0

    def unit(lam):
        return sign / math.hypot(1.0, lam) * np.array([1.0, lam])

    return unit(half + root), unit(half - root)


def _shoot_to_section(x0, direction_vec, pbar, s, sigma, backward,
                      offset, x_lo, x_hi):
    """Integrate from a saddle offset until the section x1 = sigma.

    Returns x2 at the crossing, or None when the orbit leaves [x_lo, x_hi]
    or times out before crossing.
    """
    y0 = np.array([x0, 0.0]) + offset * np.asarray(direction_vec)
    field = model.fast_field_kernel(pbar, s)
    span = (0.0, -SHOT_TIME) if backward else (0.0, SHOT_TIME)
    traj = integrate(field, y0, span, _SHOT_OPTS, levels=(sigma, x_lo, x_hi))
    if traj.event is not None and traj.event.index == 0:
        return float(traj.event.state[1])
    return None


def mirror_pbar(pbar: float) -> float:
    """R(pbar) = pbar_l + pbar_r - pbar, rounded so that it swaps the band
    edges exactly."""
    return model.PBAR_R - (pbar - model.PBAR_L)


def shoot_heteroclinic(pbar: float, s: float, offset: float = 1e-8,
                       direction: str = "left-to-right") -> float:
    """Section gap h(pbar, s) between the two separatrices.

    Integrates forward from the left outer equilibrium x_l along its
    unstable direction and backward from the right one x_r along its stable
    direction; returns the difference of the x2-coordinates of the first
    crossings of the section x1 = (x_l + x_r)/2.  A shot that leaves
    [x_l - 0.7, x_r + 0.7] or times out before crossing never left its
    saddle's side of the section; that side, negated for the backward shot,
    is -GAP_SENTINEL either way, which keeps callers bracketing.  The
    backward shot is not run once the forward one has failed.  A
    "right-to-left" shot is the left-to-right one at ``mirror_pbar(pbar)``,
    negated.

    At s = 0 the field is Hamiltonian and a separatrix of the saddle x0
    lies on H = V(x0).  Where V(sigma) > V(x0) at the section sigma it is a
    loop that turns back before the section, so that shot fails without
    being integrated.

    At a band edge one outer equilibrium is the fold: x_l at pbar_r, where
    the shot may depart along the strong unstable direction (1, s/5) when
    s > 0.  An arrival at the fold (x_r at pbar_l), a fold at s <= 0 and a
    pbar with a single equilibrium raise ``DomainError``.
    """
    if direction not in ("left-to-right", "right-to-left"):
        raise ValueError(f"unknown direction {direction!r}")
    if not math.isfinite(pbar):  # R would turn +-inf into its opposite
        raise DomainError(f"non-finite pbar: {pbar}")
    sign = 1.0 if direction == "left-to-right" else -1.0
    pb = pbar if sign > 0.0 else mirror_pbar(pbar)
    xs = model.fast_equilibria_x1(pb)
    if len(xs) < 2:
        raise DomainError(f"need 2 layer equilibria, found 1 at pbar={pbar}")
    x_l, x_r = xs[0], xs[-1]
    if not 0.0 < offset < math.inf:
        raise DomainError(f"offset must be finite and > 0, got {offset}")
    if x_r == model.X_PLUS:
        raise DomainError(f"{direction} shot at pbar={pbar} arrives at the "
                          "fold")
    if x_l == model.X_MINUS and not s > 0.0:
        raise DomainError(f"departure from the fold needs s > 0, got {s}")
    vu, _ = saddle_eigendirections(x_l, s, toward=x_r)
    _, vs = saddle_eigendirections(x_r, s, toward=x_l)

    sigma = 0.5 * (x_l + x_r)
    x_lo, x_hi = x_l - 0.7, x_r + 0.7
    crossings = []
    for x0, vec, backward in ((x_l, vu, False), (x_r, vs, True)):
        barrier = s == 0.0 and potential(sigma, pb) > potential(x0, pb)
        x2 = None if barrier else _shoot_to_section(
            x0, vec, pb, s, sigma, backward, offset, x_lo, x_hi)
        if x2 is None:
            return -sign * GAP_SENTINEL
        crossings.append(x2)
    return sign * (crossings[0] - crossings[1])


def find_het(pbar: float | None = None, s: float | None = None,
             scan: tuple[float, float] = (0.0, 2.0),
             gap_tol: float = 1e-10) -> HetConnection:
    """Solve the left-to-right section gap to zero in the free parameter.

    Exactly one of ``pbar``/``s`` must be given; the other is solved for
    by ``roots.refine`` on ``scan``, which must straddle a sign change of
    the gap.  Each argument is shot once per call.
    """
    if (pbar is None) == (s is None):
        raise ValueError("fix exactly one of pbar, s")

    if s is None:
        gap = lambda sv: shoot_heteroclinic(pbar, sv)
    else:
        gap = lambda pv: shoot_heteroclinic(pv, s)
    lo, hi = scan
    root, _, residual, _ = roots.refine(gap, lo, hi, gap(lo), gap(hi),
                                        xtol=1e-14, rtol=1e-15)
    if abs(residual) > gap_tol:
        raise DomainError(f"gap {residual:.3g} above tolerance at root")

    pb, sv = (pbar, root) if s is None else (root, s)
    return HetConnection(pbar=pb, s=sv, section_gap=residual)


def het_v_curve(s_max: float = 1.45,
                step: float = 0.03) -> tuple[CurveBranch, CurveBranch]:
    """Both branches of the V-shaped connection curve from its s = 0 vertex.

    Left-to-right connections run from the vertex (pbar*, 0) toward pbar_r.
    Along the branch pbar moves monotonically toward the band edge, so each
    point of the speed grid step, 2*step, ... (capped at s_max) is
    bracketed between the previous pbar and the edge.  The branch stops at
    the first speed without a connection; ``meta["termination"]`` says
    whether it reached s_max.  The right-to-left branch, toward pbar_l, is
    its mirror image: (mirror_pbar(pbar), s, -gap) point by point.
    """
    for name, value in (("step", step), ("s_max", s_max)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    if step < MIN_STEP:
        raise DomainError(f"step must be >= {MIN_STEP:g}, got {step}")
    pb, sv = PBAR_STAR, 0.0
    left = CurveBranch(columns=("pbar", "s", "gap"),
                       meta={"termination": "extent-reached"})
    left.points.append((pb, sv, shoot_heteroclinic(pb, sv)))
    while sv < s_max - 1e-12:
        sv = min(sv + step, s_max)
        try:
            conn = find_het(s=sv, scan=(pb, model.PBAR_R - EDGE_MARGIN))
        except DomainError:
            left.meta["termination"] = "no-connection"
            break
        pb = conn.pbar
        left.points.append((pb, sv, conn.section_gap))
    mirrored = [(mirror_pbar(pb), sv, -gap) for pb, sv, gap in left.points]
    return left, CurveBranch(left.columns, mirrored, dict(left.meta))

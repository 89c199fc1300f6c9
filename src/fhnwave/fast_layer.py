"""Layer-problem analysis: Hamiltonian structure at s = 0, heteroclinic
shooting across the mid-section, and the V-shaped curve of connections in
(pbar, s) parameter space as bracketed solves on a speed grid.

For s = 0 the layer problem is Hamiltonian with H = x2^2/2 + V(x1); the two
saddles are connected exactly when they sit on the same potential level,
which pins the double connection at pbar* = -209/3375.  For s > 0 the field
is area expanding (divergence s/5) and single connections are located as
zeros of the section gap h(pbar, s).

A shot always joins the outer layer equilibria, the first and last roots
of ``model.fast_equilibria_x1``.  Inside the band (pbar_l, pbar_r) both
are saddles.  At a band edge the middle equilibrium has merged with one of
them into a fold: a shot may depart from the fold, along its strong
unstable direction, when s > 0, but never arrive at it.
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
    """H(x1, x2) = x2^2/2 + V(x1); conserved along s = 0 trajectories."""
    x1, x2 = state[0], state[1]
    return 0.5 * x2 * x2 + potential(x1, pbar)


@dataclass
class HetConnection:
    """A located heteroclinic connection of the layer problem."""

    pbar: float
    s: float
    direction: str  # "left-to-right" or "right-to-left"
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
    field = lambda t, y: model.fast_field(y, pbar, s)
    span = (0.0, -SHOT_TIME) if backward else (0.0, SHOT_TIME)
    traj = integrate(field, y0, span, _SHOT_OPTS, levels=(sigma, x_lo, x_hi))
    if traj.event is not None and traj.event.index == 0:
        return float(traj.event.state[1])
    return None


def shoot_heteroclinic(pbar: float, s: float, offset: float = 1e-8,
                       direction: str = "left-to-right") -> float:
    """Section gap h(pbar, s) between the two separatrices.

    The departure and arrival are the outer layer equilibria, in the order
    ``direction`` names.  Integrates forward along the unstable direction
    of the departure and backward along the stable direction of the
    arrival; returns the difference of the x2-coordinates of the first
    crossings of the section x1 = (x_l + x_r)/2.  A shot that leaves
    [x_l - 0.7, x_r + 0.7] or times out before crossing never left its
    saddle's side of the section, so it maps to a signed sentinel
    (+-GAP_SENTINEL) that keeps callers bracketing: the saddle's side of
    the section, negated for the backward shot.  The backward shot is not
    run once the forward one has failed.

    At s = 0 the field is Hamiltonian and a separatrix of the saddle x0
    lies on H = V(x0).  Where V(sigma) > V(x0) at the section sigma it is a
    loop that turns back before the section, so that shot fails without
    being integrated.

    At a band edge (pbar = pbar_r or pbar_l) one outer equilibrium is the
    fold.  The shot may depart from it when s > 0, along the strong
    unstable direction (1, s/5).  An arrival at the fold, a fold at s <= 0
    (no unstable direction) and a pbar with a single equilibrium raise
    ``DomainError``.
    """
    xs = model.fast_equilibria_x1(pbar)
    if len(xs) < 2:
        raise DomainError(f"need 2 layer equilibria, found 1 at pbar={pbar}")
    x_l, x_r = xs[0], xs[-1]
    if direction == "left-to-right":
        x_dep, x_arr = x_l, x_r
    elif direction == "right-to-left":
        x_dep, x_arr = x_r, x_l
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not 0.0 < offset < math.inf:
        raise DomainError(f"offset must be finite and > 0, got {offset}")
    folds = (model.X_MINUS, model.X_PLUS)
    if x_arr in folds:
        raise DomainError(f"{direction} shot at pbar={pbar} arrives at the "
                          "fold")
    if x_dep in folds and not s > 0.0:
        raise DomainError(f"departure from the fold needs s > 0, got {s}")
    vu, _ = saddle_eigendirections(x_dep, s, toward=x_arr)
    _, vs = saddle_eigendirections(x_arr, s, toward=x_dep)

    sigma = 0.5 * (x_l + x_r)
    x_lo, x_hi = x_l - 0.7, x_r + 0.7
    crossings = []
    for x0, vec, backward, sign in ((x_dep, vu, False, 1.0),
                                    (x_arr, vs, True, -1.0)):
        barrier = s == 0.0 and potential(sigma, pbar) > potential(x0, pbar)
        x2 = None if barrier else _shoot_to_section(
            x0, vec, pbar, s, sigma, backward, offset, x_lo, x_hi)
        if x2 is None:
            return sign * math.copysign(GAP_SENTINEL, x0 - sigma)
        crossings.append(x2)
    return crossings[0] - crossings[1]


def find_het(direction: str = "left-to-right", pbar: float | None = None,
             s: float | None = None, scan: tuple[float, float] = (0.0, 2.0),
             gap_tol: float = 1e-10) -> HetConnection:
    """Solve the section gap to zero in the free parameter.

    Exactly one of ``pbar``/``s`` must be given; the other is solved for
    by ``roots.refine`` on ``scan``, which must straddle a sign change of
    the gap.  Each argument is shot once per call.
    """
    if (pbar is None) == (s is None):
        raise ValueError("fix exactly one of pbar, s")

    if s is None:
        gap = lambda sv: shoot_heteroclinic(pbar, sv, direction=direction)
    else:
        gap = lambda pv: shoot_heteroclinic(pv, s, direction=direction)
    lo, hi = scan
    root, _, residual, _ = roots.refine(gap, lo, hi, gap(lo), gap(hi),
                                        xtol=1e-14, rtol=1e-15)
    if abs(residual) > gap_tol:
        raise DomainError(f"gap {residual:.3g} above tolerance at root")

    pb, sv = (pbar, root) if s is None else (root, s)
    return HetConnection(pbar=pb, s=sv, direction=direction,
                         section_gap=residual)


def het_v_curve(s_max: float = 1.45,
                step: float = 0.03) -> tuple[CurveBranch, CurveBranch]:
    """Both branches of the V-shaped connection curve from its s = 0 vertex.

    Left-to-right connections run from the vertex (pbar*, 0) toward pbar_r,
    right-to-left ones toward pbar_l.  Along a branch pbar moves
    monotonically toward its band edge, so each point of the speed grid
    step, 2*step, ... (capped at s_max) is bracketed between the previous
    pbar and the edge.  A branch stops at the first speed without a
    connection; ``meta["termination"]`` says whether it reached s_max.
    """
    for name, value in (("step", step), ("s_max", s_max)):
        if not 0.0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    if step < MIN_STEP:
        raise DomainError(f"step must be >= {MIN_STEP:g}, got {step}")
    branches = []
    for direction, edge in (("left-to-right", model.PBAR_R - EDGE_MARGIN),
                            ("right-to-left", model.PBAR_L + EDGE_MARGIN)):
        pb, sv = PBAR_STAR, 0.0
        branch = CurveBranch(columns=("pbar", "s", "gap"),
                             meta={"direction": direction,
                                   "termination": "extent-reached"})
        branch.points.append(
            (pb, sv, shoot_heteroclinic(pb, sv, direction=direction)))
        while sv < s_max - 1e-12:
            sv = min(sv + step, s_max)
            try:
                conn = find_het(direction, s=sv,
                                scan=(min(pb, edge), max(pb, edge)))
            except DomainError:
                branch.meta["termination"] = "no-connection"
                break
            pb = conn.pbar
            branch.points.append((pb, sv, conn.section_gap))
        branches.append(branch)
    return branches[0], branches[1]

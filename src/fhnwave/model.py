"""Vector fields, Jacobians and closed-form algebra of the FitzHugh-Nagumo
traveling-wave system.

The wave ODE in the fast time scale is

    x1' = x2
    x2' = (1/5) * (s*x2 - f(x1) + y - p)
    y'  = (eps/s) * (x1 - y)

with the cubic f(x1) = x1*(x1 - 1)*(1/10 - x1) and frozen constants
a = 1/10, gamma = 1, delta = 5.  The critical manifold is the graph
y = c(x1) = f(x1) + p in the plane x2 = 0.

Everything here is a pure function; no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import brentq

SQRT91 = math.sqrt(91.0)

#: Fold abscissas of the cubic nullcline, roots of 30*x^2 - 22*x + 1 = 0.
X_MINUS = (11.0 - SQRT91) / 30.0
X_PLUS = (11.0 + SQRT91) / 30.0

#: Involution constant: p_- + p_+ = 2057/3375 (see symmetry_transform).
P_INVOLUTION = 2057.0 / 3375.0

#: Layer problem has three equilibria exactly for pbar in (PBAR_L, PBAR_R).
PBAR_L = -(X_PLUS * (X_PLUS - 1.0) * (0.1 - X_PLUS))
PBAR_R = -(X_MINUS * (X_MINUS - 1.0) * (0.1 - X_MINUS))

#: Midpoint of the involution in x1 (and y).
X_INVOLUTION = 11.0 / 15.0

#: Eigenvalue magnitudes below this mark a fold (degenerate) equilibrium.
FOLD_TOL = 1e-9


class DomainError(ValueError):
    """Input outside the admissible domain of an operation."""


def cubic(x1):
    """The p-free cubic c0(x1) = x1*(x1 - 1)*(1/10 - x1)."""
    return x1 * (x1 - 1.0) * (0.1 - x1)


def cubic_prime(x1):
    """c0'(x1) = -3*x1^2 + 2.2*x1 - 0.1 = -(30*x1^2 - 22*x1 + 1)/10."""
    return -3.0 * x1 * x1 + 2.2 * x1 - 0.1


def cubic_second(x1):
    """c0''(x1) = -6*x1 + 2.2."""
    return -6.0 * x1 + 2.2


def cubic_third():
    """c0'''(x1) = -6 (constant)."""
    return -6.0


def equilibrium_p(x1):
    """Applied current p for which x1 is the full-system equilibrium.

    Solving x1 = c(x1; p) for p gives p = x1 - c0(x1)
    = x1^3 - 1.1*x1^2 + 1.1*x1.
    """
    return x1 - cubic(x1)


#: Fold parameter values p_- < p_+ where the full equilibrium crosses the
#: folds of the critical manifold; no singular homoclinics exist between.
P_MINUS = equilibrium_p(X_MINUS)
P_PLUS = equilibrium_p(X_PLUS)


class EquilibriumKind(str, Enum):
    SADDLE = "saddle"
    SOURCE = "source"
    SINK = "sink"
    FOLD_DEGENERATE = "fold-degenerate"


class Branch(str, Enum):
    LEFT = "C_l"
    MIDDLE = "C_m"
    RIGHT = "C_r"


@dataclass(frozen=True)
class ModelParams:
    """Parameter triple (p, s, eps) of the wave ODE."""

    p: float
    s: float
    eps: float

    def __post_init__(self):
        for name in ("p", "s", "eps"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.eps < 0.0:
            raise DomainError(f"eps must be >= 0, got {self.eps}")
        if self.s < 0.0:
            raise DomainError(f"s must be >= 0, got {self.s}")


@dataclass
class EquilibriumInfo:
    """Layer-problem equilibrium with its linearization data."""

    state: np.ndarray
    eigenvalues: np.ndarray
    kind: EquilibriumKind
    branch: Branch

    @property
    def x1(self) -> float:
        return float(self.state[0])


def branch_of(x1: float) -> Branch:
    if x1 < X_MINUS:
        return Branch.LEFT
    if x1 <= X_PLUS:
        return Branch.MIDDLE
    return Branch.RIGHT


def _finite_state(state) -> tuple[float, float, float]:
    """The three components of a wave-ODE state as Python floats.

    Scalar arithmetic on floats is several times cheaper than an array
    round trip for a three-vector; each component is tested on its own
    (a sum overflows to inf for finite states such as 1e308 + 1e308).
    """
    if isinstance(state, np.ndarray):
        x1, x2, y = state.tolist()
    else:
        x1, x2, y = map(float, state)
    if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(y)):
        raise DomainError(f"non-finite state: {[x1, x2, y]}")
    return x1, x2, y


def full_field(state, params: ModelParams) -> np.ndarray:
    """Right-hand side of the three-dimensional wave ODE in fast time,
    (x2, (s*x2 - f(x1) + y - p)/5, eps*(x1 - y)/s)."""
    x1, x2, y = _finite_state(state)
    if params.s == 0.0:
        raise DomainError("wave-speed division: s = 0")
    return np.array(
        [
            x2,
            0.2 * (params.s * x2 - cubic(x1) + y - params.p),
            (params.eps / params.s) * (x1 - y),
        ]
    )


def full_jacobian(state, params: ModelParams) -> np.ndarray:
    """Exact Jacobian of the fast-time field, kept as the tests' eig oracle."""
    x1, _, _ = _finite_state(state)
    if params.s == 0.0:
        raise DomainError("wave-speed division: s = 0")
    es = params.eps / params.s
    return np.array(
        [
            [0.0, 1.0, 0.0],
            [-0.2 * cubic_prime(x1), params.s / 5.0, 0.2],
            [es, 0.0, -es],
        ]
    )


def fast_field(state, pbar: float, s: float) -> np.ndarray:
    """Layer-problem right-hand side with frozen slow variable, pbar = p - y.

    Equilibria satisfy x1*(x1 - 1)*(1/10 - x1) + pbar = 0.  The divergence
    of the field is s/5 everywhere (the area-expansion argument needs only
    its positivity for s > 0).
    """
    x1, x2 = state
    return np.array([x2, 0.2 * (s * x2 - cubic(x1) - pbar)])


def fast_jacobian(x1: float, s: float) -> np.ndarray:
    """Layer-problem Jacobian A(x1); singular of rank 1 at the folds."""
    return np.array([[0.0, 1.0], [-0.2 * cubic_prime(x1), s / 5.0]])


def fast_equilibria_x1(pbar: float) -> list[float]:
    """Sorted x1 abscissas of the layer-problem equilibria (1 to 3 roots).

    The cubic is monotone between its critical points X_MINUS < X_PLUS, so
    each of the three intervals carries at most one simple root; bracketed
    root-finding on them stays accurate arbitrarily close to the fold
    (double-root) configurations, where a uniform sign scan would fail.
    """
    if not math.isfinite(pbar):
        raise DomainError(f"non-finite pbar: {pbar}")
    func = lambda x: cubic(x) + pbar
    lo, hi = -2.0, 2.0
    while func(lo) < 0.0:
        lo *= 2.0
    while func(hi) > 0.0:
        hi *= 2.0
    roots: list[float] = []
    for a, b in ((lo, X_MINUS), (X_MINUS, X_PLUS), (X_PLUS, hi)):
        fa, fb = func(a), func(b)
        if fa == 0.0 and (not roots or roots[-1] != a):
            roots.append(a)
        if fa * fb < 0.0:
            roots.append(brentq(func, a, b, xtol=1e-15, rtol=1e-15))
    if func(hi) == 0.0:
        roots.append(hi)
    return roots


def classify_eigenvalues(eigenvalues) -> EquilibriumKind:
    """Equilibrium type from its eigenvalue signature."""
    ev = np.asarray(eigenvalues)
    re = ev.real
    if np.any(np.abs(re) < FOLD_TOL) or np.any(np.abs(ev) < FOLD_TOL):
        return EquilibriumKind.FOLD_DEGENERATE
    if np.all(re > 0):
        return EquilibriumKind.SOURCE
    if np.all(re < 0):
        return EquilibriumKind.SINK
    return EquilibriumKind.SADDLE


def equilibrium_x1(p: float) -> float:
    """The unique real root of x1 - c(x1; p) = 0."""
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p}")
    func = lambda x: equilibrium_p(x) - p
    lo, hi = -2.0, 2.0
    while func(lo) > 0.0:
        lo *= 2.0
    while func(hi) < 0.0:
        hi *= 2.0
    return brentq(func, lo, hi, xtol=1e-15, rtol=1e-15)


def symmetry_transform(state, p: float) -> tuple[np.ndarray, float]:
    """Involution of the wave ODE: applying it twice is the identity.

    Maps x1 -> 11/15 - x1, x2 -> -x2, y -> 11/15 - y, p -> 2057/3375 - p.
    Composed with time reversal and s -> -s this leaves the vector field
    invariant, which pairs the parameter values p and 2057/3375 - p (in
    particular p_- + p_+ = 2057/3375 exactly).  Kept as the tests' oracle.
    """
    x1, x2, y = _finite_state(state)
    return (
        np.array([X_INVOLUTION - x1, -x2, X_INVOLUTION - y]),
        P_INVOLUTION - p,
    )

"""The two-slow/one-fast reduction: reduced Hopf values, maximal-canard
asymptotics, the canard stability integral R(h), and reduced-orbit
simulation.

Two equivalent charts of the reduction are supported:

    eq17:  eps*x1' = c0(x1) + p - y,      y' = x1 - y
    eq18:  x1' = xb2,
           eps*xb2' = -(x1 - c0(x1) - p)/s^2 + xb2*(c0'(x1) - eps)/s

with x2 = eps*xb2 recovering the original second coordinate.

The canard heights are roots by ``roots.brentq``.  R(h) is the package's
one use of scipy: its QUADPACK ``quad``, imported inside
``canard_stability_R`` so that importing this module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, roots
from .integrate import IntegratorOptions, Trajectory, integrate
from .model import DomainError, SQRT91

#: Second fold of the shifted cubic phi(x) = (sqrt(91)/10)x^2 - x^3.
PHI_FOLD = SQRT91 / 15.0

#: Upper end of the admissible canard-cycle heights, phi(sqrt(91)/15).
H_MAX = 91.0 * SQRT91 / 6750.0

#: Fraction of the run used for the attractor summary.
SUMMARY_WINDOW = 0.2

#: Dense-output samples taken over the summary window.
SUMMARY_SAMPLES = 4000

#: |x2| peaks above this fraction of the window maximum count as excursions.
_EXCURSION_FRACTION = 0.3


def reduced_hopf_values(eps: float) -> tuple[float, float]:
    """Supercritical Hopf locations (p_H-, p_H+) of the eq17 reduction.

    2057/6750 -+ sqrt(11728171/182250000 - 359*eps/1350 + 509*eps^2/2700
    - eps^3/27); the eps -> 0 limit reproduces the slow-flow fold values
    p_-, p_+.
    """
    if not 0.0 <= eps < math.inf:  # also rejects NaN
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    try:
        disc = (11728171.0 / 182250000.0 - 359.0 * eps / 1350.0
                + 509.0 * eps**2 / 2700.0 - eps**3 / 27.0)
    except OverflowError:
        raise DomainError(f"Hopf discriminant overflows at eps={eps}") from None
    if disc < 0.0:
        raise DomainError(f"negative Hopf discriminant at eps={eps}")
    mid = 2057.0 / 6750.0
    return mid - math.sqrt(disc), mid + math.sqrt(disc)


def maximal_canard_p(eps: float) -> float:
    """First-order maximal-canard location p_- + (5/8)*eps near the left fold."""
    if not 0.0 <= eps < math.inf:  # also rejects NaN
        raise DomainError(f"eps must be finite and >= 0, got {eps}")
    return model.P_MINUS + 0.625 * eps


def phi(x):
    """Shifted cubic phi(x) = (sqrt(91)/10)*x^2 - x^3 (fold coordinates)."""
    return (SQRT91 / 10.0) * x * x - x**3


def phi_prime(x):
    return (SQRT91 / 5.0) * x - 3.0 * x * x


def canard_height_roots(h: float) -> tuple[float, float]:
    """Roots x_l(h) in [-sqrt(91)/30, 0) and x_m(h) in (0, sqrt(91)/15]."""
    if not 0.0 < h <= H_MAX:
        raise DomainError(f"h={h} outside (0, {H_MAX}]")
    func = lambda x: phi(x) - h
    xl = roots.brentq(func, -SQRT91 / 30.0, -1e-300, xtol=1e-16, rtol=1e-15)
    xm = roots.brentq(func, 1e-300, PHI_FOLD, xtol=1e-16, rtol=1e-15)
    return xl, xm


def canard_stability_R(h: float, abs_tol: float = 1e-10) -> float:
    """Stability integral R(h) of the canard cycles; negative means stable.

    Integrates phi'(x)^2 / (x - phi(x)) from x_l(h) to x_m(h) by adaptive
    quadrature split at x = 0, where the numerator vanishes quadratically
    and the denominator linearly (the quotient extends continuously by 0).
    The quadrature is scipy's QUADPACK ``quad``, imported here: this is the
    package's one use of scipy, and no other command pays for its import.
    """
    from scipy.integrate import quad

    if not 0.0 < abs_tol < math.inf:  # also rejects NaN
        raise DomainError(f"abs_tol must be finite and > 0, got {abs_tol}")
    xl, xm = canard_height_roots(h)

    def integrand(x):
        denom = x - phi(x)
        if denom == 0.0:
            return 0.0
        return phi_prime(x) ** 2 / denom

    left, err_l = quad(integrand, xl, 0.0, epsabs=abs_tol, epsrel=1e-12,
                       limit=200)
    right, err_r = quad(integrand, 0.0, xm, epsabs=abs_tol, epsrel=1e-12,
                        limit=200)
    if err_l + err_r > 100.0 * abs_tol:
        raise DomainError(f"quadrature non-convergence at h={h}")
    return left + right


def _reduced_field(p: float, s: float, eps: float, variant: str):
    """The chart's field as ``field(t, z)``: z an ndarray, the result a
    list of two Python floats."""
    p, s, eps = float(p), float(s), float(eps)
    if variant == "eq17":
        def field(t, z):
            x1, y = z.tolist()
            return [(model.cubic(x1) + p - y) / eps, x1 - y]
        return field
    if variant == "eq18":
        def field(t, z):
            x1, xb2 = z.tolist()
            rate = (-(x1 - model.cubic(x1) - p) / (s * s)
                    + xb2 * (model.cubic_prime(x1) - eps) / s)
            return [xb2, rate / eps]
        return field
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class ReducedOrbit:
    """Forward orbit of a reduction with its attractor summary.

    ``x1_amplitude`` is the maximum deviation of x1 from the equilibrium
    over the summary window (the last 20% of the run) and
    ``x1_peak_to_peak`` the peak-to-peak range there; ``x2_amplitude`` is
    peak-to-peak in x2 = eps*xb2, reconstructed for the eq17 chart from
    the x1-equation.  ``x2_excursions`` counts the prominent |x2| peaks
    within one cycle of the attractor.
    """

    trajectory: Trajectory
    variant: str
    p: float
    s: float
    eps: float
    x1_amplitude: float
    x1_peak_to_peak: float
    x2_amplitude: float
    x2_max: float
    x2_excursions: int


def _count_excursions(x1: np.ndarray, x2: np.ndarray) -> int:
    """Prominent |x2| peaks within one x1-cycle of the sampled window."""
    a = np.abs(x2)
    thresh = _EXCURSION_FRACTION * a.max()
    # cycle boundaries: local maxima of x1
    cyc = [i for i in range(1, len(x1) - 1)
           if x1[i] >= x1[i - 1] and x1[i] > x1[i + 1]
           and x1[i] > x1.min() + 0.8 * (x1.max() - x1.min())]
    if len(cyc) < 2:
        lo, hi = 0, len(x1)
    else:
        lo, hi = cyc[0], cyc[1] + 1
    count = 0
    for i in range(max(lo, 1), min(hi, len(a) - 1)):
        if a[i] >= a[i - 1] and a[i] > a[i + 1] and a[i] > thresh:
            count += 1
    return max(count, 1)


def simulate_reduced(p: float, s: float, eps: float, variant: str = "eq18",
                     t_end: float = 60.0) -> ReducedOrbit:
    """Forward orbit of the selected reduction with attractor summary.  For
    p in [0.055, 0.065], eps in [1e-3, 1e-2] the eq18 chart escapes
    (DomainError) once s*eps < ~4e-3 on an oscillating orbit; eq17 holds."""
    for name, value in (("s", s), ("eps", eps)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise DomainError(f"{name} must be finite and > 0, got {value}")
    # the eq18 field divides by s^2, then by eps: 1/s^2 and 1/(s^2 eps)
    # must both stay finite
    if s * s * min(eps, 1.0) < np.finfo(float).tiny:
        raise DomainError(f"s={s} is too small at eps={eps}: the eq18 "
                          "field's scale 1/(s^2*min(eps, 1)) overflows")
    if not 0.0 < t_end < math.inf:  # also rejects NaN
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    x1s = model.equilibrium_x1(p)
    z0 = (np.array([x1s + 0.01, x1s]) if variant == "eq17"
          else np.array([x1s + 0.01, 0.0]))
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, escape_radius=50.0)
    traj = integrate(_reduced_field(p, s, eps, variant), z0, (0.0, t_end), opts)
    if traj.reason != "time-out":  # an escape: the reduction is invalid there
        raise DomainError(f"reduced orbit at p={p}, s={s}, eps={eps} ended in "
                          f"{traj.reason} at t={traj.final_time:.6g} < "
                          f"t_end={t_end}")

    t_hi = traj.final_time
    t_lo = t_hi * (1.0 - SUMMARY_WINDOW)
    samples = traj.sample(np.linspace(t_lo, t_hi, SUMMARY_SAMPLES))
    x1 = samples[:, 0]
    if variant == "eq17":
        y = samples[:, 1]
        x2 = model.cubic(x1) + p - y  # eps*xb2 with eps*x1' = c0 + p - y
    else:
        x2 = eps * samples[:, 1]
    return ReducedOrbit(
        trajectory=traj, variant=variant, p=p, s=s, eps=eps,
        x1_amplitude=float(np.abs(x1 - x1s).max()),
        x1_peak_to_peak=float(x1.max() - x1.min()),
        x2_amplitude=float(x2.max() - x2.min()),
        x2_max=float(np.abs(x2).max()),
        x2_excursions=_count_excursions(x1, x2),
    )

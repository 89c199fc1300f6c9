"""Tests for the reduced Hopf values, the canard and the reductions."""

import math

import numpy as np
import pytest

from fhnwave import model, slow_reduced
from fhnwave.model import DomainError


def test_reduced_hopf_values_at_eps_001():
    ph_minus, ph_plus = slow_reduced.reduced_hopf_values(0.01)
    assert abs(ph_minus - 0.05632) < 1e-5
    assert abs(ph_plus - 0.55316) < 1e-5


def test_reduced_hopf_limits_are_fold_params():
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    ph_minus, ph_plus = slow_reduced.reduced_hopf_values(0.0)
    assert abs(ph_minus - p_minus) < 1e-12
    assert abs(ph_plus - p_plus) < 1e-12


def test_reduced_hopf_midpoint_constant():
    for eps in (0.0, 0.003, 0.01, 0.02):
        lo, hi = slow_reduced.reduced_hopf_values(eps)
        assert abs(0.5 * (lo + hi) - 2057.0 / 6750.0) < 1e-13


def test_reduced_hopf_trace_zero():
    # chart with eps scaling: trace = c0'(x1*)/eps - 1 vanishes at p_H
    for eps in (0.005, 0.01):
        for p in slow_reduced.reduced_hopf_values(eps):
            x1s = model.equilibrium_x1(p)
            assert abs(model.cubic_prime(x1s) / eps - 1.0) < 1e-10 / eps


def test_maximal_canard_value_and_ordering():
    p_c = slow_reduced.maximal_canard_p(0.01)
    assert abs(p_c - 0.05731) < 2e-5
    assert p_c > slow_reduced.reduced_hopf_values(0.01)[0]
    assert abs(slow_reduced.maximal_canard_p(0.0)
               - model.P_MINUS) < 1e-14


def test_canard_height_roots_invert_phi():
    for h in (1e-4, 0.05, slow_reduced.H_MAX):
        xl, xm = slow_reduced.canard_height_roots(h)
        assert -math.sqrt(91.0) / 30.0 - 1e-12 <= xl < 0.0
        assert 0.0 < xm <= slow_reduced.PHI_FOLD + 1e-12
        assert abs(slow_reduced.phi(xl) - h) < 1e-11
        assert abs(slow_reduced.phi(xm) - h) < 1e-11


def test_canard_stability_R_vanishes_at_zero_height():
    assert abs(slow_reduced.canard_stability_R(1e-10)) < 1e-6


def test_canard_stability_R_negative_sample():
    for h in (0.01, 0.08, slow_reduced.H_MAX):
        assert slow_reduced.canard_stability_R(h) < 0.0


def _gauss_legendre_R(h: float, panels: int = 60, order: int = 12) -> float:
    """Second quadrature route for the stability integral."""
    xl, xm = slow_reduced.canard_height_roots(h)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for a, b in ((xl, 0.0), (0.0, xm)):
        edges = np.linspace(a, b, panels + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            f = slow_reduced.phi_prime(x) ** 2 / (x - slow_reduced.phi(x))
            total += 0.5 * (hi - lo) * float(np.dot(weights, f))
    return total


def test_canard_stability_two_quadratures_agree():
    for h in (0.02, 0.1, slow_reduced.H_MAX):
        adaptive = slow_reduced.canard_stability_R(h)
        composite = _gauss_legendre_R(h)
        assert abs(adaptive - composite) < 1e-6


def test_simulate_reduced_variants_agree_on_amplitude():
    a = slow_reduced.simulate_reduced(0.06, 1.37, 0.01, variant="eq18")
    b = slow_reduced.simulate_reduced(0.06, 1.37, 0.01, variant="eq17")
    assert abs(a.x1_amplitude - b.x1_amplitude) < 5e-3


def test_canard_explosion_across_bracketing_pair():
    small = slow_reduced.simulate_reduced(0.058, 1.37, 0.01)
    large = slow_reduced.simulate_reduced(0.060, 1.37, 0.01)
    assert large.x1_amplitude >= 5.0 * small.x1_amplitude


def test_amplitude_growth_near_explosion_onset():
    # between the Hopf point + 0.002 and the maximal canard + 0.003 the
    # attractor has already grown into a canard cycle; the remaining jump
    # to the relaxation orbit is a factor ~3.8 (full factor 5 only across
    # a pair that brackets the whole explosion, as in the test above)
    p_lo = slow_reduced.reduced_hopf_values(0.01)[0] + 0.002
    p_hi = slow_reduced.maximal_canard_p(0.01) + 0.003
    low = slow_reduced.simulate_reduced(p_lo, 1.37, 0.01)
    high = slow_reduced.simulate_reduced(p_hi, 1.37, 0.01)
    assert high.x1_amplitude > 3.0 * low.x1_amplitude


def test_simulate_reduced_rejects_nonpositive_speed():
    with pytest.raises(DomainError):
        slow_reduced.simulate_reduced(0.06, 0.0, 0.01)

"""Acceptance suite: one test per headline numerical criterion.

Each test prints a one-line PASS record with the measured quantities so a
run log doubles as a results table.  Tolerances are pinned inline.
"""

import math

import numpy as np
import pytest

from fhnwave import (bifurcation, fast_layer, homoclinic, model,
                     slow_reduced)
from fhnwave.integrate import IntegratorOptions, integrate
from fhnwave.model import DomainError, ModelParams


def _report(num, text):
    print(f"criterion {num}: PASS — {text}")


# ------------------------------------------------------------------ 1-3


def test_criterion_01_fold_points():
    exact_minus = (11.0 - math.sqrt(91.0)) / 30.0
    exact_plus = (11.0 + math.sqrt(91.0)) / 30.0
    assert abs(model.X_MINUS - exact_minus) < 1e-12
    assert abs(model.X_PLUS - exact_plus) < 1e-12
    assert abs(model.X_MINUS - 0.0487) < 1e-4
    assert abs(model.X_PLUS - 0.6846) < 1e-4
    _report(1, f"x_- = {model.X_MINUS:.6f}, x_+ = {model.X_PLUS:.6f}")


def test_criterion_02_slow_flow_bifurcation_values():
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    assert abs(p_minus - 0.0511) < 5e-4
    assert abs(p_plus - 0.5584) < 5e-4
    assert abs(p_minus + p_plus - 2057.0 / 3375.0) < 1e-12
    _report(2, f"p_- = {p_minus:.6f}, p_+ = {p_plus:.6f}, "
               f"sum residual {abs(p_minus + p_plus - 2057.0 / 3375.0):.1e}")


def test_criterion_03_equilibrium_count_boundaries():
    assert abs(model.PBAR_L - (-0.1262)) < 5e-4
    assert abs(model.PBAR_R - 0.0024) < 5e-4
    _report(3, f"pbar_l = {model.PBAR_L:.6f}, pbar_r = {model.PBAR_R:.6f}")


# ------------------------------------------------------------------ 4-5


def test_criterion_04_double_heteroclinic():
    pbar_star = fast_layer.PBAR_STAR
    assert abs(pbar_star - (-0.0619259)) < 1e-6
    assert abs(pbar_star - (-209.0 / 3375.0)) < 1e-12
    gap = fast_layer.shoot_heteroclinic(pbar_star, 0.0)
    assert abs(gap) < 1e-8
    _report(4, f"pbar* = {pbar_star:.9f}, section gap {abs(gap):.1e}")


def test_criterion_05_heteroclinic_v_curve():
    left, right = fast_layer.het_v_curve(s_max=1.45, step=0.025)
    assert len(left) >= 50 and len(right) >= 50

    # vertex of both branches at (pbar*, 0)
    pbar_star = fast_layer.PBAR_STAR
    for branch in (left, right):
        p0, s0, _ = branch.points[0]
        assert abs(p0 - pbar_star) < 1e-3 and abs(s0) < 1e-3

    def pbar_at(branch, s_target):
        pb = branch.column("pbar")
        s_vals = branch.column("s")
        return float(np.interp(s_target, s_vals, pb))

    pb_lr = pbar_at(left, 1.2)
    pb_rl = pbar_at(right, 1.2)
    assert abs(pb_lr - model.PBAR_R) < 5e-3
    assert abs(pb_rl - model.PBAR_L) < 5e-3
    _report(5, f"{len(left)}/{len(right)} points; at s = 1.2 the branches "
               f"are {abs(pb_lr - model.PBAR_R):.2e} / "
               f"{abs(pb_rl - model.PBAR_L):.2e} from the limits")


# ------------------------------------------------------------------ 6-9


def test_criterion_06_reduced_hopf_values():
    ph_minus, ph_plus = slow_reduced.reduced_hopf_values(0.01)
    assert abs(ph_minus - 0.05632) < 1e-5
    assert abs(ph_plus - 0.55316) < 1e-5
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    lim_minus, lim_plus = slow_reduced.reduced_hopf_values(0.0)
    assert abs(lim_minus - p_minus) < 1e-4
    assert abs(lim_plus - p_plus) < 1e-4
    _report(6, f"p_H(0.01) = ({ph_minus:.6f}, {ph_plus:.6f})")


def test_criterion_07_maximal_canard():
    p_c = slow_reduced.maximal_canard_p(0.01)
    assert abs(p_c - 0.05731) < 2e-5
    assert slow_reduced.reduced_hopf_values(0.01)[0] < p_c
    _report(7, f"maximal canard p(0.01) = {p_c:.6f}")


def _gauss_legendre_R(h, panels=60, order=12):
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


def test_criterion_08_canard_stability():
    hs = np.linspace(slow_reduced.H_MAX / 50.0, slow_reduced.H_MAX, 50)
    values = np.array([slow_reduced.canard_stability_R(float(h)) for h in hs])
    assert np.all(values < 0.0)
    assert np.all(np.diff(values) < 0.0)  # finite-difference R' < 0
    for h in (hs[10], hs[-1]):
        assert abs(slow_reduced.canard_stability_R(float(h))
                   - _gauss_legendre_R(float(h))) < 1e-6
    _report(8, f"R in [{values.min():.4f}, {values.max():.4f}], "
               "negative and decreasing on the 50-point grid")


def test_criterion_09_reduced_orbit_geometry():
    small = slow_reduced.simulate_reduced(0.058, 1.37, 0.01)
    relax = slow_reduced.simulate_reduced(0.060, 1.37, 0.01)
    slow = slow_reduced.simulate_reduced(0.058, 0.20, 0.01)

    assert small.x1_amplitude < 0.2                      # (a) small orbit
    ratio = relax.x1_amplitude / small.x1_amplitude      # (b) relaxation
    assert ratio >= 5.0
    assert relax.x2_excursions == 2
    assert slow.x2_max > small.x2_max                    # (c) excursion size
    _report(9, f"amplitude ratio {ratio:.2f}; excursions "
               f"{small.x2_excursions}/{relax.x2_excursions}; "
               f"x2_max {slow.x2_max:.4f} > {small.x2_max:.4f} at s = 0.2")


# ---------------------------------------------------------------- 10-11


def test_criterion_10_hopf_curve():
    branch = bifurcation.hopf_curve(0.01, n=200)
    assert len(branch) == 200
    worst_res, worst_re = 0.0, 0.0
    for x1, s, p in zip(branch.column("x1_star"), branch.column("s"),
                        branch.column("p")):
        c0, c1, c2 = bifurcation.char_poly_coeffs(x1, s, 0.01)
        worst_res = max(worst_res, abs(c0 - c1 * c2))
        state = np.array([x1, 0.0, x1])
        ev = np.linalg.eigvals(model.full_jacobian(
            state, ModelParams(p, s, 0.01)))
        pair = sorted(ev, key=lambda w: abs(w.real))[:2]
        worst_re = max(worst_re, max(abs(w.real) for w in pair))
    assert worst_res < 1e-10
    assert worst_re < 1e-8
    asym = bifurcation.hopf_asymptotes()
    assert abs(asym["p_minus"] - 0.0510636) < 1e-5
    assert abs(asym["p_plus"] - 0.558418) < 1e-5
    _report(10, f"200 points, max residual {worst_res:.1e}, "
                f"max |Re lambda| {worst_re:.1e}")


def test_criterion_11_generalized_hopf():
    pts = bifurcation.gh_locate(0.01)
    assert len(pts) == 2

    b1, b2 = bifurcation.gh_track([1e-2, 1e-3, 1e-4])
    limits = {}
    for name, br in (("gh1", b1), ("gh2", b2)):
        limits[name] = (bifurcation.extrapolate_to_zero(br.column("p")),
                        bifurcation.extrapolate_to_zero(br.column("s")))
    assert abs(limits["gh1"][0] - 0.171) < 0.02
    assert abs(limits["gh1"][1] - 0.0) < 0.02
    assert abs(limits["gh2"][0] - 0.051) < 0.02
    assert abs(limits["gh2"][1] - 3.927) < 0.02
    _report(11, f"limits gh1 = ({limits['gh1'][0]:.4f}, "
                f"{limits['gh1'][1]:.4f}), gh2 = ({limits['gh2'][0]:.4f}, "
                f"{limits['gh2'][1]:.4f})")


# ---------------------------------------------------------------- 12-14


def test_criterion_12_singular_c_curve_endpoints():
    p_star = homoclinic.P_STAR
    s_term = homoclinic.s_star()
    assert abs(p_star - (-0.246016)) < 1e-4
    assert abs(s_term - 1.50815) < 1e-3
    diagram = homoclinic.assemble_singular_diagram(n_curve=10)
    assert abs(diagram.A[0] - (-0.246016)) < 1e-4 and diagram.A[1] == 0.0
    assert abs(diagram.B[0] - 0.0511) < 5e-4 and diagram.B[1] == 0.0
    assert diagram.C[0] == diagram.B[0]
    assert abs(diagram.C[1] - 1.50815) < 1e-3
    _report(12, f"p* = {p_star:.6f}, s* = {s_term:.6f}")


def test_criterion_13_finite_eps_c_curve():
    pt = homoclinic.locate_c_curve(0.05, 0.01)
    assert 0.1 < pt.s1 < 0.9
    assert 0.9 < pt.s2 < 1.5
    assert pt.bracket_width <= 1e-12
    perturbed = homoclinic.locate_c_curve(0.05, 0.01, offset=2e-8)
    assert abs(pt.s1 - perturbed.s1) <= 1e-9
    assert abs(pt.s2 - perturbed.s2) <= 1e-9
    _report(13, f"s1 = {pt.s1:.6f}, s2 = {pt.s2:.6f}, "
                f"bracket {pt.bracket_width:.1e}, offset shift "
                f"{max(abs(pt.s1 - perturbed.s1), abs(pt.s2 - perturbed.s2)):.1e}")


def test_criterion_14_convergence_to_singular_skeleton():
    diagram = homoclinic.assemble_singular_diagram(n_curve=40)
    ac_p = np.array([q[0] for q in diagram.curve_ac])
    ac_s = np.array([q[1] for q in diagram.curve_ac])

    def fiber_distance(p, s):
        # vertical distance to the nearer of AB (s = 0 over its p-range)
        # and AC (interpolated at the same p)
        d_ab = abs(s) if diagram.A[0] <= p <= diagram.B[0] else np.inf
        d_ac = abs(s - float(np.interp(p, ac_p, ac_s)))
        return min(d_ab, d_ac)

    grid = np.linspace(0.015, 0.05, 10)
    distances = []
    for eps in (1e-2, 1e-3, 1e-4):
        branch = homoclinic.trace_c_curve(eps, grid)
        assert len(branch) == 10
        assert not branch.meta["failures"]
        d = max(max(fiber_distance(q[0], q[1]), fiber_distance(q[0], q[2]))
                for q in branch.points)
        distances.append(d)
    assert distances[0] > distances[1] > distances[2]
    _report(14, "fiber Hausdorff distances "
                + " > ".join(f"{d:.4f}" for d in distances)
                + " over eps = 1e-2, 1e-3, 1e-4")


# ------------------------------------------------------------------- 15


def test_criterion_15_structural_properties():
    # symmetry equivariance
    rng = np.random.default_rng(3)
    worst = 0.0
    params = ModelParams(0.2, 0.9, 0.015)
    for _ in range(10):
        state = rng.normal(scale=0.4, size=3)
        t_state, t_p = model.symmetry_transform(state, params.p)
        f = model.full_field(state, params)
        g = model.full_field(t_state, ModelParams(t_p, params.s, params.eps))
        worst = max(worst, float(np.max(np.abs(g + f))))
    assert worst < 1e-12

    # Hamiltonian drift along an s = 0 layer orbit
    pbar = fast_layer.PBAR_STAR
    x_l, _, _ = model.fast_equilibria_x1(pbar)
    vu, _ = fast_layer.saddle_eigendirections(x_l, 0.0, toward=1.0)
    opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(lambda t, y: model.fast_field(y, pbar, 0.0),
                     np.array([x_l, 0.0]) + 1e-8 * vu, (0.0, 80.0), opts)
    levels = np.array([fast_layer.hamiltonian(st, pbar)
                       for st in traj.states])
    drift = float(np.max(np.abs(levels - levels[0])))
    assert drift < 1e-8

    # no singular homoclinics between the folds
    for p in (model.P_MINUS + 1e-3, 0.3, model.P_PLUS - 1e-3):
        with pytest.raises(DomainError):
            homoclinic.upper_connection(p)
    _report(15, f"equivariance residual {worst:.1e}, Hamiltonian drift "
                f"{drift:.1e}, no connections in (p_-, p_+)")

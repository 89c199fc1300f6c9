"""Package results cross-checked against oracles that share no code with
them.

Shots: the package integrator is an explicit Runge-Kutta pair (DOP853);
the oracle is scipy's implicit Radau IIA method with the analytic Jacobian
at tight tolerance.  Only the starting points (equilibria and
eigenvectors) come from the package.

Hopf algebra: the package evaluates the characteristic polynomial and the
first Lyapunov coefficient in closed form; the oracles are numpy's
``poly`` and the projection formula evaluated with LAPACK eigenvectors and
linear solves on the Jacobian matrix.  The unstable direction of the
saddle-focus q, a polynomial root and its closed-form eigenvector in the
package, is checked against the LAPACK eigenvector.

Layer closed forms: the saddle and fold eigenvectors against LAPACK, and
the double heteroclinic pbar* and p* against brentq solves of their
defining equations.  The integrated s = 0 section gap against energy
conservation, H = x2^2/2 + V(x1), with V written out here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fhnwave import bifurcation, fast_layer, homoclinic, model
from fhnwave.model import DomainError, ModelParams


def _radau(field, jac, y0, t_end, event):
    event.terminal = True
    sol = solve_ivp(field, (0.0, t_end), y0, method="Radau", jac=jac,
                    rtol=1e-12, atol=1e-14, events=event)
    assert sol.status == 1  # stopped on the event
    return sol.y[:, -1]


def test_shots_match_radau_oracle():
    # escape side of the unstable manifold at (p, eps) = (0.05, 0.01),
    # whose speeds are s1 = 0.8758 and s2 = 1.3254: one speed on each side
    p, eps = 0.05, 0.01
    for s, expected in ((0.8, 1), (1.1, -1)):
        params = ModelParams(eps=eps, s=s, p=p)
        state, direction = homoclinic._unstable_direction(p, s, eps)
        end = _radau(lambda t, y: model.full_field(y, params),
                     lambda t, y: model.full_jacobian(y, params),
                     state + 1e-8 * direction, 100.0 / eps,
                     lambda t, y: abs(y[0]) - homoclinic.ESCAPE_X1)
        assert np.sign(end[0]) == expected
        assert homoclinic.escape_side(p, s, eps) == expected

    # section gap of the layer separatrices, away from any connection
    pbar, s = -0.05, 0.3
    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    vu_l, _ = fast_layer.saddle_eigendirections(x_l, s, toward=x_r)
    _, vs_r = fast_layer.saddle_eigendirections(x_r, s, toward=x_l)
    sigma = 0.5 * (x_l + x_r)
    field = lambda t, y: model.fast_field(y, pbar, s)
    jac = lambda t, y: np.array([[0.0, 1.0],
                                 [-0.2 * model.cubic_prime(y[0]), s / 5.0]])
    section = lambda t, y: y[0] - sigma
    fwd = _radau(field, jac, np.array([x_l, 0.0]) + 1e-8 * vu_l, 5000.0,
                 section)
    bwd = _radau(lambda t, y: -field(t, y), lambda t, y: -jac(t, y),
                 np.array([x_r, 0.0]) + 1e-8 * vs_r, 5000.0, section)
    gap = fwd[1] - bwd[1]
    assert abs(gap) > 1e-2
    assert abs(fast_layer.shoot_heteroclinic(pbar, s) - gap) < 1e-10


def _jacobian(x1, s, eps):
    params = ModelParams(model.equilibrium_p(x1), s, eps)
    return model.full_jacobian(np.array([x1, 0.0, x1]), params)


def _oracle_l1(x1, s, eps):
    """(omega, l1) from eigenvectors and solves of the Jacobian matrix."""
    A = _jacobian(x1, s, eps)
    w, v = np.linalg.eig(A)
    idx = int(np.argmin(np.abs(w.real) + np.where(w.imag > 0, 0.0, np.inf)))
    omega = w[idx].imag
    q = v[:, idx]
    wl, vl = np.linalg.eig(A.T)
    pvec = vl[:, int(np.argmin(np.abs(wl - np.conj(w[idx]))))]
    pvec = pvec / np.conj(np.vdot(pvec, q))  # <p, q> = 1
    b2 = -0.2 * model.cubic_second(x1)
    c3 = -0.2 * model.cubic_third()

    def B(u, v):
        return np.array([0.0, b2 * u[0] * v[0], 0.0])

    qb = np.conj(q)
    term1 = np.vdot(pvec, np.array([0.0, c3 * q[0] * q[0] * qb[0], 0.0]))
    term2 = -2.0 * np.vdot(pvec, B(q, np.linalg.solve(A, B(q, qb))))
    term3 = np.vdot(pvec, B(qb, np.linalg.solve(2j * omega * np.eye(3) - A,
                                                B(q, q))))
    return omega, float((term1 + term2 + term3).real / (2.0 * omega))


def _char_poly_error(x1, s, eps):
    """Largest deviation of char_poly_coeffs from numpy's, relative to
    max(1, |c|)."""
    _, c2, c1, c0 = np.poly(_jacobian(x1, s, eps))
    return max(abs(got - want) / max(1.0, abs(want)) for got, want in
               zip(bifurcation.char_poly_coeffs(x1, s, eps), (c0, c1, c2)))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_closed_form_hopf_matches_eigensolver_oracle(eps):
    lo, hi = bifurcation.hopf_interval(eps)
    # the end points sit 1e-6 inside the interval, where s is 16 (eps 1e-4)
    # to 162 (eps 1e-2)
    xs = np.linspace(lo + 1e-6, hi - 1e-6, 50)
    for x1 in map(float, xs):
        pt = bifurcation.hopf_point(x1, eps)
        omega, l1 = _oracle_l1(x1, pt.s, eps)
        assert abs(pt.omega - omega) <= 1e-9 * omega, x1
        assert abs(pt.l1 - l1) <= 1e-9 * abs(l1), x1
        assert pt.criticality == ("super" if l1 < 0.0 else "sub"), x1
        assert _char_poly_error(x1, pt.s, eps) <= 1e-12, x1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x1=st.floats(-1.0, 2.0), s=st.floats(1e-2, 10.0),
       eps=st.floats(0.0, 0.5))
def test_char_poly_coeffs_match_numpy_poly(x1, s, eps):
    assert _char_poly_error(x1, s, eps) <= 1e-12


def _eig_unstable_direction(p, s, eps):
    """q and its one real unstable eigenvector from LAPACK, oriented x1-up;
    None when the Jacobian has not exactly one real positive eigenvalue."""
    x1s = model.equilibrium_x1(p)
    state = np.array([x1s, 0.0, x1s])
    w, v = np.linalg.eig(model.full_jacobian(state, ModelParams(p, s, eps)))
    real_pos = [i for i in range(3)
                if abs(w[i].imag) < 1e-9 * max(1.0, abs(w[i].real))
                and w[i].real > 0.0]
    if len(real_pos) != 1:
        return None
    direction = v[:, real_pos[0]].real
    direction = direction / np.linalg.norm(direction)
    return state, -direction if direction[0] < 0 else direction


# criterion 13 at (0.05, 0.01) with its two speeds, and the ends of
# criterion 14's p-grid and of the speed scan at each of its eps
@pytest.mark.parametrize("p, s, eps", [
    (0.05, 0.875840, 0.01), (0.05, 1.325408, 0.01),
    *[(p, s, eps) for eps in (1e-2, 1e-3, 1e-4) for p in (0.015, 0.05)
      for s in (0.05, 1.55)]])
def test_unstable_direction_matches_eig_oracle(p, s, eps):
    state, direction = homoclinic._unstable_direction(p, s, eps)
    want_state, want = _eig_unstable_direction(p, s, eps)
    assert np.array_equal(state, want_state)
    assert np.max(np.abs(direction - want)) <= 1e-12


def test_unstable_direction_rejects_three_unstable_eigenvalues():
    # q on the middle branch at p = 0.075: at s = 1, eps = 1e-4 its three
    # eigenvalues are real and positive (0.134, 0.064, 0.0022)
    assert _eig_unstable_direction(0.075, 1.0, 1e-4) is None
    with pytest.raises(DomainError, match="one real unstable eigenvalue"):
        homoclinic._unstable_direction(0.075, 1.0, 1e-4)


def _eig_directions(x1, s, toward):
    """(unstable, stable) unit eigenvectors of A(x1) from LAPACK, with
    x1-components pointing toward ``toward``."""
    w, v = np.linalg.eig(model.fast_jacobian(x1, s))
    vecs = []
    for i in (int(np.argmax(w.real)), int(np.argmin(w.real))):
        vec = v[:, i].real / np.linalg.norm(v[:, i].real)
        vecs.append(vec if (vec[0] >= 0.0) == (toward >= x1) else -vec)
    return vecs


def test_saddle_directions_match_eig_oracle():
    # both outer equilibria on a 41 x 3 grid of (pbar, s), from 1e-9 inside
    # either band edge; at the edges themselves the fold departs for s > 0
    grid = [(float(pbar), s)
            for pbar in np.linspace(model.PBAR_L + 1e-9, model.PBAR_R - 1e-9,
                                    41)
            for s in (0.0, 0.7, 1.5)]
    grid += [(edge, s) for edge in (model.PBAR_L, model.PBAR_R)
             for s in (0.7, 1.5)]
    worst = 0.0
    for pbar, s in grid:
        roots = model.fast_equilibria_x1(pbar)
        for x1, toward in ((roots[0], roots[-1]), (roots[-1], roots[0])):
            got = fast_layer.saddle_eigendirections(x1, s, toward)
            want = _eig_directions(x1, s, toward)
            worst = max(worst, *(float(np.max(np.abs(g - w)))
                                 for g, w in zip(got, want)))
    assert worst < 1e-14


def test_double_het_closed_forms_match_brentq_oracles():
    # pbar*: the outer saddles on one potential level
    def level_mismatch(pbar):
        x_l, _, x_r = model.fast_equilibria_x1(pbar)
        return float(fast_layer.potential(x_l, pbar)
                     - fast_layer.potential(x_r, pbar))

    pbar_star = brentq(level_mismatch, model.PBAR_L + 1e-4,
                       model.PBAR_R - 1e-4, xtol=1e-14, rtol=1e-15)
    assert abs(fast_layer.PBAR_STAR - pbar_star) < 1e-15
    # p*: the equilibrium height meets pbar*, p - x1*(p) = pbar*
    p_star = brentq(lambda p: homoclinic.equilibrium_pbar(p) - pbar_star,
                    -1.0, model.P_MINUS, xtol=1e-14, rtol=1e-15)
    assert abs(homoclinic.P_STAR - p_star) < 1e-15


@pytest.mark.parametrize("p", [-0.2, -0.13])
def test_s0_gap_matches_energy_conservation(p):
    # at s = 0, x1'' = -V'(x1) with V' = (f(x1) + pbar)/5, so a separatrix
    # of the saddle x0 crosses the section sigma at x2 = sqrt(2(V(x0) -
    # V(sigma))); both reach it at these equilibrium heights
    pbar = homoclinic.equilibrium_pbar(p)

    def potential(x):
        return (-x**4 / 4 + 1.1 * x**3 / 3 - 0.05 * x**2 + pbar * x) / 5

    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    sigma = 0.5 * (x_l + x_r)
    want = (np.sqrt(2 * (potential(x_l) - potential(sigma)))
            - np.sqrt(2 * (potential(x_r) - potential(sigma))))
    assert abs(fast_layer.shoot_heteroclinic(pbar, 0.0) - want) < 1e-9

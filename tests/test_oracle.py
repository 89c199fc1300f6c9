"""Shots cross-checked against an integrator that shares no code with ours.

The package integrator is an explicit Runge-Kutta pair (DOP853); the
oracle is scipy's implicit Radau IIA method with the analytic Jacobian at
tight tolerance.  Only the starting points (equilibria and eigenvectors)
come from the package.
"""

import numpy as np
from scipy.integrate import solve_ivp

from fhnwave import fast_layer, homoclinic, model
from fhnwave.model import ModelParams


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
    vu_l, _ = fast_layer.saddle_eigendirections(
        model.fast_equilibrium_info(x_l, s), s, toward=x_r)
    _, vs_r = fast_layer.saddle_eigendirections(
        model.fast_equilibrium_info(x_r, s), s, toward=x_l)
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

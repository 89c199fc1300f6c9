"""Package results cross-checked against oracles that share no code with
them.

Shots: the package integrator is an explicit Runge-Kutta pair (DOP853);
the oracle is scipy's implicit Radau IIA method with the analytic Jacobian
at tight tolerance.  Only the starting points (equilibria and
eigenvectors) come from the package.

Stepper: the package's DOP853 kernel against ``scipy.integrate.DOP853``,
the same method in numpy: the tableau constant by constant, and escape,
layer and reduced runs at the same tolerances, stepped by scipy's class
under the same level and escape rules.  Each field kernel, which returns
a list of Python floats, against the same kernel behind an ndarray on the
package's own escape, layer and reduced runs: the same run bit for bit.

Hopf algebra: the package evaluates the characteristic polynomial and the
first Lyapunov coefficient in closed form; the oracles are numpy's
``poly`` and the projection formula evaluated with LAPACK eigenvectors and
linear solves on the Jacobian matrix.  The unstable direction of the
saddle-focus q, a polynomial root and its closed-form eigenvector in the
package, is checked against the LAPACK eigenvector, and the C-curve's
closed-form stable-pair guard against LAPACK eigenvalues.

Layer closed forms: the saddle and fold eigenvectors against LAPACK, and
the double heteroclinic pbar* and p* against brentq solves of their
defining equations.  The integrated s = 0 section gap against energy
conservation, H = x2^2/2 + V(x1), with V written out here.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq

from fhnwave import bifurcation, fast_layer, homoclinic, model, slow_reduced
from fhnwave import integrate as integrator
from fhnwave.integrate import EVENT_TOL, TOL_SCALE, integrate
from fhnwave.model import DomainError, ModelParams

SPEEDS_PATH = (Path(__file__).resolve().parents[1] / "bench"
               / "c_curve_speeds.json")


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

    # section gap of the layer separatrices, away from any connection, in
    # both directions: the right-to-left one is integrated as such here,
    # forward from x_r and backward from x_l, so it checks the mirror
    # through which shoot_heteroclinic computes it
    pbar, s = -0.05, 0.3
    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    sigma = 0.5 * (x_l + x_r)
    field = lambda t, y: model.fast_field(y, pbar, s)
    jac = lambda t, y: np.array([[0.0, 1.0],
                                 [-0.2 * model.cubic_prime(y[0]), s / 5.0]])
    section = lambda t, y: y[0] - sigma
    for direction, x_dep, x_arr in (("left-to-right", x_l, x_r),
                                    ("right-to-left", x_r, x_l)):
        vu, _ = fast_layer.saddle_eigendirections(x_dep, s, toward=x_arr)
        _, vs = fast_layer.saddle_eigendirections(x_arr, s, toward=x_dep)
        fwd = _radau(field, jac, np.array([x_dep, 0.0]) + 1e-8 * vu, 5000.0,
                     section)
        bwd = _radau(lambda t, y: -field(t, y), lambda t, y: -jac(t, y),
                     np.array([x_arr, 0.0]) + 1e-8 * vs, 5000.0, section)
        gap = fwd[1] - bwd[1]
        assert abs(gap) > 1e-2
        got = fast_layer.shoot_heteroclinic(pbar, s, direction=direction)
        assert abs(got - gap) < 1e-10, direction


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


def _eig_of_q(p, s, eps):
    x1s = model.equilibrium_x1(p)
    return np.linalg.eigvals(model.full_jacobian(np.array([x1s, 0.0, x1s]),
                                                 ModelParams(p, s, eps)))


def test_c_curve_speed_where_q_is_a_source_raises():
    # at (0.07, 1e-2) the upper escape flip lies past the Hopf set, at
    # s = 1.4407877, where q has the eigenvalues 0.00063 +- 0.069i and 0.280
    with pytest.raises(DomainError, match=r"no stable pair at p=0\.07, "
                       r"s=\S+, eps=0\.01\b") as info:
        homoclinic.locate_c_curve(0.07, 1e-2)
    s = float(re.search(r"s=([^,]+),", str(info.value))[1])
    assert abs(s - 1.4407877) < 1e-6
    assert np.all(_eig_of_q(0.07, s, 1e-2).real > 0.0)  # q is a source


def test_recorded_c_curve_speeds_have_a_stable_pair():
    # the 48 speeds (s1 and s2 at 24 points) the benchmark checks
    # locate_c_curve against pass the closed-form guard, with no shot, and
    # LAPACK agrees that q keeps a stable pair there
    records = json.loads(SPEEDS_PATH.read_text())
    assert len(records) == 24
    for rec in records:
        for s in (rec["s1"], rec["s2"]):
            homoclinic._require_stable_pair(rec["p"], s, rec["eps"])
            w = np.sort(_eig_of_q(rec["p"], s, rec["eps"]).real)
            assert w[1] < 0.0 < w[2], (rec, s)


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


def test_dop853_tableau_is_scipys():
    # the kernel's constants Ai_j, Bj, Ci, E3_j, E5_j and Dr_j are numbered
    # by stage from 1 (D by dense-output row 4..7); unnamed entries are zero
    A, D = np.zeros((16, 16)), np.zeros((4, 16))
    B, C, E3, E5 = np.zeros(12), np.zeros(16), np.zeros(13), np.zeros(13)
    named = 0
    for name, value in vars(integrator).items():
        m = re.fullmatch(r"(A|D|B|C|E3_|E5_)(\d+)(?:_(\d+))?", name)
        if m is None:
            continue
        kind, i, j = m[1], int(m[2]) - 1, m[3] and int(m[3]) - 1
        # a Python float, not np.float64: the stages run on float arithmetic
        assert type(value) is float and value != 0.0, name
        assert (j is None) == (kind not in ("A", "D")), name
        table = {"A": A, "D": D, "B": B, "C": C, "E3_": E3, "E5_": E5}[kind]
        if kind == "D":
            table[i - 3, j] = value
        elif kind == "A":
            table[i, j] = value
        else:
            table[i] = value
        named += 1
    A[12, :12] = B  # stage 13 is the field at y_new = y + h (B k)
    C[12] = 1.0  # ... evaluated at the step's end, t + h
    dc = dop853_coefficients
    assert named == 160
    assert np.array_equal(A, dc.A)
    assert np.array_equal(B, dc.B)
    assert np.array_equal(C, dc.C)
    assert np.array_equal(E3, dc.E3)
    assert np.array_equal(E5, dc.E5)
    assert np.array_equal(D, dc.D)


def _scipy_run(field, y0, t_span, opts, levels=()):
    """The run ``integrate`` makes, stepped by ``scipy.integrate.DOP853``.

    Same stepper tolerances; the earliest level crossing of a step is
    localized by brentq on scipy's dense output of that step, and the
    escape radius is checked at step ends.  Returns (reason, level index
    or None, end time, end state, accepted steps).
    """
    t0, tf = t_span
    direction = 1.0 if tf > t0 else -1.0
    solver = DOP853(field, t0, np.asarray(y0, dtype=float), tf,
                    rtol=opts.rel_tol * TOL_SCALE,
                    atol=opts.abs_tol * TOL_SCALE)
    steps = 0
    while True:
        if solver.step() is not None:
            return "step-failure", None, solver.t, solver.y, steps
        steps += 1
        crossings = []
        for idx, c in enumerate(levels):
            g_old, g_new = solver.y_old[0] - c, solver.y[0] - c
            if g_old != 0.0 and g_old * g_new <= 0.0 and g_new != g_old:
                seg = solver.dense_output()
                t_ev = brentq(lambda tv: seg(tv)[0] - c, solver.t_old,
                              solver.t, xtol=EVENT_TOL,
                              rtol=8.881784197001252e-16)
                crossings.append((direction * t_ev, idx, t_ev, seg(t_ev)))
        if crossings:
            _, idx, t_ev, state = min(crossings, key=lambda c: c[0])
            return "event", idx, t_ev, state, steps
        if np.linalg.norm(solver.y) > opts.escape_radius:
            return "escape", None, solver.t, solver.y, steps
        if solver.status == "finished":
            return "time-out", None, solver.t, solver.y, steps


#: Unit roundoff.  scipy sums each stage with BLAS, in its own order, and
#: the kernel in stage order, so the two round apart.
_U = 2.0 ** -53


def _assert_shot_matches_scipy(field, y0, span, opts, levels, lam, steps):
    """A shot launched ``1e-8`` along an unstable direction with rate lam.

    While the shot is within about 1e-8 of its saddle, its error estimate
    is a difference of nearly equal stages and so mostly rounding: the two
    steppers pick different steps there, and their launch points drift
    apart by rounding, at most 12 stages x ``steps`` roundings of a state
    of size <= 1.  Along the unstable direction that is a relative change
    of the 1e-8 offset, which the flow turns into a time shift of that
    relative change / lam, and not into a shift of the orbit.  So the
    event times agree to 12 steps u / (1e-8 lam), and the event states on
    the level, like any two runs at this tolerance, to the sum of the local
    error bounds, ``steps`` x (rtol |y| + atol) with |y| <= 3.
    """
    traj = integrate(field, y0, span, opts, levels=levels)
    reason, idx, t_ev, state, n = _scipy_run(field, y0, span, opts, levels)
    assert traj.reason == reason == "event"
    assert traj.event.index == idx
    assert len(traj.segments) <= steps and n <= steps
    time_tol = 12 * steps * _U / (1e-8 * lam)
    state_tol = steps * TOL_SCALE * (3.0 * opts.rel_tol + opts.abs_tol)
    assert abs(traj.event.t - t_ev) <= time_tol
    assert np.max(np.abs(traj.event.state - state)) <= state_tol


# criterion 13 at (0.05, 0.01) on both sides of s1, and the corners of
# criterion 14's (p, eps) box between s1 and s2 and above s2
@pytest.mark.parametrize("p, s, eps", [
    (0.05, 0.8, 0.01), (0.05, 1.1, 0.01),
    *[(p, s, eps) for eps in (1e-2, 1e-4) for p in (0.015, 0.05)
      for s in (1.0, 1.55)]])
def test_escape_shot_matches_scipy_dop853(p, s, eps):
    params = ModelParams(eps=eps, s=s, p=p)
    state, direction = homoclinic._unstable_direction(p, s, eps)
    lam = direction[1] / direction[0]  # the eigenvector is (1, lam, .)
    _assert_shot_matches_scipy(
        lambda t, y: model.full_field(y, params), state + 1e-8 * direction,
        (0.0, min(1e4, 100.0 / eps)), homoclinic._ESCAPE_OPTS,
        (homoclinic.ESCAPE_X1, -homoclinic.ESCAPE_X1), lam, steps=300)


@pytest.mark.parametrize("backward", [False, True])
def test_layer_shot_matches_scipy_dop853(backward):
    # the two separatrix shots of shoot_heteroclinic(-0.05, 0.3)
    pbar, s = -0.05, 0.3
    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    vu, _ = fast_layer.saddle_eigendirections(x_l, s, toward=x_r)
    _, vs = fast_layer.saddle_eigendirections(x_r, s, toward=x_l)
    x0, vec = (x_r, vs) if backward else (x_l, vu)
    lam = abs(vec[1] / vec[0])  # (1, lam) up to sign; backward, -lam
    span = (0.0, -fast_layer.SHOT_TIME if backward else fast_layer.SHOT_TIME)
    _assert_shot_matches_scipy(
        lambda t, y: model.fast_field(y, pbar, s),
        np.array([x0, 0.0]) + 1e-8 * vec, span, fast_layer._SHOT_OPTS,
        (0.5 * (x_l + x_r), x_l - 0.7, x_r + 0.7), lam, steps=300)


@pytest.mark.parametrize("variant", ["eq18", "eq17"])
def test_reduced_run_matches_scipy_dop853(variant):
    # the reduced-orbit artifact's run; it starts 0.01 off the equilibrium,
    # so no launch stretches rounding: the two runs differ by their local
    # errors, at most rtol |y| + atol per step with |y| <= 50 (the escape
    # radius), grown at most 100-fold from the 0.01 start to the orbit's
    # O(1) size
    p, s, eps = 0.06, 1.37, 0.01
    orbit = slow_reduced.simulate_reduced(p, s, eps, variant=variant)
    traj = orbit.trajectory
    opts = integrator.IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11,
                                        escape_radius=50.0)
    reason, _, t_end, state, n = _scipy_run(
        slow_reduced._reduced_field(p, s, eps, variant), traj.states[0],
        (0.0, 60.0), opts)
    assert traj.reason == reason == "time-out"
    assert traj.final_time == t_end == 60.0
    steps = max(n, len(traj.segments))
    tol = 100 * steps * TOL_SCALE * (50.0 * opts.rel_tol + opts.abs_tol)
    assert np.max(np.abs(traj.final_state - state)) <= tol


#: The package's integrate runs whose field kernels are checked against the
#: same kernel behind an ndarray: two escape shots at (0.05, 1e-2), both
#: separatrix shots of shoot_heteroclinic(-0.05, 0.3), and the
#: reduced-orbit artifact's run in each chart.
KERNEL_RUNS = {
    "escape-0.8": (homoclinic, lambda: homoclinic.escape_side(0.05, 0.8, 1e-2)),
    "escape-1.1": (homoclinic, lambda: homoclinic.escape_side(0.05, 1.1, 1e-2)),
    "layer": (fast_layer, lambda: fast_layer.shoot_heteroclinic(-0.05, 0.3)),
    "eq17": (slow_reduced,
             lambda: slow_reduced.simulate_reduced(0.06, 1.37, 0.01, "eq17")),
    "eq18": (slow_reduced,
             lambda: slow_reduced.simulate_reduced(0.06, 1.37, 0.01, "eq18")),
}


@pytest.mark.parametrize("case", sorted(KERNEL_RUNS))
def test_field_kernel_runs_as_its_array_path(case, monkeypatch):
    # a kernel returns Python floats, which integrate takes as they are; the
    # same kernel behind an ndarray, which integrate reads with tolist(),
    # must give the same run bit for bit
    module, run = KERNEL_RUNS[case]
    calls = []

    def recording(field, *args, **kwargs):
        calls.append((field, args, kwargs))
        return integrator.integrate(field, *args, **kwargs)

    monkeypatch.setattr(module, "integrate", recording)
    run()
    assert len(calls) == (2 if case == "layer" else 1)
    for kernel, args, kwargs in calls:
        def checked(t, y):
            out = kernel(t, y)
            assert type(out) is list
            assert all(type(v) is float for v in out), [type(v) for v in out]
            return out

        a, b = (integrator.integrate(field, *args, **kwargs)
                for field in (checked, lambda t, y: np.array(kernel(t, y))))
        assert a.reason == b.reason and a.nfev == b.nfev > 0
        assert a.t.tobytes() == b.t.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert (a.event is None) == (b.event is None)
        if a.event is not None:
            assert a.event.index == b.event.index
            assert a.event.t == b.event.t
            assert a.event.state.tobytes() == b.event.state.tobytes()

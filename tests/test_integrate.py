"""Tests for the adaptive Runge-Kutta integrator and event machinery."""

import math

import numpy as np
import pytest

from scipy.optimize import brentq

from fhnwave.integrate import (EVENT_TOL, IntegrationError, IntegratorOptions,
                               integrate)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_accuracy():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts)
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    assert np.max(np.abs(traj.final_state - exact)) < 1e-8


def test_energy_drift_small():
    opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 200.0), opts)
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-9


def test_dense_output_matches_exact_solution():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    # forward, and backward: the only run whose segment starts decrease
    for sign in (1.0, -1.0):
        traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, sign * 6.0),
                         opts)
        times = sign * np.linspace(0.1, 5.9, 37)
        samples = traj.sample(times)
        assert np.max(np.abs(samples[:, 0] - np.cos(times))) < 1e-8


def test_event_localization():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                     levels=(0.0,))
    assert traj.reason == "event"
    assert abs(traj.event.t - math.pi / 2.0) < 1e-10


def test_dense_output_does_not_steer_the_stepper():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    y0 = np.array([1.0, 0.0])
    g = lambda t, y: y[0] - 0.5
    plain = integrate(_oscillator, y0, (0.0, 10.0), opts)
    fired = integrate(_oscillator, y0, (0.0, 10.0), opts, levels=(0.5,))
    k = len(fired.t) - 2  # the step the event fires in
    assert fired.reason == "event" and k > 0
    for traj in (plain, fired):
        assert len(traj.segments) == len(traj.t) - 1
    # the same accepted steps, bit for bit, up to the event step
    assert np.array_equal(fired.t[:-1], plain.t[:k + 1])
    assert np.array_equal(fired.states[:-1], plain.states[:k + 1])
    assert all(seg is None for seg in fired.segments[:k])
    # the event is the root on the no-event run's dense output of that step
    # (brentq's default rtol is the one integrate passes)
    seg = plain.segments[k]
    t_ev = brentq(lambda tv: g(tv, seg(tv)), plain.t[k], plain.t[k + 1],
                  xtol=EVENT_TOL)
    assert fired.event.t == t_ev
    assert np.array_equal(fired.event.state, seg(t_ev))


def test_event_run_builds_no_dense_output_off_the_event_step():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    y0 = np.array([1.0, 0.0])
    plain = integrate(_oscillator, y0, (0.0, 10.0), opts)
    watched = integrate(_oscillator, y0, (0.0, 10.0), opts,
                        levels=(-2.0,))  # never reached
    assert watched.reason == plain.reason == "time-out"
    assert np.array_equal(watched.t, plain.t)
    assert np.array_equal(watched.states, plain.states)
    assert len(watched.segments) == len(plain.segments) == len(plain.t) - 1
    assert all(seg is None for seg in watched.segments)
    # DOP853's dense output costs 3 field evaluations per step
    assert plain.nfev - watched.nfev == 3 * len(plain.segments)


def test_nfev_counts_every_field_evaluation():
    calls = []

    def counted(t, y):
        calls.append(t)
        return _oscillator(t, y)

    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    for levels in ((), (0.0,)):
        calls.clear()
        traj = integrate(counted, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                         levels=levels)
        assert traj.nfev == len(calls) > 0


def test_first_event_wins():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                     levels=(-2.0, 0.5))  # -2 is never reached
    assert traj.event.index == 1
    assert abs(traj.event.t - math.pi / 3.0) < 1e-10


def test_backward_integration():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, -3.0), opts)
    assert abs(traj.final_time + 3.0) < 1e-12
    assert abs(traj.final_state[0] - math.cos(3.0)) < 1e-8


def test_escape_termination():
    field = lambda t, y: np.array([y[0]])  # exponential blow-up
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, escape_radius=5.0)
    traj = integrate(field, np.array([1.0]), (0.0, 100.0), opts)
    assert traj.reason == "escape"
    assert abs(traj.final_state[0]) >= 5.0


def test_timeout_reason():
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 1.0), opts)
    assert traj.reason == "time-out"


def test_stiffness_failure_raises_or_flags():
    # a field whose derivative explodes in finite time
    field = lambda t, y: np.array([1.0 + y[0] ** 2])
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, escape_radius=1e6)
    traj = integrate(field, np.array([0.0]), (0.0, 10.0), opts)
    assert traj.reason in ("escape", "step-failure")


def test_classify_escape():
    field = lambda t, y: np.array([-1.0, 0.0])
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, escape_radius=4.0)
    traj = integrate(field, np.array([0.0, 0.0]), (0.0, 100.0), opts)
    assert traj.reason == "escape"
    assert traj.final_state[0] < -2.0


def test_options_validation():
    with pytest.raises((ValueError, IntegrationError)):
        IntegratorOptions(rel_tol=-1.0)
    with pytest.raises((ValueError, IntegrationError)):
        IntegratorOptions(abs_tol=0.0)
    # NaN fails every comparison; accepted, it makes integrate() loop forever
    for name in ("rel_tol", "abs_tol", "escape_radius"):
        with pytest.raises(ValueError):
            IntegratorOptions(**{name: float("nan")})
    for span in ((0.0, float("nan")), (0.0, float("inf")),
                 (float("nan"), 1.0)):
        with pytest.raises(ValueError):
            integrate(_oscillator, np.array([1.0, 0.0]), span)


def test_nonfinite_initial_field_raises():
    # a NaN first step once kept the stepper rejecting forever
    field = lambda t, y: np.array([float("nan"), y[0]])
    with pytest.raises(IntegrationError, match="field"):
        integrate(field, np.array([1.0, 0.0]), (0.0, 1.0))


def test_sample_outside_range_rejected():
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 1.0), opts)
    with pytest.raises(ValueError):
        traj.sample(np.array([2.0]))


def test_sample_without_dense_output_rejected():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                     levels=(0.0,))
    assert traj.reason == "event" and traj.segments[0] is None
    with pytest.raises(ValueError, match="no dense output"):
        traj.sample(0.5 * traj.t[1])
    # the event step keeps its dense output
    t_mid = 0.5 * (traj.t[-2] + traj.t[-1])
    assert abs(traj.sample(t_mid)[0, 0] - math.cos(t_mid)) < 1e-8


def test_initial_state_outside_escape_radius_calls_no_field():
    def field(t, y):
        raise AssertionError("the field was called")

    opts = IntegratorOptions(escape_radius=5.0)
    traj = integrate(field, np.array([3.0, 4.5]), (0.0, 1.0), opts,
                     levels=(0.0,))
    assert traj.reason == "escape" and traj.event is None
    assert traj.t.tolist() == [0.0]
    assert traj.states.tolist() == [[3.0, 4.5]]
    assert traj.segments == [] and traj.nfev == 0


def _budgeted(field, budget=10**5):
    """``field`` that raises after ``budget`` calls, so that a stepper
    which never ends fails the test instead of stalling the suite."""
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise RuntimeError(f"{budget} field calls: the run does not end")
        return field(t, y)

    return counted


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_field_turning_nonfinite_mid_run_ends(bad):
    # the oscillator until t = 1, then a non-finite value: every step that
    # reaches past t = 1 has a NaN or infinite error norm and is rejected
    # (by the factor 0.2, so NaN must not win the controller's max)
    def field(t, y):
        return _oscillator(t, y) if t <= 1.0 else np.array([bad, y[0]])

    traj = integrate(_budgeted(field), np.array([1.0, 0.0]), (0.0, 10.0))
    assert traj.reason in ("step-failure", "escape")
    assert 0.0 < traj.final_time <= 1.0
    assert np.all(np.isfinite(traj.states))


def test_field_overflowing_when_squared_ends():
    # finite values whose squares (in the initial-step rule and the error
    # norm) overflow: a float ** raises there, a product gives inf
    field = lambda t, y: np.array([1e200, -1e200])
    traj = integrate(_budgeted(field), np.array([1.0, 0.0]), (0.0, 10.0))
    assert traj.reason in ("step-failure", "escape")
    assert np.all(np.isfinite(traj.states))


def test_underflowing_abs_tol_rejected():
    # the stepper's abs_tol (a tenth) would be 0, and the error scale with it
    with pytest.raises(ValueError, match="abs_tol"):
        IntegratorOptions(abs_tol=5e-324)


def test_shape_mismatches_rejected():
    # the kernel zips state and field components: a short field would
    # silently drop a component
    with pytest.raises(ValueError, match="components"):
        integrate(lambda t, y: np.array([y[1]]), np.array([1.0, 0.0]),
                  (0.0, 1.0))
    for y0 in (np.ones((2, 2)), 1.0, []):
        with pytest.raises(ValueError, match="y0"):
            integrate(_oscillator, y0, (0.0, 1.0))

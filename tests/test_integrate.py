"""Tests for the adaptive Runge-Kutta integrator and event machinery."""

import math

import numpy as np
import pytest

from fhnwave.integrate import IntegrationError, IntegratorOptions, integrate


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_accuracy():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_time=100.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts)
    exact = np.array([math.cos(10.0), -math.sin(10.0)])
    assert np.max(np.abs(traj.final_state - exact)) < 1e-8


def test_energy_drift_small():
    opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13, max_time=300.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 200.0), opts)
    energy = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
    assert np.max(np.abs(energy - 0.5)) < 1e-9


def test_dense_output_matches_exact_solution():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_time=50.0)
    # forward, and backward: the only run whose segment starts decrease
    for sign in (1.0, -1.0):
        traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, sign * 6.0),
                         opts)
        times = sign * np.linspace(0.1, 5.9, 37)
        samples = traj.sample(times)
        assert np.max(np.abs(samples[:, 0] - np.cos(times))) < 1e-8


def test_event_localization():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_time=50.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                     events=[lambda t, y: y[0]])
    assert traj.reason == "event"
    assert abs(traj.events[0].t - math.pi / 2.0) < 1e-10


def test_first_event_wins():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_time=50.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts,
                     events=[lambda t, y: y[0] + 2.0,   # never fires
                             lambda t, y: y[0] - 0.5])
    assert traj.events[0].index == 1
    assert abs(traj.events[0].t - math.pi / 3.0) < 1e-10


def test_backward_integration():
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_time=50.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, -3.0), opts)
    assert abs(traj.final_time + 3.0) < 1e-12
    assert abs(traj.final_state[0] - math.cos(3.0)) < 1e-8


def test_escape_termination():
    field = lambda t, y: np.array([y[0]])  # exponential blow-up
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, max_time=100.0,
                             escape_radius=5.0)
    traj = integrate(field, np.array([1.0]), (0.0, 100.0), opts)
    assert traj.reason == "escape"
    assert abs(traj.final_state[0]) >= 5.0


def test_timeout_reason():
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, max_time=1.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 10.0), opts)
    assert traj.reason == "time-out"


def test_stiffness_failure_raises_or_flags():
    # a field whose derivative explodes in finite time
    field = lambda t, y: np.array([1.0 + y[0] ** 2])
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, max_time=10.0,
                             escape_radius=1e6)
    traj = integrate(field, np.array([0.0]), (0.0, 10.0), opts)
    assert traj.reason in ("escape", "step-failure")


def test_classify_escape():
    field = lambda t, y: np.array([-1.0, 0.0])
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, max_time=100.0,
                             escape_radius=4.0)
    traj = integrate(field, np.array([0.0, 0.0]), (0.0, 100.0), opts)
    assert traj.reason == "escape"
    assert traj.final_state[0] < -2.0


def test_options_validation():
    with pytest.raises((ValueError, IntegrationError)):
        IntegratorOptions(rel_tol=-1.0)
    with pytest.raises((ValueError, IntegrationError)):
        IntegratorOptions(abs_tol=0.0)
    # NaN fails every comparison; accepted, it makes integrate() loop forever
    for name in ("rel_tol", "abs_tol", "max_time", "escape_radius"):
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
    opts = IntegratorOptions(rel_tol=1e-9, abs_tol=1e-11, max_time=10.0)
    traj = integrate(_oscillator, np.array([1.0, 0.0]), (0.0, 1.0), opts)
    with pytest.raises(ValueError):
        traj.sample(np.array([2.0]))

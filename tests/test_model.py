"""Tests for the model constants, fields, and equilibrium algebra."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fhnwave import fast_layer, model
from fhnwave.model import DomainError, EquilibriumKind, ModelParams


def test_fold_points_exact():
    assert abs(model.X_MINUS - (11.0 - math.sqrt(91.0)) / 30.0) < 1e-15
    assert abs(model.X_PLUS - (11.0 + math.sqrt(91.0)) / 30.0) < 1e-15
    # folds are the critical points of the cubic
    assert abs(model.cubic_prime(model.X_MINUS)) < 1e-14
    assert abs(model.cubic_prime(model.X_PLUS)) < 1e-14


def test_fold_points_printed_values():
    assert abs(model.X_MINUS - 0.0487) < 1e-4
    assert abs(model.X_PLUS - 0.6846) < 1e-4


def test_slow_fold_params_identity():
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    assert p_minus < p_plus
    assert abs(p_minus + p_plus - 2057.0 / 3375.0) < 1e-14
    assert abs(p_minus - model.equilibrium_p(model.X_MINUS)) < 1e-15
    assert abs(p_plus - model.equilibrium_p(model.X_PLUS)) < 1e-15


def test_equilibrium_p_inverts_equilibrium_x1():
    for p in (-0.3, -0.05, 0.0, 0.2, 0.5, 0.9):
        x1 = model.equilibrium_x1(p)
        assert abs(model.equilibrium_p(x1) - p) < 1e-12


def test_equilibrium_p_strictly_increasing():
    # p(x1) = x1 - c0(x1) is strictly increasing, so x1 = c(x1; p) has
    # exactly one root for every p: the full system has one equilibrium
    xs = np.linspace(-1.5, 2.0, 4001)
    ps = model.equilibrium_p(xs)
    assert np.all(np.diff(ps) > 0.0)
    for p in (-0.3, 0.05, 0.4, 0.9):
        assert ps[0] < p < ps[-1]


def test_full_field_vanishes_at_equilibrium():
    for p in (-0.2, 0.05, 0.3, 0.7):
        x1s = model.equilibrium_x1(p)
        q = np.array([x1s, 0.0, x1s])
        f = model.full_field(q, ModelParams(p, 0.9, 0.02))
        assert np.max(np.abs(f)) < 1e-13


def test_full_jacobian_matches_finite_differences():
    params = ModelParams(0.1, 0.8, 0.02)
    state = np.array([0.3, 0.05, 0.2])
    J = model.full_jacobian(state, params)
    h = 1e-7
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        col = (model.full_field(state + e, params)
               - model.full_field(state - e, params)) / (2 * h)
        assert np.max(np.abs(col - J[:, j])) < 1e-6


def test_fast_jacobian_trace_is_s_over_5():
    for s in (0.0, 0.4, 1.3):
        A = model.fast_jacobian(0.2, s)
        assert abs(np.trace(A) - s / 5.0) < 1e-15


def test_fast_equilibria_count_boundaries():
    assert len(model.fast_equilibria_x1(0.5 * (model.PBAR_L + model.PBAR_R))) == 3
    assert len(model.fast_equilibria_x1(model.PBAR_R + 1e-3)) == 1
    assert len(model.fast_equilibria_x1(model.PBAR_L - 1e-3)) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pbar=st.floats(-1.0, 1.0))
@example(pbar=model.PBAR_L)
@example(pbar=model.PBAR_R)
@example(pbar=math.nextafter(model.PBAR_L, 1.0))
@example(pbar=math.nextafter(model.PBAR_R, -1.0))
@example(pbar=math.nextafter(model.PBAR_L, -1.0))
@example(pbar=math.nextafter(model.PBAR_R, 1.0))
def test_fast_equilibria_root_count(pbar):
    # the one-path layer shot rests on this: the outer roots are the
    # departure and arrival, and at an edge one of them is the fold
    roots = model.fast_equilibria_x1(pbar)
    assert all(a < b for a, b in zip(roots, roots[1:]))
    assert all(abs(model.cubic(x) + pbar) < 1e-12 for x in roots)
    if model.PBAR_L < pbar < model.PBAR_R:
        assert len(roots) == 3
    elif pbar in (model.PBAR_L, model.PBAR_R):
        fold = model.X_MINUS if pbar == model.PBAR_R else model.X_PLUS
        assert len(roots) == 2 and fold in roots
    else:
        assert len(roots) == 1


def test_fast_equilibria_near_saddle_node():
    # roots separated by ~1e-4 must still be resolved
    roots = model.fast_equilibria_x1(model.PBAR_R - 1e-8)
    assert len(roots) == 3
    for x in roots:
        assert abs(model.cubic(x) + (model.PBAR_R - 1e-8)) < 1e-12


def test_layer_saddles_and_center():
    pbar = -0.06
    infos = fast_layer.layer_equilibria(pbar, 0.0)
    assert len(infos) == 3
    assert infos[0].kind == EquilibriumKind.SADDLE
    assert infos[1].kind == EquilibriumKind.FOLD_DEGENERATE  # neutral center at s = 0
    assert infos[2].kind == EquilibriumKind.SADDLE


def test_symmetry_is_involution():
    state = np.array([0.3, -0.2, 0.1])
    twice, p_twice = model.symmetry_transform(*model.symmetry_transform(state, 0.2))
    assert np.max(np.abs(twice - state)) < 1e-15
    assert abs(p_twice - 0.2) < 1e-15


def test_symmetry_equivariance():
    rng = np.random.default_rng(7)
    params = ModelParams(0.12, 0.7, 0.02)
    for _ in range(5):
        state = rng.normal(scale=0.5, size=3)
        t_state, t_p = model.symmetry_transform(state, params.p)
        f = model.full_field(state, params)
        g = model.full_field(t_state, ModelParams(t_p, params.s, params.eps))
        # the involution conjugates the flow to its time reversal
        assert np.max(np.abs(g + f)) < 1e-12


def test_symmetry_pairs_fold_params():
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    _, paired = model.symmetry_transform(np.zeros(3), p_minus)
    assert abs(paired - p_plus) < 1e-14


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(0.0, -1.0, 0.01)
    with pytest.raises(DomainError):
        ModelParams(0.0, 1.0, -0.01)
    # NaN passes every ordered comparison, so finiteness is its own test
    for field in ("p", "s", "eps"):
        for bad in (np.nan, np.inf, -np.inf):
            values = {"p": 0.05, "s": 1.0, "eps": 0.01, field: bad}
            with pytest.raises(DomainError, match=f"^{field} must be finite"):
                ModelParams(**values)


def test_nonfinite_state_rejected():
    with pytest.raises(DomainError):
        model.full_field(np.array([np.nan, 0.0, 0.0]), ModelParams(0.0, 1.0, 0.01))


def _array_field(state, params):
    """The wave field by the array formula the scalar one must reproduce."""
    x1, x2, y = np.asarray(state, dtype=float)
    return np.array([x2,
                     0.2 * (params.s * x2 - model.cubic(x1) + y - params.p),
                     (params.eps / params.s) * (x1 - y)])


def test_full_field_bit_identical_to_array_formula():
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = ModelParams(rng.uniform(-0.3, 0.9), rng.uniform(0.01, 2.0),
                             10.0 ** rng.uniform(-5, -1))
        state = rng.normal(scale=10.0 ** rng.uniform(-3, 1), size=3)
        expected = _array_field(state, params)
        for given in (state, state.tolist()):
            fast = model.full_field(given, params)
            assert fast.dtype == np.float64
            assert fast.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_nonfinite_component_rejected_by_each_user(bad, position):
    params = ModelParams(0.05, 1.0, 0.01)
    state = np.array([0.1, -0.2, 0.3])
    state[position] = bad
    for given in (state, state.tolist()):
        with pytest.raises(DomainError):
            model.full_field(given, params)
        with pytest.raises(DomainError):
            model.full_jacobian(given, params)
        with pytest.raises(DomainError):
            model.symmetry_transform(given, params.p)


@pytest.mark.parametrize("state", [(1e200, 1e200, 0.0),
                                   # the sum of these overflows to inf
                                   (1e308, 1e308, 1e308)])
def test_huge_finite_state_accepted(state):
    params = ModelParams(0.05, 1.0, 0.01)
    for given in (np.array(state), list(state)):
        model.full_field(given, params)
        model.full_jacobian(given, params)
        model.symmetry_transform(given, params.p)

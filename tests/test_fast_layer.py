"""Tests for the layer-problem heteroclinic machinery."""

import math

import numpy as np
import pytest

from fhnwave import fast_layer, homoclinic, model
from fhnwave.integrate import IntegratorOptions, integrate
from fhnwave.model import DomainError


def test_double_het_pbar_closed_form():
    # the s = 0 double connection sits at the equal-potential level
    assert abs(fast_layer.PBAR_STAR - (-209.0 / 3375.0)) < 1e-12
    # where the cubic is balanced about its inflection point 11/30
    r = np.sqrt(273.0) / 30.0
    assert model.fast_equilibria_x1(fast_layer.PBAR_STAR) == pytest.approx(
        [11.0 / 30.0 - r, 11.0 / 30.0, 11.0 / 30.0 + r], abs=1e-15)


def test_double_het_equal_hamiltonian_levels():
    pbar = fast_layer.PBAR_STAR
    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    h_l = fast_layer.hamiltonian(np.array([x_l, 0.0]), pbar)
    h_r = fast_layer.hamiltonian(np.array([x_r, 0.0]), pbar)
    assert abs(h_l - h_r) < 1e-12


def test_double_het_shooting_gap():
    pbar = fast_layer.PBAR_STAR
    gap = fast_layer.shoot_heteroclinic(pbar, 0.0)
    assert abs(gap) < 1e-8


def test_hamiltonian_conserved_along_layer_orbit():
    pbar = -0.05
    x_l, _, _ = model.fast_equilibria_x1(pbar)
    vu, _ = fast_layer.saddle_eigendirections(x_l, 0.0, toward=1.0)
    y0 = np.array([x_l, 0.0]) + 1e-8 * vu
    opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)
    traj = integrate(lambda t, y: model.fast_field(y, pbar, 0.0), y0,
                     (0.0, 60.0), opts)
    levels = np.array([fast_layer.hamiltonian(st, pbar)
                       for st in traj.states])
    assert np.max(np.abs(levels - levels[0])) < 1e-8


def test_gap_sign_change_brackets_connection():
    pbar = fast_layer.PBAR_STAR
    lo = fast_layer.shoot_heteroclinic(pbar + 1e-3, 0.4, direction="left-to-right")
    conn = fast_layer.find_het(direction="left-to-right", s=0.4,
                               scan=(pbar, model.PBAR_R - 1e-6))
    assert abs(conn.section_gap) < 1e-10
    assert conn.pbar > pbar  # positive speed shifts the connection right
    assert lo != 0.0


def test_find_het_requires_one_free_parameter():
    with pytest.raises(ValueError):
        fast_layer.find_het(pbar=-0.06, s=0.4)
    with pytest.raises(ValueError):
        fast_layer.find_het()


def test_saddle_eigendirection_orientation():
    pbar = -0.06
    x_l, x_m, x_r = model.fast_equilibria_x1(pbar)
    vu, vs = fast_layer.saddle_eigendirections(x_l, 0.5, toward=x_r)
    assert vu[0] > 0 and vs[0] > 0
    assert abs(np.linalg.norm(vu) - 1.0) < 1e-14
    with pytest.raises(DomainError, match="neither a layer saddle"):
        fast_layer.saddle_eigendirections(x_m, 0.5, toward=x_r)


def test_no_connection_outside_band():
    with pytest.raises(DomainError):
        fast_layer.shoot_heteroclinic(model.PBAR_R + 0.01, 0.3)


def test_right_to_left_mirrors_left_to_right():
    # the involution pairs the two directions at mirrored pbar
    conn_lr = fast_layer.find_het(direction="left-to-right", s=0.5,
                                  scan=(fast_layer.PBAR_STAR,
                                        model.PBAR_R - 1e-6))
    conn_rl = fast_layer.find_het(direction="right-to-left", s=0.5,
                                  scan=(model.PBAR_L + 1e-6,
                                        fast_layer.PBAR_STAR))
    center = 0.5 * (model.PBAR_L + model.PBAR_R)
    assert abs((conn_lr.pbar - center) + (conn_rl.pbar - center)) < 1e-8


def test_continuation_short_segment():
    left, right = fast_layer.het_v_curve(s_max=0.2, step=0.05)
    for branch, sign in ((left, 1.0), (right, -1.0)):
        assert branch.meta["termination"] == "extent-reached"
        assert branch.column("s") == pytest.approx([0.0, 0.05, 0.1, 0.15,
                                                    0.2], abs=1e-15)
        # pbar leaves the vertex monotonically toward the branch's band edge
        pbar = branch.column("pbar")
        assert all(sign * (b - a) > 0 for a, b in zip(pbar, pbar[1:]))
        assert all(abs(g) < 1e-10 for g in branch.column("gap")[1:])


@pytest.mark.parametrize(
    ("bad", "name"),
    [(bad, name) for bad in (np.nan, np.inf, 0.0, -0.1)
     for name in ("step", "s_max")] + [(1e-12, "step")])
def test_continuation_rejects_bad_step_and_extent(name, bad):
    # the other argument keeps a valid value; a step below the floor makes
    # this het_v_curve(3e-12, 1e-12), which ended its right-to-left branch
    # after one point as "no-connection" before the floor was enforced
    kwargs = {"s_max": 3e-12, "step": 1e-10, name: bad}
    with pytest.raises(DomainError, match=name):
        fast_layer.het_v_curve(**kwargs)


def test_v_curve_stops_at_first_speed_without_connection():
    # the connections end at s* ~ 1.508 (the saddle-node limit), so the
    # grid point 1.6 has none and both branches stop after s = 1.2
    left, right = fast_layer.het_v_curve(s_max=1.6, step=0.4)
    center = 0.5 * (model.PBAR_L + model.PBAR_R)
    for branch in (left, right):
        assert branch.meta["termination"] == "no-connection"
        assert branch.column("s")[-1] == pytest.approx(1.2, abs=1e-15)
    assert len(left) == len(right) == 4
    # the involution mirrors the two branches about the band centre
    for (pb_lr, s_lr, _), (pb_rl, s_rl, _) in zip(left.points, right.points):
        assert s_lr == s_rl
        assert abs((pb_lr - center) + (pb_rl - center)) < 1e-8


def test_fold_departure_mirrors_across_the_band():
    # at pbar_r the left-to-right shot departs from the fold x_- (the shot
    # of s_star); the point symmetry of the layer problem about its
    # inflection maps it to the right-to-left shot from the fold x_+ at
    # pbar_l at the same speed, with the sign of the section gap flipped
    for s in (1.4, 1.5, 1.6):
        gap_lr = fast_layer.shoot_heteroclinic(model.PBAR_R, s)
        gap_rl = fast_layer.shoot_heteroclinic(model.PBAR_L, s,
                                               direction="right-to-left")
        assert np.isfinite(gap_lr)
        assert abs(gap_rl + gap_lr) < 1e-10


def test_fold_shot_domain_errors():
    # a shot never arrives at the fold ...
    with pytest.raises(DomainError, match="arrives at the fold"):
        fast_layer.shoot_heteroclinic(model.PBAR_R, 1.5,
                                      direction="right-to-left")
    with pytest.raises(DomainError, match="arrives at the fold"):
        fast_layer.shoot_heteroclinic(model.PBAR_L, 1.5)
    # ... departs from it only for s > 0 ...
    for s in (0.0, -0.5):
        with pytest.raises(DomainError, match="s > 0"):
            fast_layer.shoot_heteroclinic(model.PBAR_R, s)
    # ... and needs two equilibria
    for pbar in (model.PBAR_L - 1e-9, model.PBAR_R + 1e-9):
        with pytest.raises(DomainError, match="found 1"):
            fast_layer.shoot_heteroclinic(pbar, 1.5)


def _counting_integrate(monkeypatch):
    """The list of trajectories ``fast_layer.integrate`` returns from now on."""
    calls = []
    real = fast_layer.integrate

    def counted(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(fast_layer, "integrate", counted)
    return calls


@pytest.mark.parametrize("direction", ["left-to-right", "right-to-left"])
@pytest.mark.parametrize("p", [-0.12, -0.075, 0.0316])
def test_s0_energy_barrier_matches_timed_out_shot(monkeypatch, p, direction):
    # above p = -0.125 the left saddle at the equilibrium height sits below
    # the section's potential level: its s = 0 separatrix is a loop.  The
    # oracle integrates both shots, the blocked one to the time-out.
    pbar = p - model.equilibrium_x1(p)
    x_l, _, x_r = model.fast_equilibria_x1(pbar)
    sigma, x_lo, x_hi = 0.5 * (x_l + x_r), x_l - 0.7, x_r + 0.7
    x_dep, x_arr = (x_l, x_r) if direction == "left-to-right" else (x_r, x_l)
    vu, _ = fast_layer.saddle_eigendirections(x_dep, 0.0, toward=x_arr)
    _, vs = fast_layer.saddle_eigendirections(x_arr, 0.0, toward=x_dep)
    calls = _counting_integrate(monkeypatch)
    shots = [fast_layer._shoot_to_section(x0, vec, pbar, 0.0, sigma, back,
                                          1e-8, x_lo, x_hi)
             for x0, vec, back in ((x_dep, vu, False), (x_arr, vs, True))]
    blocked = [i for i, x2 in enumerate(shots) if x2 is None]
    assert len(blocked) == 1  # the shot from the left saddle
    traj = calls[blocked[0]]
    assert traj.reason == "time-out"
    side = np.sign(traj.final_state[0] - sigma)
    want = side * fast_layer.GAP_SENTINEL * (1 if blocked[0] == 0 else -1)

    calls.clear()
    assert fast_layer.shoot_heteroclinic(pbar, 0.0,
                                         direction=direction) == want
    # only a departure that crosses is integrated
    assert len(calls) == blocked[0]


def test_no_backward_shot_after_forward_failure(monkeypatch):
    # at s > 0 the left separatrix leaves through x_lo before the section
    pbar = -0.05 - model.equilibrium_x1(-0.05)
    calls = _counting_integrate(monkeypatch)
    assert fast_layer.shoot_heteroclinic(pbar, 0.05) == \
        -fast_layer.GAP_SENTINEL
    assert len(calls) == 1


@pytest.mark.parametrize(("pbar", "s", "direction", "failed", "end"), [
    (-0.004, 0.6, "left-to-right", 0, "x_lo"),
    (-0.12, 0.4, "right-to-left", 0, "x_hi"),
    # the arrival shots run backward into the middle equilibrium
    (-0.1, 1.5, "left-to-right", 1, "time-out"),
    (-0.02, 1.0, "right-to-left", 1, "time-out"),
])
def test_failed_shot_gap_is_its_saddles_side(monkeypatch, pbar, s, direction,
                                             failed, end):
    # oracle: the side of the section where the integrated shot ended,
    # negated for the backward (arrival) shot
    x_l, *_, x_r = model.fast_equilibria_x1(pbar)
    sigma = 0.5 * (x_l + x_r)
    calls = _counting_integrate(monkeypatch)
    gap = fast_layer.shoot_heteroclinic(pbar, s, direction=direction)
    assert len(calls) == failed + 1  # the failed shot is the last one run
    traj = calls[-1]
    if end == "time-out":
        assert traj.reason == "time-out"
    else:
        assert traj.reason == "event"
        exit_x1 = x_l - 0.7 if end == "x_lo" else x_r + 0.7
        assert traj.final_state[0] == pytest.approx(exit_x1, abs=1e-9)
    side = math.copysign(fast_layer.GAP_SENTINEL,
                         traj.final_state[0] - sigma)
    assert gap == (side if failed == 0 else -side)
    # involution: the other direction at the mirrored pbar, same speed
    mirrored = {"left-to-right": "right-to-left",
                "right-to-left": "left-to-right"}[direction]
    assert fast_layer.shoot_heteroclinic(model.PBAR_L + model.PBAR_R - pbar,
                                         s, direction=mirrored) == -gap


def test_find_het_shoots_each_argument_once(monkeypatch):
    args = []
    real = fast_layer.shoot_heteroclinic

    def counted(pbar, s, *rest, **kwargs):
        args.append((pbar, s))
        return real(pbar, s, *rest, **kwargs)

    monkeypatch.setattr(fast_layer, "shoot_heteroclinic", counted)
    conn = homoclinic.upper_connection(-0.05)
    assert abs(conn.section_gap) < homoclinic.GAP_TOL
    assert len(args) == len(set(args))
    assert len(args) <= 10


@pytest.mark.parametrize("offset", [0.0, -1e-8, float("nan"), float("inf")])
def test_shot_rejects_bad_offset(offset):
    with pytest.raises(DomainError, match="offset"):
        fast_layer.shoot_heteroclinic(fast_layer.PBAR_STAR, 0.0,
                                      offset=offset)

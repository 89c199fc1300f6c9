"""Tests for the singular homoclinic skeleton and the splitting locator."""

import numpy as np
import pytest

from fhnwave import fast_layer, homoclinic, model
from fhnwave.model import DomainError


def test_double_het_point_value():
    p_star = homoclinic.P_STAR
    assert abs(p_star - (-0.246016)) < 1e-4


def test_double_het_point_defining_relation():
    p_star = homoclinic.P_STAR
    x1s = model.equilibrium_x1(p_star)
    assert abs(x1s - (p_star - fast_layer.PBAR_STAR)) < 1e-10


def test_upper_connection_speed_regression():
    conn = homoclinic.upper_connection(0.05)
    assert abs(conn.s - 1.5032648263708488) < 1e-6
    assert abs(conn.section_gap) < 1e-8


def test_no_singular_homoclinics_between_folds():
    for p in (model.P_MINUS + 0.01, 0.2, model.P_PLUS - 0.01):
        with pytest.raises(DomainError):
            homoclinic.upper_connection(p)


def test_upper_curve_monotone_speed():
    branch = homoclinic.singular_upper_curve(n=8)
    s_col = branch.column("s")
    assert len(branch) == 8
    assert all(b > a for a, b in zip(s_col, s_col[1:]))


def test_return_height_grows_with_speed():
    ps = (-0.2, -0.1, 0.0, 0.03, 0.05)
    speeds, heights = [], []
    for p in ps:
        conn = homoclinic.upper_connection(p)
        speeds.append(conn.s)
        v = homoclinic.return_height_at(p, conn.s)
        heights.append(v)
        # the fast wave returns between the equilibrium height x1*(p) and
        # the right fold's height c(X_PLUS; p)
        assert 0.0 < v < model.cubic(model.X_PLUS) + p - model.equilibrium_x1(p)
    assert all(b > a for a, b in zip(speeds, speeds[1:]))
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_return_curves_ordered_by_height():
    # a faster down jump returns higher: the speeds are those of the
    # return offsets v = 0.115, 0.12 and 0.125 at this p
    heights = [homoclinic.return_height_at(0.03, s)
               for s in (0.9095, 1.0444, 1.2250)]
    assert heights[0] < heights[1] < heights[2]


@pytest.mark.parametrize("p", [
    model.P_MINUS - 1e-2, model.P_MINUS - 3e-3,
    0.5 * (homoclinic.P_STAR + model.P_MINUS), homoclinic.P_STAR + 1e-2],
    ids=["p_minus-1e-2", "p_minus-3e-3", "mid-band", "p_star+1e-2"])
def test_return_height_along_ac_is_closed_form(p):
    # on AC the down jump runs at the speed of the up jump, whose layer
    # parameter is the equilibrium height's pbar_e; R puts the right-to-left
    # connection at pbar_l + pbar_r - pbar_e, so v = 2 pbar_e - pbar_l -
    # pbar_r.  Bound: the solves' gap tolerance 1e-8 over a gap slope of
    # order 0.1 to 1 in pbar.
    s = homoclinic.upper_connection(p).s
    want = 2.0 * homoclinic.equilibrium_pbar(p) - model.PBAR_L - model.PBAR_R
    assert abs(homoclinic.return_height_at(p, s) - want) <= 1e-7


@pytest.mark.parametrize("dp", [1e-3, 1e-4])
def test_return_height_names_the_band_edge(dp):
    # on the speed of AC just below p_-, the right-to-left connection lies
    # within EDGE_MARGIN of PBAR_L, where the scan cannot bracket it
    p = model.P_MINUS - dp
    s = homoclinic.upper_connection(p).s
    with pytest.raises(DomainError, match="band edge PBAR_L") as info:
        homoclinic.return_height_at(p, s)
    assert f"p={p}" in str(info.value) and f"s={s}" in str(info.value)


def test_escape_side_deterministic():
    sides = {homoclinic.escape_side(0.05, 0.5, 0.01) for _ in range(3)}
    assert sides == {1}
    assert homoclinic.escape_side(0.05, 1.0, 0.01) == -1


@pytest.mark.parametrize("eps, offset, name", [
    (0.0, 1e-8, "eps"), (-0.01, 1e-8, "eps"), (0.01, 0.0, "offset"),
    (0.01, float("inf"), "offset")])
def test_escape_side_rejects_bad_eps_and_offset(eps, offset, name):
    with pytest.raises(DomainError, match=name):
        homoclinic.escape_side(0.05, 0.5, eps, offset=offset)


def test_locate_c_curve_fields():
    pt = homoclinic.locate_c_curve(0.05, 0.01)
    assert 0.1 < pt.s1 < 0.9
    assert 0.9 < pt.s2 < 1.5
    assert 0.0 < pt.s1 < pt.s2
    assert pt.bracket_width <= 1e-12


def test_locate_c_curve_shot_count(monkeypatch):
    # 24 scan shots, then 36 bisection shots for each of the two flips,
    # every one at a new speed
    speeds = []
    real = homoclinic.escape_side

    def counted(p, s, eps, offset=1e-8):
        speeds.append(s)
        return real(p, s, eps, offset=offset)

    monkeypatch.setattr(homoclinic, "escape_side", counted)
    homoclinic.locate_c_curve(0.05, 0.01)
    assert len(speeds) == 96
    assert len(set(speeds)) == 96


def test_locate_c_curve_reports_flip_count():
    with pytest.raises(DomainError, match="found"):
        homoclinic.locate_c_curve(-0.15, 0.01)


@pytest.mark.parametrize("s_scan", [
    (1.55, 0.05), (0.5, 0.5), (0.0, 1.55), (-0.05, 1.55), (0.05, np.inf),
    (np.nan, 1.55), (0.05, np.nan)])
def test_locate_c_curve_rejects_bad_s_scan(s_scan, monkeypatch):
    # a reversed window once bisected nothing and merged two flips into
    # one bundle ("found 1"); every bad window fails before any shot
    def no_shot(*args, **kwargs):
        raise AssertionError("escape_side called")

    monkeypatch.setattr(homoclinic, "escape_side", no_shot)
    with pytest.raises(DomainError, match="s_scan"):
        homoclinic.locate_c_curve(0.05, 0.01, s_scan=s_scan)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12])
def test_locate_c_curve_rejects_bad_bracket_tol(tol):
    # a NaN width would skip the bisection and report scan-cell midpoints
    with pytest.raises(DomainError, match="bracket_tol"):
        homoclinic.locate_c_curve(0.05, 0.01, bracket_tol=tol)


def test_trace_c_curve_records_failures_and_continues():
    branch = homoclinic.trace_c_curve(0.01, [-0.15, 0.05],
                                      bracket_tol=1e-10)
    assert len(branch) == 1
    assert len(branch.meta["failures"]) == 1
    assert branch.meta["failures"][0][0] == -0.15


def test_trace_c_curve_is_a_map_of_locate_c_curve():
    # grid points 9 and 10 of criterion 14: at p = 0.05 the escape side
    # flips three times between s = 0.32 and 0.34, so a scan window carried
    # over from the previous p can pick another flip than a solve alone
    grid = [float(p) for p in np.linspace(0.015, 0.05, 10)[8:]]
    branch = homoclinic.trace_c_curve(1e-3, grid)
    assert not branch.meta["failures"]
    for row, p in zip(branch.points, grid):
        alone = homoclinic.locate_c_curve(p, 1e-3)
        assert row[0] == p
        assert abs(row[1] - alone.s1) <= 1e-9, (p, row[1], alone.s1)
        assert abs(row[2] - alone.s2) <= 1e-9, (p, row[2], alone.s2)
    assert branch.columns == homoclinic.C_CURVE_COLUMNS


def test_singular_diagram_structure():
    diagram = homoclinic.assemble_singular_diagram(n_curve=8)
    assert diagram.B[0] == diagram.C[0]  # B and C share the abscissa p_-
    assert diagram.A[1] == 0.0 and diagram.B[1] == 0.0
    assert diagram.C[1] > 1.5
    assert diagram.segment_ab[0] == diagram.A
    assert abs(diagram.curve_ac[0][0] - diagram.A[0]) < 1e-12
    assert diagram.curve_ac[-1] == diagram.C
    # JSON round trip
    import json
    doc = json.loads(json.dumps(diagram.to_dict()))
    assert doc["A"][0] == diagram.A[0]


def test_diagram_symmetry_mirror():
    diagram = homoclinic.assemble_singular_diagram(n_curve=6)
    p_minus, p_plus = model.P_MINUS, model.P_PLUS
    _, mirrored = model.symmetry_transform(np.zeros(3), diagram.B[0])
    assert abs(mirrored - p_plus) < 1e-12
    asym = diagram.hopf_asymptotes
    _, mirrored_asym = model.symmetry_transform(np.zeros(3), asym["p_minus"])
    assert abs(mirrored_asym - asym["p_plus"]) < 1e-12

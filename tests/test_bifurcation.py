"""Tests for the Hopf curve, Lyapunov coefficient, and GH tracking."""

import math

import numpy as np
import pytest

from fhnwave import bifurcation, model
from fhnwave.model import DomainError, ModelParams


def test_hopf_interval_formula():
    lo, hi = bifurcation.hopf_interval(0.01)
    assert abs(lo - (11.0 - math.sqrt(91.0 - 300.0 * 0.01)) / 30.0) < 1e-14
    assert abs(hi - (11.0 + math.sqrt(91.0 - 300.0 * 0.01)) / 30.0) < 1e-14
    # shrinks toward the fold abscissas as eps -> 0
    lo0, hi0 = bifurcation.hopf_interval(0.0)
    assert abs(lo0 - model.X_MINUS) < 1e-14
    assert abs(hi0 - model.X_PLUS) < 1e-14


def test_hopf_point_has_imaginary_pair():
    lo, hi = bifurcation.hopf_interval(0.01)
    pt = bifurcation.hopf_point(0.5 * (lo + hi), 0.01)
    q = np.array([pt.x1_star, 0.0, pt.x1_star])
    ev = np.linalg.eigvals(model.full_jacobian(
        q, ModelParams(pt.p, pt.s, 0.01)))
    pair = sorted(ev, key=lambda w: abs(w.real))[:2]
    assert all(abs(w.real) < 1e-10 for w in pair)
    assert abs(abs(pair[0].imag) - pt.omega) < 1e-9


def test_hopf_point_residual_small():
    lo, hi = bifurcation.hopf_interval(0.01)
    for x1 in np.linspace(lo + 1e-4, hi - 1e-4, 7):
        pt = bifurcation.hopf_point(float(x1), 0.01)
        c0, c1, c2 = bifurcation.char_poly_coeffs(pt.x1_star, pt.s, 0.01)
        assert abs(c0 - c1 * c2) < 1e-10


def test_hopf_curve_columns_and_count():
    branch = bifurcation.hopf_curve(0.01, n=40)
    assert len(branch) == 40
    assert set(("p", "s")).issubset(branch.columns)
    s_col = branch.column("s")
    assert min(s_col) > 0.0


def test_hopf_asymptote_values():
    asym = bifurcation.hopf_asymptotes()
    assert abs(asym["p_minus"] - 0.0510636) < 1e-5
    assert abs(asym["p_plus"] - 0.558418) < 1e-5


def test_criticality_pattern_at_eps_001():
    lo, hi = bifurcation.hopf_interval(0.01)
    xs = np.linspace(lo + 5e-4, hi - 5e-4, 41)
    crits = [bifurcation.hopf_point(float(x), 0.01).criticality for x in xs]
    runs = [c for i, c in enumerate(crits) if i == 0 or c != crits[i - 1]]
    assert runs[0] == "super"
    assert "sub" in runs
    # super -> sub -> super -> ... alternation, no isolated glitches
    assert 3 <= len(runs) <= 5


def test_gh_locate_two_points_left_half():
    pts = bifurcation.gh_locate(0.01)
    assert len(pts) == 2
    for pt in pts:
        assert abs(pt.l1) < 1e-6
        assert pt.criticality == "degenerate"
    assert pts[0].x1_star != pts[1].x1_star


def test_gh_locate_evaluates_each_point_once(monkeypatch):
    # 160 scan points, then per GH point the brentq steps inside its cell
    # and the point at the root; the cell ends are not evaluated again
    args = []
    real = bifurcation.hopf_point

    def counted(x1_star, eps):
        args.append(x1_star)
        return real(x1_star, eps)

    monkeypatch.setattr(bifurcation, "hopf_point", counted)
    assert len(bifurcation.gh_locate(0.01)) == 2
    assert len(args) <= 172
    assert not set(args[:160]) & set(args[160:])


def test_gh_rejects_x1_outside_interval():
    lo, _ = bifurcation.hopf_interval(0.01)
    with pytest.raises(DomainError):
        bifurcation.hopf_point(lo - 1e-3, 0.01)


def test_extrapolate_to_zero_geometric_sequence():
    # x_k = L + c r^k is reproduced exactly by Aitken's delta-squared
    L, c, r = 0.37, 2.0, 0.2
    seq = [L + c * r ** k for k in range(4)]
    assert abs(bifurcation.extrapolate_to_zero(seq) - L) < 1e-12


def test_lyapunov_l1_sign_matches_orbit_growth():
    # supercritical point: l1 < 0 in the middle of the left half
    lo, hi = bifurcation.hopf_interval(0.01)
    mid_left = lo + 0.25 * (hi - lo)
    pt = bifurcation.hopf_point(mid_left, 0.01)
    assert np.isfinite(pt.l1)
    assert pt.criticality in ("super", "sub")
    assert pt.l1 < 0.0

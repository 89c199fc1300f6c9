"""Tests for the scan-and-refine helper shared by every root solve."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fhnwave import roots
from fhnwave.model import DomainError


def _recorded(f):
    """f plus the list of arguments it was called with."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def _bisect(side, lo, hi, xtol):
    """Plain bisection of a -1/+1 classifier, written out as a reference."""
    side_lo = side(lo)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if side(mid) == side_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_scan_returns_sign_change_cells_and_skips_nan():
    values = [1.0, -1.0, math.nan, -2.0, 3.0, 0.0, 4.0, 5.0]
    f, calls = _recorded(lambda x: values[int(x)])
    cells = roots.scan(f, np.arange(8.0))
    assert cells == [(0.0, 1.0, 1.0, -1.0), (3.0, 4.0, -2.0, 3.0),
                     (4.0, 5.0, 3.0, 0.0), (5.0, 6.0, 0.0, 4.0)]
    assert calls == [float(x) for x in range(8)]


@pytest.mark.parametrize("xtol", [1e-12, 0.0])
@pytest.mark.parametrize("rising", [True, False])
def test_refine_bisects_a_classifier_like_the_reference(xtol, rising):
    root = 0.123456789012345
    side = (lambda x: -1 if x < root else 1) if rising else \
        (lambda x: 1 if x < root else -1)
    lo, hi = 0.05, 1.55
    f, calls = _recorded(side)
    cell = roots.refine(f, lo, hi, side(lo), side(hi), xtol=xtol)
    expected = _bisect(side, lo, hi, xtol)
    assert cell == expected + (side(lo), side(hi))
    assert lo not in calls and hi not in calls
    if xtol == 0.0:  # the float-limit stop: no float between the ends
        assert np.nextafter(cell[0], cell[1]) == cell[1]
    else:
        assert 0.0 < cell[1] - cell[0] <= xtol


@pytest.mark.parametrize("tols", [(1e-14, 1e-15), (1e-12, None)])
def test_refine_matches_brentq_without_reevaluating_ends(tols):
    xtol, rtol = tols
    g = lambda x: math.cos(3.0 * x) - x
    kwargs = {"xtol": xtol} if rtol is None else {"xtol": xtol, "rtol": rtol}
    expected = brentq(g, 0.0, 1.0, **kwargs)
    f, calls = _recorded(g)
    cell = roots.refine(f, 0.0, 1.0, g(0.0), g(1.0), **kwargs)
    assert cell == (expected, expected, g(expected), g(expected))
    assert 0.0 not in calls and 1.0 not in calls
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("zero_end", ["lo", "hi"])
def test_refine_returns_a_zero_end_without_calls(zero_end):
    lo, hi = 0.25, 0.75
    f_lo, f_hi = (0.0, 2.0) if zero_end == "lo" else (-2.0, 0.0)
    f, calls = _recorded(lambda x: x - 0.5)
    cell = roots.refine(f, lo, hi, f_lo, f_hi, xtol=1e-12)
    end = lo if zero_end == "lo" else hi
    assert cell == (end, end, 0.0, 0.0)
    assert calls == []


@pytest.mark.parametrize("ends", [(1.0, 2.0), (-1, -1), (-3.0, math.nan)])
def test_refine_rejects_ends_without_sign_change(ends):
    f, calls = _recorded(lambda x: x)
    with pytest.raises(DomainError, match="no sign change"):
        roots.refine(f, 0.0, 1.0, *ends, xtol=1e-12)
    assert calls == []


@pytest.mark.parametrize("ends", [(-3.0, math.inf), (-math.inf, 2.0)])
def test_refine_rejects_infinite_ends(ends):
    # brentq on an infinite end value fails to converge with a RuntimeError
    f, calls = _recorded(lambda x: x)
    with pytest.raises(DomainError, match="infinite end value"):
        roots.refine(f, 0.0, 1.0, *ends, xtol=1e-12)
    assert calls == []

"""Tests for the scan-and-refine helper and Brent's method shared by every
root solve; ``scipy.optimize.brentq`` is the oracle of ``roots.brentq``."""

import math
import random

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


#: Seeded families for the brentq oracle: smooth, steep, flat-ended and
#: step-like functions of x with a root at r (k a steepness).
FAMILIES = {
    "cubic": lambda r, k: lambda x: (x - r) ** 3,
    "tanh": lambda r, k: lambda x: math.tanh(k * (x - r)),
    "exp": lambda r, k: lambda x: math.expm1(k * (x - r) / 100.0),
    "cbrt": lambda r, k: lambda x: math.copysign(abs(x - r) ** (1 / 3), x - r),
    "cos": lambda r, k: lambda x: math.cos(k * x) - x / 3.0,
    "atan": lambda r, k: lambda x: math.atan(k * (x - r)) + 0.01 * (x - r) ** 5,
    "step": lambda r, k: lambda x: -1e-200 if x < r else 1e-200,
}


def _outcome(solver, f, a, b, **kwargs):
    """The root or the exception (type and message), and the evaluated x."""
    g, calls = _recorded(f)
    try:
        result = solver(g, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    return result, calls


def _both(monkeypatch, f, a, b, maxiter=roots.MAXITER, **kwargs):
    """scipy's and the port's outcomes, with ``roots.MAXITER`` set to the
    ``maxiter`` scipy is given."""
    monkeypatch.setattr(roots, "MAXITER", maxiter)
    return (_outcome(brentq, f, a, b, maxiter=maxiter, **kwargs),
            _outcome(roots.brentq, f, a, b, **kwargs))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_brentq_evaluates_and_returns_as_scipy(family, monkeypatch):
    # 50 seeded brackets per family, 350 in all; a small maxiter ends some
    # solves in RuntimeError, a steep or flat function ends others before
    rng = random.Random(family)
    for _ in range(50):
        r, k = rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 4.0)
        f = FAMILIES[family](r, k)
        a = r - 10.0 ** rng.uniform(-6.0, 1.0)
        b = r + 10.0 ** rng.uniform(-6.0, 1.0)
        if rng.random() < 0.5:
            a, b = b, a
        kwargs = {"xtol": 10.0 ** rng.uniform(-16.0, -2.0),
                  "rtol": roots.RTOL_MIN * 10.0 ** rng.choice([0.0, 3.0, 8.0]),
                  "maxiter": rng.choice([100, 100, 20, 5])}
        expected, got = _both(monkeypatch, f, a, b, **kwargs)
        assert got == expected, (family, a, b, kwargs)
        assert type(got[0]) is not float or all(
            type(x) is float for x in got[1])


NAN_INSIDE = lambda x: math.nan if x > 0.0 else x - 0.5


@pytest.mark.parametrize("f, a, b, kwargs", [
    (NAN_INSIDE, -1.0, 1.0, {"xtol": 1e-12}),  # NaN at the end b
    (NAN_INSIDE, -1.0, 0.25, {"xtol": 1e-12}),  # NaN at an inner point
    (lambda x: x * x + 1.0, -1.0, 2.0, {"xtol": 1e-12}),  # same signs
    (lambda x: 1e-200, 0.0, 1.0, {"xtol": 1e-12}),  # same signs, tiny
    (lambda x: x ** 3 - 0.3, -1.0, 2.0, {"xtol": 1e-12, "maxiter": 3}),
    (lambda x: x ** 3 - 0.3, -1.0, 2.0, {"xtol": 1e-12, "maxiter": 0}),
    (lambda x: x - 0.3, -1.0, 2.0, {"xtol": 0.0}),
    (lambda x: x - 0.3, -1.0, 2.0, {"xtol": -1e-3}),
    (lambda x: x - 0.3, -1.0, 2.0, {"xtol": 1e-12, "rtol": 1e-16}),
], ids=["nan-end", "nan-inside", "same-sign", "same-sign-tiny",
        "maxiter", "maxiter-0", "xtol-0", "xtol-negative", "rtol-small"])
def test_brentq_raises_as_scipy(f, a, b, kwargs, monkeypatch):
    expected, got = _both(monkeypatch, f, a, b, **kwargs)
    assert isinstance(expected[0], tuple)  # scipy raised
    assert got == expected

"""Scan, refine and Brent's method: every located root goes through here.

A cell is (lo, hi, f_lo, f_hi): ``scan`` returns the sign-change cells of
a grid and ``refine`` shrinks one without evaluating its ends again.
``brentq`` is the package's one root solver for a continuous function on
a bracket: a line-for-line port of scipy's ``brentq.c`` (Brent, *Algorithms
for Minimization without Derivatives*, ch. 4) on Python floats, which
evaluates the same points and returns the same root as
``scipy.optimize.brentq`` (its test oracle), raises as it does, and keeps
scipy off the package's import path.

This module imports nothing from the package, so every other module can
import it; ``DomainError`` is defined here for that reason and re-exported
by ``model``.
"""

import math
import sys

#: brentq's default and smallest relative tolerance, scipy's ``_rtol``.
RTOL_MIN = 4.0 * sys.float_info.epsilon
#: Brent iterations before brentq gives up, scipy's default ``maxiter``.
MAXITER = 100


class DomainError(ValueError):
    """Input outside the admissible domain of an operation."""


def scan(f, grid) -> list[tuple[float, float, float, float]]:
    """Cells of consecutive grid points with f_lo * f_hi <= 0 (so neither
    value is NaN), in grid order; f is called once per point."""
    xs = [float(x) for x in grid]
    fs = [f(x) for x in xs]
    return [cell for cell in zip(xs, xs[1:], fs, fs[1:])
            if cell[2] * cell[3] <= 0.0]


def refine(f, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float,
           rtol: float = RTOL_MIN):
    """Shrink the cell (lo, hi, f_lo, f_hi); f is never called at its ends,
    whose values must be finite and of opposite signs (or zero).

    -1/+1 ends are a classifier's sides: bisect until the cell is at most
    ``xtol`` wide or no float lies between its ends, and return that cell.
    Other values go to Brent's method (``rtol`` defaults to brentq's own),
    whose root r is returned as (r, r, f(r), f(r)); an end whose value is 0
    is r.
    """
    if not f_lo * f_hi <= 0.0:  # also rejects NaN
        raise DomainError(f"no sign change on [{lo}, {hi}]: {f_lo}, {f_hi}")
    if math.isinf(f_lo) or math.isinf(f_hi):  # brentq cannot converge
        raise DomainError(f"infinite end value on [{lo}, {hi}]: {f_lo}, {f_hi}")
    if (f_lo, f_hi) in ((-1, 1), (1, -1)):
        mid = 0.5 * (lo + hi)
        while hi - lo > xtol and lo < mid < hi:  # stop at the float limit
            lo, hi = (mid, hi) if f(mid) == f_lo else (lo, mid)
            mid = 0.5 * (lo + hi)
        return lo, hi, f_lo, f_hi
    _check_tols(xtol, rtol)
    root, f_root = _brent(f, float(lo), float(hi), float(f_lo), float(f_hi),
                          xtol, rtol)
    return root, root, f_root, f_root


def brentq(f, a: float, b: float, xtol: float,
           rtol: float = RTOL_MIN) -> float:
    """A root of f on [a, b], where f(a) and f(b) differ in sign, as
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)`` returns it:
    the same points are evaluated in the same order and the root is the
    same float.

    Raises ``ValueError`` for xtol <= 0, rtol < ``RTOL_MIN``, f(a) and
    f(b) of the same sign, or a NaN value of f (checked at every point, the
    ends first), and ``RuntimeError`` once ``MAXITER`` iterations have not
    converged.
    """
    _check_tols(xtol, rtol)
    a, b = float(a), float(b)
    return _brent(f, a, b, _value(f, a), _value(f, b), xtol, rtol)[0]


def _check_tols(xtol, rtol) -> None:
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")


def _value(f, x: float) -> float:
    """f(x) as a float, as scipy's callback reads it; NaN raises."""
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _brent(f, xpre, xcur, fpre, fcur, xtol, rtol):
    """scipy's ``brentq.c`` from the end values on: (root, f(root)).

    xcur is the best estimate so far, xblk the other end of the bracket
    and xpre the previous estimate; scur is the last step and spre the one
    before it.  The tolerance is 2 delta.
    """
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):  # signbit: neither is 0 or NaN
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C's quotient is then inf or NaN, which bisects below
                stry = math.nan
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:  # C's MIN, which returns b on a NaN
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {MAXITER} iterations.")

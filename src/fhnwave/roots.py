"""Scan and refine: the one bracket decision behind every located root.

A cell is (lo, hi, f_lo, f_hi): ``scan`` returns the sign-change cells of
a grid and ``refine`` shrinks one without evaluating its ends again."""

import math
import sys

from scipy.optimize import brentq

from .model import DomainError


def scan(f, grid) -> list[tuple[float, float, float, float]]:
    """Cells of consecutive grid points with f_lo * f_hi <= 0 (so neither
    value is NaN), in grid order; f is called once per point."""
    xs = [float(x) for x in grid]
    fs = [f(x) for x in xs]
    return [cell for cell in zip(xs, xs[1:], fs, fs[1:])
            if cell[2] * cell[3] <= 0.0]


def refine(f, lo: float, hi: float, f_lo: float, f_hi: float, xtol: float,
           rtol: float = 4.0 * sys.float_info.epsilon):
    """Shrink the cell (lo, hi, f_lo, f_hi); f is never called at its ends,
    whose values must be finite and of opposite signs (or zero).

    -1/+1 ends are a classifier's sides: bisect until the cell is at most
    ``xtol`` wide or no float lies between its ends, and return that cell.
    Other values go to brentq (``rtol`` defaults to brentq's own), whose
    root r is returned as (r, r, f(r), f(r)); an end whose value is 0 is r.
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
    memo = {lo: f_lo, hi: f_hi}  # brentq evaluates both ends again
    cached = lambda x: memo[x] if x in memo else memo.setdefault(x, f(x))
    root = brentq(cached, lo, hi, xtol=xtol, rtol=rtol)
    return root, root, memo[root], memo[root]

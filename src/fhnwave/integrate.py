"""Adaptive integration to a level of x1, on a DOP853 stepper over floats.

Shared numerical engine for the shooting and manifold-tracking modules.
A run covers ``t_span``, which is its horizon, and stops early where x1,
the first state component, first reaches one of the given levels: a shot
asks where x1 crosses a section or an exit abscissa, and nothing else.

The stepper is the 8(5,3) Dormand-Prince pair DOP853 of Hairer, Norsett &
Wanner (*Solving Ordinary Differential Equations I*, II.10), written out
stage by stage on Python floats, as ``dop853.f`` does.  It follows
``scipy.integrate.DOP853`` in everything but summation order: its tableau
(``dop853_coefficients``, restated below as float literals and checked
against scipy's arrays by the tests), initial-step rule, error norm (the
E5/E3 pair) and step-size controller.  Its state lives in lists of floats.
A crossing is located by ``roots.brentq``, so the module imports no
scipy.  The field protocol: the field gets each stage state as a fresh
float ndarray and returns either a list of Python floats, taken as is, or
an ndarray, read back with ``tolist()``.  The package's fields (the
kernels of ``model`` and ``slow_reduced``) return lists, so the per-step
cost is the field's and a few float operations per stage, not numpy's
per-call overhead on 2- and 3-vectors.

The dense output of an accepted step is built only where it is read: on
every step of a run without levels, and on the step where x1 crosses a
level.  It costs 3 field evaluations on top of an accepted step's 12 and
does not steer the stepper, so a run takes the same steps either way.  A
rejected attempt costs 11: the error estimate does not weigh the field at
the step's end.  A crossing is localized on the dense output of the step it
falls in, so its time does not depend on where step endpoints happen to
fall.  Identical inputs give identical trajectories on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import roots


class IntegrationError(RuntimeError):
    pass


#: Time tolerance to which event crossings are localized.
EVENT_TOL = 1e-12

#: Factor from the requested tolerances to the ones handed to the stepper.
#: Handed rel_tol = 1e-10 as is, DOP853 puts the unit oscillator's event at
#: pi/3 1.1e-10 off, more than the requested tolerance; a tenth puts it
#: 9e-12 off.
TOL_SCALE = 0.1

#: Below this rtol the error control asks for less than the roundoff of a
#: step can deliver; scipy's DOP853 and Hairer's code lift it to this value.
_STEPPER_RTOL_MIN = 100 * np.finfo(float).eps


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    escape_radius: float = 10.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "escape_radius"):
            if not getattr(self, name) > 0.0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        if self.rel_tol * TOL_SCALE < _STEPPER_RTOL_MIN:
            raise ValueError(
                f"rel_tol below {_STEPPER_RTOL_MIN / TOL_SCALE:.3g} "
                "is not attainable")
        if not self.abs_tol * TOL_SCALE > 0.0:  # the error scale divides
            raise ValueError("abs_tol underflows")


@dataclass
class EventRecord:
    """Where x1 first reached ``levels[index]``."""

    index: int
    t: float
    state: np.ndarray


@dataclass
class Trajectory:
    """Step-endpoint solution with its level crossing and dense output.

    ``t`` is monotone in the integration direction: it decreases for a
    backward run.  ``reason`` is one of {"time-out", "event", "escape",
    "step-failure"}; "time-out" means the run reached the end of its span.
    ``event`` is the level crossing that ended the run, the last entry of
    ``t`` and ``states``, or ``None``.  ``segments`` holds one entry per
    accepted step, in integration order: the step's dense output (called
    with a time, it returns the state there), or ``None`` where none was
    built (every step of a run with levels but the one its crossing falls
    in).  ``nfev`` is the count of field evaluations, dense-output stages
    included, and ``rejected`` the count of step attempts the error control
    rejected.  A run that started inside the escape radius has
    nfev = 2 + 12 accepted + 11 rejected + 3 per dense output built.
    """

    t: np.ndarray
    states: np.ndarray
    event: EventRecord | None
    reason: str
    segments: list = field(default_factory=list, repr=False)
    nfev: int = 0
    rejected: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    def sample(self, times) -> np.ndarray:
        """Evaluate the dense output at given times (within the span).

        Raises ``ValueError`` for a run that took no step (one that started
        outside the escape radius) and for a time in a step whose dense
        output was not built.
        """
        if not self.segments:
            raise ValueError(f"the run took no step ({self.reason} at "
                             f"t = {self.t[0]}): no dense output to sample")
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t_lo, t_hi = sorted((self.t[0], self.t[-1]))
        pad = 1e-12 * max(1.0, abs(t_lo), abs(t_hi))
        if np.any(times < t_lo - pad) or np.any(times > t_hi + pad):
            raise ValueError(f"sample times outside [{t_lo}, {t_hi}]")
        out = np.empty((times.size, self.states.shape[1]))
        starts = self.t[:-1]
        forward = self.t[-1] >= self.t[0]
        for i, tv in enumerate(times):
            if forward:
                j = np.searchsorted(starts, tv, side="right") - 1
            else:
                j = np.searchsorted(-starts, -tv, side="right") - 1
            j = min(max(j, 0), len(self.segments) - 1)
            seg = self.segments[j]
            if seg is None:
                raise ValueError(
                    f"no dense output was built for the step from "
                    f"t = {starts[j]}, which holds t = {tv}")
            out[i] = seg(tv)
        return out


def integrate(field, y0, t_span, opts: IntegratorOptions | None = None,
              levels=()) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` (backward if reversed).

    ``field`` gets the state as a float ndarray and returns its
    derivative, as many components as the state has: a list of Python
    floats (taken as is) or an ndarray (read with ``tolist()``).  The run
    stops where x1 = y[0] first reaches one of ``levels`` ("event"): a
    sign change of y[0] - c is localized on the step's dense output to
    ``EVENT_TOL`` in time, and the earliest crossing wins.  With levels,
    only the step a crossing falls in builds its dense output.  A run also
    stops on ||y|| > escape_radius ("escape", checked at the initial state
    too, before any field evaluation), at the end of ``t_span``
    ("time-out"), or on step-size underflow ("step-failure"), which is
    where a field that turns non-finite ends.
    """
    if opts is None:
        opts = IntegratorOptions()
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError(f"non-finite t_span ({t0}, {tf})")
    if t0 == tf:
        raise ValueError("degenerate t_span")
    direction = 1.0 if tf > t0 else -1.0

    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ValueError(f"y0 must be a non-empty vector, got shape {y.shape}")
    y = y.tolist()
    if not all(map(math.isfinite, y)):
        raise IntegrationError("non-finite initial state")
    if math.hypot(*y) > opts.escape_radius:
        return Trajectory(t=np.array([t0]), states=np.array([y]), event=None,
                          reason="escape")

    def fun(t, v):
        out = field(t, np.array(v))
        return out if type(out) is list else out.tolist()

    f0 = fun(t0, y)
    if len(f0) != len(y):
        raise ValueError(f"field returned {len(f0)} components for a state "
                         f"of {len(y)}")
    if not all(map(math.isfinite, f0)):
        # a non-finite first stage would only ever be rejected
        raise IntegrationError("non-finite field at the initial state")
    stepper = _Dop853(fun, t0, y, f0, tf, rtol=opts.rel_tol * TOL_SCALE,
                      atol=opts.abs_tol * TOL_SCALE)

    ts = [t0]
    ys = [y]
    segments = []
    event = None

    reason = None
    while reason is None:
        if not stepper.step():
            reason = "step-failure"
            break
        t_old, t, y = stepper.t_old, stepper.t, stepper.y
        x_old = stepper.y_old[0]
        seg = None if levels else stepper.dense_output()

        for idx, c in enumerate(levels):
            g_old, g_new = x_old - c, y[0] - c
            if g_old != 0.0 and g_old * g_new <= 0.0 and g_new != g_old:
                if seg is None:  # before the next step replaces the stages
                    seg = stepper.dense_output()
                t_ev = roots.brentq(lambda tv: seg.at(tv)[0] - c,
                                    t_old, t, xtol=EVENT_TOL)
                if event is None or direction * t_ev < direction * event.t:
                    event = EventRecord(index=idx, t=t_ev, state=seg(t_ev))
        segments.append(seg)

        if event is not None:
            ts.append(event.t)
            ys.append(event.state)
            reason = "event"
            break

        ts.append(t)
        ys.append(y)
        if math.hypot(*y) > opts.escape_radius:
            reason = "escape"
        elif direction * (t - tf) >= 0.0:
            reason = "time-out"

    return Trajectory(
        t=np.array(ts), states=np.array(ys), event=event,
        reason=reason, segments=segments, nfev=stepper.nfev,
        rejected=stepper.rejected,
    )


# Step-size controller, as in scipy.integrate.DOP853.
SAFETY = 0.9
MIN_FACTOR = 0.2  # largest decrease of a step
MAX_FACTOR = 10.0  # largest increase of a step
ERROR_EXPONENT = -1.0 / 8.0  # -1/(order of the error estimator + 1)


class _Dop853:
    """DOP853 stepping over lists of floats, after ``scipy.integrate.DOP853``.

    ``fun(t, v)`` takes and returns lists.  ``step()`` advances one
    accepted step; afterwards ``t_old, y_old`` and ``t, y`` are its ends and
    ``dense_output()`` interpolates it.  ``nfev`` counts field
    evaluations and ``rejected`` the attempts the error control rejected.
    """

    def __init__(self, fun, t0, y0, f0, t_bound, rtol, atol):
        self.fun = fun
        self.t_bound = t_bound
        self.direction = 1.0 if t_bound > t0 else -1.0
        self.rtol, self.atol = rtol, atol
        self.t, self.y, self.f = t0, y0, f0
        self.t_old = self.y_old = self.h = self.stages = None
        self.h_abs = self._initial_step()
        self.nfev = 2  # f0 and the initial-step probe
        self.rejected = 0

    def _initial_step(self) -> float:
        """scipy's ``select_initial_step`` (Hairer II.4), guarded so that
        an overflowing field gives a zero step (then the minimum step)
        rather than an exception or NaN."""
        t0, y0, f0, direction = self.t, self.y, self.f, self.direction
        interval = abs(self.t_bound - t0)
        rtol, atol = self.rtol, self.atol
        scale = [atol + abs(v) * rtol for v in y0]
        root_n = len(y0) ** 0.5
        d0 = _norm([v / s for v, s in zip(y0, scale)]) / root_n
        d1 = _norm([v / s for v, s in zip(f0, scale)]) / root_n
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1  # 0 when d1 overflows to inf
        h0 = min(h0, interval)
        step = h0 * direction
        y1 = [v + step * f for v, f in zip(y0, f0)]
        f1 = self.fun(t0 + step, y1)
        d2 = (_norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / root_n
              / h0 if h0 > 0.0 else math.inf)
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            d = max(d1, d2)  # d1 first: a NaN d2 loses, as in scipy
            h1 = (0.01 / d) ** (1.0 / 8.0) if d > 0.0 else math.inf
        return min(100 * h0, h1, interval)

    def step(self) -> bool:
        """One accepted step, or False once the step size underflows.

        A NaN or infinite error norm is a rejection by the factor
        MIN_FACTOR (``max`` keeps its first argument against NaN), so a
        field that turns non-finite ends here, each rejection shrinking the
        step 5-fold, instead of looping with a NaN step.
        """
        t, y, direction = self.t, self.y, self.direction
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, stages = _rk_step(self.fun, t, y, self.f, h)
            self.nfev += 11
            error = _error_norm(h, y, y_new, stages, self.rtol, self.atol)
            if error < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error ** ERROR_EXPONENT)
            rejected = True
            self.rejected += 1

        if error == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT)
        if rejected:
            factor = min(1.0, factor)
        self.h_abs = h_abs * factor
        k13 = self.fun(t + h, y_new)
        self.nfev += 1
        self.t_old, self.y_old, self.h = t, y, h
        self.t, self.y, self.f = t_new, y_new, k13
        self.stages = (*stages, k13)
        return True

    def dense_output(self) -> _DenseStep:
        """The 7th-order interpolant of the last accepted step.

        Three more stages, k14 to k16, and the coefficients F0..F6 of
        scipy's ``Dop853DenseOutput``: F0 = dy, F1 = h f_old - dy,
        F2 = 2 dy - h (f_new + f_old) and F3..F6 = h (D k).
        """
        fun, t, h, y = self.fun, self.t_old, self.h, self.y_old
        k1, k6, k7, k8, k9, k10, k11, k12, k13 = self.stages
        k14 = fun(t + C14 * h, [
            v + (A14_1 * q1 + A14_7 * q7 + A14_8 * q8 + A14_9 * q9
                 + A14_10 * q10 + A14_11 * q11 + A14_12 * q12
                 + A14_13 * q13) * h
            for v, q1, q7, q8, q9, q10, q11, q12, q13
            in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
        k15 = fun(t + C15 * h, [
            v + (A15_1 * q1 + A15_6 * q6 + A15_7 * q7 + A15_8 * q8
                 + A15_11 * q11 + A15_12 * q12 + A15_13 * q13
                 + A15_14 * q14) * h
            for v, q1, q6, q7, q8, q11, q12, q13, q14
            in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
        k16 = fun(t + C16 * h, [
            v + (A16_1 * q1 + A16_6 * q6 + A16_7 * q7 + A16_8 * q8
                 + A16_9 * q9 + A16_13 * q13 + A16_14 * q14
                 + A16_15 * q15) * h
            for v, q1, q6, q7, q8, q9, q13, q14, q15
            in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
        self.nfev += 3
        rows = []
        for v, w, q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15, q16 in zip(
                y, self.y, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15,
                k16):
            dy = w - v
            rows.append((
                v, dy, h * q1 - dy, 2 * dy - h * (q13 + q1),
                h * (D4_1 * q1 + D4_6 * q6 + D4_7 * q7 + D4_8 * q8
                     + D4_9 * q9 + D4_10 * q10 + D4_11 * q11 + D4_12 * q12
                     + D4_13 * q13 + D4_14 * q14 + D4_15 * q15
                     + D4_16 * q16),
                h * (D5_1 * q1 + D5_6 * q6 + D5_7 * q7 + D5_8 * q8
                     + D5_9 * q9 + D5_10 * q10 + D5_11 * q11 + D5_12 * q12
                     + D5_13 * q13 + D5_14 * q14 + D5_15 * q15
                     + D5_16 * q16),
                h * (D6_1 * q1 + D6_6 * q6 + D6_7 * q7 + D6_8 * q8
                     + D6_9 * q9 + D6_10 * q10 + D6_11 * q11 + D6_12 * q12
                     + D6_13 * q13 + D6_14 * q14 + D6_15 * q15
                     + D6_16 * q16),
                h * (D7_1 * q1 + D7_6 * q6 + D7_7 * q7 + D7_8 * q8
                     + D7_9 * q9 + D7_10 * q10 + D7_11 * q11 + D7_12 * q12
                     + D7_13 * q13 + D7_14 * q14 + D7_15 * q15
                     + D7_16 * q16)))
        return _DenseStep(t, self.t - t, rows)


class _DenseStep:
    """DOP853's dense output over one step, from ``t_old`` over ``h``.

    ``at(t)`` gives the state at a scalar time as a list and calling the
    object gives it as an ndarray.  Per component the polynomial is
    scipy's: with x = (t - t_old)/h, the F's alternately times x and
    1 - x, from F6 down, plus the step's initial state.
    """

    __slots__ = ("t_old", "h", "rows")

    def __init__(self, t_old, h, rows):
        self.t_old, self.h, self.rows = t_old, h, rows

    def at(self, t) -> list:
        x = (t - self.t_old) / self.h
        r = 1 - x
        return [((((((f6 * x + f5) * r + f4) * x + f3) * r + f2) * x
                  + f1) * r + f0) * x + v
                for v, f0, f1, f2, f3, f4, f5, f6 in self.rows]

    def __call__(self, t) -> np.ndarray:
        return np.array(self.at(t))


def _norm(v) -> float:
    """Euclidean norm with squares as products: a float ``**`` raises on
    overflow, where a product gives inf."""
    return math.sqrt(sum([x * x for x in v]))


def _rk_step(fun, t, y, f, h):
    """The 12 stages of a DOP853 step of size h from (t, y), f = fun(t, y).

    Returns y_new and the stages that the error estimate reads: k1 and k6
    to k12.  Each stage state is y + (sum over j of a_ij k_j) h, summed in
    stage order.
    """
    k1 = f
    k2 = fun(t + C2 * h, [v + (A2_1 * q1) * h for v, q1 in zip(y, k1)])
    k3 = fun(t + C3 * h, [v + (A3_1 * q1 + A3_2 * q2) * h
                          for v, q1, q2 in zip(y, k1, k2)])
    k4 = fun(t + C4 * h, [v + (A4_1 * q1 + A4_3 * q3) * h
                          for v, q1, q3 in zip(y, k1, k3)])
    k5 = fun(t + C5 * h, [v + (A5_1 * q1 + A5_3 * q3 + A5_4 * q4) * h
                          for v, q1, q3, q4 in zip(y, k1, k3, k4)])
    k6 = fun(t + C6 * h, [v + (A6_1 * q1 + A6_4 * q4 + A6_5 * q5) * h
                          for v, q1, q4, q5 in zip(y, k1, k4, k5)])
    k7 = fun(t + C7 * h, [
        v + (A7_1 * q1 + A7_4 * q4 + A7_5 * q5 + A7_6 * q6) * h
        for v, q1, q4, q5, q6 in zip(y, k1, k4, k5, k6)])
    k8 = fun(t + C8 * h, [
        v + (A8_1 * q1 + A8_4 * q4 + A8_5 * q5 + A8_6 * q6 + A8_7 * q7) * h
        for v, q1, q4, q5, q6, q7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = fun(t + C9 * h, [
        v + (A9_1 * q1 + A9_4 * q4 + A9_5 * q5 + A9_6 * q6 + A9_7 * q7
             + A9_8 * q8) * h
        for v, q1, q4, q5, q6, q7, q8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = fun(t + C10 * h, [
        v + (A10_1 * q1 + A10_4 * q4 + A10_5 * q5 + A10_6 * q6 + A10_7 * q7
             + A10_8 * q8 + A10_9 * q9) * h
        for v, q1, q4, q5, q6, q7, q8, q9
        in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = fun(t + C11 * h, [
        v + (A11_1 * q1 + A11_4 * q4 + A11_5 * q5 + A11_6 * q6 + A11_7 * q7
             + A11_8 * q8 + A11_9 * q9 + A11_10 * q10) * h
        for v, q1, q4, q5, q6, q7, q8, q9, q10
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = fun(t + C12 * h, [
        v + (A12_1 * q1 + A12_4 * q4 + A12_5 * q5 + A12_6 * q6 + A12_7 * q7
             + A12_8 * q8 + A12_9 * q9 + A12_10 * q10 + A12_11 * q11) * h
        for v, q1, q4, q5, q6, q7, q8, q9, q10, q11
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [
        v + h * (B1 * q1 + B6 * q6 + B7 * q7 + B8 * q8 + B9 * q9
                 + B10 * q10 + B11 * q11 + B12 * q12)
        for v, q1, q6, q7, q8, q9, q10, q11, q12
        in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    return y_new, (k1, k6, k7, k8, k9, k10, k11, k12)


def _error_norm(h, y, y_new, stages, rtol, atol) -> float:
    """scipy's DOP853 error norm: the 5th-order estimate E5 k, damped by
    the 3rd-order one E3 k, each relative to atol + max(|y|, |y_new|) rtol.

    NaN in y_new wins the max, as in ``np.maximum``.  The scale is at least
    atol > 0; 0/0 (a zero E5 sum beside an E3 sum that underflows) is NaN,
    as in scipy.
    """
    k1, k6, k7, k8, k9, k10, k11, k12 = stages
    e5 = e3 = 0.0
    for v, w, q1, q6, q7, q8, q9, q10, q11, q12 in zip(
            y, y_new, k1, k6, k7, k8, k9, k10, k11, k12):
        v, w = abs(v), abs(w)
        scale = atol + (v if v > w else w) * rtol
        r5 = (E5_1 * q1 + E5_6 * q6 + E5_7 * q7 + E5_8 * q8 + E5_9 * q9
              + E5_10 * q10 + E5_11 * q11 + E5_12 * q12) / scale
        r3 = (E3_1 * q1 + E3_6 * q6 + E3_7 * q7 + E3_8 * q8 + E3_9 * q9
              + E3_10 * q10 + E3_11 * q11 + E3_12 * q12) / scale
        e5 += r5 * r5
        e3 += r3 * r3
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    # scipy squares np.linalg.norm: the square root of the sum, squared
    e5 = math.sqrt(e5)
    e3 = math.sqrt(e3)
    e5 *= e5
    e3 *= e3
    denom = math.sqrt((e5 + 0.01 * e3) * len(y))
    return abs(h) * e5 / denom if denom > 0.0 else math.nan


# The DOP853 tableau by stage number from 1, as Python floats.  Stage i is
# evaluated at t + Ci h from y + (sum of Ai_j kj) h; stage 13 is the field
# at y_new = y + h (sum of Bj kj), and stages 14 to 16 feed only the dense
# output rows F3..F6 = h (sum of Dr_j kj), r = 4..7.  E5 and E3 weigh the
# stages into the error estimates.  A row of A is read up to its stage (the
# method is explicit); the entries not named (_) are zero.  The literals are
# the reprs of scipy's ``dop853_coefficients`` arrays, E3 included as the
# doubles that scipy computes as B minus the 3rd-order weights;
# ``tests/test_oracle.py`` checks every name against those arrays.
_C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778]
_A = {
    2: [0.05260015195876773],
    3: [0.0197250569845379, 0.0591751709536137],
    4: [0.02958758547680685, 0.0, 0.08876275643042054],
    5: [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    6: [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
        0.12546768756682242],
    7: [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
        -0.017578125],
    8: [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
        0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
    9: [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
        27.59209969944671, 20.154067550477894, -43.48988418106996],
    10: [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
         -0.590290826836843, 21.230051448181193, 15.279233632882423,
         -33.28821096898486, -0.020331201708508627],
    11: [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
         -8.149787010746927, -18.52006565999696, 22.739487099350505,
         2.4936055526796523, -3.0467644718982196],
    12: [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
         -17.9589318631188, 27.94888452941996, -2.8589982771350235,
         -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    14: [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
         -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
         0.00820105229563469, 0.007567897660545699, -0.008298],
    15: [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
         0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
         -0.00010834732869724932, 0.0003825710908356584,
         -0.00034046500868740456, 0.1413124436746325],
    16: [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
         7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0,
         0.0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
}
_B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259]
_E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0]
_E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0]
_D = {
    4: [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
        -3.0689499459498917, 2.38466765651207, 2.117034582445028,
        -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
        -0.08899033645133331, 18.148505520854727, -9.194632392478356,
        -4.436036387594894],
    5: [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
        165.20045171727028, -374.5467547226902, -22.113666853125306,
        7.733432668472264, -30.674084731089398, -9.332130526430229,
        15.697238121770845, -31.139403219565178, -9.35292435884448,
        35.81684148639408],
    6: [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
        -189.17813819516758, 527.8081592054236, -11.57390253995963,
        6.8812326946963, -1.0006050966910838, 0.7777137798053443,
        -2.778205752353508, -60.19669523126412, 84.32040550667716,
        11.99229113618279],
    7: [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
        -231.5293791760455, 357.6391179106141, 93.40532418362432,
        -37.45832313645163, 104.0996495089623, 29.8402934266605,
        -43.53345659001114, 96.32455395918828, -39.17726167561544,
        -149.72683625798564],
}
(_, C2, C3, C4, C5, C6, C7, C8, C9, C10, C11, C12, _, C14, C15, C16) = _C
A2_1, = _A[2]
A3_1, A3_2 = _A[3]
A4_1, _, A4_3 = _A[4]
A5_1, _, A5_3, A5_4 = _A[5]
A6_1, _, _, A6_4, A6_5 = _A[6]
A7_1, _, _, A7_4, A7_5, A7_6 = _A[7]
A8_1, _, _, A8_4, A8_5, A8_6, A8_7 = _A[8]
A9_1, _, _, A9_4, A9_5, A9_6, A9_7, A9_8 = _A[9]
A10_1, _, _, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = _A[10]
A11_1, _, _, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = _A[11]
(A12_1, _, _, A12_4, A12_5, A12_6, A12_7, A12_8, A12_9, A12_10, A12_11
 ) = _A[12]
B1, _, _, _, _, B6, B7, B8, B9, B10, B11, B12 = _B
(A14_1, _, _, _, _, _, A14_7, A14_8, A14_9, A14_10, A14_11, A14_12, A14_13
 ) = _A[14]
(A15_1, _, _, _, _, A15_6, A15_7, A15_8, _, _, A15_11, A15_12, A15_13,
 A15_14) = _A[15]
(A16_1, _, _, _, _, A16_6, A16_7, A16_8, A16_9, _, _, _, A16_13, A16_14,
 A16_15) = _A[16]
E5_1, _, _, _, _, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, E5_12, _ = _E5
E3_1, _, _, _, _, E3_6, E3_7, E3_8, E3_9, E3_10, E3_11, E3_12, _ = _E3
(D4_1, _, _, _, _, D4_6, D4_7, D4_8, D4_9, D4_10, D4_11, D4_12, D4_13, D4_14,
 D4_15, D4_16) = _D[4]
(D5_1, _, _, _, _, D5_6, D5_7, D5_8, D5_9, D5_10, D5_11, D5_12, D5_13, D5_14,
 D5_15, D5_16) = _D[5]
(D6_1, _, _, _, _, D6_6, D6_7, D6_8, D6_9, D6_10, D6_11, D6_12, D6_13, D6_14,
 D6_15, D6_16) = _D[6]
(D7_1, _, _, _, _, D7_6, D7_7, D7_8, D7_9, D7_10, D7_11, D7_12, D7_13, D7_14,
 D7_15, D7_16) = _D[7]
del _, _C, _A, _B, _E5, _E3, _D

"""Adaptive integration to a level of x1, on scipy's DOP853.

Shared numerical engine for the shooting and manifold-tracking modules.
A run covers ``t_span``, which is its horizon, and stops early where x1,
the first state component, first reaches one of the given levels: a shot
asks where x1 crosses a section or an exit abscissa, and nothing else.
The 8(5,3) Dormand-Prince stepper (``scipy.integrate.DOP853``) builds the
dense output of an accepted step only where it is read: on every step of
a run without levels, and on the step where x1 crosses a level.  The
dense output costs 3 field evaluations on top of the step's 12 and does
not steer the stepper (it fills stages the step does not read), so a run
takes the same steps either way.  A crossing is localized on the dense
output of the step it falls in, so its time does not depend on where step
endpoints happen to fall.  Integration is deterministic: identical inputs
produce identical trajectories on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq


class IntegrationError(RuntimeError):
    pass


#: Time tolerance to which event crossings are localized.
EVENT_TOL = 1e-12

#: Factor from the requested tolerances to the ones handed to the stepper.
#: Handed rel_tol = 1e-10 as is, DOP853 puts the unit oscillator's event at
#: pi/3 1.1e-10 off, more than the requested tolerance; a tenth puts it
#: 9e-12 off.
TOL_SCALE = 0.1

#: The stepper lifts any smaller rtol to this, with only a warning.
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
    accepted step, in integration order: the step's dense output, or
    ``None`` where none was built (every step of a run with levels but the
    one its crossing falls in).  ``nfev`` is the stepper's count of field
    evaluations, dense-output stages included.
    """

    t: np.ndarray
    states: np.ndarray
    event: EventRecord | None
    reason: str
    segments: list = field(default_factory=list, repr=False)
    nfev: int = 0

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    def sample(self, times) -> np.ndarray:
        """Evaluate the dense output at given times (within the span).

        Raises ``ValueError`` for a time in a step whose dense output was
        not built.
        """
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

    The run stops where x1 = y[0] first reaches one of ``levels``
    ("event"): a sign change of y[0] - c is localized on the step's dense
    output to ``EVENT_TOL`` in time, and the earliest crossing wins.  With
    levels, only the step a crossing falls in builds its dense output.  A
    run also stops on ||y|| > escape_radius ("escape"), at the end of
    ``t_span`` ("time-out"), or on step-size underflow ("step-failure").
    """
    if opts is None:
        opts = IntegratorOptions()
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(tf)):
        raise ValueError(f"non-finite t_span ({t0}, {tf})")
    if t0 == tf:
        raise ValueError("degenerate t_span")
    direction = 1.0 if tf > t0 else -1.0

    y = np.asarray(y0, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite initial state")
    solver = DOP853(field, t0, y, tf, rtol=opts.rel_tol * TOL_SCALE,
                    atol=opts.abs_tol * TOL_SCALE)
    if not np.all(np.isfinite(solver.f)):
        # a NaN first step would keep the stepper rejecting forever
        raise IntegrationError("non-finite field at the initial state")

    ts = [t0]
    ys = [y]
    segments = []
    event = None

    reason = None
    while reason is None:
        if solver.step() is not None:
            reason = "step-failure"
            break
        x_old = y[0]
        t_old, t, y = solver.t_old, solver.t, solver.y
        seg = None if levels else solver.dense_output()

        for idx, c in enumerate(levels):
            g_old, g_new = x_old - c, y[0] - c
            if g_old != 0.0 and g_old * g_new <= 0.0 and g_new != g_old:
                if seg is None:  # before the next step overwrites the stages
                    seg = solver.dense_output()
                t_ev = brentq(
                    lambda tv: seg(tv)[0] - c,
                    t_old, t, xtol=EVENT_TOL, rtol=8.881784197001252e-16,
                )
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
        if np.linalg.norm(y) > opts.escape_radius:
            reason = "escape"
        elif solver.status == "finished":
            reason = "time-out"

    return Trajectory(
        t=np.array(ts), states=np.array(ys), event=event,
        reason=reason, segments=segments, nfev=solver.nfev,
    )

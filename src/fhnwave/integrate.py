"""Adaptive Dormand-Prince 5(4) integration with dense output and events.

Shared numerical engine for the shooting and manifold-tracking modules.
Event functions are scalar; every sign change is localized on the free
4th-order interpolant of the accepted step, so event times do not depend
on where step endpoints happen to fall.  Integration is deterministic:
identical inputs produce identical trajectories on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4: error-estimate weights.
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
# Free 4th-order interpolant: y(t0 + theta*h) = y0 + h * sum_i k_i * P_i(theta),
# P_i(theta) = sum_j P[i, j] * theta^(j+1).  Standard DOPRI5 coefficients.
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


class IntegrationError(RuntimeError):
    pass


#: Time tolerance to which event crossings are localized.
EVENT_TOL = 1e-12


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_time: float = 1e4
    escape_radius: float = 10.0

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_time", "escape_radius"):
            if not getattr(self, name) > 0.0:  # also rejects NaN
                raise ValueError(f"{name} must be positive")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not attainable")


@dataclass
class EventRecord:
    index: int
    t: float
    state: np.ndarray


@dataclass
class _DenseSegment:
    t0: float
    h: float
    y0: np.ndarray
    K: np.ndarray  # (7, dim) stage derivatives

    def eval(self, t: float) -> np.ndarray:
        theta = (t - self.t0) / self.h
        powers = np.array([theta, theta**2, theta**3, theta**4])
        return self.y0 + self.h * (self.K.T @ (_P @ powers))


@dataclass
class Trajectory:
    """Dense-output solution with event records.

    ``t`` is strictly increasing in integration order (decreasing physical
    time for backward runs is stored as-is).  ``reason`` is one of
    {"time-out", "event", "escape", "step-failure"}.
    """

    t: np.ndarray
    states: np.ndarray
    events: list[EventRecord]
    reason: str
    segments: list[_DenseSegment] = field(default_factory=list, repr=False)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.t[-1])

    def sample(self, times) -> np.ndarray:
        """Evaluate the dense output at given times (within the span)."""
        times = np.atleast_1d(np.asarray(times, dtype=float))
        t_lo, t_hi = sorted((self.t[0], self.t[-1]))
        pad = 1e-12 * max(1.0, abs(t_lo), abs(t_hi))
        if np.any(times < t_lo - pad) or np.any(times > t_hi + pad):
            raise ValueError(f"sample times outside [{t_lo}, {t_hi}]")
        out = np.empty((times.size, self.states.shape[1]))
        starts = np.array([seg.t0 for seg in self.segments])
        forward = self.t[-1] >= self.t[0]
        for i, tv in enumerate(times):
            if forward:
                j = np.searchsorted(starts, tv, side="right") - 1
            else:
                j = np.searchsorted(-starts, -tv, side="right") - 1
            j = min(max(j, 0), len(self.segments) - 1)
            out[i] = self.segments[j].eval(tv)
        return out


def _rms_norm(v):
    return float(np.sqrt(np.mean(v * v)))


def integrate(field, y0, t_span, opts: IntegratorOptions | None = None,
              events=None) -> Trajectory:
    """Integrate ``y' = field(t, y)`` over ``t_span`` (backward if reversed).

    ``events`` is a list of scalar functions g(t, y); each sign change is
    localized on the dense output to ``EVENT_TOL`` in time and
    terminates the run (first event wins).  Termination also occurs on
    ||y|| > escape_radius ("escape"), elapsed time > max_time ("time-out"),
    or step-size underflow ("step-failure").
    """
    if opts is None:
        opts = IntegratorOptions()
    events = list(events) if events else []
    t0, tf = float(t_span[0]), float(t_span[1])
    if not (np.isfinite(t0) and np.isfinite(tf)):
        raise ValueError(f"non-finite t_span ({t0}, {tf})")
    if t0 == tf:
        raise ValueError("degenerate t_span")
    direction = 1.0 if tf > t0 else -1.0

    y = np.asarray(y0, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise IntegrationError("non-finite initial state")
    t = t0
    f = np.asarray(field(t, y), dtype=float)

    ts = [t]
    ys = [y.copy()]
    segments: list[_DenseSegment] = []
    event_values = [g(t, y) for g in events]
    recorded: list[EventRecord] = []

    # initial step heuristic
    scale = opts.abs_tol + opts.rel_tol * np.abs(y)
    d0 = _rms_norm(y / scale)
    d1 = _rms_norm(f / scale)
    h = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h = min(h, abs(tf - t0))

    reason = None
    K = np.empty((7, y.size))
    while reason is None:
        if abs(t - t0) >= opts.max_time:
            reason = "time-out"
            break
        h = min(h, abs(tf - t), opts.max_time - abs(t - t0) + 1e-16)
        if h < 1e-14 * max(1.0, abs(t)):
            reason = "step-failure"
            break
        hs = direction * h

        K[0] = f
        for i in range(1, 7):
            K[i] = field(t + _C[i] * hs, y + hs * (_A[i] @ K[:i]))
        y_new = y + hs * (_B5 @ K)
        err_vec = hs * (_E @ K)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms_norm(err_vec / scale)

        if not np.all(np.isfinite(y_new)):
            h *= 0.25
            continue
        if err > 1.0:
            h *= max(0.2, 0.9 * err ** (-0.2))
            continue

        # accepted
        t_new = t + hs
        seg = _DenseSegment(t0=t, h=hs, y0=y.copy(), K=K.copy())
        segments.append(seg)

        hit = None
        for idx, g in enumerate(events):
            g_new = g(t_new, y_new)
            g_old = event_values[idx]
            if g_old == 0.0:
                event_values[idx] = g_new
                continue
            if g_old * g_new <= 0.0 and g_new != g_old:
                t_ev = brentq(
                    lambda tv: g(tv, seg.eval(tv)),
                    t, t_new, xtol=EVENT_TOL, rtol=8.881784197001252e-16,
                )
                if hit is None or direction * t_ev < direction * hit.t:
                    hit = EventRecord(index=idx, t=t_ev, state=seg.eval(t_ev))
            event_values[idx] = g_new

        if hit is not None:
            recorded.append(hit)
            ts.append(hit.t)
            ys.append(hit.state)
            reason = "event"
            break

        t, y = t_new, y_new
        f = K[6].copy()  # FSAL
        ts.append(t)
        ys.append(y.copy())

        if np.linalg.norm(y) > opts.escape_radius:
            reason = "escape"
            break
        if direction * (t - tf) >= 0.0:
            reason = "time-out"
            break

        h *= min(10.0, max(0.2, 0.9 * (err + 1e-16) ** (-0.2)))

    return Trajectory(
        t=np.array(ts), states=np.array(ys), events=recorded,
        reason=reason, segments=segments,
    )

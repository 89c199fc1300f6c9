"""Span tracing of the fhnwave layers, installed from outside the package.

``install`` rebinds, in each calling module, the names through which one
layer reaches another: a module imported as a whole (``from . import
model``) is replaced by a proxy whose public functions are wrapped, and a
function imported by name (``from .integrate import integrate``) is
replaced by its wrapper.  A few calls that stay inside one module but
cross a layer boundary of the solver stack (a shot inside a solve, a Hopf
point inside a scan) are rebound in that module's own namespace.  The
package source is not modified.

Every wrapped call made while a solve is open records one span: layer,
name, parent span, solve id, start and end.  Right-hand-side evaluations
are too many and too cheap for one span each, so each ``integrate`` span
carries their count and summed time instead; they form the ``model``
layer's RHS share.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
import types

LAYERS = ("model", "integrate", "fast_layer", "homoclinic", "slow_reduced",
          "bifurcation", "cli")

#: Scalar algebra evaluated inside right-hand sides and integrands; a span
#: per call would cost more than the call, so these pass through unwrapped.
PASS_THROUGH = {
    "model": {"cubic", "cubic_prime", "cubic_second", "cubic_third",
              "nullcline", "full_field", "fast_field"},
    "slow_reduced": {"phi", "phi_prime"},
    "fast_layer": {"potential", "hamiltonian"},
}

#: Intra-module calls that cross a layer boundary of the solver stack.
INTRA = {
    "fast_layer": ("shoot_heteroclinic",),
    "homoclinic": ("escape_side",),
    "bifurcation": ("hopf_point", "lyapunov_l1"),
}

#: Callers whose ``integrate`` calls are shots (termination reasons other
#: than an event are fallbacks there; a reduced orbit ends on time-out by
#: design).
SHOOTERS = ("fast_layer", "homoclinic")

# span fields
ID, PARENT, SOLVE, LAYER, NAME, T0, T1, RHS_N, RHS_T, STEPS, FALLBACK, \
    RAISED = range(12)

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[list] = []
        self.solve = None
        self._wrappers: dict = {}
        self._undo: list = []

    # ------------------------------------------------------------ spans

    def _open(self, layer: str, name: str) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, self.solve, layer, name, 0.0, 0.0,
                0, 0.0, 0, False, False]
        self.spans.append(span)
        self._stack.append(span)
        span[T0] = clock()
        return span

    def _close(self, span: list, raised: bool) -> None:
        span[T1] = clock()
        span[RAISED] = raised
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span stack out of order")
        # a closed span becomes a tuple of atoms, which the cyclic garbage
        # collector stops tracking: hundreds of thousands of live lists
        # would make every full collection slower as the trace grows
        self.spans[span[ID]] = tuple(span)

    def begin_solve(self, solve_id: int, name: str) -> None:
        self.solve = solve_id
        self._open("bench", name)

    def end_solve(self) -> None:
        self._close(self._stack[-1], False)
        if self._stack:
            raise RuntimeError("spans left open at the end of a solve")
        self.solve = None

    # ---------------------------------------------------------- wrappers

    def _wrap(self, layer: str, name: str, fn):
        key = (id(fn), layer)
        if key in self._wrappers:
            return self._wrappers[key]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.solve is None:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(span, raised)
            return result

        wrapper.__bench_traced__ = True
        self._wrappers[key] = wrapper
        return wrapper

    def _wrap_integrate(self, fn, shooter: bool):
        key = (id(fn), "integrate", shooter)
        if key in self._wrappers:
            return self._wrappers[key]

        @functools.wraps(fn)
        def wrapper(field, *args, **kwargs):
            if self.solve is None:
                return fn(field, *args, **kwargs)
            span = self._open("integrate", "integrate")

            def counted(t, y):
                t0 = clock()
                out = field(t, y)
                span[RHS_T] += clock() - t0
                span[RHS_N] += 1
                return out

            try:
                traj = fn(counted, *args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            span[STEPS] = len(traj.segments)
            span[FALLBACK] = shooter and traj.reason in ("time-out",
                                                         "step-failure")
            self._close(span, False)
            return traj

        wrapper.__bench_traced__ = True
        self._wrappers[key] = wrapper
        return wrapper

    def _proxy(self, module):
        layer = module.__name__.rsplit(".", 1)[1]
        skip = PASS_THROUGH.get(layer, set())
        ns = {}
        for name, obj in vars(module).items():
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == module.__name__ and name not in skip
                    and not getattr(obj, "__bench_traced__", False)):
                obj = (self._wrap_integrate(obj, shooter=False)
                       if (layer, name) == ("integrate", "integrate")
                       else self._wrap(layer, name, obj))
            ns[name] = obj
        return types.SimpleNamespace(**ns)

    def _rebind(self, module, name: str, value) -> None:
        self._undo.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self, package) -> dict:
        """Wrap the layer boundaries of ``package``; returns the proxies
        through which an outside caller reaches each layer."""
        modules = {name: getattr(package, name) for name in LAYERS}
        for layer, names in INTRA.items():
            mod = modules[layer]
            for name in names:
                self._rebind(mod, name, self._wrap(layer, name,
                                                   getattr(mod, name)))
        proxies = {name: self._proxy(mod) for name, mod in modules.items()}
        for caller_name, caller in modules.items():
            for name, obj in list(vars(caller).items()):
                if isinstance(obj, types.ModuleType) and obj in modules.values():
                    if obj is not caller:
                        self._rebind(caller, name,
                                     proxies[obj.__name__.rsplit(".", 1)[1]])
                elif (isinstance(obj, types.FunctionType)
                      and not getattr(obj, "__bench_traced__", False)
                      and obj.__module__ != caller.__name__
                      and (obj.__module__ or "").startswith(
                          package.__name__ + ".")):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    if name in PASS_THROUGH.get(layer, ()):
                        continue
                    if layer == "integrate" and name == "integrate":
                        value = self._wrap_integrate(
                            obj, shooter=caller_name in SHOOTERS)
                    else:
                        value = self._wrap(layer, name, obj)
                    self._rebind(caller, name, value)
        return proxies

    def uninstall(self) -> None:
        while self._undo:
            module, name, value = self._undo.pop()
            setattr(module, name, value)

    # ------------------------------------------------------------ output

    def dump(self, path: str) -> None:
        """JSON lines: the field names, then one array per span."""
        fields = ("id", "parent", "solve", "layer", "name", "t0", "t1",
                  "rhs_calls", "rhs_s", "steps", "fallback", "raised")
        with open(path, "w") as fh:
            fh.write(json.dumps(fields) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_table(spans: list) -> dict:
    """Per-solve self time by layer, plus the counts the metrics need.

    Self time is a span's duration minus its children's durations; the RHS
    share of an ``integrate`` span moves to the ``model`` layer.  Returns
    {solve_id: {"total": root duration, "self": {layer: s}, "counts": ...}}.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[T1] - span[T0]
    out: dict = {}
    for span in spans:
        solve = span[SOLVE]
        rec = out.setdefault(solve, {
            "total": 0.0,
            "self": {layer: 0.0 for layer in ("bench",) + LAYERS},
            "counts": {"rhs_calls": 0, "rhs_s": 0.0, "integrate_calls": 0,
                       "steps": 0, "fallback_ends": 0, "homoclinic_shots": 0,
                       "homoclinic_shot_s": 0.0, "fast_layer_shots": 0,
                       "fast_layer_shot_s": 0.0, "find_het_calls": 0,
                       "find_het_ok": 0, "hopf_points": 0, "l1_calls": 0,
                       "l1_s": 0.0, "integrate_s": 0.0},
        })
        duration = span[T1] - span[T0]
        own = duration - child_time[span[ID]] - span[RHS_T]
        layer, name, counts = span[LAYER], span[NAME], rec["counts"]
        if span[PARENT] is None:
            rec["total"] = duration
        rec["self"][layer] += own
        rec["self"]["model"] += span[RHS_T]
        if layer == "integrate" and name == "integrate":
            counts["integrate_calls"] += 1
            counts["rhs_calls"] += span[RHS_N]
            counts["rhs_s"] += span[RHS_T]
            counts["steps"] += span[STEPS]
            counts["fallback_ends"] += int(span[FALLBACK])
            counts["integrate_s"] += own
        elif (layer, name) == ("homoclinic", "escape_side"):
            counts["homoclinic_shots"] += 1
            counts["homoclinic_shot_s"] += duration
        elif (layer, name) == ("fast_layer", "shoot_heteroclinic"):
            counts["fast_layer_shots"] += 1
            counts["fast_layer_shot_s"] += duration
        elif (layer, name) == ("fast_layer", "find_het"):
            counts["find_het_calls"] += 1
            counts["find_het_ok"] += int(not span[RAISED])
        elif (layer, name) == ("bifurcation", "hopf_point"):
            counts["hopf_points"] += 1
        elif (layer, name) == ("bifurcation", "lyapunov_l1"):
            counts["l1_calls"] += 1
            counts["l1_s"] += own
        if own < -1e-6:
            raise RuntimeError(f"negative self time in span {span}")
    return out

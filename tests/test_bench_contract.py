"""The benchmark's contract with the package, checked without running it.

``bench/tracer.py`` rebinds the names through which one layer reaches
another and hands the workloads proxies of each layer.  A name the
workloads call that the package no longer has, or an attribute the tracer
fails to put back, breaks the benchmark; these tests make it break here.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fhnwave
import fhnwave.cli  # noqa: F401  (imports every layer, as the benchmark does)
from fhnwave import fast_layer, homoclinic
from fhnwave.integrate import integrate

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

#: Names the benchmark workloads and checks call, per layer.
CALLED = {
    "homoclinic": ("escape_side", "upper_connection", "return_height_at",
                   "locate_c_curve"),
    "fast_layer": ("shoot_heteroclinic",),
    "bifurcation": ("hopf_point", "lyapunov_l1"),
    "integrate": ("integrate",),
    "cli": ("main",),
}


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer_attributes(tracing) -> dict:
    return {layer: dict(vars(getattr(fhnwave, layer)))
            for layer in tracing.LAYERS}


def test_tracer_proxies_expose_the_benchmark_names(tracing):
    tracer = tracing.Tracer()
    proxies = tracer.install(fhnwave)
    try:
        for layer, names in CALLED.items():
            for name in names:
                assert callable(getattr(proxies[layer], name, None)), \
                    (layer, name)
        # the tracer counts steps from Trajectory.segments and fallbacks
        # from Trajectory.reason; probe a run without levels and one whose
        # level is reached, which builds no dense output before that step
        trajs = {}
        for solve_id, levels in enumerate(((), (0.5,))):
            tracer.begin_solve(solve_id, "probe")
            trajs[solve_id] = proxies["integrate"].integrate(
                lambda t, y: -y, [1.0], (0.0, 1.0), levels=levels)
            tracer.end_solve()
    finally:
        tracer.uninstall()
    assert trajs[1].reason == "event"
    table = tracing.layer_table(tracer.spans)
    for solve_id, traj in trajs.items():
        counts = table[solve_id]["counts"]
        assert counts["integrate_calls"] == 1
        assert counts["steps"] == len(traj.t) - 1 > 0
        assert counts["fallback_ends"] == 0


def test_tracer_records_the_layers_of_a_solve(tracing):
    # the benchmark's per-layer counts read these spans: shots of
    # locate_c_curve, and the layer solves and shots under the singular
    # connections
    solves = (
        ("c_curve", "locate_c_curve", (0.05, 1e-2), {"bracket_tol": 1e-3}),
        ("upper", "upper_connection", (-0.05,), {}),
        ("return", "return_height_at", (-0.05, 0.5), {}),
    )
    tracer = tracing.Tracer()
    proxies = tracer.install(fhnwave)
    try:
        for solve_id, (name, call, args, kwargs) in enumerate(solves):
            tracer.begin_solve(solve_id, name)
            getattr(proxies["homoclinic"], call)(*args, **kwargs)
            tracer.end_solve()
    finally:
        tracer.uninstall()
    seen = [set() for _ in solves]
    for span in tracer.spans:
        seen[span[tracing.SOLVE]].add((span[tracing.LAYER],
                                       span[tracing.NAME]))
    assert ("homoclinic", "escape_side") in seen[0]
    for names in seen[1:]:
        assert {("fast_layer", "find_het"),
                ("fast_layer", "shoot_heteroclinic")} <= names


def test_traced_shots_count_every_field_call_in_few_model_spans(
        tracing, monkeypatch):
    # an integrate span counts every field call its run makes; the field
    # kernels are built once per shot, so the model layer opens the same
    # few spans for a long shot as for a short one, never one per call
    trajs = []

    @functools.wraps(integrate)  # the tracer wraps it as integrate's
    def recording(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        trajs.append(traj)
        return traj

    for module in (homoclinic, fast_layer):
        monkeypatch.setattr(module, "integrate", recording)
    shots = (("homoclinic", "escape_side", (0.05, 0.8, 1e-2)),
             ("homoclinic", "escape_side", (0.05, 1.1, 1e-2)),
             ("fast_layer", "shoot_heteroclinic", (-0.05, 0.3)),
             ("fast_layer", "shoot_heteroclinic", (-0.05, 0.5)))
    tracer = tracing.Tracer()
    proxies = tracer.install(fhnwave)
    runs = []
    try:
        for solve_id, (layer, name, args) in enumerate(shots):
            start = len(trajs)
            tracer.begin_solve(solve_id, name)
            getattr(proxies[layer], name)(*args)
            tracer.end_solve()
            runs.append(trajs[start:])
    finally:
        tracer.uninstall()
    model_spans = []
    for solve_id, solve_trajs in enumerate(runs):
        spans = [span for span in tracer.spans
                 if span[tracing.SOLVE] == solve_id]
        rhs_calls = [span[tracing.RHS_N] for span in spans
                     if span[tracing.LAYER] == "integrate"]
        assert rhs_calls == [traj.nfev for traj in solve_trajs] != []
        model_spans.append(sum(span[tracing.LAYER] == "model"
                               for span in spans))
        assert 0 < model_spans[-1] <= 8, model_spans
    assert runs[0][0].nfev != runs[1][0].nfev
    assert runs[2][0].nfev != runs[3][0].nfev
    assert model_spans[0] == model_spans[1]
    assert model_spans[2] == model_spans[3]


def test_tracer_uninstall_restores_every_rebound_attribute(tracing):
    before = layer_attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install(fhnwave)
    try:
        installed = layer_attributes(tracing)
        rebound = {(layer, name) for layer, attrs in installed.items()
                   for name, obj in attrs.items()
                   if obj is not before[layer][name]}
        # a shot inside a solve, a layer module and an imported function
        assert {("homoclinic", "escape_side"), ("homoclinic", "model"),
                ("homoclinic", "integrate")} <= rebound
    finally:
        tracer.uninstall()
    after = layer_attributes(tracing)
    for layer, attrs in before.items():
        assert after[layer].keys() == attrs.keys(), layer
        for name, obj in attrs.items():
            assert after[layer][name] is obj, (layer, name)


def test_bench_setup_probe_passes_the_field_an_ndarray():
    # bench/run.py's setup probe and bench/child.py's warm-up make this
    # exact call; -y needs an ndarray (it fails on a list or tuple)
    seen = []

    def field(t, y):
        seen.append(type(y))
        return -y

    traj = integrate(field, [1.0], (0.0, 0.1))
    assert traj.reason == "time-out"
    assert seen and all(kind is np.ndarray for kind in seen)
    assert integrate(lambda t, y: -y, [1.0], (0.0, 0.1)).reason == "time-out"

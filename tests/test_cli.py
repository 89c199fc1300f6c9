"""Tests for the command-line surface and its artifact files."""

import csv
import json
import os
import re
import subprocess
import sys

import pytest

from fhnwave import cli


def run(args, tmp_path):
    return cli.main(list(args) + ["--out-dir", str(tmp_path)])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    meta, rows = {}, []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("# "):
            key, _, val = ln[2:].partition(": ")
            meta[key] = val
        else:
            body.append(ln)
    reader = csv.DictReader(body)
    rows = list(reader)
    return meta, rows


def test_folds_values(tmp_path):
    assert run(["folds"], tmp_path) == 0
    doc = read_json(tmp_path / "folds.json")
    assert doc["schema_version"] == 1
    assert abs(doc["data"]["x_minus"] - 0.0487) < 1e-4
    assert abs(doc["data"]["x_plus"] - 0.6846) < 1e-4


def test_folds_output_deterministic(tmp_path):
    run(["folds"], tmp_path)
    first = (tmp_path / "folds.json").read_bytes()
    run(["folds"], tmp_path)
    assert (tmp_path / "folds.json").read_bytes() == first


def test_artifacts_byte_identical_across_runs(tmp_path):
    # both writers: CSV branches and JSON documents
    for argv, name in ((["hopf-curve", "--eps", "0.01", "--n", "20"],
                        "hopf_curve.csv"),
                       (["canard-stability", "--n", "5"],
                        "canard_stability.csv"),
                       (["het-curve", "--s-max", "0.3", "--step", "0.05"],
                        "het_curve.csv"),
                       (["folds"], "folds.json"),
                       (["slow-bif"], "slow_bif.json"),
                       (["fast-equilibria", "--pbar", "-0.05"],
                        "fast_equilibria.json"),
                       (["canard", "--eps", "0.01"], "canard.json"),
                       (["reduced-orbit", "--p", "0.06", "--s", "1.37",
                         "--eps", "0.01"], "reduced_orbit.json")):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(argv, first) == 0
        assert run(argv, second) == 0
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_artifact_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        assert run(["folds"], tmp_path) == 0
        mode = os.stat(tmp_path / "folds.json").st_mode & 0o777
        assert mode == 0o666 & ~0o022
    finally:
        os.umask(old)


def test_slow_bif_identity(tmp_path):
    assert run(["slow-bif"], tmp_path) == 0
    data = read_json(tmp_path / "slow_bif.json")["data"]
    assert abs(data["sum"] - 2057.0 / 3375.0) < 1e-12


def test_fast_equilibria_inside_band(tmp_path):
    assert run(["fast-equilibria", "--pbar", "-0.05"], tmp_path) == 0
    data = read_json(tmp_path / "fast_equilibria.json")["data"]
    assert len(data["equilibria"]) == 3


def test_numerical_failure_exit_code(tmp_path, capsys):
    # (argv, error type, the field the message must name)
    cases = [
        # eps far beyond the discriminant zero: no reduced Hopf values exist
        (["canard", "--eps", "0.5"], "DomainError", "eps"),
        # a NaN horizon is rejected up front instead of hanging the integrator
        (["reduced-orbit", "--p", "0.06", "--s", "1.37", "--eps", "0.01",
          "--t-end", "nan"], "ValueError", "t_end"),
        (["reduced-orbit", "--p", "0.06", "--s", "1.37", "--eps", "0.01",
          "--t-end", "-5"], "ValueError", "t_end"),
        # a NaN speed or eps once hung the stepper; eps 0 died with an
        # IndexError and an infinite speed wrote an all-zero summary
        (["reduced-orbit", "--p", "0.06", "--s", "nan", "--eps", "0.01"],
         "DomainError", "s"),
        (["reduced-orbit", "--p", "0.06", "--s", "inf", "--eps", "0.01"],
         "DomainError", "s"),
        (["reduced-orbit", "--p", "0.06", "--s", "1.37", "--eps", "nan"],
         "DomainError", "eps"),
        (["reduced-orbit", "--p", "0.06", "--s", "1.37", "--eps", "0"],
         "DomainError", "eps"),
        # non-finite parameters are outside the domain, not artifacts
        (["canard", "--eps", "nan"], "DomainError", "eps"),
        (["canard", "--eps", "inf"], "DomainError", "eps"),
        (["fast-equilibria", "--pbar", "nan"], "DomainError", "pbar"),
        (["fast-equilibria", "--pbar", "inf"], "DomainError", "pbar"),
        # a non-finite speed once surfaced as numpy's LinAlgError
        (["fast-equilibria", "--pbar", "-0.05", "--s", "nan"], "DomainError",
         "s"),
        (["fast-equilibria", "--pbar", "-0.05", "--s", "inf"], "DomainError",
         "s"),
        # a non-finite p once surfaced as brentq's "function value is NaN"
        (["reduced-orbit", "--p", "nan", "--s", "1.37", "--eps", "0.01"],
         "DomainError", "p"),
        (["reduced-orbit", "--p", "inf", "--s", "1.37", "--eps", "0.01"],
         "DomainError", "p"),
        (["c-curve", "--eps", "nan", "--p", "0.05"], "DomainError", "eps"),
        # eps 0 died in escape_side's escape time 100/eps
        (["c-curve", "--eps", "0", "--p", "0.05"], "DomainError", "eps"),
        # shots started on the saddles timed out into a -1e6 section gap
        (["double-het", "--offset", "0"], "DomainError", "offset"),
        (["double-het", "--offset", "-0.5"], "DomainError", "offset"),
        (["double-het", "--offset", "nan"], "DomainError", "offset"),
        (["hopf-curve", "--eps", "nan"], "DomainError", "eps"),
        (["hopf-curve", "--eps", "-0.01"], "DomainError", "eps"),
        (["gh-track", "--eps", "nan"], "DomainError", "eps"),
        (["gh-track", "--eps", "-0.01"], "DomainError", "eps"),
        # NaN fails every loop test: unchecked, these write truncated artifacts
        (["c-curve", "--eps", "0.01", "--p", "0.05", "--bracket-tol", "nan"],
         "DomainError", "bracket_tol"),
        (["het-curve", "--s-max", "nan"], "DomainError", "s_max"),
        # a reversed window bisected nothing and reported "found 1"
        (["c-curve", "--eps", "0.01", "--p", "0.05", "--s-lo", "1.55",
          "--s-hi", "0.05"], "DomainError", "s_scan"),
        # the quadrature ignores a NaN tolerance and writes it to the header
        (["canard-stability", "--n", "3", "--abs-tol", "nan"], "DomainError",
         "abs_tol"),
        (["canard-stability", "--n", "3", "--abs-tol", "inf"], "DomainError",
         "abs_tol"),
        # a step failure on the first step once died in Trajectory.sample
        (["reduced-orbit", "--p", "1e200", "--s", "1.37", "--eps", "0.01"],
         "DomainError", "p"),
        # an overflowing characteristic polynomial once made brentq fail to
        # converge (RuntimeError)
        (["c-curve", "--eps", "0.01", "--p", "1e200"], "DomainError", "p"),
        (["c-curve", "--eps", "1e200", "--p", "0.05"], "DomainError", "eps"),
        (["c-curve", "--eps", "0.01", "--p", "0.05", "--s-lo", "1e-300",
          "--s-hi", "1e300"], "DomainError", "s"),
        # eps**2 once raised OverflowError
        (["canard", "--eps", "1e200"], "DomainError", "eps"),
        # an escape flip past the Hopf set, where q is a source, was
        # published as a homoclinic speed
        (["c-curve", "--eps", "0.01", "--p", "0.07"], "DomainError", "s"),
        # s*s underflowed to 0 in the eq18 field: a divide-by-zero warning,
        # then an IntegrationError
        (["reduced-orbit", "--p", "0.06", "--s", "1e-200", "--eps", "0.01"],
         "DomainError", "s"),
        (["reduced-orbit", "--p", "0.06", "--s", "1e-170", "--eps", "0.01"],
         "DomainError", "s"),
        # s*s passed that guard, but the field's scale 1/(s^2*eps)
        # overflowed: a numpy overflow warning, then an IntegrationError
        (["reduced-orbit", "--p", "0.06", "--s", "1.5e-154", "--eps", "1e-3"],
         "DomainError", "s"),
        (["reduced-orbit", "--p", "0.06", "--s", "2e-154", "--eps", "1e-3"],
         "DomainError", "s"),
    ]
    for argv, error, name in cases:
        code = run(argv, tmp_path)
        assert code == 1, argv
        diag = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert diag["error"] == error, argv
        assert diag["command"] == argv[0]
        assert re.search(rf"\b{name}\b", diag["message"]), \
            (argv, diag["message"])


def test_failing_command_creates_no_directory(tmp_path, capsys):
    out = tmp_path / "new"
    assert cli.main(["canard", "--eps", "0.5", "--out-dir", str(out)]) == 1
    assert not out.exists()


def test_handlers_compute_and_write_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    for argv, name, kind in ((["folds"], "folds.json", dict),
                             (["canard-stability", "--n", "3"],
                              "canard_stability.csv", cli.CurveBranch)):
        args = parser.parse_args(argv + ["--out-dir", str(tmp_path)])
        file_name, payload, meta = args.func(args)
        assert file_name == name
        assert isinstance(payload, kind) and isinstance(meta, dict)
    assert not any(tmp_path.iterdir())


def test_usage_error_exit_code(tmp_path):
    for argv in (["no-such-command"],
                 # only subcommands with a CSV plot take --plot-script
                 ["folds", "--plot-script"],
                 ["gh-track", "--plot-script"],
                 # point counts below 1 (--n 0 once divided by zero)
                 ["canard-stability", "--n", "0"],
                 ["hopf-curve", "--eps", "0.01", "--n", "0"],
                 ["singular-diagram", "--n", "-1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out-dir", str(tmp_path)])
        assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_double_het_artifact(tmp_path):
    assert run(["double-het"], tmp_path) == 0
    data = read_json(tmp_path / "double_het.json")["data"]
    assert abs(data["pbar_star"] - (-209.0 / 3375.0)) < 1e-12
    assert abs(data["section_gap"]) < 1e-8


def test_canard_artifact(tmp_path):
    assert run(["canard", "--eps", "0.01"], tmp_path) == 0
    data = read_json(tmp_path / "canard.json")["data"]
    assert abs(data["p_maximal"] - 0.05731) < 2e-5


def test_canard_stability_csv(tmp_path):
    assert run(["canard-stability", "--n", "5"], tmp_path) == 0
    meta, rows = read_csv(tmp_path / "canard_stability.csv")
    assert meta["n"] == "5"
    assert len(rows) == 5
    assert all(float(r["R"]) < 0.0 for r in rows)


def test_hopf_curve_csv(tmp_path):
    assert run(["hopf-curve", "--eps", "0.01", "--n", "20"], tmp_path) == 0
    meta, rows = read_csv(tmp_path / "hopf_curve.csv")
    assert len(rows) == 20
    assert abs(float(meta["asymptote_p_minus"]) - 0.0510636) < 1e-5


def test_reduced_orbit_json(tmp_path):
    assert run(["reduced-orbit", "--p", "0.06", "--s", "1.37",
                "--eps", "0.01"], tmp_path) == 0
    data = read_json(tmp_path / "reduced_orbit.json")["data"]
    assert data["x2_excursions"] == 2
    assert data["x1_amplitude"] > 0.5


@pytest.mark.parametrize("argv, name, xcol, ycol", [
    (["het-curve", "--s-max", "0.1", "--step", "0.05"], "het_curve",
     "pbar", "s"),
    (["hopf-curve", "--eps", "0.01", "--n", "5"], "hopf_curve", "p", "s"),
    (["canard-stability", "--n", "3"], "canard_stability", "h", "R"),
    (["c-curve", "--eps", "0.01", "--p", "0.05", "--bracket-tol", "1e-3"],
     "c_curve", "p", "s2"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_plot_script_names_csv_columns(tmp_path, argv, name, xcol, ycol):
    assert run(argv + ["--plot-script"], tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [name + ".csv",
                                                          name + ".gp"]
    script = (tmp_path / (name + ".gp")).read_text()
    assert script == (f"set datafile separator ','\n"
                      f"plot '{name}.csv' using '{xcol}':'{ycol}' "
                      f"with linespoints\n")
    _, rows = read_csv(tmp_path / (name + ".csv"))
    assert xcol in rows[0] and ycol in rows[0]


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    first, second, third = (tmp_path / d for d in ("a", "b", "c"))
    argv = ["hopf-curve", "--eps", "0.01", "--n", "5"]
    assert run(argv + ["--plot-script"], first) == 0
    assert run(argv, second) == 0
    assert run(["canard-stability", "--n", "3"], third) == 0
    assert sorted(p.name for p in first.iterdir()) == ["hopf_curve.csv",
                                                       "hopf_curve.gp"]
    assert [p.name for p in second.iterdir()] == ["hopf_curve.csv"]
    assert [p.name for p in third.iterdir()] == ["canard_stability.csv"]
    assert ((first / "hopf_curve.csv").read_bytes()
            == (second / "hopf_curve.csv").read_bytes())
    assert capsys.readouterr().out.split() == [
        str(first / "hopf_curve.csv"), str(second / "hopf_curve.csv"),
        str(third / "canard_stability.csv")]


def test_gh_track_rows_are_degenerate(tmp_path):
    # l1 at a GH point is a root: its sign is round-off, not criticality
    assert run(["gh-track"], tmp_path) == 0
    _, rows = read_csv(tmp_path / "gh_track.csv")
    assert len(rows) == 6
    assert {r["criticality"] for r in rows} == {"degenerate"}


def test_c_curve_csv_and_plot_script(tmp_path):
    assert run(["c-curve", "--eps", "0.01", "--p", "0.05",
                "--plot-script"], tmp_path) == 0
    meta, rows = read_csv(tmp_path / "c_curve.csv")
    assert len(rows) == 1
    assert float(rows[0]["s1"]) < float(rows[0]["s2"])
    assert float(rows[0]["bracket_width"]) <= 1e-12
    assert (tmp_path / "c_curve.gp").exists()


def test_singular_diagram_json(tmp_path):
    assert run(["singular-diagram", "--n", "6"], tmp_path) == 0
    data = read_json(tmp_path / "singular_diagram.json")["data"]
    assert abs(data["A"][0] - (-0.246016)) < 1e-4
    assert data["B"][0] == data["C"][0]


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("FHNWAVE_OUT_DIR", str(tmp_path))
    assert cli.main(["folds"]) == 0
    assert (tmp_path / "folds.json").exists()


def test_help_lists_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["c-curve", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--bracket-tol" in out
    assert "1e-12" in out


#: Code run in a fresh interpreter: import the CLI, run one step, then
#: print the scipy modules loaded.
_IMPORT_PROBE = """
import json, sys
from fhnwave import cli
{step}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


@pytest.mark.parametrize("step, scipy_needed", [
    # the benchmark's set-up probe
    ("from fhnwave.integrate import integrate\n"
     "integrate(lambda t, y: -y, [1.0], (0.0, 0.1))", False),
    ("assert cli.main(['folds', '--out-dir', sys.argv[1]]) == 0", False),
    ("assert cli.main(['c-curve', '--eps', '0.01', '--p', '0.05', "
     "'--out-dir', sys.argv[1]]) == 0", False),
    # the one command that loads scipy: R(h) by QUADPACK
    ("assert cli.main(['canard-stability', '--n', '3', "
     "'--out-dir', sys.argv[1]]) == 0", True),
], ids=["import", "folds", "c-curve", "canard-stability"])
def test_commands_import_scipy_only_for_quadrature(tmp_path, step,
                                                   scipy_needed):
    # a process pays scipy's package imports (about 0.4 s) only where it
    # integrates R(h); every root solve and the DOP853 tableau are the
    # package's own
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE.format(step=step), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    if scipy_needed:
        assert "scipy.integrate" in loaded
    else:
        assert loaded == []

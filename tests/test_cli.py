"""End-to-end command-line workflows and exit-code contracts."""

import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elstable
from elstable import cli, harness, limitlaw, processes
from elstable.cli import build_parser, main
from elstable.emplik import x_n
from elstable.errors import NumericalError
from elstable.limitlaw import LimitLawConfig
from elstable.processes import simulate_vector_linear, vma_table_spec
from elstable.scores import acf_score, estimating_function
from oracles import read_records_csv


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "series.csv"
    code = run_cli("simulate", "--n", 300, "--seed", 42, "--output", path)
    assert code == 0
    return path


def test_simulate_writes_deterministic_series(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("simulate", "--n", 50, "--seed", 3, "--output", a) == 0
    assert run_cli("simulate", "--n", 50, "--seed", 3, "--output", b) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "x" and len(lines) == 51


def test_simulate_vector_uses_one_column_per_coordinate(tmp_path):
    path = tmp_path / "vec.csv"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": {"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}}}))
    assert run_cli("simulate", "--n", 20, "--config", config, "--output", path) == 0
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "x1,x2" and len(lines) == 21


def test_ci_known_alpha(series_csv, tmp_path, capsys):
    out = tmp_path / "ci.csv"
    code = run_cli("ci", "--input", series_csv, "--alpha", 1.5, "--seed", 1,
                   "--limit-reps", 2000, "--grid-step", 0.01, "--output", out)
    assert code == 0
    records = read_records_csv(out)
    methods = {r["method"]: r for r in records}
    assert set(methods) == {"el", "sac"}
    el, sac = methods["el"], methods["sac"]
    assert el["lower"] < el["upper"] and sac["lower"] < sac["upper"]


def test_ci_requires_exactly_one_alpha_source(series_csv, capsys):
    assert run_cli("ci", "--input", series_csv) == 2
    assert "alpha" in capsys.readouterr().err
    assert run_cli("ci", "--input", series_csv, "--alpha", 1.5, "--estimate-alpha") == 2


@pytest.mark.parametrize("alpha", [2.0, 0.5])
def test_ci_rejects_alpha_outside_inference_range(series_csv, capsys, alpha):
    message = f"inference requires alpha in [1, 2), got {alpha}"
    assert run_cli("ci", "--input", series_csv, "--alpha", alpha) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # the library entry points share the one message
    score = acf_score(2)
    for call in (lambda: x_n(300, alpha),
                 lambda: LimitLawConfig(score=score, theta0=np.zeros(1),
                                        alpha=alpha, transfer=[1.0]),
                 lambda: estimating_function(np.arange(8.0), score, 0.1, alpha)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_ci_estimates_the_index(series_csv, tmp_path, capsys):
    # the demo series is the alpha = 1.5 design
    out = tmp_path / "estimated_ci.csv"
    code = run_cli("ci", "--input", series_csv, "--estimate-alpha", "--seed", 1,
                   "--limit-reps", 2000, "--grid-step", 0.01, "--output", out)
    assert code == 0
    assert "note:" not in capsys.readouterr().err
    meta = dict(line[2:].split("=", 1) for line in out.read_text().splitlines()
                if line.startswith("# ") and "=" in line)
    assert abs(float(meta["alpha"]) - 1.5) <= 0.25


def test_ci_reports_a_clipped_estimate(tmp_path, capsys):
    # Uniform noise has light tails: its estimate, 2.06, lies past the
    # largest index the inference admits, so it is clipped to 1.99 and says so.
    series = tmp_path / "uniform.csv"
    series.write_text("".join(f"{value:.17g}\n" for value in
                              np.random.default_rng(0).uniform(-1.0, 1.0, 300)))
    estimated, known = tmp_path / "estimated.csv", tmp_path / "known.csv"
    common = ["ci", "--input", series, "--limit-reps", 2000, "--grid-step", 0.01]
    assert run_cli(*common, "--estimate-alpha", "--output", estimated) == 0
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("note:")]
    assert notes == ["note: estimated alpha 2.06 clipped to 1.99"]
    assert run_cli(*common, "--alpha", 1.99, "--output", known) == 0
    assert "note:" not in capsys.readouterr().err
    assert estimated.read_bytes() == known.read_bytes()


def test_ci_sample_acf_warning_names_the_noise_floor(tmp_path):
    # The sample autocorrelations of a long series level off at their noise
    # floor, so a longer truncation makes the SAC constant K worse: the
    # warning names that cause instead of advising it, and the CSV is the
    # one the series always gave.
    series, out = tmp_path / "long.csv", tmp_path / "ci.csv"
    assert run_cli("simulate", "--n", 10_000, "--seed", 7, "--output", series) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("ci", "--input", series, "--alpha", 1.5, "--lag", 2,
                       "--output", out) == 0
    messages = [str(w.message) for w in caught]
    assert not any("increase the truncation order" in m for m in messages)
    assert any("sample-autocorrelation" in m and "noise floor" in m for m in messages)
    rows = {r["method"]: r for r in read_records_csv(out)}
    assert (rows["el"]["lower"], rows["el"]["upper"]) == (0.096, 0.129)
    assert rows["sac"]["lower"] == pytest.approx(0.09344045268, rel=1e-9)
    assert rows["sac"]["upper"] == pytest.approx(0.1319476701, rel=1e-9)


def test_ci_missing_file_is_a_usage_error(capsys):
    assert run_cli("ci", "--input", "/nonexistent.csv", "--alpha", 1.5) == 2
    assert "error:" in capsys.readouterr().err


def test_ci_rejects_non_finite_series(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n1.0\nNaN\n2.0\n")
    assert run_cli("ci", "--input", bad, "--alpha", 1.5) == 2
    assert "row 3" in capsys.readouterr().err


_KNOWN, _ESTIMATED = ["--alpha", 1.5], ["--estimate-alpha"]


@pytest.mark.parametrize("series, config, source, message", [
    ("0.1\n-0.5\n0.3\n", {}, _KNOWN, "series length must be at least 8, got 3"),
    ("1 # note\n" + "2\n" * 9, {}, _KNOWN, "malformed row 1: '1 # note'"),
    ("1,2\n3\n", {}, _KNOWN, "inconsistent column counts [1, 2] in "),
    (None, {"n": "abc"}, _KNOWN, "n must be an integer, got 'abc'"),
    (None, {"methods": "el"}, _KNOWN, "methods must be a list of method names, got 'el'"),
    (None, {"truncation": 0}, _KNOWN, "truncation must be at least 1, got 0"),
    # vector data reads its process from the config
    (None, {"process": {"kind": "ma", "alpha": 1.5},
            "score": {"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]}},
     _KNOWN, "an 'ma' process spec has no 'psi' entry"),
    (None, {"scale_convention": [1]}, _KNOWN, "scale_convention must be 'davis-resnick' "
     "or a pair of finite positive numbers, got [1]"),
    (None, {"scale_convention": 3}, _KNOWN, "scale_convention must be 'davis-resnick' "
     "or a pair of finite positive numbers, got 3"),
    (None, {"score": 5}, _KNOWN, "score must be a JSON object, got 5"),
    (None, {"score": ["acf_lag"]}, _KNOWN, "score must be a JSON object, got ['acf_lag']"),
    # numpy's SeedSequence would refuse it without naming the field
    (None, {"seed": -1}, _KNOWN, "seed must be a non-negative integer, got -1"),
    # a field the config no longer has is unknown, not ignored
    (None, {"hill_k": 30, "grid_min": 0.0}, _KNOWN,
     "unknown config fields: ['grid_min', 'hill_k']"),
    # the estimated index needs a spread: a constant series and one whose
    # quartiles coincide have none
    ("2.5\n" * 40, {}, _ESTIMATED, "series has a zero interquartile range"),
    ("0\n" * 40 + "1\n2\n3\n", {}, _ESTIMATED, "series has a zero interquartile range"),
], ids=["short-series", "number-in-first-row", "ragged", "string-n", "string-methods",
        "zero-truncation", "process-without-psi", "one-scale-multiplier", "number-scale",
        "number-score", "list-score", "negative-seed", "removed-fields", "constant-series",
        "zero-iqr-series"])
def test_ci_bad_input_exits_2_with_one_error_line(series_csv, tmp_path, capsys,
                                                  series, config, source, message):
    path = series_csv
    if series is not None:
        path = tmp_path / "series.csv"
        path.write_text(series)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run_cli("ci", "--input", path, *source, "--config", config_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_limit_quantiles_structure(tmp_path):
    out = tmp_path / "limit.csv"
    code = run_cli("limit", "--levels", "0.8,0.9", "--seed", 2,
                   "--limit-reps", 2000, "--output", out)
    assert code == 0
    records = read_records_csv(out)
    assert [r["p"] for r in records] == [0.8, 0.9]
    assert records[0]["gamma_p"] < records[1]["gamma_p"]
    assert all(r["stderr"] > 0 for r in records)


@pytest.mark.parametrize("config, gamma_p, stderr", [
    (None, [2.277947391, 6.200238768], [0.2004439371, 0.7814981778]),
    ({"process": {"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}},
      "score": {"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]}},
     [22.0807474, 45.33598334], [1.945752201, 4.456373034]),
], ids=["acf", "var1"])
def test_limit_quantiles_are_pinned(tmp_path, config, gamma_p, stderr):
    # The full series sampler of the scalar and the matrix law at a fixed
    # seed: its draws, the quantiles and their bootstrap errors.
    args = ["limit", "--levels", "0.9,0.95", "--limit-reps", 2000, "--seed", 2,
            "--output", tmp_path / "limit.csv"]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args += ["--config", tmp_path / "config.json"]
    assert run_cli(*args) == 0
    records = read_records_csv(tmp_path / "limit.csv")
    assert [r["reps"] for r in records] == [2000, 2000]
    assert [r["gamma_p"] for r in records] == pytest.approx(gamma_p, rel=1e-9)
    assert [r["stderr"] for r in records] == pytest.approx(stderr, rel=1e-9)


# B(theta) = [[1.02, theta], [-1, 0]] has spectral radius 0.548 at theta = 0.3
# but 1.02 at 0, and is stable exactly for theta in (0.02, 1)
OFF_ZERO = {"process": {"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}},
            "score": {"name": "var1", "template": [[1.02, "theta"], [-1.0, 0.0]]}}


def test_limit_at_a_stable_point_of_an_off_zero_template(tmp_path):
    # building the score evaluates nothing, and the law is evaluated only at
    # the point asked for
    (tmp_path / "config.json").write_text(json.dumps(OFF_ZERO))
    assert run_cli("limit", "--config", tmp_path / "config.json", "--theta", 0.3,
                   "--limit-reps", 2000, "--output", tmp_path / "limit.csv") == 0
    [record] = read_records_csv(tmp_path / "limit.csv")
    assert record["p"] == 0.9 and record["gamma_p"] > 0.0


def test_ci_and_limit_on_an_off_zero_template(tmp_path, capsys):
    # the rows, the plug-in point and the pivotal value never evaluate the
    # coupling matrix at theta = 0; only a coupling value is checked
    config, series = tmp_path / "config.json", tmp_path / "v.csv"
    config.write_text(json.dumps(OFF_ZERO))
    assert run_cli("simulate", "--config", config, "--n", 300, "--output", series) == 0
    assert run_cli("ci", "-i", series, "--config", config, "--alpha", 1.5,
                   "--limit-reps", 2000, "--output", tmp_path / "ci.csv") == 0
    [el] = read_records_csv(tmp_path / "ci.csv")
    assert el["method"] == "el" and el["lower"] < el["upper"]
    # without --theta the law is taken at the pivotal value, a stable point
    assert run_cli("limit", "--config", config, "--limit-reps", 2000,
                   "--output", tmp_path / "limit.csv") == 0
    capsys.readouterr()
    assert run_cli("limit", "--config", config, "--theta", 0.01, "--limit-reps", 2000) == 2
    assert "spectral radius 1.0101 >= 1 at theta=0.01" in capsys.readouterr().err


def test_off_zero_coverage_records_each_unstable_plugin_point(tmp_path):
    # a replicate whose plug-in point is not a stable coupling value gets its
    # own error record; the other replicates are answered
    config = dict(OFF_ZERO, limit_reps=1000, grid_step=0.01)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run_cli("coverage", "--config", tmp_path / "config.json", "--replicates", 100,
                   "--workers", 1, "--output", tmp_path / "cov.csv") == 0
    statuses = [r["status"] for r in read_records_csv(tmp_path / "cov.csv")]
    errors = [s for s in statuses if s != "ok"]
    assert len(errors) == 5
    assert all(s.startswith("error: DomainError: coupling matrix has spectral radius ")
               for s in errors)


def test_table_smoke(tmp_path):
    out = tmp_path / "table3.csv"
    code = run_cli("table", "--id", 3, "--seed", 1, "--limit-reps", 2000,
                   "--grid-step", 0.01, "--output", out)
    assert code == 0
    records = read_records_csv(out)
    assert [r["case"] for r in records] == ["case-6", "case-7"]


def test_table_reads_its_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "level": 0.8, "grid_step": 0.01,
                                  "limit_reps": 2000}))
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert run_cli("table", "--id", 3, "--config", config, "--output", from_file) == 0
    assert run_cli("table", "--id", 3, "--seed", 1, "--level", 0.8,
                   "--grid-step", 0.01, "--limit-reps", 2000,
                   "--output", from_flags) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
    assert "# seed=1\n" in from_file.read_text()


def test_ci_exact_transfer_needs_a_process(series_csv, tmp_path, capsys):
    # the process behind a data series is unknown, so there is no exact transfer
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"transfer_mode": "exact"}))
    assert run_cli("ci", "--input", series_csv, "--alpha", 1.5,
                   "--config", config) == 2
    assert "process spec" in capsys.readouterr().err


def test_ci_rejects_a_removed_config_field(series_csv, tmp_path, capsys):
    # the matrix limit law has independent entries only; the old switch for
    # a shared draw per lag is an unknown field now
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dependence": "common"}))
    assert run_cli("ci", "--input", series_csv, "--alpha", 1.5,
                   "--config", config) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: unknown config fields: ['dependence']\n"
    assert captured.out == ""


def test_coverage_checks_quad_points_at_the_config(tmp_path):
    # An odd grid or one below 16 is refused before any replicate, with one
    # message, for a scalar and a matrix score alike.  The scalar law has no
    # grid, so an even value of at least 16 leaves every scalar record as it is.
    path, out = tmp_path / "config.json", tmp_path / "o.csv"
    var1 = {"process": _VMA, "methods": ["el"], "limit_reps": 1000, "grid_step": 0.01,
            "score": {"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]}}
    for config in ({"quad_points": 4095}, {"quad_points": 14},
                   dict(var1, quad_points=4095)):
        path.write_text(json.dumps(config))
        _exits_with_one_line(["coverage", "--config", path, "--n", 64, "--replicates",
                              100, "--workers", 1, "--output", out], 2,
                             f"error: quad_points must be an even integer of at least "
                             f"16, got {config['quad_points']}")
    rows = []
    for config in ({"quad_points": 20}, {}):
        path.write_text(json.dumps(config))
        assert run_cli("coverage", "--config", path, "--n", 64, "--replicates", 100,
                       "--workers", 1, "--output", out) == 0
        rows.append([line for line in out.read_text().splitlines()
                     if not line.startswith("#")])
    assert rows[0] == rows[1]
    assert all(record["status"] == "ok" for record in read_records_csv(out))


def test_table_rejects_unknown_id(capsys):
    # argparse enforces the valid table ids directly
    with pytest.raises(SystemExit) as info:
        run_cli("table", "--id", 4)
    assert info.value.code == 2


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_coverage_writes_records_and_summary(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid_step": 0.01, "limit_reps": 2000,
                                  "truncation": 60}))
    out = tmp_path / "records.csv"
    code = run_cli("coverage", "--config", config, "--replicates", 100,
                   "--n", 64, "--seed", 21, "--workers", 2, "--output", out)
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["replicates"] == 100
    assert len(read_records_csv(out)) == 100


@pytest.mark.parametrize("workers", [0, -3])
def test_coverage_rejects_fewer_than_one_worker(workers, capsys):
    # rejected before any replicate runs, not silently run serially
    assert run_cli("coverage", "--replicates", 100, "--workers", workers) == 2
    assert "workers must be at least 1" in capsys.readouterr().err


def test_hill_plot_smoke(series_csv, tmp_path):
    out = tmp_path / "hill.csv"
    code = run_cli("hill-plot", "--input", series_csv, "--kmin", 5,
                   "--kmax", 50, "--points", 10, "--output", out)
    assert code == 0
    records = read_records_csv(out)
    assert len(records) == 10
    assert all(r["alpha_hat"] > 0 for r in records)


def test_hill_plot_takes_no_config_or_seed(series_csv):
    for flag in (["--seed", 1], ["--config", "config.json"]):
        with pytest.raises(SystemExit) as info:
            run_cli("hill-plot", "--input", series_csv, *flag)
        assert info.value.code == 2


def test_simulate_rejects_a_process_without_psi(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"process": {"kind": "ma", "alpha": 1.5}}))
    assert run_cli("simulate", "--config", config) == 2
    assert capsys.readouterr().err == "error: an 'ma' process spec has no 'psi' entry\n"


def test_simulate_rejects_a_process_that_is_not_an_object(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"process": 5}))
    assert run_cli("simulate", "--config", config) == 2
    assert capsys.readouterr().err == "error: process must be a JSON object, got 5\n"


def test_back_to_back_calls_print_what_separate_calls_print(series_csv, capsys):
    # main() parses every call with one parser, so no flag of one call may
    # reach the next: --estimate-alpha then --alpha, and a coverage run then a table.
    calls = [("ci", "--input", series_csv, "--estimate-alpha", "--limit-reps", 2000),
             ("ci", "--input", series_csv, "--alpha", 1.5, "--limit-reps", 2000),
             ("coverage", "--n", 64, "--replicates", 100, "--workers", 1),
             ("table", "--id", 1, "--limit-reps", 2000)]

    def outputs(fresh_parser):
        printed = []
        for args in calls:
            if fresh_parser:
                cli._parser.cache_clear()
            assert run_cli(*args) == 0
            printed.append(capsys.readouterr())
        return printed

    assert outputs(fresh_parser=False) == outputs(fresh_parser=True)


def test_a_call_leaves_no_cyclic_garbage(series_csv, capsys):
    # In-process callers make many calls; none may leave reference cycles
    # behind for the collector (a fresh parser per call left hundreds).
    args = ("ci", "--input", series_csv, "--alpha", 1.5, "--limit-reps", 2000)
    assert run_cli(*args) == 0
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run_cli(*args) == 0
        gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_parser_covers_all_subcommands():
    parser = build_parser()
    for command in ("simulate", "ci", "limit", "table", "coverage", "hill-plot"):
        assert parser.parse_args([command] + (
            ["--input", "x.csv", "--alpha", "1.5"] if command == "ci"
            else ["--id", "1"] if command == "table"
            else ["--input", "x.csv"] if command == "hill-plot"
            else [])).command == command


def test_ci_plugin_point_outside_the_domain_exits_3(tmp_path, capsys):
    # On this series the summed coupling rows vanish at theta = 6.307, outside
    # the domain (-1, 1) of the coupling score, so no plug-in point exists.
    x = simulate_vector_linear(vma_table_spec(0.3), 120, np.random.default_rng(5))
    series = tmp_path / "vec.csv"
    np.savetxt(series, x, delimiter=",")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "process": {"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}},
        "score": {"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]}}))
    assert run_cli("ci", "--input", series, "--config", config, "--alpha", 1.5) == 3
    err = capsys.readouterr().err
    assert "plug-in point 6.307" in err and "(-1.0, 1.0)" in err


def test_public_names_resolve_and_none_is_a_module():
    # The package exports its functions and types; its submodules stay
    # importable as elstable.harness and so on, but are not exported.
    assert len(set(elstable.__all__)) == len(elstable.__all__)
    for name in elstable.__all__:
        assert not isinstance(getattr(elstable, name), types.ModuleType), name
    assert isinstance(elstable.harness, types.ModuleType)


def test_cli_import_leaves_scipy_out():
    # Every CLI call pays its import time, and the runtime needs numpy
    # only: no module of the package imports scipy.
    src = str(Path(elstable.__file__).resolve().parents[1])
    code = "import sys, elstable.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_start_up_loads_nothing_its_output_does_not_read():
    # Importing the CLI and building the default score and process draws no
    # random numbers and starts no pool, so neither numpy.random nor
    # concurrent.futures (which brings logging) is loaded; a module a bare
    # numpy import loads already is no cost of the package.
    src = str(Path(elstable.__file__).resolve().parents[1])
    code = ("import json, sys, numpy\n"
            "watched = [m for m in ('numpy.random', 'concurrent.futures', 'logging')\n"
            "           if m not in sys.modules]\n"
            "import elstable.cli\n"
            "from elstable.harness import ExperimentConfig\n"
            "config = ExperimentConfig()\n"
            "config.build_score(), config.build_process()\n"
            "print(json.dumps([watched, [m for m in watched if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    watched, loaded = json.loads(out.stdout)
    assert watched, "a bare numpy import loads every watched module"
    assert loaded == []


def test_cli_runs_without_scipy(tmp_path):
    # The runtime depends on numpy only: simulate a series and compute its
    # intervals with every scipy import made to fail.
    src = str(Path(elstable.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from elstable.cli import main\n"
            "assert main(['simulate', '--n', '300', '--seed', '1', '-o', 's.csv']) == 0\n"
            "sys.exit(main(['ci', '-i', 's.csv', '--alpha', '1.5', '--limit-reps', '1000']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2].startswith("el,0.9,")


# The address space a refused call runs under: the interpreter and numpy fit
# in it, and a regression that allocates what it was asked for fails with
# MemoryError instead of exhausting the machine.
_AS_LIMIT = 1 << 30
_LIMITED = ("import resource, sys\n"
            f"limit = min({_AS_LIMIT}, resource.getrlimit(resource.RLIMIT_AS)[1])\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from elstable.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("args, config, message", [
    (["ci", "--alpha", "1.5", "--grid-step", "1e-9"], None, "more than 1000000 grid points"),
    (["coverage", "--replicates", str(10**20)], None, "replicates must lie in"),
    (["simulate"], {"process": {"kind": "ma", "alpha": 1.5,
                                "psi": {"kind": "exp_over_j", "b": 0.5, "order": 10**9}}},
     "psi shorthand order must lie in"),
    (["coverage"], {"process": {"kind": "vma", "alpha": 1.5,
                                "coeffs": {"kind": "table", "b": 0.3, "order": 10**9}}},
     "coeffs shorthand order must lie in"),
], ids=["grid-step", "replicates", "psi-order", "coeffs-order"])
def test_absurd_in_range_sizes_are_refused_before_allocating(tmp_path, series_csv, args,
                                                             config, message):
    if args[0] == "ci":
        args = [*args, "-i", str(series_csv)]
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = [*args, "--config", "config.json"]
    src = str(Path(elstable.__file__).resolve().parents[1])
    # one BLAS thread: thread buffers would take address space of their own
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _LIMITED, *args], capture_output=True,
                         text=True, cwd=tmp_path, env=env, timeout=120)
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


def test_hill_plot_caps_its_points_at_one_per_k(tmp_path, series_csv):
    # more points than integer k in [kmin, kmax] give the same ks, so a huge
    # --points neither allocates its linspace nor changes the output
    src = str(Path(elstable.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    outputs = []
    for points in (10**12, 46):
        out = subprocess.run([sys.executable, "-c", _LIMITED, "hill-plot", "-i",
                              str(series_csv), "--kmin", "5", "--kmax", "50",
                              "--points", str(points)],
                             capture_output=True, text=True, cwd=tmp_path, env=env,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    assert [row.split(",")[0] for row in outputs[0].splitlines()[-46:]] == \
        [str(k) for k in range(5, 51)]


# --------------------------------------------------------------------------
# exit-code contract under fuzzed input

def _exits_with_one_line(argv, code: int, prefix: str) -> None:
    """``main(argv)`` returns ``code``, prints nothing to stdout and exactly
    one line, starting with ``prefix``, to stderr."""
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == code, err.getvalue()
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), err.getvalue()


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _bad_series(draw) -> bytes:
    """A series file that must be refused: malformed, header-only, not
    UTF-8, non-finite or ragged."""
    kind = draw(st.sampled_from(["malformed", "header-only", "non-utf8",
                                 "non-finite", "ragged"]))
    rows = [repr(v) for v in draw(st.lists(_FINITE, min_size=8, max_size=30))]
    if kind == "header-only":
        header = draw(st.text(alphabet="abcxyz_", min_size=1, max_size=8))
        return (header + "\n" + draw(st.sampled_from(["", "# note\n", "\n\n"]))).encode()
    if kind == "ragged":
        width = draw(st.integers(1, 3))
        rows = [",".join([row] * width) for row in rows]
        rows[draw(st.integers(0, len(rows) - 1))] += ",0.5"
    elif kind == "malformed":
        # a first row that reads as no number at all would be a header
        token = draw(st.text(alphabet="abcdxyz;:!?", min_size=1, max_size=5))
        at = draw(st.integers(1, len(rows) - 1))
        rows[at] = draw(st.sampled_from([token, f"{rows[at]} {token}", f"{token}{rows[at]}"]))
    elif kind == "non-finite":
        rows[draw(st.integers(0, len(rows) - 1))] = draw(
            st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999", "-1e400"]))
    text = ("\n".join(rows) + "\n").encode()
    if kind == "non-utf8":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([b"\xff", b"\xfe\xfe", b"\xc3\x28", b"\x80"])) + text[at:]
    return text


@settings(max_examples=60, deadline=None)
@given(content=_bad_series(), command=st.sampled_from([["ci", "--alpha", 1.5], ["hill-plot"]]))
def test_fuzzed_bad_series_exit_2_with_one_error_line(content, command):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "series.csv"
        path.write_bytes(content)
        _exits_with_one_line([command[0], "--input", path, *command[1:]], 2, "error: ")


def _outside(lo: float, hi: float):
    """Floats, infinities and nan outside ``[lo, hi)``."""
    return st.floats().filter(lambda v: not lo <= v < hi)


# every level in the open interval (0, 1) is valid, subnormal ones included
_BAD_LEVELS = st.floats().filter(lambda v: not 0.0 < v < 1.0)

_BAD_FLAGS = st.one_of(
    st.tuples(st.just(["ci", "--alpha", 1.5, "--level"]), _BAD_LEVELS),
    st.tuples(st.just(["ci", "--alpha"]), _outside(1.0, 2.0)),
    st.tuples(st.just(["ci", "--alpha", 1.5, "--grid-step"]),
              st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan])),
    st.tuples(st.just(["ci", "--alpha", 1.5, "--limit-reps"]), st.integers(max_value=999)),
    st.tuples(st.just(["ci", "--alpha", 1.5, "--lag"]),
              st.integers(max_value=0) | st.integers(min_value=300)),
    st.tuples(st.just(["simulate", "--n"]), st.integers(max_value=7)),
    st.tuples(st.just(["limit", "--limit-reps", 1000, "--levels"]), _BAD_LEVELS),
    st.tuples(st.just(["limit", "--limit-reps", 1000, "--theta"]),
              st.floats().filter(lambda v: not -1.0 < v < 1.0)),
    st.tuples(st.just(["table", "--id", 1, "--level"]), _BAD_LEVELS),
    st.tuples(st.just(["coverage", "--replicates"]), st.integers(max_value=99)),
    st.tuples(st.just(["coverage", "--workers"]), st.integers(max_value=0)),
    st.tuples(st.just(["hill-plot", "--kmin"]), st.integers(max_value=0)),
    st.tuples(st.just(["hill-plot", "--kmax"]),
              st.integers(max_value=4) | st.integers(min_value=300)),
    st.tuples(st.just(["hill-plot", "--points"]), st.integers(max_value=0)),
)


@settings(max_examples=80, deadline=None)
@given(flag=_BAD_FLAGS)
def test_fuzzed_out_of_range_flags_exit_2_with_one_error_line(series_csv, flag):
    # "--flag=value", as argparse takes "-1e+16" after a space for an option
    (command, *options, name), value = flag
    inputs = ["--input", series_csv] if command in ("ci", "hill-plot") else []
    _exits_with_one_line([command, *inputs, *options, f"{name}={value}"], 2, "error: ")


def _junk(*valid):
    """JSON values of the wrong type: strings, bools, lists and objects,
    other than ``valid``."""
    return st.one_of(st.text(max_size=4), st.booleans(),
                     st.lists(st.integers(0, 9), max_size=2),
                     st.dictionaries(st.sampled_from("ab"), st.integers(0, 9), max_size=1),
                     ).filter(lambda v: v not in valid)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_PROCESS = {"kind": "ma", "alpha": 1.5, "psi": {"kind": "exp_over_j", "b": 0.5}}
_VMA = {"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}}


def _nested(base: dict, path: tuple, value) -> dict:
    """A deep copy of ``base`` with ``value`` at ``path``."""
    data = json.loads(json.dumps(base))
    inner = data
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return data


_WRONG_CONFIGS = st.one_of(
    # top-level fields, read by ExperimentConfig
    st.builds(lambda k, v: {k: v}, st.sampled_from(
        ["n", "replicates", "seed", "limit_reps", "truncation", "quad_points"]),
        _junk() | st.none() | st.floats()),
    st.builds(lambda k, v: {k: v}, st.sampled_from(["level", "grid_step"]),
              _junk() | st.none() | _NON_FINITE),
    st.builds(lambda v: {"workers": v}, _junk() | st.floats()),
    st.builds(lambda k, v: {k: v}, st.sampled_from(["alpha_mode", "transfer_mode"]),
              _junk("known", "estimated", "smoothed", "exact") | st.none()),
    st.builds(lambda v: {"methods": v}, st.text(max_size=4) | st.none() | st.booleans()
              | st.lists(st.integers(), min_size=1, max_size=2)),
    st.builds(lambda v: {"scale_convention": v}, st.none() | st.booleans() | st.floats()
              | st.lists(st.text(max_size=2) | st.none(), min_size=2, max_size=2)
              | st.text(max_size=4).filter(lambda v: v != "davis-resnick")),
    st.builds(lambda k, v: {k: v}, st.sampled_from(["process", "score"]),
              st.text(max_size=4) | st.lists(st.integers(), max_size=2) | st.integers()
              | st.none() | st.booleans()),
    # the score, built by ci
    st.builds(lambda v: {"score": {"name": "acf_lag", "lag": v}},
              _junk() | st.none() | st.floats()),
    st.builds(lambda v: {"score": {"name": "var1", "template": [[0.5, v], [0.4, 0.2]]}},
              _junk().filter(lambda v: not (isinstance(v, str) and v.strip().lower() == "theta"))
              | st.none() | _NON_FINITE),
    # the process, built by simulate
    st.builds(lambda path, v: {"process": _nested(_PROCESS, path, v)},
              st.sampled_from([("alpha",), ("scale",), ("psi", "b")]),
              _junk() | st.none() | _NON_FINITE),
    st.builds(lambda base, v: {"process": _nested(base, ("psi", "order")
                                                  if base is _PROCESS else ("coeffs", "order"), v)},
              st.sampled_from([_PROCESS, _VMA]), _junk() | st.none() | st.floats()),
    st.builds(lambda v: {"process": _nested(_PROCESS, ("psi",), [1.0, 0.5, v])},
              _junk().filter(lambda v: not (isinstance(v, str) and harness._is_number(v)))
              | st.none()),
)


@settings(max_examples=100, deadline=None)
@given(config=_WRONG_CONFIGS)
def test_fuzzed_wrong_typed_config_values_exit_2_with_one_error_line(series_csv, config):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "config.json"
        path.write_text(json.dumps(config))
        command = (["simulate", "--n", 50] if "process" in config
                   else ["ci", "--input", series_csv, "--alpha", 1.5])
        _exits_with_one_line([*command, "--config", path, "--output", Path(folder) / "o.csv"],
                             2, "error: ")


@settings(max_examples=20, deadline=None)
@given(failure=st.sampled_from([NumericalError("forced"), RuntimeError("forced"),
                                FloatingPointError("forced"), ZeroDivisionError("forced"),
                                OverflowError("forced"), np.linalg.LinAlgError("forced")]),
       command=st.sampled_from([["ci", "--alpha", 1.5], ["table", "--id", 5],
                                ["limit"], ["simulate"]]))
def test_forced_numerical_failure_exits_3_with_one_line(series_csv, failure, command):
    def fail(*args, **kwargs):
        raise failure

    inputs = ["--input", series_csv] if command[0] == "ci" else []
    with pytest.MonkeyPatch.context() as patch:
        for module in (harness, limitlaw):
            patch.setattr(module, "prepare_limit", fail)
        patch.setattr(processes, "sample_sas", fail)
        _exits_with_one_line([command[0], *inputs, *command[1:], "--limit-reps", 1000]
                             if command[0] != "simulate" else command,
                             3, "numerical failure: ")

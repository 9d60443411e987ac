"""Model file loading, artifact writers, CLI surface and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import qefrate as q
from qefrate import io as qio
from qefrate.cli import main
from qefrate.errors import ParameterError
from qefrate.io import load_model, validate_summary, write_csv, write_summary
from qefrate.twomode import TWO_MODE_A, TWO_MODE_B, TWO_MODE_WEIGHT


@pytest.fixture()
def runner():
    return CliRunner()


def write_model(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def direct_model_file(tmp_path):
    return write_model(tmp_path / "model.json", {
        "A": TWO_MODE_A.tolist(),
        "B": TWO_MODE_B.tolist(),
        "Pi": TWO_MODE_WEIGHT.tolist(),
    })


class TestLoadModel:
    def test_direct_schema(self, direct_model_file, twomode):
        ss = load_model(direct_model_file)
        assert np.array_equal(ss.a, twomode.a)
        assert np.allclose(ss.sigma, twomode.sigma, atol=1e-12)

    def test_physical_schema(self, tmp_path):
        from qefrate.model import BJ2
        path = write_model(tmp_path / "p.json", {
            "theta": (0.5 * BJ2).tolist(),
            "R": np.eye(2).tolist(),
            "M": np.diag([1.0, 0.5]).tolist(),
            "Pi": np.eye(2).tolist(),
        })
        ss = load_model(path)
        eig = np.sort_complex(np.linalg.eigvals(ss.a))
        assert np.allclose(eig, [-0.5 - 1.0j, -0.5 + 1.0j], atol=1e-12)

    def test_missing_fields(self, tmp_path):
        path = write_model(tmp_path / "bad.json", {"R": [[1.0]]})
        with pytest.raises(ParameterError):
            load_model(path)

    def test_non_numeric_matrix(self, tmp_path):
        path = write_model(tmp_path / "bad.json", {
            "A": [["x", 0.0], [0.0, "y"]], "B": np.eye(2).tolist(),
            "Pi": np.eye(2).tolist()})
        with pytest.raises(ParameterError):
            load_model(path)


class TestWriters:
    def test_csv_roundtrip_floats(self, tmp_path):
        path = tmp_path / "t.csv"
        values = [0.1, 1.0 / 3.0, 1e-17, 123456.789]
        write_csv(path, ["x"], [[v] for v in values])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x"
        for text, v in zip(lines[1:], values):
            assert float(text) == v

    def test_summary_schema_validation(self):
        validate_summary({"command": "rate", "version": "0.1.0"})
        with pytest.raises(Exception):
            validate_summary({"version": "0.1.0"})

    def test_validator_built_once(self, tmp_path):
        qio._summary_validator.cache_clear()
        for k in range(3):
            write_summary(tmp_path / f"s{k}.json",
                          {"command": "rate", "version": "0.1.0"})
        info = qio._summary_validator.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_shipped_schema_passes_its_meta_schema(self):
        schema = qio._summary_schema()
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("bad", [
        {"version": "0.1.0"},
        {"command": "rate", "version": "0.1.0", "rule": 15},
        {"command": "rate", "version": "0.1.0", "quad_error": -1.0},
        {"command": 3, "version": None, "status": 1}],
        ids=["no-command", "rule-type", "negative-error", "several"])
    def test_malformed_summary_error_matches_jsonschema(self, bad, tmp_path):
        with pytest.raises(jsonschema.ValidationError) as ours:
            write_summary(tmp_path / "summary.json", bad)
        with pytest.raises(jsonschema.ValidationError) as reference:
            jsonschema.validate(bad, qio._summary_schema())
        assert ours.value.message == reference.value.message
        assert str(ours.value) == str(reference.value)
        assert not (tmp_path / "summary.json").exists()


class TestCliExitCodes:
    def test_validate_ok(self, runner, direct_model_file, tmp_path):
        result = runner.invoke(main, ["validate", "--model", direct_model_file,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        report = json.loads((tmp_path / "validate.json").read_text())
        assert abs(report["theta0"] - 0.0908) < 2e-4

    def test_validate_unstable_exits_2(self, runner, tmp_path):
        path = write_model(tmp_path / "unstable.json", {
            "A": np.eye(2).tolist(), "B": np.eye(2).tolist(),
            "Pi": np.eye(2).tolist()})
        result = runner.invoke(main, ["validate", "--model", path,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "Hurwitz" in result.output

    def test_validate_zero_input_exits_2(self, runner, tmp_path):
        path = write_model(tmp_path / "degenerate.json", {
            "A": (-np.eye(2)).tolist(), "B": np.zeros((2, 2)).tolist(),
            "Pi": np.eye(2).tolist()})
        result = runner.invoke(main, ["validate", "--model", path,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "B J B" in result.output

    def test_infeasible_rate_exits_3(self, runner, direct_model_file,
                                     tmp_path):
        result = runner.invoke(main, ["rate", "--model", direct_model_file,
                                      "--theta", "2.0", "--out",
                                      str(tmp_path), "--step", "0.2"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("args", [["homotopy", "--theta-max", "nan"],
                                      ["homotopy", "--theta-max", "inf"],
                                      ["rate", "--theta", "nan"],
                                      ["sweep", "--theta-max", "nan"],
                                      ["sweep", "--theta-max", "-0.1"]])
    def test_non_finite_theta_exits_3(self, runner, tmp_path, args):
        result = runner.invoke(main, args + ["--step", "0.25",
                                             "--out", str(tmp_path)])
        assert result.exit_code == 3
        assert "must be finite" in result.output

    @pytest.mark.parametrize("args, code", [
        (["--theta", "nan"], 3), (["--theta", "inf"], 3),
        (["--dt", "0"], 4), (["--dt", "-0.1"], 4), (["--dt", "nan"], 4),
        (["--horizons", "4,nan"], 4), (["--horizons", "4,inf"], 4)],
        ids=["theta-nan", "theta-inf", "dt-zero", "dt-negative", "dt-nan",
             "horizon-nan", "horizon-inf"])
    def test_horizon_bad_inputs_exit(self, runner, tmp_path, args, code):
        base = ["horizon", "--theta", "0.02", "--horizons", "4", "--dt", "0.1"]
        result = runner.invoke(main, base + args + ["--out", str(tmp_path)])
        assert result.exit_code == code
        assert "finite" in result.output

    def test_horizon_guard_before_any_evaluation(self, runner, tmp_path,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(q.horizon, "ln_xi",
                            lambda *a, **k: calls.append(a))
        result = runner.invoke(main, ["horizon", "--theta", "0.02",
                                      "--horizons", "1,40",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 4
        assert "6400 at horizon 40 exceeds the guard 6000" in result.output
        assert calls == []

    @pytest.mark.parametrize("horizons, message", [
        ("10,10", "repeated horizon"), (",", "empty horizon list")],
        ids=["repeated", "empty"])
    def test_horizon_list_without_a_fit_exits_4(self, runner, tmp_path,
                                               monkeypatch, horizons, message):
        calls = []
        monkeypatch.setattr(q.horizon, "ln_xi",
                            lambda *a, **k: calls.append(a))
        out = tmp_path / "out"
        result = runner.invoke(main, ["horizon", "--theta", "0.03",
                                      "--horizons", horizons, "--out", str(out)])
        assert result.exit_code == 4
        assert message in result.stderr
        assert calls == []
        assert not out.exists()

    def test_horizon_step_must_divide_unit_time(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["horizon", "--theta", "0.02",
                                      "--horizons", "4,8", "--dt", "0.4",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for --dt" in result.output
        assert "nearest valid step is 1/3" in result.output
        assert not out.exists()

    def test_horizon_step_with_whole_inverse_runs_at_that_step(self, runner,
                                                               tmp_path):
        result = runner.invoke(main, ["horizon", "--theta", "0.02",
                                      "--horizons", "0.2,0.4", "--dt", "0.025",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        rows = (tmp_path / "horizon.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [8, 16]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["manifest"]["dt"] == 0.025

    def test_horizon_defaults_pass_the_guard(self, twomode):
        params = {p.name: p.default for p in main.commands["horizon"].params}
        orders = [twomode.n * round(float(t) / params["dt"])
                  for t in params["horizons"].split(",")]
        assert max(orders) <= params["max_dim"]

    def test_onemode_mismatch_exits_4(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(q.onemode, "generic_deviation",
                            lambda *a, **k: (1.0, 1.0))
        result = runner.invoke(main, ["onemode-check", "--samples", "5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 4
        assert "numerical failure" in result.stderr
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "mismatch"

    @pytest.mark.parametrize("args", [
        ["validate"], ["rate", "--theta", "0.02", "--step", "0.25"],
        ["onemode-check", "--samples", "20"]],
        ids=["validate", "rate", "onemode-check"])
    def test_threads_without_threadpoolctl(self, runner, tmp_path,
                                           monkeypatch, args):
        # a None entry in sys.modules makes the import fail, as when absent
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        result = runner.invoke(main, args + ["--threads", "1",
                                             "--out", str(tmp_path)])
        assert result.exit_code == 0
        assert ("threadpoolctl not installed; --threads ignored"
                in result.stderr)

    @pytest.mark.parametrize("args", [
        ["onemode-check", "--samples", "0"],
        ["onemode-check", "--samples", "-1"],
        ["bounds", "--theta-points", "0", "--step", "0.25"],
        ["sweep", "--points", "0", "--step", "0.25"]],
        ids=["samples-zero", "samples-negative", "theta-points-zero",
             "points-zero"])
    def test_count_options_reject_nonpositive(self, runner, tmp_path, args):
        out = tmp_path / "out"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value" in result.output
        assert "x>=1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["rate", "--theta", "0.045", "--cutoff", "nan"], "positive and finite"),
        (["rate", "--theta", "0.045", "--cutoff", "inf"], "positive and finite"),
        (["rate", "--theta", "0.045", "--step", "nan"], "positive and finite"),
        (["homotopy", "--step", "nan"], "positive and finite"),
        (["sweep", "--step", "nan"], "positive and finite"),
        (["bounds", "--alpha", "abc"], "Invalid value for --alpha"),
        (["bounds", "--eps", "0.1,x"], "Invalid value for --eps"),
        (["horizon", "--theta", "0.02", "--horizons", "1,x"],
         "Invalid value for --horizons"),
        (["bounds", "--alpha", "nan", "--eps", "nan"], "positive and finite"),
        (["bounds", "--alpha", "-1"], "positive and finite"),
        (["bounds", "--eps", "0.1,-0.1"], "finite and nonnegative")],
        ids=["cutoff-nan", "cutoff-inf", "rate-step-nan", "homotopy-step-nan",
             "sweep-step-nan", "alpha-text", "eps-text", "horizons-text",
             "alpha-eps-nan", "alpha-negative", "eps-negative"])
    def test_bad_option_values_exit_2(self, runner, tmp_path, args, message):
        out = tmp_path / "out"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()


class TestCliArtifacts:
    def test_sweep_flags_infeasible_rows(self, runner, tmp_path):
        result = runner.invoke(main, [
            "sweep", "--theta-max", "0.2", "--points", "4",
            "--step", "0.25", "--out", str(tmp_path)])
        assert result.exit_code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "theta,upsilon,classical_v,margin,status"
        assert len(rows) == 5
        assert any(r.endswith("infeasible") for r in rows[1:])

    def test_sweep_flags_unconverged_rows(self, runner, tmp_path):
        # on panels 7.5 wide the estimate misses the tolerance at 0.9 theta0
        result = runner.invoke(main, ["sweep", "--points", "3", "--step", "0.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        status = [r.split(",")[-1] for r in rows[1:]]
        assert status[0] == "ok"
        assert status[-1] == "quadrature-warning"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "quadrature-warning"

    def test_rate_artifacts_validate(self, runner, tmp_path):
        result = runner.invoke(main, ["rate", "--theta", "0.02",
                                      "--step", "0.1", "--out", str(tmp_path)])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        validate_summary(summary)
        profile = (tmp_path / "frequency_profile.csv").read_text()
        assert profile.startswith("lambda,neg_log_det_D,classical_integrand")

    def test_rate_summary_reports_rule(self, runner, tmp_path):
        for extra, layout in (([], "resonance"), (["--step", "0.1"], "uniform")):
            out = tmp_path / layout
            result = runner.invoke(main, ["rate", "--theta", "0.045", *extra,
                                          "--out", str(out)])
            assert result.exit_code == 0
            summary = json.loads((out / "summary.json").read_text())
            validate_summary(summary)
            assert summary["rule"] == f"gauss-kronrod-15/{layout}"
            assert 0.0 <= summary["quad_error"] <= 1e-6 * summary["upsilon"]
            assert summary["status"] == "ok"
        for bad in ({"rule": 15}, {"quad_error": -1.0}, {"quad_error": "0"}):
            with pytest.raises(Exception):
                validate_summary({"command": "rate", "version": "0.1.0", **bad})

    def test_horizon_csv(self, runner, tmp_path):
        result = runner.invoke(main, [
            "horizon", "--theta", "0.02", "--horizons", "4,8",
            "--dt", "0.1", "--out", str(tmp_path)])
        assert result.exit_code == 0
        rows = (tmp_path / "horizon.csv").read_text().strip().splitlines()
        assert rows[0] == "T,N,ln_xi,rate,spec_value,extrapolated_rate"
        assert len(rows) == 3

    def test_onemode_check(self, runner, tmp_path):
        result = runner.invoke(main, ["onemode-check", "--samples", "20",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["max_dev"]["psi"] < 1e-10

    def test_homotopy_summary_validates(self, runner, tmp_path):
        result = runner.invoke(main, ["homotopy", "--cutoff", "60", "--step",
                                      "0.25", "--out", str(tmp_path)])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        validate_summary(summary)

    def test_example_outputs_deterministic(self, runner, tmp_path):
        args = ["example", "--dtheta-frac", "0.1", "--cutoff", "60",
                "--step", "0.1"]
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        r1 = runner.invoke(main, args + ["--out", str(out1)])
        r2 = runner.invoke(main, args + ["--out", str(out2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        for name in ["logdet_profile.csv", "rate_curve.csv"]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        validate_summary(summary)
        # the coarse overrides used here inflate the theta-accumulation
        # error; the default-resolution gap is asserted in the acceptance
        # suite at 1e-3
        assert summary["cross_method_gap"] < 2e-2

    def test_example_flags_unconverged_direct_values(self, runner, tmp_path):
        # panels 7.5 wide miss the tolerance near 0.9 theta0, as in sweep
        result = runner.invoke(main, ["example", "--dtheta-frac", "0.1",
                                      "--step", "0.5", "--out", str(tmp_path)])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "quadrature-warning"

    def test_bounds_artifacts(self, runner, tmp_path):
        result = runner.invoke(main, [
            "bounds", "--step", "0.25", "--theta-points", "8",
            "--out", str(tmp_path)])
        assert result.exit_code == 0
        tails = (tmp_path / "tail_bounds.csv").read_text().splitlines()
        assert tails[0] == "alpha,bound,status"
        worst = (tmp_path / "worst_case_bounds.csv").read_text().splitlines()
        assert worst[0] == "eps,bound,status"

    def test_bounds_flags_unconverged_grid(self, runner, tmp_path):
        # panels 7.5 wide miss the tolerance on the theta grid, as in sweep
        result = runner.invoke(main, ["bounds", "--step", "0.5",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 0
        for name in ["tail_bounds.csv", "worst_case_bounds.csv"]:
            rows = (tmp_path / name).read_text().strip().splitlines()
            assert {r.split(",")[-1] for r in rows[1:]} == {"quadrature-warning"}
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["status"] == "quadrature-warning"


def test_import_leaves_heavy_modules_unloaded():
    code = ("import sys, qefrate, qefrate.cli; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.sparse', 'jsonschema') if m in sys.modules))")
    src = str(Path(q.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"

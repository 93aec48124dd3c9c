import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cbindex
from cbindex.cli import RunConfig, main
from cbindex.nbglm import FitMeta, FittedBenefitModel
from cbindex.trial_data import ScalingParams

from conftest import simulate_trial


def write_trial_csv(path, n=150, seed=42, single_arm=False):
    d = simulate_trial(np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2]), n=n,
                       seed=seed, theta=2.0, m=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,arm,y,t,x1,x2\n")
        for i in range(d.n):
            arm = 1 if single_arm else int(d.treatment[i])
            fh.write(
                f"s{i},{arm},{int(d.events[i])},{float(d.time[i])!r},"
                f"{float(d.covariates[i, 0])!r},{float(d.covariates[i, 1])!r}\n"
            )
    return path


@pytest.fixture
def workspace(tmp_path):
    csv = write_trial_csv(tmp_path / "trial.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "columns": {
            "treatment": "arm", "events": "y", "time": "t",
            "covariates": ["x1", "x2"], "id": "id",
        },
        "cv": {"folds": 3, "grid_size": 4, "min_ratio": 0.01},
    }))
    return tmp_path, csv, config


def run_cli(args):
    return main([str(a) for a in args])


def constant_model(b0):
    """A model whose only treatment term halves the rate: constant
    benefit exp(b0)/2 for every subject."""
    return FittedBenefitModel(
        coefficients=np.array([b0, -math.log(2), 0.0, 0.0, 0.0, 0.0]),
        coefficient_names=["intercept", "treatment", "x1", "x2",
                           "treatment:x1", "treatment:x2"],
        dispersion=1.0,
        penalty=0.0,
        scaling=ScalingParams.identity(2),
        fit_meta=FitMeta(0, True, 0.0, ()),
    )


class TestConfigErrors:
    @pytest.mark.parametrize("args, cv", [
        pytest.param(["estimate"], {"fold": 3}, id="cv-unknown-key"),
        pytest.param(["estimate"], {"folds": "abc"}, id="cv-folds-not-a-number"),
        pytest.param(["estimate"], {"folds": 1}, id="cv-one-fold"),
        pytest.param(["estimate"], {"loss": "abs"}, id="cv-unknown-loss"),
        pytest.param(["estimate"], {"grid_size": 0}, id="cv-empty-grid"),
        pytest.param(["estimate", "--bootstrap", "1"], None, id="one-bootstrap-replicate"),
        pytest.param(["estimate", "--bootstrap", "-3"], None, id="negative-bootstrap"),
        pytest.param(["estimate", "--workers", "0"], None, id="zero-workers"),
        pytest.param(["simulate", "--replicates", "1"], None, id="one-simulate-replicate"),
        pytest.param(["simulate", "--population-size", "500"], None, id="small-population"),
        pytest.param(["simulate", "--n", "3000", "--population-size", "2000"], None,
                     id="trial-larger-than-population"),
        pytest.param(["simulate", "--n", "0"], None, id="empty-trial"),
    ])
    def test_bad_value_exits_one_with_message(self, workspace, capsys, args, cv):
        tmp, csv, config = workspace
        if cv is not None:
            payload = json.loads(config.read_text())
            payload["cv"] = cv
            config.write_text(json.dumps(payload))
        if args[0] == "estimate":
            args = args + ["--input", csv, "--config", config]
        else:
            args = args + ["--scenario", "null", "--n", "150"]
        code = run_cli(args + ["--seed", "1", "--out", tmp / "out"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_digest_covers_every_setting_but_paths_and_workers(self, tmp_path):
        cfg = RunConfig(command="estimate", seed=1)
        unhashed = {"out_dir", "workers", "input_path", "model_file"}
        assert set(cfg.digest_payload()) == {f.name for f in fields(RunConfig)} - unhashed
        moved = RunConfig(command="estimate", seed=1, out_dir=tmp_path, workers=4)
        assert moved.digest == cfg.digest


class TestEstimateCommand:
    def test_writes_reports_and_exits_zero(self, workspace):
        tmp, csv, config = workspace
        out = tmp / "out"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ridge", "--seed", "11", "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["seed"] == 11
        assert len(report["model"]["coefficients"]) == 6
        assert {"parametric", "semiparametric"} <= set(report["estimates"])
        assert (out / "benefit_histogram.csv").exists()
        assert (out / "partial_sums.csv").exists()
        assert (out / "model.json").exists()
        header = (out / "partial_sums.csv").read_text().splitlines()
        assert header[0].startswith("# schema=1 command=estimate config=")
        assert header[1] == "k,parametric,semiparametric"

    def test_reruns_are_byte_identical(self, workspace):
        tmp, csv, config = workspace
        out1, out2 = tmp / "a", tmp / "b"
        for out in (out1, out2):
            assert run_cli(["estimate", "--input", csv, "--config", config,
                            "--model", "ml", "--seed", "4", "--out", out,
                            "--bootstrap", "12"]) == 0
        for name in ("report.json", "benefit_histogram.csv", "partial_sums.csv",
                     "bootstrap_parametric.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_missing_seed_is_config_error(self, workspace, capsys):
        tmp, csv, config = workspace
        code = run_cli(["estimate", "--input", csv, "--config", config, "--out", tmp])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self, workspace):
        tmp, csv, config = workspace
        assert run_cli(["estimate", "--input", csv, "--frobnicate", "1"]) == 1

    def test_missing_input_file_is_data_error(self, workspace):
        tmp, _, config = workspace
        code = run_cli(["estimate", "--input", tmp / "nope.csv", "--config", config,
                        "--seed", "1", "--out", tmp / "x"])
        assert code == 2

    def test_malformed_rows_are_data_errors(self, workspace):
        tmp, csv, config = workspace
        bad = tmp / "bad.csv"
        bad.write_text("id,arm,y,t,x1,x2\nr1,0,2,-1.0,0.1,0.2\n")
        code = run_cli(["estimate", "--input", bad, "--config", config,
                        "--seed", "1", "--out", tmp / "x"])
        assert code == 2

    def test_single_arm_dataset_exits_three_with_diagnostic(self, workspace, tmp_path):
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / "one_arm.csv", single_arm=True)
        out = tmp / "oa"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "3", "--out", out])
        assert code == 3
        report = json.loads((out / "report.json").read_text())
        assert "error" in report or any(
            "error" in block for block in report.get("estimates", {}).values()
        )

    def test_ml_with_an_eventless_arm_exits_three_naming_it(self, workspace, tmp_path, capsys):
        tmp, csv, config = workspace
        lines = csv.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            if row[1] == "1":
                row[2] = "0"
        eventless = tmp_path / "eventless.csv"
        eventless.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
        out = tmp / "sep"
        code = run_cli(["estimate", "--input", eventless, "--config", config,
                        "--model", "ml", "--seed", "3", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "no events in the treated arm" in err and "infinite" in err
        assert "no events in the treated arm" in json.loads((out / "report.json").read_text())["error"]

    def test_overflowing_benefit_exits_three_naming_the_subject(self, workspace, tmp_path,
                                                                capsys):
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / "outlier.csv", n=300)
        lines = csv.read_text().splitlines()
        cells = lines[1].split(",")
        cells[4] = "1000000.0"  # x1 of subject s0
        lines[1] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        out = tmp / "outlier"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "3", "--out", out])
        assert code == 3
        assert "benefit of subject 's0' is not finite" in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        assert "benefit of subject 's0' is not finite" in report["error"]

    def test_optimism_block_present_when_requested(self, workspace):
        tmp, csv, config = workspace
        out = tmp / "opt"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "8", "--out", out,
                        "--optimism", "6"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert "semiparametric" in report["optimism"]
        assert "adjusted" in report["optimism"]["semiparametric"]


class TestSimulateCommand:
    def test_table_and_json_written(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", "null", "--n", "150",
                        "--replicates", "2", "--seed", "5", "--out", out,
                        "--population-size", "20000", "--optimism", "2"])
        assert code == 0
        lines = (out / "table3.csv").read_text().splitlines()
        assert lines[1].startswith("scenario,n,estimator")
        assert len(lines) == 2 + 6  # six estimator rows
        payload = json.loads((out / "simulation.json").read_text())
        assert payload["command"] == "simulate"
        assert len(payload["rows"]) == 6

    def test_unknown_scenario_is_config_error(self, tmp_path):
        code = run_cli(["simulate", "--scenario", "bogus", "--n", "150",
                        "--seed", "5", "--out", tmp_path])
        assert code == 1

    def test_same_seed_same_table(self, tmp_path):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run_cli(["simulate", "--scenario", "null", "--n", "150",
                            "--replicates", "2", "--seed", "5", "--out", out,
                            "--population-size", "20000", "--optimism", "2"]) == 0
            outs.append((out / "table3.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCurveCommand:
    def test_constant_benefit_model_gives_line(self, workspace):
        tmp, csv, config = workspace
        b0 = 0.4
        model_file = tmp / "const_model.json"
        constant_model(b0).save(str(model_file))
        out = tmp / "curve"
        code = run_cli(["curve", "--input", csv, "--config", config,
                        "--model-file", model_file, "--seed", "2", "--out", out,
                        "--grid-size", "10"])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        c = math.exp(b0) / 2
        for p_str, v_str in rows:
            assert float(v_str) == pytest.approx(float(p_str) * c, rel=1e-9)

    def test_model_file_contents_enter_the_digest(self, workspace):
        tmp, csv, config = workspace
        headers = []
        for b0 in (0.4, 0.5):
            model_file = tmp / "model.json"
            constant_model(b0).save(str(model_file))
            out = tmp / f"curve_{b0}"
            assert run_cli(["curve", "--input", csv, "--config", config,
                            "--model-file", model_file, "--seed", "2", "--out", out]) == 0
            headers.append((out / "curve.csv").read_text().splitlines()[0])
        assert headers[0] != headers[1]

    @pytest.mark.parametrize("contents", [None, '{"coefficients": []}', "not json"],
                             ids=["missing", "missing-keys", "not-json"])
    def test_unreadable_model_file_is_data_error(self, workspace, capsys, contents):
        tmp, csv, config = workspace
        model_file = tmp / "model.json"
        if contents is not None:
            model_file.write_text(contents)
        code = run_cli(["curve", "--input", csv, "--config", config,
                        "--model-file", model_file, "--seed", "2", "--out", tmp / "c"])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_model_file_for_other_covariates_is_data_error(self, workspace, capsys):
        tmp, csv, config = workspace
        model_file = tmp / "model.json"
        constant_model(0.4).save(str(model_file))
        payload = json.loads(config.read_text())
        payload["columns"]["covariates"] = ["x1"]
        one_covariate = tmp / "one_covariate.json"
        one_covariate.write_text(json.dumps(payload))
        code = run_cli(["curve", "--input", csv, "--config", one_covariate,
                        "--model-file", model_file, "--seed", "2", "--out", tmp / "c"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "expects 2 covariates" in err

    @pytest.mark.parametrize("flags", [["--grid-size", "0"], ["--p", "1.5"], ["--p", "0.5,0"]],
                             ids=["empty-grid", "p-above-one", "p-zero"])
    def test_bad_grid_is_config_error_before_fitting(self, workspace, capsys, flags):
        tmp, csv, config = workspace
        out = tmp / "bad_grid"
        code = run_cli(["curve", "--input", csv, "--config", config, "--model", "ml",
                        "--seed", "2", "--out", out] + flags)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_integral_matches_half_pair_max(self, workspace):
        tmp, csv, config = workspace
        out = tmp / "curve2"
        code = run_cli(["curve", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "2", "--out", out])
        assert code == 0
        header = [l for l in (out / "curve.csv").read_text().splitlines()
                  if l.startswith("#")]
        integral = float(header[1].split("=")[1])
        half_pm = float(header[2].split("=")[1])
        assert integral == pytest.approx(half_pm, rel=1e-2)

    def test_single_point_grid_at_one_returns_mean(self, workspace):
        tmp, csv, config = workspace
        out = tmp / "curve3"
        code = run_cli(["curve", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "2", "--out", out, "--p", "1.0"])
        assert code == 0
        data_lines = [l for l in (out / "curve.csv").read_text().splitlines()
                      if not l.startswith("#")]
        assert data_lines[0] == "p,benefit"
        p, v = data_lines[1].split(",")
        assert float(p) == 1.0
        report_dir = tmp / "est_for_mean"
        run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                 "--seed", "2", "--out", report_dir])
        report = json.loads((report_dir / "report.json").read_text())
        assert float(v) == pytest.approx(
            report["estimates"]["parametric"]["mean_benefit"], rel=1e-9
        )


class TestModuleInvocation:
    def test_python_dash_m_entrypoint(self, workspace):
        tmp, csv, config = workspace
        out = tmp / "pm"
        proc = subprocess.run(
            [sys.executable, "-m", "cbindex", "estimate", "--input", str(csv),
             "--config", str(config), "--model", "ml", "--seed", "1",
             "--out", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (out / "report.json").exists()

    def test_runtime_imports_no_scipy(self, workspace):
        """numpy is the only runtime dependency: a fresh interpreter that
        imports the CLI and runs an ML estimate has loaded no scipy module."""
        tmp, csv, config = workspace
        argv = ["estimate", "--input", str(csv), "--config", str(config),
                "--model", "ml", "--seed", "1", "--out", str(tmp / "noscipy")]
        script = (
            "import sys\n"
            "from cbindex.cli import main\n"
            f"code = main({argv!r})\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(code, loaded)\n"
            "sys.exit(0 if code == 0 and not loaded else 1)\n"
        )
        src = str(Path(cbindex.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr

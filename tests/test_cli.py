import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import cbindex
from cbindex import inference, nbglm
from cbindex.cli import RunConfig, main
from cbindex.nbglm import FitMeta, FittedBenefitModel
from cbindex.trial_data import ScalingParams

from conftest import separated_trial, simulate_trial


def write_trial_csv(path, n=150, seed=42, only_arm=None):
    """A simulated two-covariate trial; ``only_arm`` puts every subject in
    that arm."""
    d = simulate_trial(np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2]), n=n,
                       seed=seed, theta=2.0, m=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,arm,y,t,x1,x2\n")
        for i in range(d.n):
            arm = int(d.treatment[i]) if only_arm is None else only_arm
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


def write_dataset_csv(path, d):
    """``d``, a two-covariate TrialDataset, as a trial CSV."""
    path.write_text("id,arm,y,t,x1,x2\n" + "".join(
        f"s{i},{d.treatment[i]},{d.events[i]},{float(d.time[i])!r},"
        f"{float(d.covariates[i, 0])!r},{float(d.covariates[i, 1])!r}\n" for i in range(d.n)))
    return path


def run_cli(args):
    return main([str(a) for a in args])


def edit_rows(csv, edit):
    """The text of the trial CSV ``csv`` with ``edit`` applied to its rows,
    each a list of cells [id, arm, y, t, x1, x2]."""
    header, *lines = csv.read_text().splitlines()
    rows = edit([line.split(",") for line in lines])
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def set_cell(row, column, value):
    def edit(rows):
        rows[row][column] = value
        return rows
    return edit


def scale_covariates(power):
    return lambda rows: [r[:4] + [repr(math.ldexp(float(v), power)) for v in r[4:]]
                         for r in rows]


# Inputs at the edge of the arithmetic, each a row edit for ``edit_rows``.
PATHOLOGICAL = {
    "cell-1e3": set_cell(0, 4, "1000.0"),
    "cell-1e200": set_cell(0, 4, "1e200"),
    "covariates-times-2^-700": scale_covariates(-700),
    "time-1e300": set_cell(0, 3, "1e300"),
    "time-1e-300": set_cell(0, 3, "1e-300"),
    "count-1e15": set_cell(0, 2, str(10**15)),
    "x2-equals-x1": lambda rows: [r[:5] + [r[4]] for r in rows],
    "x2-affine-in-x1": lambda rows: [r[:5] + [repr(2 * float(r[4]) + 1)] for r in rows],
    "6-subjects": lambda rows: rows[:6],
    "no-events": lambda rows: [r[:2] + ["0"] + r[3:] for r in rows],
}


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
        pytest.param(["estimate"], {"folds": 3.9}, id="cv-fractional-folds"),
        pytest.param(["estimate"], {"grid_size": True}, id="cv-boolean-grid-size"),
        pytest.param(["estimate"], {"folds": "3"}, id="cv-string-folds"),
        pytest.param(["estimate"], {"min_ratio": 10**400}, id="cv-min-ratio-beyond-floats"),
        pytest.param(["estimate", "--bootstrap", "1"], None, id="one-bootstrap-replicate"),
        pytest.param(["estimate", "--bootstrap", "-3"], None, id="negative-bootstrap"),
        pytest.param(["estimate", "--workers", "0"], None, id="zero-workers"),
        pytest.param(["simulate", "--replicates", "1"], None, id="one-simulate-replicate"),
        pytest.param(["simulate", "--population-size", "500"], None, id="small-population"),
        pytest.param(["simulate", "--n", "3000", "--population-size", "2000"], None,
                     id="trial-larger-than-population"),
        pytest.param(["simulate", "--n", "0"], None, id="empty-trial"),
        pytest.param(["simulate", "--theta", "nan"], None, id="nan-theta"),
        pytest.param(["simulate", "--theta", "inf"], None, id="infinite-theta"),
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

    @pytest.mark.parametrize("key, value", [
        pytest.param("bootstrap", 2.9, id="fractional-bootstrap"),
        pytest.param("bootstrap", "3", id="string-bootstrap"),
        pytest.param("workers", True, id="boolean-workers"),
        pytest.param("seed", 2.7, id="fractional-seed"),
        pytest.param("seed", True, id="boolean-seed"),
        pytest.param("seed", "7", id="string-seed"),
        pytest.param("smd_threshold", "0.1", id="string-threshold"),
        pytest.param("smd_threshold", -1, id="negative-threshold"),
        pytest.param("smd_threshold", math.nan, id="nan-threshold"),
        pytest.param("smd_threshold", math.inf, id="infinite-threshold"),
        pytest.param("estimator", "foo", id="unknown-estimator"),
        pytest.param("columns", ["arm", "y"], id="columns-not-an-object"),
    ])
    def test_mistyped_config_value_exits_one_before_any_work(self, workspace, capsys,
                                                             monkeypatch, key, value):
        tmp, csv, config = workspace
        payload = json.loads(config.read_text())
        payload[key] = value
        config.write_text(json.dumps(payload))

        def no_load(*a, **k):
            raise AssertionError("data loaded")

        monkeypatch.setattr("cbindex.cli.load_dataset", no_load)
        seed = [] if key == "seed" else ["--seed", "1"]
        code = run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                        "--out", tmp / "out"] + seed)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}")

    @pytest.mark.parametrize("payload, message", [
        pytest.param({"scenarios": "null"}, "scenarios must be a JSON list", id="scenarios-string"),
        pytest.param({"n_values": "150"}, "n_values must be a JSON list", id="n-values-string"),
        pytest.param({"n_values": 400}, "n_values must be a JSON list", id="n-values-number"),
        pytest.param({"bootsrap": 200}, "unknown config key 'bootsrap'", id="unknown-key"),
    ])
    def test_config_file_shape_is_checked(self, tmp_path, capsys, monkeypatch, payload, message):
        def no_run(*a, **k):
            raise AssertionError("simulation run")

        monkeypatch.setattr("cbindex.cli.run_simulation", no_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code = run_cli(["simulate", "--config", config, "--seed", "1", "--out", tmp_path / "out"])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("command", ["estimate", "simulate", "curve"])
    def test_config_error_leaves_no_output_directory(self, workspace, capsys, command):
        tmp, csv, config = workspace
        payload = json.loads(config.read_text())
        payload["cv"] = {"folds": 1}
        payload["replicates"] = 1
        config.write_text(json.dumps(payload))
        out = tmp / "out"
        args = ["--input", csv, "--model", "ml"] if command != "simulate" else []
        code = run_cli([command, "--config", config, "--seed", "1", "--out", out] + args)
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_equal_settings_share_one_digest(self, workspace):
        """Equal resolved settings give one digest however they are spelled."""
        tmp, csv, config = workspace
        payload = json.loads(config.read_text())
        digests = set()
        for i, (cv, seed) in enumerate([({}, 1), ({"folds": 10}, 1.0), ({"folds": 10.0}, 1)]):
            config.write_text(json.dumps({**payload, "cv": cv, "seed": seed}))
            out = tmp / f"run{i}"
            assert run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                            "--out", out]) == 0
            digests.add(json.loads((out / "report.json").read_text())["config_digest"])
        assert len(digests) == 1

    def test_simulate_digest_covers_only_what_simulate_reads(self, tmp_path, monkeypatch):
        monkeypatch.setattr("cbindex.cli.run_simulation", lambda *a, **k: SimpleNamespace(rows=[]))
        digests = []
        for i, payload in enumerate([
            {},
            {"cv": {"folds": 5}, "smd_threshold": 0.1, "columns": {"treatment": "arm"}},
            {"theta": 5},
        ]):
            config = tmp_path / f"config{i}.json"
            config.write_text(json.dumps(payload))
            out = tmp_path / f"sim{i}"
            assert run_cli(["simulate", "--config", config, "--scenario", "null",
                            "--n", "150", "--seed", "5", "--out", out]) == 0
            digests.append(json.loads((out / "simulation.json").read_text())["config_digest"])
        assert digests[0] == digests[1] != digests[2]

    def test_every_file_of_one_run_names_one_digest(self, workspace, monkeypatch):
        """The digest is computed once per run, so the input is hashed
        once and every output file carries the same value."""
        tmp, csv, config = workspace
        calls = []
        payload = RunConfig.digest_payload

        def counted(cfg):
            calls.append(cfg.command)
            return payload(cfg)

        monkeypatch.setattr(RunConfig, "digest_payload", counted)
        out = tmp / "out"
        assert run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                        "--seed", "3", "--out", out, "--bootstrap", "4"]) == 0
        digests = {json.loads((out / name).read_text())["config_digest"]
                   for name in ("report.json", "model.json")}
        tables = sorted(out.glob("*.csv"))
        assert {p.name for p in tables} >= {"bootstrap_parametric.csv",
                                            "bootstrap_semiparametric.csv",
                                            "benefit_histogram.csv", "partial_sums.csv"}
        for table in tables:
            meta = table.read_text().splitlines()[0]
            digests.add(re.fullmatch(r"# schema=1 command=estimate config=(\w+) seed=3",
                                     meta).group(1))
        assert len(digests) == 1
        assert calls == ["estimate"]

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

    @pytest.mark.parametrize("model", ["ml", "ridge"])
    def test_resampling_is_byte_identical_across_workers(self, workspace, model):
        # replicates are fitted in fixed chunks; neither count fills its
        # last chunk
        tmp, csv, config = workspace
        assert 23 % inference._CHUNK and 7 % inference._CHUNK
        outputs = []
        for workers in (1, 2, 8):
            out = tmp / f"workers{workers}"
            assert run_cli(["estimate", "--input", csv, "--config", config, "--model", model,
                            "--seed", "13", "--bootstrap", "23", "--optimism", "7",
                            "--workers", workers, "--out", out]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "bootstrap_semiparametric.csv" in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]

    def test_missing_seed_is_config_error(self, workspace, capsys):
        tmp, csv, config = workspace
        code = run_cli(["estimate", "--input", csv, "--config", config, "--out", tmp])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        pytest.param(["estimate", "--model", "ridge"], id="ridge"),
        pytest.param(["estimate", "--model", "ml"], id="ml"),
        pytest.param(["estimate", "--model", "ml", "--bootstrap", "3"], id="ml-bootstrap"),
        pytest.param(["curve", "--model", "ridge"], id="curve"),
    ])
    def test_negative_seed_is_config_error_before_any_work(self, workspace, capsys,
                                                           monkeypatch, args):
        tmp, csv, config = workspace

        def no_load(*a, **k):
            raise AssertionError("data loaded")

        monkeypatch.setattr("cbindex.cli.load_dataset", no_load)
        code = run_cli(args + ["--input", csv, "--config", config, "--seed", "-1",
                               "--out", tmp / "out"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: --seed")
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("covariates", [5, "x1"])
    def test_malformed_covariate_list_is_schema_error(self, workspace, capsys, covariates):
        tmp, csv, config = workspace
        payload = json.loads(config.read_text())
        payload["columns"]["covariates"] = covariates
        config.write_text(json.dumps(payload))
        code = run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                        "--seed", "1", "--out", tmp / "out"])
        assert code == 2
        assert "list of column names" in capsys.readouterr().err

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

    @pytest.mark.parametrize("count", ["1e20", "9223372036854775808"])
    def test_count_too_large_for_int64_is_data_error(self, workspace, capsys, count):
        tmp, _, config = workspace
        bad = tmp / "huge.csv"
        bad.write_text("id,arm,y,t,x1,x2\n"
                       "r1,0,2,1.0,0.1,0.2\n"
                       "r2,1,0,1.0,0.3,0.1\n"
                       f"r3,0,{count},1.0,0.5,0.4\n"
                       "r4,1,1,1.0,0.2,0.6\n")
        code = run_cli(["estimate", "--input", bad, "--config", config, "--model", "ml",
                        "--seed", "1", "--out", tmp / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: row 3, column 'y': count not below 2**63: {count!r}\n"

    def test_byte_order_mark_is_skipped(self, workspace):
        tmp, csv, config = workspace
        marked = tmp / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + csv.read_bytes())
        for name, source in (("plain", csv), ("marked", marked)):
            assert run_cli(["estimate", "--input", source, "--config", config, "--model", "ml",
                            "--seed", "1", "--out", tmp / name]) == 0
        plain, marked = (json.loads((tmp / name / "report.json").read_text())
                         for name in ("plain", "marked"))
        # the digest hashes the input's bytes, so only it may differ
        assert plain.pop("config_digest") != marked.pop("config_digest")
        assert plain == marked

    def test_repeated_header_name_is_data_error(self, workspace, capsys):
        tmp, csv, config = workspace
        bad = tmp / "repeated.csv"
        lines = csv.read_text().splitlines()
        bad.write_text("\n".join([lines[0] + ",x2"] + [row + ",0.5" for row in lines[1:]]) + "\n")
        code = run_cli(["estimate", "--input", bad, "--config", config, "--model", "ml",
                        "--seed", "1", "--out", tmp / "x"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: column 'x2' appears more than once in header")

    def test_single_arm_dataset_exits_three_with_diagnostic(self, workspace, tmp_path, capsys):
        tmp, _, config = workspace
        for arm, missing in ((1, "control arm (treatment=0)"), (0, "treated arm (treatment=1)")):
            csv = write_trial_csv(tmp_path / f"only_arm_{arm}.csv", only_arm=arm)
            for model in ("ridge", "ml"):
                out = tmp / f"oa_{model}_{arm}"
                code = run_cli(["estimate", "--input", csv, "--config", config,
                                "--model", model, "--seed", "3", "--out", out])
                assert code == 3, (model, arm)
                assert f"no subjects in the {missing}" in capsys.readouterr().err
                report = json.loads((out / "report.json").read_text())
                assert f"no subjects in the {missing}" in report["error"]

    @pytest.mark.parametrize("trial_seed, fold_seed, index, edge", [
        pytest.param(42, 31, 1, False, id="inside"),
        pytest.param(42, 11, 0, True, id="top-edge"),
        pytest.param(2, 11, 3, True, id="bottom-edge"),
    ])
    def test_report_places_the_cv_choice_on_its_grid(self, workspace, tmp_path, trial_seed,
                                                     fold_seed, index, edge):
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / f"trial_{trial_seed}.csv", seed=trial_seed)
        out = tmp / f"cv_{trial_seed}_{fold_seed}"
        assert run_cli(["estimate", "--input", csv, "--config", config, "--model", "ridge",
                        "--seed", fold_seed, "--out", out]) == 0
        cv = json.loads((out / "report.json").read_text())["model"]["cv"]
        assert (cv["chosen_index"], cv["at_grid_edge"]) == (index, edge)
        data = cbindex.load_dataset(str(csv), json.loads(config.read_text())["columns"])
        pipeline = cbindex.BenefitPipeline(cv_folds=3, lambda_grid_size=4, lambda_min_ratio=0.01)
        grid = pipeline.estimate(data, seed=fold_seed).cv.lambda_grid
        assert cv["grid_size"] == grid.size and cv["chosen_lambda"] == grid[index]

    def test_unreliable_interval_warns_on_one_stderr_line(self, workspace, tmp_path):
        # criterion 8's estimate run: 5 of 16 replicates fail the parametric estimator
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / "trial_88.csv", n=150, seed=88)
        out = tmp / "unreliable"
        proc = subprocess.run(
            [sys.executable, "-m", "cbindex", "estimate", "--input", str(csv),
             "--config", str(config), "--model", "ridge", "--seed", "31",
             "--bootstrap", "16", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "warning: 5/16 bootstrap replicates degenerate for the parametric estimator; "
            "interval may be unreliable\n"
        )
        report = json.loads((out / "report.json").read_text())
        assert report["intervals"]["parametric"]["unreliable"] is True

    @pytest.mark.parametrize("n", [12, 5])
    def test_too_few_subjects_for_the_folds_exits_three_naming_the_arms(
        self, workspace, tmp_path, capsys, n
    ):
        # under the default 10 folds the larger arm cannot give every fold
        # a held-out subject
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / "tiny.csv", n=n, seed=2)
        arms = [int(line.split(",")[1]) for line in csv.read_text().splitlines()[1:]]
        control, treated = arms.count(0), arms.count(1)
        assert min(control, treated) >= 2  # both arms can be dealt: only the folds fail
        default_folds = tmp_path / "default_folds.json"
        default_folds.write_text(json.dumps({"columns": json.loads(config.read_text())["columns"]}))
        out = tmp / "tiny"
        code = run_cli(["estimate", "--input", csv, "--config", default_folds,
                        "--model", "ridge", "--seed", "1", "--out", out])
        assert code == 3
        message = (f"cannot build 10 cross-validation folds from {control} control and "
                   f"{treated} treated subjects")
        assert message in capsys.readouterr().err
        assert message in json.loads((out / "report.json").read_text())["error"]

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

    def test_ml_with_an_infinite_estimate_exits_three_naming_it(self, workspace, tmp_path,
                                                                 capsys):
        """Every treated subject with the binary ``x1`` = 1 has zero events:
        the ML treatment and treatment:x1 coefficients run off until the
        fitted means of that subgroup underflow to 0."""
        tmp, _, config = workspace
        csv = write_dataset_csv(tmp_path / "separated.csv", separated_trial(2))
        message = ("the maximum-likelihood estimate is infinite in treatment, treatment:x1: "
                   "the fitted means of 71 subjects underflow to 0; the ridge model gives a "
                   "finite estimate")
        out = tmp / "infinite"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ml", "--seed", "3", "--out", out])
        assert code == 3
        assert message in capsys.readouterr().err
        assert json.loads((out / "report.json").read_text())["error"] == message
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", "ridge", "--seed", "3", "--out", tmp / "ridge"])
        assert code == 0

    @pytest.mark.parametrize("cap, message", [
        ("_MAX_ROUNDS", "the dispersion did not settle in 1 rounds"),
        ("_MAX_ITER", "fit did not converge in 1 iterations"),
    ])
    @pytest.mark.parametrize("model", ["ml", "ridge"])
    def test_a_fit_stopped_at_its_cap_exits_three_naming_the_loop(
        self, workspace, capsys, monkeypatch, cap, message, model
    ):
        tmp, csv, config = workspace
        monkeypatch.setattr(nbglm, cap, 1)
        out = tmp / f"capped_{model}"
        code = run_cli(["estimate", "--input", csv, "--config", config,
                        "--model", model, "--seed", "3", "--out", out])
        assert code == 3
        assert capsys.readouterr().err == f"estimation degenerate: {message}\n"
        assert json.loads((out / "report.json").read_text())["error"] == message

    @pytest.mark.parametrize("flag, seed", [("--bootstrap", 20), ("--optimism", 19)])
    def test_every_resample_failing_exits_three_with_a_report(
        self, workspace, tmp_path, capsys, small_trial, flag, seed
    ):
        """One treated subject has events: a resample without it has an
        eventless treated arm.  The optimism resamples of seed 19 are the
        bootstrap resamples of seed 20, and both of them miss it."""
        tmp, _, config = workspace
        events = small_trial.events.copy()
        events[np.flatnonzero((small_trial.treatment == 1) & (events > 0))[1:]] = 0
        csv = write_dataset_csv(tmp_path / "one_treated_event.csv",
                                replace(small_trial, events=events))
        out = tmp / f"resampling{flag}"
        code = run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                        flag, 2, "--seed", seed, "--out", out])
        assert code == 3
        kind = flag.strip("-")
        message = f"every {kind} replicate failed for the parametric estimator"
        assert capsys.readouterr().err == f"estimation degenerate: {message}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["error"] == message
        assert report["model"]["converged"] and report["estimates"]["parametric"]["cb"] > 0

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

    def test_output_tables_share_one_format(self, workspace):
        """``# `` metadata, a column header, then LF-terminated rows whose
        floats are written in their shortest round-trip form."""
        tmp, csv, config = workspace
        out = tmp / "tables"
        assert run_cli(["estimate", "--input", csv, "--config", config, "--model", "ml",
                        "--seed", "4", "--out", out, "--bootstrap", "12"]) == 0
        report = json.loads((out / "report.json").read_text())
        meta = f"# schema=1 command=estimate config={report['config_digest']} seed=4\n"
        histogram = (out / "benefit_histogram.csv").read_text().splitlines()
        top = max(float(line.split(",")[1]) for line in histogram[2:])
        sums = (out / "partial_sums.csv").read_bytes().decode()
        assert sums.startswith(meta + "k,parametric,semiparametric\n" + f"1,{top!r},")
        boot = (out / "bootstrap_parametric.csv").read_bytes().decode()
        assert boot.startswith(meta + "value\n")
        assert len(boot.splitlines()) == 2 + 12 - report["intervals"]["parametric"]["failed"]
        assert len(sums.splitlines()) == 2 + report["n_subjects"]
        for name, width in (("benefit_histogram.csv", 2), ("partial_sums.csv", 3),
                            ("bootstrap_parametric.csv", 1)):
            text = (out / name).read_bytes().decode()
            assert "\r" not in text and text.endswith("\n")
            rows = [line.split(",") for line in text.splitlines()[2:]]
            assert rows and {len(r) for r in rows} == {width}
            for cell in (r[-1] for r in rows):
                assert repr(float(cell)) == cell

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

    @pytest.mark.parametrize("model", ["ridge", "ml"])
    @pytest.mark.parametrize("power", [-700, 700])
    def test_covariates_scaled_by_a_power_of_two_give_the_same_report(self, workspace,
                                                                     model, power):
        """Squares of covariates of size 2**-700 underflow and of 2**700
        overflow: the spreads are taken after an exact rescale."""
        tmp, csv, config = workspace
        scaled = tmp / f"scaled_{power}.csv"
        scaled.write_text(edit_rows(csv, scale_covariates(power)))
        reports = []
        for name, data in (("plain", csv), ("scaled", scaled)):
            out = tmp / f"{name}_{model}_{power}"
            assert run_cli(["estimate", "--input", data, "--config", config, "--model", model,
                            "--seed", "3", "--out", out]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["config_digest"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["ridge", "ml"])
    @pytest.mark.parametrize("edit", PATHOLOGICAL.values(), ids=PATHOLOGICAL.keys())
    def test_pathological_input_exits_zero_or_three_with_a_report(self, workspace, model, edit):
        tmp, csv, config = workspace
        settings = json.loads(config.read_text())
        settings["cv"]["grid_size"] = 6
        config = tmp / "grid6.json"
        config.write_text(json.dumps(settings))
        data = tmp / "pathological.csv"
        data.write_text(edit_rows(csv, edit))
        out = tmp / f"pathological_{model}"
        code = run_cli(["estimate", "--input", data, "--config", config, "--model", model,
                        "--seed", "3", "--out", out])
        assert code in (0, 3)
        assert (out / "report.json").is_file()


class TestSimulateCommand:
    def test_table_and_json_written(self, tmp_path):
        out = tmp_path / "sim"
        code = run_cli(["simulate", "--scenario", "null", "--n", "150",
                        "--replicates", "2", "--seed", "5", "--out", out,
                        "--population-size", "20000", "--optimism", "2"])
        assert code == 0
        payload = json.loads((out / "simulation.json").read_text())
        assert payload["command"] == "simulate"
        assert (payload["seed"], payload["replicates"]) == (5, 2)
        columns = ["scenario", "n", "estimator", "bias", "sd", "rmse",
                   "replicates", "failed", "oracle_cb"]
        table = (out / "table3.csv").read_bytes().decode()
        assert table.startswith(
            f"# schema=1 command=simulate config={payload['config_digest']} seed=5\n"
            + ",".join(columns) + "\nnull,150,parametric-ridge,"
        )
        lines = table.splitlines()
        assert len(lines) == 2 + 6  # six estimator rows
        assert len(payload["rows"]) == 6
        for line, row in zip(lines[2:], payload["rows"]):
            assert set(row) == set(columns)
            assert line == ",".join(str(row[c]) for c in columns)

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        code = run_cli(["simulate", "--scenario", "null", "--n", "150", "--replicates", "2",
                        "--seed", "-1", "--out", tmp_path / "sim",
                        "--population-size", "20000", "--optimism", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error: --seed")
        assert not (tmp_path / "sim").exists()

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
        model_file.write_text(json.dumps(constant_model(b0).to_dict()))
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
            model_file.write_text(json.dumps(constant_model(b0).to_dict()))
            out = tmp / f"curve_{b0}"
            assert run_cli(["curve", "--input", csv, "--config", config,
                            "--model-file", model_file, "--seed", "2", "--out", out]) == 0
            headers.append((out / "curve.csv").read_text().splitlines()[0])
        assert headers[0] != headers[1]

    def test_model_file_runs_ignore_the_pipeline_settings(self, workspace):
        """A saved model replaces the pipeline, so ``--model`` and ``cv``
        change neither the curve nor its digest."""
        tmp, csv, config = workspace
        model_file = tmp / "const_model.json"
        model_file.write_text(json.dumps(constant_model(0.4).to_dict()))
        curves = set()
        for model in ("ridge", "ml"):
            out = tmp / f"curve_{model}"
            assert run_cli(["curve", "--input", csv, "--config", config, "--model", model,
                            "--model-file", model_file, "--seed", "2", "--out", out]) == 0
            curves.add((out / "curve.csv").read_bytes())
        assert len(curves) == 1

    def test_model_file_from_estimate_gives_the_fitted_curve(self, workspace):
        tmp, csv, config = workspace
        common = ["--input", csv, "--config", config, "--model", "ridge", "--seed", "6"]
        assert run_cli(["estimate", *common, "--out", tmp / "est"]) == 0
        assert run_cli(["curve", *common, "--out", tmp / "fitted"]) == 0
        assert run_cli(["curve", *common, "--model-file", tmp / "est" / "model.json",
                        "--out", tmp / "loaded"]) == 0
        data = [
            [line for line in (tmp / run / "curve.csv").read_text().splitlines()
             if not line.startswith("#")]
            for run in ("fitted", "loaded")
        ]
        assert len(data[0]) == 101
        assert data[0] == data[1]

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
        model_file.write_text(json.dumps(constant_model(0.4).to_dict()))
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

    def test_single_arm_dataset_exits_three_with_diagnostic(self, workspace, tmp_path,
                                                            capsys):
        tmp, _, config = workspace
        csv = write_trial_csv(tmp_path / "only_treated.csv", only_arm=1)
        out = tmp / "one_arm_curve"
        code = run_cli(["curve", "--input", csv, "--config", config, "--model", "ml",
                        "--seed", "2", "--out", out])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "estimation degenerate: no subjects in the control arm (treatment=0)")
        assert not (out / "curve.csv").exists()

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

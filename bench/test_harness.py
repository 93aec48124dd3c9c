"""Self-test of the benchmark harness, on the tiny sizes of ``--smoke``.

Run from the root of a checkout::

    python3 -m pytest bench/test_harness.py

It is kept out of the repository's test suite (``testpaths`` names only
``tests``) because it starts many interpreters.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    assert "failure_rate" in proc.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    """A real ``estimate`` report with bootstrap and optimism blocks."""
    from cbindex.cli import main

    tmp = tmp_path_factory.mktemp("report")
    inputs.write_trial_csv(tmp / "trial.csv", 150, seed=2)
    inputs.write_config(tmp / "config.json", {"folds": 3, "grid_size": 4, "min_ratio": 0.01})
    out = tmp / "out"
    code = main(["estimate", "--input", str(tmp / "trial.csv"), "--config",
                 str(tmp / "config.json"), "--model", "ml", "--bootstrap", "3",
                 "--optimism", "2", "--seed", "4", "--out", str(out)])
    assert code == 0
    return out


def test_gate_accepts_the_real_report(report_dir):
    attempted, failed = gate.check_report(report_dir / "report.json", 3, 2)
    assert attempted == 1 + 2 * 3 + 2 * 2
    assert 0 <= failed <= attempted


def _corrupt_estimate(r):
    r["estimates"]["parametric"]["cb"] = 1.5


def _swap_interval(r):
    iv = r["intervals"]["semiparametric"]
    iv["lower"], iv["upper"] = iv["upper"] + 1.0, iv["lower"]


def _non_finite(r):
    r["estimates"]["semiparametric"]["mean_benefit"] = "nan"


def _short_bootstrap(r):
    r["intervals"]["parametric"]["replicates"] = 2


def _drop_estimator(r):
    del r["estimates"]["semiparametric"]


@pytest.mark.parametrize("corrupt", [
    _corrupt_estimate, _swap_interval, _non_finite, _short_bootstrap, _drop_estimator,
])
def test_gate_rejects_a_corrupted_report(report_dir, tmp_path, corrupt):
    report = json.loads((report_dir / "report.json").read_text())
    bad = copy.deepcopy(report)
    corrupt(bad)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(gate.GateError):
        gate.check_report(path, 3, 2)


def test_gate_rejects_an_unparseable_report(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"model": ')
    with pytest.raises(gate.GateError):
        gate.check_report(path, 0, 0)


def test_gate_rejects_a_wrong_oracle(tmp_path):
    row = {"scenario": "strong", "n": 100, "estimator": "parametric-ml", "bias": 0.1,
           "sd": 0.1, "rmse": 0.2, "replicates": 2, "failed": 0, "oracle_cb": 0.36}
    path = tmp_path / "simulation.json"
    path.write_text(json.dumps({"rows": [row]}))
    assert gate.check_simulation(path, 2, 100, 0.36) == (3, 0)
    with pytest.raises(gate.GateError):
        gate.check_simulation(path, 2, 100, 0.37)


def test_gate_rejects_outputs_that_differ_between_repeats(report_dir, tmp_path):
    copy_dir = tmp_path / "copy"
    shutil.copytree(report_dir, copy_dir)
    reference = gate.digest_tree(report_dir)
    gate.check_identical(reference, gate.digest_tree(copy_dir))
    with open(copy_dir / "report.json", "a", encoding="utf-8") as fh:
        fh.write(" ")
    with pytest.raises(gate.GateError):
        gate.check_identical(reference, gate.digest_tree(copy_dir))


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("a.csv", "b.csv"):
        inputs.write_trial_csv(tmp_path / name, 50, seed=9)
    inputs.write_trial_csv(tmp_path / "c.csv", 50, seed=10)
    a, b, c = ((tmp_path / n).read_bytes() for n in ("a.csv", "b.csv", "c.csv"))
    assert a == b != c
    assert b"np.float64" not in a

"""Reported numbers of four seeded CLI runs, pinned against a committed JSON.

The runs (in-process, one worker, seed 5, on ``test_cli.write_trial_csv``'s
150-row trial with 3 folds and a 4-point penalty grid):

* ``estimate --model ridge --bootstrap 4``;
* ``estimate --model ml --bootstrap 20 --optimism 10``;
* ``simulate`` of one strong-scenario cell, n 150, 2 replicates;
* ``curve --model ridge``.

Each output is flattened to ``{path: value}``; the per-subject CSVs
and ``table3.csv`` (a copy of ``simulation.json``'s rows) are left out,
since the estimates summarize the first.  Tolerances by kind:

* exact: every integer, boolean and string (``chosen_index``,
  ``at_grid_edge``, replicate and failure counts, names);
* relative 1e-4: semi-parametric floats (any path naming ``semi``),
  since a tolerance-level change in the coefficients can swap two
  near-tied ranks;
* relative 1e-7: every other float (parametric quantities,
  coefficients, theta, benefits, the curve).

Iteration counts and configuration digests are left out: kernel work
changes the first and the settings layout the second.  A change that
moves a pinned value regenerates the JSON with
``PYTHONPATH=src python tests/regenerate_pinned_outputs.py`` and says
what moved, by how much and why.
"""

import csv
import json
import math
from pathlib import Path

from test_cli import run_cli, write_trial_csv

EXPECTED = Path(__file__).with_name("pinned_outputs.json")
SEMI_RTOL = 1e-4
RTOL = 1e-7
# Keys whose values are not reported numbers of the method.
_SKIPPED = ("iterations", "config_digest")
_UNPINNED_FILES = ("benefit_histogram.csv", "partial_sums.csv", "table3.csv")
COLUMNS = {"treatment": "arm", "events": "y", "time": "t",
           "covariates": ["x1", "x2"], "id": "id"}
RUNS = {
    "ridge-estimate": ["estimate", "--model", "ridge", "--bootstrap", "4"],
    "ml-bootstrap": ["estimate", "--model", "ml", "--bootstrap", "20", "--optimism", "10"],
    "simulate-cell": ["simulate", "--scenario", "strong", "--n", "150", "--replicates", "2",
                      "--population-size", "20000", "--optimism", "2"],
    "curve": ["curve", "--model", "ridge"],
}


def _flatten(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in _SKIPPED:
                _flatten(item, f"{path}.{key}", out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            # a coefficient or a simulation row is labelled by its name
            tag = item.get("name") or item.get("estimator") if isinstance(item, dict) else None
            _flatten(item, f"{path}[{i}{' ' + tag if tag else ''}]", out)
    else:
        out[path] = value


def _csv_columns(path):
    """A CSV output's data columns by name, with its ``# key=value``
    header lines as one more entry each (numbers read as floats)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = {}
    for line in lines:
        if line.startswith("# ") and "=" in line and " " not in line[2:]:
            key, value = line[2:].split("=", 1)
            meta[key] = float(value)
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    columns = {name: [row[name] for row in rows] for name in rows[0]}
    for name, cells in columns.items():
        try:
            columns[name] = [float(c) for c in cells]
        except ValueError:
            pass
    return {**meta, **columns}


def pinned_values(tmp):
    """Every pinned output of the four runs, flattened, written under ``tmp``."""
    tmp = Path(tmp)
    trial = write_trial_csv(tmp / "trial.csv")
    config = tmp / "config.json"
    config.write_text(json.dumps({"columns": COLUMNS,
                                  "cv": {"folds": 3, "grid_size": 4, "min_ratio": 0.01}}))
    out = {}
    for name, args in RUNS.items():
        run_dir = tmp / name
        data = [] if args[0] == "simulate" else ["--input", trial]
        code = run_cli(args + data + ["--config", config, "--seed", "5", "--out", run_dir])
        _flatten(code, f"{name}:exit", out)
        for path in sorted(run_dir.iterdir()):
            if path.name in _UNPINNED_FILES:
                continue
            if path.suffix == ".json":
                payload = json.loads(path.read_text(encoding="utf-8"))
            else:
                payload = _csv_columns(path)
            _flatten(payload, f"{name}:{path.name}", out)
    return out


def test_reported_numbers_match_the_pinned_values(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = pinned_values(tmp_path)
    assert sorted(got) == sorted(expected)
    wrong = []
    for path, want in expected.items():
        value = got[path]
        if isinstance(want, float):
            rtol = SEMI_RTOL if "semi" in path else RTOL
            same = isinstance(value, float) and math.isclose(value, want, rel_tol=rtol)
        else:
            same = value == want and type(value) is type(want)
        if not same:
            wrong.append(f"{path}: {value!r}, pinned {want!r}")
    assert not wrong, "\n".join(wrong)


def test_regeneration_names_what_moved():
    from regenerate_pinned_outputs import moves

    old = {"a:x": 1.0, "a:y": 2.0, "a:n": 3, "b:x": 4.0, "b:gone": "s"}
    new = {"a:x": 1.0, "a:y": 2.5, "a:n": 3.0, "b:x": 4.0, "b:new": True}
    assert moves(old, new) == [
        "a: 1 floats moved, largest relative move 0.2 (a:y)",
        "b: 0 floats moved, largest relative move 0",
        "exact value changed: a:n: 3 -> 3.0",
        "removed: b:gone",
        "added: b:new",
    ]

"""Correctness checks applied to the output of every benchmark run.

A timing counts only for a run whose outputs pass these checks.  Each
check returns ``(attempted, failed)`` operation counts for the run: the
command itself plus every replicate it was asked for, with the failed
replicates as the report records them.  A replicate that fails is
counted, never dropped; a check that fails raises :class:`GateError`.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ESTIMATE_FIELDS = ("cb", "delta_b", "gini_b", "mean_benefit", "pair_max")
SIMULATION_FIELDS = ("bias", "sd", "rmse")


class GateError(Exception):
    """A run produced output that fails a correctness check."""


def _finite(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise GateError(f"{where} is not a finite number: {value!r}")
    return float(value)


def _load(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GateError(f"{path.name} does not parse: {exc}") from exc
    if not isinstance(payload, dict):
        raise GateError(f"{path.name} does not hold a JSON object")
    return payload


def _replicate_blocks(report: dict, key: str, requested: int, fields: tuple[str, ...]):
    if requested == 0:
        return 0, 0
    blocks = report.get(key)
    if not isinstance(blocks, dict) or set(blocks) != {"parametric", "semiparametric"}:
        raise GateError(f"report.json lacks the {key} of both estimators")
    attempted = failed = 0
    for kind, block in blocks.items():
        for name in fields:
            _finite(block[name], f"{key}.{kind}.{name}")
        if block["replicates"] != requested:
            raise GateError(f"{key}.{kind} ran {block['replicates']} of {requested} replicates")
        attempted += requested
        failed += block["failed"]
    return attempted, failed


def check_report(path: Path, bootstrap: int, optimism: int) -> tuple[int, int]:
    """Check an ``estimate`` report: finite model and estimates,
    parametric cb in [0, 1], ordered intervals, full replicate counts."""
    report = _load(path)
    try:
        model = report["model"]
        _finite(model["lambda"], "model.lambda")
        _finite(model["theta"], "model.theta")
        for coef in model["coefficients"]:
            _finite(coef["value"], f"coefficient {coef['name']}")
        estimates = report["estimates"]
        if set(estimates) != {"parametric", "semiparametric"}:
            raise GateError(f"estimates cover {sorted(estimates)}, not both estimators")
        for kind, est in estimates.items():
            for name in ESTIMATE_FIELDS:
                _finite(est.get(name), f"estimates.{kind}.{name}")
        cb = estimates["parametric"]["cb"]
        if not 0.0 <= cb <= 1.0:
            raise GateError(f"parametric cb {cb!r} lies outside [0, 1]")
        boot = _replicate_blocks(report, "intervals", bootstrap, ("lower", "upper"))
        for kind, iv in report.get("intervals", {}).items():
            if iv["lower"] > iv["upper"]:
                raise GateError(f"intervals.{kind}: lower {iv['lower']!r} > upper {iv['upper']!r}")
        opt = _replicate_blocks(report, "optimism", optimism, ("optimism", "adjusted"))
    except (KeyError, TypeError, AttributeError) as exc:
        raise GateError(f"report.json is malformed: {exc!r}") from exc
    return 1 + boot[0] + opt[0], boot[1] + opt[1]


def check_simulation(path: Path, replicates: int, n: int, oracle: float) -> tuple[int, int]:
    """Check a ``simulate`` report: every row has the oracle recomputed
    from the same population, all replicates accounted for, and finite
    moments wherever a replicate succeeded."""
    payload = _load(path)
    try:
        rows = payload["rows"]
        if not rows:
            raise GateError("simulation.json has no rows")
        attempted, failed = 1, 0
        for row in rows:
            where = f"row {row['estimator']}"
            if row["n"] != n:
                raise GateError(f"{where} has n={row['n']}, expected {n}")
            if row["oracle_cb"] != oracle:
                raise GateError(f"{where}: oracle_cb {row['oracle_cb']!r} != recomputed {oracle!r}")
            if row["replicates"] + row["failed"] != replicates:
                raise GateError(f"{where} accounts for {row['replicates'] + row['failed']} "
                                f"of {replicates} replicates")
            if row["replicates"] > 0:
                for name in SIMULATION_FIELDS:
                    _finite(row[name], f"{where}.{name}")
            attempted += replicates
            failed += row["failed"]
    except (KeyError, TypeError) as exc:
        raise GateError(f"simulation.json is malformed: {exc!r}") from exc
    return attempted, failed


def digest_tree(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def check_identical(reference: dict[str, str], other: dict[str, str]) -> None:
    """Outputs of repeats of one command must be byte-identical."""
    if reference != other:
        differing = sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))
        raise GateError(f"outputs differ between repeats of the same command: {differing}")

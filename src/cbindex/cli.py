"""Command-line entry points for estimation, simulation, and curve export.

Three subcommands:

``estimate``
    Load a trial CSV, fit the benefit model, and write ``report.json``
    (coefficients, penalty, dispersion, concentration estimates, and
    optional bootstrap intervals / optimism corrections) plus
    ``benefit_histogram.csv`` and ``partial_sums.csv``.
``simulate``
    Run the synthetic-trial study and write ``table3.csv`` and
    ``simulation.json``.
``curve``
    Export the benefit-vs-treated-fraction curve with its integral
    identity check.

Every run requires an explicit ``--seed``; no command reads system
randomness.  Outputs embed the seed and a digest of the resolved
configuration so any file can be traced to the run that produced it.
Exit codes: 0 success, 1 configuration error, 2 data error,
3 estimation degenerate (diagnostics in the report).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import benefit as bn
from .errors import ConfigError, DataError, EstimationError
from .inference import BootstrapConfig, bootstrap_intervals, optimism_adjust_all
from .nbglm import FittedBenefitModel
from .pipeline import ESTIMATOR_KINDS, MODELS, BenefitPipeline
from .simulation import FOLLOWUPS, SCENARIO_NAMES, SimSettings, Scenario, run_simulation
from .trial_data import balance_check, load_dataset

SCHEMA_VERSION = 1

# The type of every setting that a flag or a top-level config-file key
# gives, under the key's name (each flag's ``dest``): a type, a tuple of
# choices, ``[type]`` for a JSON list, or a dict of the keys a JSON
# object may hold.  ``--model-file`` and ``--p`` are flags only.
_TYPES: dict[str, Any] = {
    # every command
    "seed": int, "out": str, "workers": int,
    # estimate and curve
    "input": str, "columns": dict, "model": str,
    "cv": {"folds": int, "grid_size": int, "min_ratio": float, "loss": str},
    # estimate
    "estimator": ESTIMATOR_KINDS + ("both",), "bootstrap": int, "optimism": int,
    "smd_threshold": float,
    # simulate
    "scenarios": [str], "n_values": [int], "replicates": int, "population_size": int,
    "theta": float, "followup": str, "sim_optimism": int,
    # curve
    "grid_size": int,
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "a JSON object"}

# Keys of the config file's ``cv`` object -> BenefitPipeline field.
_CV_FIELDS = {"folds": "cv_folds", "grid_size": "lambda_grid_size",
              "min_ratio": "lambda_min_ratio", "loss": "cv_loss"}

# Fields left out of the digest, at every level: where results go and how
# many processes compute them change no output; the two input files
# enter by the digest of their contents instead of their paths.
_UNDIGESTED = ("out_dir", "workers", "input_path", "model_file")


@dataclass
class RunConfig:
    """Resolved settings for one CLI invocation: what the command runs,
    built and checked by ``_resolve``.

    Field defaults are the CLI's defaults; ``pipeline``, ``scenarios``,
    ``sim`` and the resampling settings are the objects the commands
    run, so their defaults are those objects' own.  Settings a command
    does not read keep their defaults.
    """

    command: str
    seed: int
    out_dir: Path = Path(".")
    input_path: Path | None = None
    model_file: Path | None = None
    workers: int = 1
    columns: dict[str, Any] = field(default_factory=dict)
    # estimate and curve
    pipeline: BenefitPipeline = BenefitPipeline()
    # estimate
    estimator: str = "both"
    smd_threshold: float = 0.05
    bootstrap: BootstrapConfig | None = None
    optimism: BootstrapConfig | None = None
    # simulate
    scenarios: list[Scenario] = field(default_factory=list)
    n_values: list[int] = field(default_factory=lambda: [400])
    replicates: int = 50
    sim: SimSettings = field(default_factory=SimSettings)
    # curve
    grid_size: int = 100
    p_values: list[float] | None = None

    def digest_payload(self) -> dict:
        payload = dataclasses.asdict(
            self, dict_factory=lambda items: {k: v for k, v in items if k not in _UNDIGESTED}
        )
        for key, path in (("input_sha256", self.input_path), ("model_sha256", self.model_file)):
            if path is not None and path.exists():
                payload[key] = hashlib.sha256(path.read_bytes()).hexdigest()
        return payload

    @functools.cached_property
    def digest(self) -> str:
        """Computed once per run, so every output file names one digest
        and the input file is hashed once."""
        canon = json.dumps(self.digest_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _json_safe(value):
    """Replace non-finite floats by strings so reports stay strict JSON."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    return value


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header_lines, columns, rows) -> None:
    """The one output table format: ``# `` comment lines, a header of
    ``columns``, then one line per row, LF-terminated.  Cells are written
    by ``str``, which for Python floats is their shortest round-trip
    ``repr``; pass numpy values through ``tolist()`` first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _meta_lines(cfg: RunConfig) -> list[str]:
    return [f"schema={SCHEMA_VERSION} command={cfg.command} config={cfg.digest} seed={cfg.seed}"]


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


@contextlib.contextmanager
def _config_errors(context: str = ""):
    """Report a bad value met while building settings as a config error."""
    try:
        yield
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}{exc}") from exc


def _check(key: str, value, kind):
    """``value`` if it has the type ``kind`` (see ``_TYPES``), else a
    ConfigError naming ``key`` ("" for the whole config).  ``true``,
    ``false`` and strings are never numbers, and a fractional value is
    never an integer.  Equal numbers come out as one value: an integral
    float such as 10.0 or 2e5 as that integer, an integer given for a
    float setting as that float."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        expected = "one of " + ", ".join(kind)
    elif isinstance(kind, list):
        if isinstance(value, list):
            return [_check(key, v, kind[0]) for v in value]
        expected = "a JSON list"
    elif isinstance(kind, dict):
        if isinstance(value, dict):
            for k in value:
                if k not in kind:
                    raise ConfigError(f"unknown {key or 'config'} key {k!r}; "
                                      f"expected one of {', '.join(kind)}")
            return {k: _check(f"{key} {k}".lstrip(), v, kind[k]) for k, v in value.items()}
        expected = "a JSON object"
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is float and number:
            return value + 0.0
        if kind is int and number and (isinstance(value, int) or value.is_integer()):
            return round(value)
        if kind not in (int, float) and isinstance(value, kind):
            return value
        expected = _TYPE_NAMES[kind]
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _resampling(flag: str, replicates: int, seed: int, workers: int) -> BootstrapConfig | None:
    """Resampling settings for a replicate-count flag; 0 turns it off."""
    if replicates == 0:
        return None
    with _config_errors(f"{flag}: "):
        return BootstrapConfig(replicates=replicates, seed=seed, workers=workers)


def _cb_block(estimates, failures, kind):
    est = estimates.get(kind)
    if est is None:
        return {"error": failures.get(kind, "not computed")}
    return dataclasses.asdict(est)


def cmd_estimate(cfg: RunConfig) -> int:
    """Fit the model on a trial CSV and write the estimation report."""
    data = load_dataset(str(cfg.input_path), cfg.columns)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "estimate",
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "n_subjects": data.n,
        "n_missing_excluded": data.n_missing_excluded,
        "covariates": list(data.covariate_names),
    }
    if data.has_both_arms:
        bal = balance_check(data, threshold=cfg.smd_threshold)
        report["balance"] = {
            "smd": bal.as_dict(),
            "threshold": cfg.smd_threshold,
            "flagged": bal.flagged,
        }

    kinds = list(ESTIMATOR_KINDS) if cfg.estimator == "both" else [cfg.estimator]
    try:
        result = cfg.pipeline.estimate(data, seed=cfg.seed)
        model, cv = result.model, result.cv
        model_payload = model.to_dict()
        report["model"] = {
            "kind": cfg.pipeline.model,
            "lambda": model.penalty,
            "theta": model.dispersion,
            "converged": model.fit_meta.converged,
            "iterations": model.fit_meta.iterations,
            "coefficients": model_payload["coefficients"],
            "cv": None
            if cv is None
            else {
                "folds": cv.folds,
                "grid_size": int(cv.lambda_grid.size),
                "chosen_lambda": cv.chosen_lambda,
                "chosen_index": cv.chosen_index,
                "at_grid_edge": cv.chosen_index in (0, cv.lambda_grid.size - 1),
            },
        }
        report["estimates"] = {
            kind: _cb_block(result.estimates, result.failures, kind) for kind in kinds
        }

        degenerate = [k for k in kinds if k not in result.estimates]
        # Resampling estimates only the kinds asked for, so that no other
        # kind's failure can end the run.
        asked = dataclasses.replace(
            result, estimates={k: v for k, v in result.estimates.items() if k in kinds}
        )

        if cfg.bootstrap is not None and not degenerate:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                intervals = bootstrap_intervals(data, cfg.pipeline, cfg.bootstrap, original=asked)
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
            report["intervals"] = {}
            for kind in kinds:
                iv = intervals[kind]  # every kind asked for has a point estimate
                report["intervals"][kind] = {
                    "level": iv.level,
                    "lower": iv.lower,
                    "upper": iv.upper,
                    "replicates": cfg.bootstrap.replicates,
                    "failed": iv.n_failed,
                    "unreliable": iv.unreliable,
                }
                _write_csv(cfg.out_dir / f"bootstrap_{kind}.csv", _meta_lines(cfg), ["value"],
                           ((v,) for v in iv.replicate_values.tolist()))

        if cfg.optimism is not None and not degenerate:
            adjusted = optimism_adjust_all(data, cfg.pipeline, cfg.optimism, original=asked)
            report["optimism"] = {
                kind: {
                    "replicates": cfg.optimism.replicates,
                    "optimism": adj.optimism,
                    "adjusted": adj.adjusted,
                    "failed": adj.n_failed,
                }
                for kind, adj in adjusted.items()
            }
    except EstimationError as exc:
        report["error"] = str(exc)
        _write_json(cfg.out_dir / "report.json", report)
        raise

    _write_json(cfg.out_dir / "report.json", report)
    model_payload.update(
        {"schema_version": SCHEMA_VERSION, "config_digest": cfg.digest, "seed": cfg.seed}
    )
    _write_json(cfg.out_dir / "model.json", model_payload)

    _write_csv(cfg.out_dir / "benefit_histogram.csv", _meta_lines(cfg), ["subject_id", "benefit"],
               zip(data.ids, result.benefit.values.tolist()))
    par_curve = bn.partial_sums_parametric(result.benefit)
    semi_curve = bn.semiparametric_partial_sums(data, result.benefit)
    _write_csv(cfg.out_dir / "partial_sums.csv", _meta_lines(cfg),
               ["k", "parametric", "semiparametric"],
               zip(par_curve.k.tolist(), par_curve.values.tolist(), semi_curve.values.tolist()))

    if degenerate:
        raise EstimationError(
            "; ".join(f"{k}: {result.failures.get(k, 'unavailable')}" for k in degenerate)
        )
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    """Run the synthetic-trial estimator study and write its tables."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    all_rows = []
    for scenario in cfg.scenarios:
        rep = run_simulation(scenario, cfg.n_values, cfg.replicates, cfg.seed, settings=cfg.sim)
        all_rows.extend(rep.rows)
    # SimulationRow's fields, in order, under their table names
    columns = ["scenario", "n", "estimator", "bias", "sd", "rmse",
               "replicates", "failed", "oracle_cb"]
    rows = [dataclasses.astuple(r) for r in all_rows]
    _write_csv(cfg.out_dir / "table3.csv", _meta_lines(cfg), columns, rows)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "config_digest": cfg.digest,
        "replicates": cfg.replicates,
        "seed": cfg.seed,
        "rows": [dict(zip(columns, row)) for row in rows],
    }
    _write_json(cfg.out_dir / "simulation.json", payload)
    return 0


def cmd_curve(cfg: RunConfig) -> int:
    """Write the benefit(p) curve for a fitted model or a dataset."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    data = load_dataset(str(cfg.input_path), cfg.columns)
    if cfg.model_file is not None:
        try:
            model = FittedBenefitModel.load(cfg.model_file)
        except OSError as exc:
            raise DataError(f"cannot read model file: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed model file {cfg.model_file}: {exc!r}") from exc
        if data.m != model.m:
            raise DataError(
                f"model file {cfg.model_file} expects {model.m} covariates, "
                f"the dataset has {data.m}"
            )
        bv = bn.predicted_benefit(model, data)
    else:
        bv = cfg.pipeline.estimate(data, seed=cfg.seed).benefit

    if cfg.p_values:
        grid = np.asarray(cfg.p_values, dtype=np.float64)
    else:
        grid = np.arange(1, cfg.grid_size + 1, dtype=np.float64) / cfg.grid_size
    curve = bn.benefit_curve(bv, grid)
    integral = bn.benefit_curve(
        bv, np.linspace(1.0 / 10_000, 1.0, 10_000)
    ).integral()
    half_pair_max = 0.5 * bn.pair_max_parametric(bv) if bv.n >= 2 else math.nan
    lines = _meta_lines(cfg) + [
        f"integrated_benefit={integral!r}",
        f"half_pair_max={half_pair_max!r}",
    ]
    _write_csv(cfg.out_dir / "curve.csv", lines, ["p", "benefit"],
               zip(curve.p.tolist(), curve.values.tolist()))
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems as config errors."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cbindex", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="master seed (required)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--workers", type=int, default=None, help="parallel workers")

    est = sub.add_parser("estimate", help="fit a trial and estimate concentration")
    common(est)
    est.add_argument("--input", default=None, help="trial CSV")
    est.add_argument("--model", choices=MODELS, default=None)
    est.add_argument("--estimator", choices=_TYPES["estimator"], default=None)
    est.add_argument("--bootstrap", type=int, default=None, metavar="N",
                     help="bootstrap replicates for confidence intervals")
    est.add_argument("--optimism", type=int, default=None, metavar="N",
                     help="bootstrap replicates for optimism adjustment")

    sim = sub.add_parser("simulate", help="synthetic-trial estimator study")
    common(sim)
    sim.add_argument("--scenario", dest="scenarios", action="append", default=None,
                     metavar="NAME", help="strong, weak, null, or all (repeatable)")
    sim.add_argument("--n", dest="n_values", action="append", type=int, default=None,
                     metavar="N", help="trial size (repeatable)")
    sim.add_argument("--replicates", type=int, default=None)
    sim.add_argument("--population-size", type=int, default=None)
    sim.add_argument("--theta", type=float, default=None)
    sim.add_argument("--followup", choices=FOLLOWUPS, default=None)
    sim.add_argument("--optimism", dest="sim_optimism", type=int, default=None, metavar="N",
                     help="inner bootstrap count for adjusted estimators")

    cur = sub.add_parser("curve", help="export the benefit(p) curve")
    common(cur)
    cur.add_argument("--input", default=None, help="trial CSV")
    cur.add_argument("--model", choices=MODELS, default=None)
    cur.add_argument("--model-file", default=None, help="previously saved model.json")
    cur.add_argument("--grid-size", type=int, default=None)
    cur.add_argument("--p", default=None, help="comma-separated p values in (0,1]")
    return parser


def _resolve(args) -> RunConfig:
    """Merge the config file and the flags given (a flag wins), check every
    setting against ``_TYPES`` and the objects built from it, and build what
    the command runs.  A bad setting raises here, before the input is read
    or any output written."""
    flags = {k: v for k, v in vars(args).items() if k in _TYPES and v is not None}
    s = _check("", {**_load_config_file(args.config), **flags}, _TYPES)

    def given(*keys, **renamed) -> dict:
        """The settings given among ``keys``, and among ``renamed``'s values
        under its names, as keyword arguments."""
        names = dict(zip(keys, keys), **renamed)
        return {name: s[key] for name, key in names.items() if key in s}

    if "seed" not in s:
        raise ConfigError("--seed is required (no wall-clock default)")
    if s["seed"] < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {s['seed']}")
    cfg = RunConfig(args.command, s["seed"], Path(s.get("out", RunConfig.out_dir)),
                    **given("workers"))
    if cfg.workers < 1:
        raise ConfigError("--workers must be at least 1")
    if cfg.command == "simulate":
        names = [name for item in s.get("scenarios", ["all"])
                 for name in (SCENARIO_NAMES if item == "all" else [item])]
        cfg = dataclasses.replace(
            cfg, **given("n_values", "replicates"),
            scenarios=[Scenario(name, **given("theta", "followup")) for name in names],
            sim=SimSettings(workers=cfg.workers,
                            **given("population_size", optimism_replicates="sim_optimism")),
        )
        if not cfg.scenarios:
            raise ConfigError("simulate needs --scenario")
        if not cfg.n_values:
            raise ConfigError("simulate needs --n")
        for n in cfg.n_values:
            if not 1 <= n <= cfg.sim.population_size:
                raise ConfigError(f"--n {n} must lie between 1 and the population size "
                                  f"{cfg.sim.population_size}")
        if cfg.replicates < 2:
            raise ConfigError("simulate needs at least two --replicates")
        return cfg

    if not s.get("input"):
        raise ConfigError(f"{cfg.command} needs --input")
    if not s.get("columns"):
        raise ConfigError(f"{cfg.command} needs a column mapping in the config file")
    model_file = Path(args.model_file) if cfg.command == "curve" and args.model_file else None
    cfg = dataclasses.replace(cfg, input_path=Path(s["input"]), columns=s["columns"],
                              model_file=model_file)
    if model_file is None:  # a saved model replaces the pipeline, which keeps its default
        cv = {_CV_FIELDS[key]: value for key, value in s.get("cv", {}).items()}
        cfg = dataclasses.replace(cfg, pipeline=BenefitPipeline(**given("model"), **cv))
    if cfg.command == "estimate":
        cfg = dataclasses.replace(
            cfg, **given("estimator", "smd_threshold"),
            bootstrap=_resampling("--bootstrap", s.get("bootstrap", 0), cfg.seed, cfg.workers),
            optimism=_resampling("--optimism", s.get("optimism", 0), cfg.seed + 1, cfg.workers),
        )
        if not (math.isfinite(cfg.smd_threshold) and cfg.smd_threshold >= 0):
            raise ConfigError(f"smd_threshold must be a finite number of at least 0, "
                              f"got {cfg.smd_threshold!r}")
        return cfg
    cfg = dataclasses.replace(cfg, **given("grid_size"))
    if cfg.grid_size < 1:
        raise ConfigError("--grid-size must be at least 1")
    if args.p is not None:
        try:
            p_values = sorted(float(v) for v in args.p.split(",") if v.strip())
        except ValueError as exc:
            raise ConfigError(f"bad --p list: {args.p!r}") from exc
        if not p_values:
            raise ConfigError(f"--p lists no values: {args.p!r}")
        for p in p_values:
            if not 0.0 < p <= 1.0:
                raise ConfigError(f"--p values must lie in (0, 1], got {p!r}")
        cfg = dataclasses.replace(cfg, p_values=p_values)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _config_errors():
            cfg = _resolve(args)
        handler = {"estimate": cmd_estimate, "simulate": cmd_simulate, "curve": cmd_curve}[
            cfg.command
        ]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"estimation degenerate: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

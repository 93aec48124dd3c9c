"""Synthetic-trial study of the concentration estimators.

A large super-population is generated with known per-subject benefit
under three treatment-effect scenarios:

* ``strong`` -- log-scale interactions from the unpenalized case-study
  coefficients;
* ``weak`` -- the same structure with the shrunken (ridge) coefficients;
* ``null`` -- no benefit heterogeneity at all: the event model keeps its
  covariate main effects, but treatment removes a *constant* number of
  events per person-year, chosen to match the weak scenario's average
  benefit, so the population concentration index is exactly 0.

Simulated trials of configurable size are drawn from the population,
treatment is re-randomized with probability 0.5, counts are drawn from
the negative-binomial event model, and six estimator variants are run:
parametric and semi-parametric under ridge or maximum likelihood, plus
optimism-adjusted semi-parametric versions.  Bias, SD, and RMSE against
the population value are tabulated per (scenario, n, estimator).

Every replicate is a pure function of (seed, scenario, n, replicate
index); reports are identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import _parallel
from .benefit import BenefitVector, cb_parametric
from .errors import CbIndexError
from .inference import BootstrapConfig, optimism_adjust_all
from .pipeline import BenefitPipeline
from .trial_data import TrialDataset

__all__ = [
    "RIDGE_COEFFICIENTS",
    "ML_COEFFICIENTS",
    "WEAK_SCENARIO_COEFFICIENTS",
    "STRONG_SCENARIO_COEFFICIENTS",
    "COVARIATE_NAMES",
    "SCENARIO_NAMES",
    "FOLLOWUPS",
    "SIM_PIPELINE",
    "Scenario",
    "Population",
    "SimSettings",
    "SimulationRow",
    "SimulationReport",
    "generate_population",
    "population_cb",
    "run_simulation",
    "ESTIMATOR_LABELS",
]

COVARIATE_NAMES = ["sex", "age", "prior_hosp", "prior_steroids", "fev1", "sgrq"]

# Case-study coefficient sets on the standardized-covariate scale,
# ordered [intercept, treatment, 6 main effects, 6 interactions].
RIDGE_COEFFICIENTS = (
    -1.367, -0.116,
    -0.155, -0.008, 0.744, 0.420, -0.108, 1.395,
    0.017, -0.003, 0.172, 0.005, -0.063, -0.118,
)
ML_COEFFICIENTS = (
    -1.959, 0.693,
    -0.241, -0.004, 0.976, 0.479, -0.176, 1.792,
    0.109, -0.014, 0.045, 0.121, 0.006, -0.555,
)

# Generator coefficient sets.  Real trial covariates are strongly
# correlated, so feeding the fitted per-SD coefficients into an
# *independent* covariate generator at full scale produces event-rate
# spreads (and hence estimator noise) far beyond anything a real cohort
# shows, drowning every estimand.  The scenarios therefore scale the
# covariate effects by EFFECT_SCALE, anchor the baseline log-rate at
# BASE_LOG_RATE (about 1.5 events/year untreated, matching the case
# study), and orient both treatment main effects protective: an adverse
# effect leaves the average benefit negative and the index undefined.
EFFECT_SCALE = 0.45
BASE_LOG_RATE = 0.1
_WEAK_TREATMENT_EFFECT = -0.116
_STRONG_TREATMENT_EFFECT = -0.693


def _generator_set(base: tuple[float, ...], treatment_effect: float) -> tuple[float, ...]:
    scaled = tuple(EFFECT_SCALE * c for c in base[2:])
    return (BASE_LOG_RATE, treatment_effect) + scaled


WEAK_SCENARIO_COEFFICIENTS = _generator_set(RIDGE_COEFFICIENTS, _WEAK_TREATMENT_EFFECT)
STRONG_SCENARIO_COEFFICIENTS = _generator_set(ML_COEFFICIENTS, _STRONG_TREATMENT_EFFECT)

ESTIMATOR_LABELS = (
    "parametric-ridge",
    "parametric-ml",
    "semi-ridge",
    "semi-ml",
    "semi-ridge-adjusted",
    "semi-ml-adjusted",
)

# name -> (coefficients, kind); the position in this table, from 1, is
# the scenario's key in every seed derivation.
_SCENARIOS = {
    "strong": (STRONG_SCENARIO_COEFFICIENTS, "interaction"),
    "weak": (WEAK_SCENARIO_COEFFICIENTS, "interaction"),
    "null": (WEAK_SCENARIO_COEFFICIENTS, "constant-benefit"),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
# Follow-up designs: one year for everyone, or U(0.5, 1.0) years.
FOLLOWUPS = ("fixed", "uniform")
_SCENARIO_INDEX = {name: i for i, name in enumerate(SCENARIO_NAMES, start=1)}

MIN_POPULATION_SIZE = 1000
POPULATION_SIZE = 200_000
# A population of this size holds its covariates in about 0.5 GB.
MAX_POPULATION_SIZE = 10_000_000

# Raw semi-parametric values are kept even outside [0, 1], but a value
# farther than this from the estimand's range exists only through
# denominator collapse and would own the moment estimates; such
# replicates count as failures (excluded and reported).
SEMI_RAW_BOUND = 2.0

# Desk-scale ridge pipeline of the study: coarser cross-validation
# (fewer folds, shorter penalty path), and its reported fits at the
# ``"relaxed"`` precision the folds use rather than the single-trial
# ``"final"``; honest, just cheaper.  The maximum-likelihood variant is the
# same pipeline with ``model="ml"``.
SIM_PIPELINE = BenefitPipeline(
    cv_folds=4,
    lambda_grid_size=6,
    lambda_min_ratio=1e-3,
    precision="relaxed",
)


@dataclass(frozen=True)
class Scenario:
    """A data-generating mechanism for simulated trials, fixed by its name.

    ``kind`` is ``interaction`` for the strong/weak scenarios (benefit
    comes from log-scale interactions) or ``constant-benefit`` for the
    null (treatment subtracts a fixed rate from every subject).
    """

    name: str
    # Generation dispersion.  Mild overdispersion keeps the person-time
    # rate estimators stable at n=400 while still exercising the
    # negative-binomial machinery; fully configurable.
    theta: float = 10.0
    followup: str = FOLLOWUPS[0]
    coefficients: tuple[float, ...] = field(init=False)
    kind: str = field(init=False)

    def __post_init__(self):
        if self.name not in _SCENARIOS:
            raise ValueError(f"unknown scenario {self.name!r}")
        if not 0.0 < self.theta < math.inf:
            raise ValueError(f"theta must be finite and positive, got {self.theta!r}")
        if self.followup not in FOLLOWUPS:
            raise ValueError(f"followup must be one of {', '.join(FOLLOWUPS)}")
        coefficients, kind = _SCENARIOS[self.name]
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "kind", kind)


@dataclass
class Population:
    """Super-population with analytically known per-subject benefit."""

    scenario: Scenario
    covariates: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    true_benefit: np.ndarray

    @property
    def size(self) -> int:
        return self.covariates.shape[0]


_CONTINUOUS_TRUNCATION = 2.0


def _truncated_normal(size: int, rng: np.random.Generator) -> np.ndarray:
    """Standard normal with |z| > 2 redrawn.  Questionnaire-style scores
    have bounded support; unbounded tails under the large log-scale
    coefficients would make rate moments explode and Monte Carlo oracles
    unstable."""
    z = rng.standard_normal(size)
    while True:
        bad = np.abs(z) > _CONTINUOUS_TRUNCATION
        if not bad.any():
            return z
        z[bad] = rng.standard_normal(int(bad.sum()))


def _draw_covariates(size: int, rng: np.random.Generator) -> np.ndarray:
    cols = [
        rng.binomial(1, 0.5, size).astype(np.float64),  # sex
        _truncated_normal(size, rng),                   # age
        rng.binomial(1, 0.3, size).astype(np.float64),  # prior hospitalization
        rng.binomial(1, 0.5, size).astype(np.float64),  # prior corticosteroids
        _truncated_normal(size, rng),                   # FEV1
        _truncated_normal(size, rng),                   # SGRQ
    ]
    x = np.column_stack(cols)
    x -= x.mean(axis=0)
    x /= x.std(axis=0, ddof=1)
    return x


def _split_coefficients(coefs: Sequence[float]):
    c = np.asarray(coefs, dtype=np.float64)
    return float(c[0]), float(c[1]), c[2:8], c[8:14]


def _check_population_size(size: int) -> None:
    if not MIN_POPULATION_SIZE <= size <= MAX_POPULATION_SIZE:
        raise ValueError(f"population size must lie between {MIN_POPULATION_SIZE} and "
                         f"{MAX_POPULATION_SIZE}, got {size}")


def generate_population(
    scenario: Scenario | str, size: int = POPULATION_SIZE, seed: int = 0
) -> Population:
    """Draw a standardized covariate population and its true benefits.

    Strong/weak: both counterfactual rates follow the log-linear
    interaction model and benefit is their difference at one year.
    Null: the treated rate follows the main-effects model and the
    untreated rate adds a constant equal to the weak scenario's mean
    benefit on the same covariate draw, making benefit exactly constant.
    """
    if isinstance(scenario, str):
        scenario = Scenario(scenario)
    _check_population_size(size)
    rng = np.random.default_rng(seed)
    x = _draw_covariates(size, rng)
    b0, ba, main, inter = _split_coefficients(scenario.coefficients)
    if scenario.kind == "interaction":
        mu0 = np.exp(b0 + x @ main)
        mu1 = np.exp(b0 + ba + x @ (main + inter))
        benefit = mu0 - mu1
    else:
        wb0, wba, wmain, winter = _split_coefficients(WEAK_SCENARIO_COEFFICIENTS)
        weak_benefit = np.exp(wb0 + x @ wmain) - np.exp(wb0 + wba + x @ (wmain + winter))
        shift = float(weak_benefit.mean())
        mu1 = np.exp(b0 + x @ main)
        mu0 = mu1 + shift
        benefit = np.full(size, shift)
    return Population(
        scenario=scenario,
        covariates=x,
        mu0=mu0,
        mu1=mu1,
        true_benefit=benefit,
    )


def population_cb(pop: Population) -> float:
    """Ground-truth concentration index of the population's benefits."""
    return cb_parametric(BenefitVector.from_values(pop.true_benefit)).cb


@dataclass(frozen=True)
class SimSettings:
    """Execution settings for the simulation study: the super-population
    size, the reduced optimism bootstrap count, and the worker count.
    ``pipeline`` is always ``SIM_PIPELINE``; it is kept for the digest."""

    population_size: int = POPULATION_SIZE
    optimism_replicates: int = 12
    workers: int = 1
    pipeline: BenefitPipeline = field(default=SIM_PIPELINE, init=False)

    def __post_init__(self):
        _check_population_size(self.population_size)
        if self.optimism_replicates < 2:
            raise ValueError("need at least two optimism replicates")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class SimulationRow:
    scenario: str
    n: int
    estimator: str
    bias: float
    sd: float
    rmse: float
    n_replicates: int
    n_failed: int
    oracle_cb: float


@dataclass
class SimulationReport:
    """Bias/SD/RMSE per (scenario, sample size, estimator variant)."""

    rows: list[SimulationRow]
    replicates: int
    seed: int

    def row(self, scenario: str, n: int, estimator: str) -> SimulationRow:
        for r in self.rows:
            if (r.scenario, r.n, r.estimator) == (scenario, n, estimator):
                return r
        raise KeyError((scenario, n, estimator))


def _replicate_rng(seed: int, scen_idx: int, n: int, r: int, lane: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=(scen_idx, n, r + 1, lane))


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def _simulate_trial(pop: Population, n: int, rng: np.random.Generator) -> TrialDataset:
    idx = rng.choice(pop.size, size=n, replace=False)
    arm = rng.integers(0, 2, size=n)
    if pop.scenario.followup == "uniform":
        time = rng.uniform(0.5, 1.0, size=n)
    else:
        time = np.ones(n)
    mu = np.where(arm == 0, pop.mu0[idx], pop.mu1[idx]) * time
    theta = pop.scenario.theta
    events = rng.negative_binomial(theta, theta / (theta + mu))
    return TrialDataset(
        treatment=arm,
        events=events,
        time=time,
        covariates=pop.covariates[idx],
        covariate_names=COVARIATE_NAMES,
    )


def _sim_task(r: int) -> dict[str, float | None]:
    pop, n, seed, settings = _parallel.shared_state()
    scen_idx = _SCENARIO_INDEX[pop.scenario.name]
    rng = np.random.default_rng(_replicate_rng(seed, scen_idx, n, r, 0))
    data = _simulate_trial(pop, n, rng)

    ridge = settings.pipeline
    ml = replace(ridge, model="ml")
    out: dict[str, float | None] = {label: None for label in ESTIMATOR_LABELS}

    for tag, pipe, fit_lane, optimism_lane in (("ridge", ridge, 1, 3), ("ml", ml, 2, 4)):
        try:
            res = pipe.estimate(data, seed=_seed_int(_replicate_rng(seed, scen_idx, n, r, fit_lane)))
        except CbIndexError:
            continue
        out[f"parametric-{tag}"] = res.cb_value("parametric")
        # Raw semi-parametric values enter the aggregates even outside
        # [0, 1] (excluding those would censor one tail), but values
        # beyond the wide bound are denominator-collapse artifacts and
        # count as failures.
        semi = res.cb_value("semiparametric")
        if semi is None or not -SEMI_RAW_BOUND <= semi <= 1.0 + SEMI_RAW_BOUND:
            continue
        out[f"semi-{tag}"] = semi
        cfg = BootstrapConfig(
            replicates=settings.optimism_replicates,
            seed=_seed_int(_replicate_rng(seed, scen_idx, n, r, optimism_lane)),
        )
        # Only the semi-parametric kind is adjusted: a parametric failure must not end it.
        original = replace(res, estimates={"semiparametric": res.estimates["semiparametric"]})
        try:
            adj = optimism_adjust_all(data, pipe, cfg, original=original)
        except CbIndexError:
            continue
        out[f"semi-{tag}-adjusted"] = adj["semiparametric"].adjusted
    return out


def run_simulation(
    scenario: Scenario | str,
    n: int | Iterable[int],
    replicates: int,
    seed: int,
    settings: SimSettings | None = None,
) -> SimulationReport:
    """Monte Carlo evaluation of all estimator variants for one scenario.

    Returns one report row per (n, estimator) with bias, SD (population
    formula), and RMSE against the super-population index; failed
    replicates are excluded per estimator and counted.
    """
    settings = settings if settings is not None else SimSettings()
    if isinstance(scenario, str):
        scenario = Scenario(scenario)
    if replicates < 2:
        raise ValueError("need at least two replicates")
    scen_idx = _SCENARIO_INDEX[scenario.name]
    pop_seed = _seed_int(np.random.SeedSequence(entropy=seed, spawn_key=(scen_idx, 0)))
    population = generate_population(scenario, settings.population_size, pop_seed)
    oracle = population_cb(population)

    n_values = [int(n)] if isinstance(n, (int, np.integer)) else [int(v) for v in n]
    rows: list[SimulationRow] = []
    for n_i in n_values:
        results = _parallel.run_indexed(
            _sim_task,
            range(replicates),
            settings.workers,
            shared=(population, n_i, seed, settings),
        )
        for label in ESTIMATOR_LABELS:
            values = np.array(
                [row[label] for row in results if row[label] is not None],
                dtype=np.float64,
            )
            n_ok = values.size
            if n_ok == 0:
                bias = sd = rmse = math.nan
            else:
                bias = float(values.mean() - oracle)
                sd = float(values.std(ddof=0))
                rmse = float(np.sqrt(np.mean((values - oracle) ** 2)))
            rows.append(
                SimulationRow(
                    scenario=scenario.name,
                    n=n_i,
                    estimator=label,
                    bias=bias,
                    sd=sd,
                    rmse=rmse,
                    n_replicates=n_ok,
                    n_failed=replicates - n_ok,
                    oracle_cb=oracle,
                )
            )
    return SimulationReport(rows=rows, replicates=replicates, seed=seed)

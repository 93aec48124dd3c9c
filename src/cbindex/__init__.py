"""Concentration-of-benefit estimation for two-arm trials with count outcomes.

The package fits a penalized negative-binomial benefit model to
randomized-trial data, summarizes how unevenly the predicted treatment
benefit is spread across subjects, quantifies uncertainty by bootstrap,
and reproduces the estimator behavior study on synthetic populations.

The top level exports what a typical analysis needs; everything else
is imported from its submodule (``cbindex.errors``, ``cbindex.nbglm``,
``cbindex.simulation``, ...).
"""

from .benefit import (
    BenefitVector,
    benefit_curve,
    cb_parametric,
    cb_semiparametric,
    delta_b,
    gini_b,
    mean_benefit,
    pair_max_parametric,
    semiparametric_partial_sums,
)
from .inference import BootstrapConfig, bootstrap_intervals, optimism_adjust_all
from .nbglm import build_design_matrix, fit
from .pipeline import BenefitPipeline
from .simulation import SimSettings, generate_population, population_cb, run_simulation
from .trial_data import load_dataset, make_dataset, standardize

__version__ = "0.1.0"

__all__ = [
    "BenefitPipeline",
    "BenefitVector",
    "BootstrapConfig",
    "SimSettings",
    "benefit_curve",
    "bootstrap_intervals",
    "build_design_matrix",
    "cb_parametric",
    "cb_semiparametric",
    "delta_b",
    "fit",
    "generate_population",
    "gini_b",
    "load_dataset",
    "make_dataset",
    "mean_benefit",
    "optimism_adjust_all",
    "pair_max_parametric",
    "population_cb",
    "run_simulation",
    "semiparametric_partial_sums",
    "standardize",
]

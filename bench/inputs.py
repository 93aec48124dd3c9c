"""Seeded inputs for the benchmark workloads.

Each trial is drawn from a two-arm negative-binomial model with a log
link: ``log mu = b0 + ba*a + x @ main + (a*x) @ inter + log(t)`` on
standard-normal covariates, the same construction the test suite uses.
The coefficients are fixed; only the draw depends on the seed, so one
seed always gives the same files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

N_COVARIATES = 6
THETA = 2.0
# Intercept, treatment, six main effects, six treatment interactions.
# Treatment lowers the event rate on average, so both estimators are
# defined and no replicate is expected to fail on orientation.
COEFFICIENTS = np.array(
    [0.3, -0.5,
     0.35, -0.25, 0.2, 0.15, -0.1, 0.05,
     -0.3, 0.2, -0.15, 0.1, 0.05, -0.05]
)
COVARIATE_NAMES = [f"x{j + 1}" for j in range(N_COVARIATES)]


def draw_trial(n: int, seed: int) -> dict[str, np.ndarray]:
    """Arrays of one simulated trial with uniform follow-up in [0.5, 1.5]."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n,)))
    m = N_COVARIATES
    x = rng.standard_normal((n, m))
    a = rng.integers(0, 2, n)
    t = rng.uniform(0.5, 1.5, n)
    b0, ba = COEFFICIENTS[0], COEFFICIENTS[1]
    main, inter = COEFFICIENTS[2:2 + m], COEFFICIENTS[2 + m:]
    eta = b0 + ba * a + x @ main + (a[:, None] * x) @ inter + np.log(t)
    mu = np.exp(eta)
    y = rng.negative_binomial(THETA, THETA / (THETA + mu))
    return {"arm": a, "y": y, "t": t, "x": x}


def write_trial_csv(path: Path, n: int, seed: int) -> None:
    """Write a trial CSV. Cells go through ``repr(float(v))``: under
    numpy 2 the repr of a numpy scalar is ``np.float64(...)``, which
    the loader rejects."""
    trial = draw_trial(n, seed)
    header = ["id", "arm", "y", "t"] + COVARIATE_NAMES
    lines = [",".join(header)]
    for i in range(n):
        cells = [f"s{i}", str(int(trial["arm"][i])), str(int(trial["y"][i])),
                 repr(float(trial["t"][i]))]
        cells += [repr(float(v)) for v in trial["x"][i]]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_config(path: Path, cv: dict | None = None) -> None:
    """Column mapping for :func:`write_trial_csv`, plus CV settings when
    ``cv`` is given (otherwise the program's defaults apply)."""
    config = {
        "columns": {
            "treatment": "arm", "events": "y", "time": "t",
            "covariates": COVARIATE_NAMES, "id": "id",
        },
    }
    if cv is not None:
        config["cv"] = cv
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

import numpy as np
import pytest
from hypothesis import settings

from cbindex import make_dataset

# Every property test draws the same examples on every run, and no example
# database carries a failure found in one run into the next.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def simulate_trial(
    coefficients,
    n,
    seed,
    theta=1.0,
    m=6,
    fixed_time=True,
):
    """Draw a two-arm NB trial from a log-link interaction model.

    ``coefficients`` is the [intercept, treatment, m mains, m
    interactions] layout applied to standard-normal covariates.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    assert coefficients.size == 2 * m + 2
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    a = rng.integers(0, 2, n)
    t = np.ones(n) if fixed_time else rng.uniform(0.5, 1.5, n)
    b0, ba = coefficients[0], coefficients[1]
    main, inter = coefficients[2 : 2 + m], coefficients[2 + m :]
    eta = b0 + ba * a + x @ main + (a[:, None] * x) @ inter + np.log(t)
    mu = np.exp(eta)
    y = rng.negative_binomial(theta, theta / (theta + mu))
    return make_dataset(a, y, t, x)


def separated_trial(seed, with_events=0):
    """300 subjects, a binary ``x1`` and a normal ``x2``, NB counts (theta
    2), in which only the first ``with_events`` treated subjects with
    ``x1 = 1`` have events: the ML estimate is infinite on a sample that
    holds none of them."""
    rng = np.random.default_rng(seed)
    a, x1, x2 = rng.integers(0, 2, 300), rng.integers(0, 2, 300), rng.standard_normal(300)
    mu = np.exp(0.3 - 0.3 * a + 0.4 * x1 + 0.2 * x2)
    y = rng.negative_binomial(2.0, 2.0 / (2.0 + mu))
    subgroup = np.flatnonzero((a == 1) & (x1 == 1))
    y[subgroup[:with_events]] = np.maximum(y[subgroup[:with_events]], 1)
    y[subgroup[with_events:]] = 0
    return make_dataset(a, y, np.ones(300), np.column_stack([x1, x2]))


@pytest.fixture
def small_trial():
    """Mild two-covariate trial, quick to fit."""
    coefs = np.array([0.2, -0.4, 0.3, -0.2, 0.15, -0.1])
    return simulate_trial(coefs, n=300, seed=42, theta=2.0, m=2)

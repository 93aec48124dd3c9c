"""``cbindex estimate`` and ``curve`` on small generated trials and configs.

Each example is a trial CSV at the edge of what the program accepts:
tiny or one-arm samples; constant, collinear, huge, tiny, outlying or
separating covariates; a covariate column mapped twice; no events or a
huge count; tiny or huge follow-up times; a penalty or curve grid no
memory can hold, a config error before any work.  Whatever the input, a run ends
in a documented exit code (0 ok, 1 config, 2 data, 3 degenerate) with no
traceback and no stray ``RuntimeWarning``.  An estimate writes
``report.json`` when it is degenerate, and never reports a converged fit
whose dispersion sits on its lower bound.  Some examples then run
``curve`` on the same input: fitted again, or from the estimate's
``model.json``, which a malformed copy (scaling one covariate longer, or
a NaN coefficient) turns into a data error.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cbindex import nbglm
from cbindex.cli import main

COLUMNS = ("normal", "constant", "collinear", "huge", "tiny", "outlier", "separating")


@st.composite
def runs(draw):
    """(CSV text, config, CLI flags, curve run, oversized grid) of one
    generated run."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Repeated choices, and rare ones made of several draws, weigh the
    # examples toward trials with both arms and events.
    n = draw(st.sampled_from([120, 40, 40, 12, 6, 3, 2, 1]))
    a = rng.integers(0, 2, n)
    if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        a[:] = draw(st.sampled_from([0, 1]))  # one arm
    kinds = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3))
    x = np.empty((n, len(kinds)))
    for j, kind in enumerate(kinds):
        column = rng.standard_normal(n)
        if kind == "constant":
            column[:] = 1.5
        elif kind == "collinear" and j > 0:  # affine in the first column
            column = 2.0 * x[:, 0] + 1.0
        elif kind == "huge":
            column = np.ldexp(column, 700)
        elif kind == "tiny":  # 2**-1060 times a normal draw is subnormal
            column = np.ldexp(column, draw(st.sampled_from([-700, -1060])))
        elif kind == "outlier":
            column[0] = draw(st.sampled_from([1e3, 1e200]))
        elif kind == "separating":
            column = rng.integers(0, 2, n).astype(float)
        x[:, j] = column
    y = rng.negative_binomial(2.0, 2.0 / (2.0 + np.exp(0.3 - 0.5 * a)))
    counts = draw(st.sampled_from(["nb", "nb", "none", "huge"]))
    if counts == "none":
        y[:] = 0
    elif counts == "huge":
        y[0] = draw(st.sampled_from([10**6, 10**15, 2**62]))
    if "separating" in kinds:
        y[(a == 1) & (x[:, kinds.index("separating")] == 1)] = 0
    t = np.ones(n) if draw(st.booleans()) else rng.uniform(0.5, 1.5, n)
    t[0] = draw(st.sampled_from([t[0], 1e-300, 1e-8, 1e8, 1e300]))
    names = [f"x{j + 1}" for j in range(len(kinds))]
    rows = [",".join(["id", "arm", "y", "t"] + names)]
    rows += [",".join([f"s{i}", str(a[i]), str(y[i]), repr(float(t[i]))]
                      + [repr(float(v)) for v in x[i]]) for i in range(n)]
    mapped = names + [names[0]] if draw(st.sampled_from([False] * 7 + [True])) else names
    # a grid size whose array (7.28 TiB) no allocation can give
    oversized = draw(st.sampled_from([None] * 14 + ["cv", "curve"]))
    config = {
        "columns": {"treatment": "arm", "events": "y", "time": "t", "covariates": mapped,
                    "id": "id"},
        "cv": {"folds": 3, "grid_size": 10**12 if oversized == "cv" else 4, "min_ratio": 0.01},
    }
    flags = ["--model", draw(st.sampled_from(["ml", "ridge"])), "--seed", "3"]
    curve = draw(st.sampled_from([None, "fit", "model-file", "model-file"]))
    if curve is not None:
        p = draw(st.sampled_from([None, "1", "0.5", "0.1,0.9", "0.25,0.5,0.75,1"]))
        p = [] if p is None else ["--p", p]
        curve = (curve, p + ["--grid-size", str(10**12)] * (oversized == "curve"),
                 draw(st.sampled_from([None, None, "longer-scaling", "nan-coefficient"])))
    resampling = draw(st.sampled_from([None] * 4 + ["--bootstrap", "--optimism"]))
    if resampling is not None:
        flags += [resampling, "3"]
    return "\n".join(rows) + "\n", config, flags, curve, oversized


def run_cli(argv):
    """(exit code, stderr) of one CLI run, a ``RuntimeWarning`` raised where
    it happens: ``estimate`` prints the warnings of a bootstrap as
    "warning:" lines."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(arg) for arg in argv])
    assert code in (0, 1, 2, 3), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    return code, stderr.getvalue()


@settings(max_examples=300, deadline=None)
@given(run=runs())
def test_generated_input_ends_in_a_documented_exit(run):
    text, config, flags, curve, oversized = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "trial.csv").write_text(text)
        (tmp / "config.json").write_text(json.dumps(config))
        out = tmp / "out"
        inputs = ["--input", tmp / "trial.csv", "--config", tmp / "config.json"]
        code, err = run_cli(["estimate", *inputs, *flags, "--out", out])
        if oversized == "cv":
            assert code == 1 and "penalty grid size must lie between" in err, err
        if code == 3:
            assert (out / "report.json").is_file()
        if code in (0, 3):
            model = json.loads((out / "report.json").read_text()).get("model")
            if model is not None and model["converged"]:
                assert model["theta"] > nbglm.THETA_MIN * (1.0 + 1e-9)
        if curve is None:
            return
        source, p, corruption = curve
        model_file = out / "model.json"
        if source == "fit":
            code, err = run_cli(["curve", *inputs, *flags[:4], *p, "--out", tmp / "curve"])
        elif model_file.is_file():
            payload = json.loads(model_file.read_text())
            if corruption == "longer-scaling":
                payload["scaling_means"].append(0.0)
                payload["scaling_sds"].append(1.0)
            elif corruption == "nan-coefficient":
                payload["coefficients"][-1]["value"] = math.nan
            model_file.write_text(json.dumps(payload))
            code, err = run_cli(["curve", *inputs, "--seed", "3", "--model-file", model_file,
                                 *p, "--out", tmp / "curve"])
        else:
            return
        if oversized == "curve":
            assert code == 1 and "--grid-size must lie between" in err, err
        elif corruption is not None and source != "fit":
            assert code == 2 and "malformed model file" in err, err

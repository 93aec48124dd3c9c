import os
import re

import numpy as np
import pytest

from cbindex import _parallel, inference, make_dataset, nbglm
from cbindex.benefit import BenefitVector, CbEstimate
from cbindex.cli import _write_csv
from cbindex.errors import CbIndexError, EstimationError, NumericalError
from cbindex.inference import (
    BootstrapConfig,
    _fold_seed,
    _percentile_nearest_rank,
    _resample,
    bootstrap_intervals,
    optimism_adjust_all,
)
from cbindex.pipeline import BenefitPipeline, PipelineResult
from cbindex.simulation import SIM_PIPELINE

from conftest import separated_trial, simulate_trial

MILD = np.array([0.3, -0.5, 0.4, -0.3, 0.3, -0.2])


def quick_pipeline():
    return BenefitPipeline(
        model="ridge", cv_folds=3, lambda_grid_size=4, lambda_min_ratio=1e-2,
        precision="relaxed",
    )


class ConstantPredictionPipeline:
    """Ranks every subject identically: the index is always zero."""

    model = "ml"

    def estimate(self, data, seed=None):
        n = data.n
        bv = BenefitVector.from_values(np.full(n, 0.25), subject_ids=data.ids)
        est = CbEstimate(
            mean_benefit=0.25, pair_max=0.25, delta_b=0.0, gini_b=0.0,
            cb=0.0, estimator_kind="parametric",
        )
        return PipelineResult(
            model=type("M", (), {"penalty": 0.0})(),
            benefit=bv,
            estimates={"parametric": est},
            failures={"semiparametric": "stubbed out"},
        )

    def evaluate(self, fitted, data):
        return self.estimate(data)

    def estimate_resamples(self, data, draws, seeds):
        """``estimate`` of each resample, or the error that ended it."""
        out = []
        for draw, seed in zip(draws, seeds):
            try:
                out.append(self.estimate(data.subset(draw), seed))
            except CbIndexError as exc:
                out.append(exc)
        return out


class TestPercentileRule:
    def test_nearest_rank(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        assert _percentile_nearest_rank(values, 0.025) == 1.0
        assert _percentile_nearest_rank(values, 0.25) == 3.0
        assert _percentile_nearest_rank(values, 0.5) == 5.0
        assert _percentile_nearest_rank(values, 0.975) == 10.0
        assert _percentile_nearest_rank(values, 1.0) == 10.0

    def test_degenerate_all_equal(self):
        values = np.full(9, 0.4)
        assert _percentile_nearest_rank(values, 0.025) == 0.4
        assert _percentile_nearest_rank(values, 0.975) == 0.4


class TestBootstrapCi:
    def test_same_seed_identical(self, small_trial):
        cfg = BootstrapConfig(replicates=24, seed=7)
        pipeline = quick_pipeline()
        a = bootstrap_intervals(small_trial, pipeline, cfg)["parametric"]
        b = bootstrap_intervals(small_trial, pipeline, cfg)["parametric"]
        assert a.point == b.point
        assert a.lower == b.lower and a.upper == b.upper
        np.testing.assert_array_equal(a.replicate_values, b.replicate_values)

    def test_workers_do_not_change_results(self, small_trial):
        pipeline = BenefitPipeline(model="ml", precision="relaxed")
        seq = bootstrap_intervals(
            small_trial, pipeline, BootstrapConfig(replicates=16, seed=3, workers=1)
        )
        par = bootstrap_intervals(
            small_trial, pipeline, BootstrapConfig(replicates=16, seed=3, workers=2)
        )
        for kind in seq:
            np.testing.assert_array_equal(
                seq[kind].replicate_values, par[kind].replicate_values
            )

    def test_given_original_supplies_the_point_and_is_not_rerun(self, small_trial):
        pipeline = BenefitPipeline(model="ml")
        cfg = BootstrapConfig(replicates=10, seed=5)
        original = pipeline.estimate(small_trial)

        class NoOriginalRun(BenefitPipeline):
            def estimate(self, data, seed=None):
                assert data is not small_trial, "original sample was refitted"
                return super().estimate(data, seed=seed)

        given = bootstrap_intervals(small_trial, NoOriginalRun(model="ml"), cfg,
                                    original=original)
        rerun = bootstrap_intervals(small_trial, pipeline, cfg)
        for kind, iv in given.items():
            assert iv.point == original.cb_value(kind)
            np.testing.assert_array_equal(iv.replicate_values, rerun[kind].replicate_values)

    def test_interval_orders_bounds(self, small_trial):
        iv = bootstrap_intervals(
            small_trial, BenefitPipeline(model="ml"), BootstrapConfig(replicates=30, seed=5)
        )["parametric"]
        assert iv.lower <= iv.upper
        assert iv.n_failed + iv.replicate_values.size == 30

    def test_degenerate_majority_warns(self, small_trial):
        class Flaky(ConstantPredictionPipeline):
            """Succeeds on the original sample, fails half the resamples."""

            def __init__(self, original):
                self._original = original

            def estimate(self, data, seed=None):
                if data is not self._original and int(data.events.sum()) % 2 == 0:
                    raise EstimationError("stub failure")
                return super().estimate(data, seed)

        with pytest.warns(UserWarning, match="degenerate"):
            result = bootstrap_intervals(
                small_trial, Flaky(small_trial), BootstrapConfig(replicates=20, seed=11)
            )
        assert result["parametric"].unreliable
        assert result["parametric"].n_failed > 4

    def test_replicates_exportable(self, small_trial, tmp_path):
        iv = bootstrap_intervals(
            small_trial, BenefitPipeline(model="ml"), BootstrapConfig(replicates=12, seed=9)
        )["parametric"]
        path = tmp_path / "reps.csv"
        _write_csv(path, ["seed=9"], ["value"], ((v,) for v in iv.replicate_values.tolist()))
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=9" and lines[1] == "value"
        assert len(lines) == 2 + iv.replicate_values.size


class TestOptimism:
    def test_constant_prediction_pipeline_has_zero_optimism(self, small_trial):
        res = optimism_adjust_all(
            small_trial,
            ConstantPredictionPipeline(),
            BootstrapConfig(replicates=10, seed=4),
        )["parametric"]
        assert res.optimism == 0.0
        assert res.adjusted == res.unadjusted

    def test_same_seed_identical(self, small_trial):
        pipeline = BenefitPipeline(model="ml", precision="relaxed")
        cfg = BootstrapConfig(replicates=10, seed=21)
        a = optimism_adjust_all(small_trial, pipeline, cfg)
        b = optimism_adjust_all(small_trial, pipeline, cfg)
        for kind in a:
            assert a[kind].adjusted == b[kind].adjusted
            assert a[kind].optimism == b[kind].optimism

    def test_optimism_positive_on_average_under_null(self):
        # constant true benefit: whatever ranking the model finds is
        # noise, and the within-sample outcome-anchored estimate rides
        # that noise while the original-sample evaluation does not.
        # Single runs are noisy; the guarantee is about the mean.
        from cbindex.simulation import generate_population, _simulate_trial

        pop = generate_population("null", 20_000, seed=5)
        pipeline = BenefitPipeline(model="ml", precision="relaxed")
        rng = np.random.default_rng(17)
        values = []
        for seed in range(8):
            d = _simulate_trial(pop, 300, rng)
            try:
                res = optimism_adjust_all(
                    d, pipeline, BootstrapConfig(replicates=10, seed=13 + seed)
                )
            except EstimationError:
                continue
            if "semiparametric" in res:
                values.append(res["semiparametric"].optimism)
        assert len(values) >= 5
        assert np.mean(values) > 0


class SemiOutOfRangeOnSomeResamples(ConstantPredictionPipeline):
    """Adds a semi-parametric estimate: 0.5 within a resample, flagged 1.5
    when the resample's event total is even; 0.25 on the original data,
    flagged 1.25 when the fitted resample's total is a multiple of 3.
    Records each resample's event total, in replicate order."""

    def __init__(self, original):
        self._original = original
        self.totals = []

    def _with_semi(self, result, cb):
        result.estimates["semiparametric"] = CbEstimate(
            mean_benefit=0.1, pair_max=0.2, delta_b=0.1, gini_b=1.0,
            cb=cb, estimator_kind="semiparametric", out_of_range=cb > 1.0,
        )
        result.failures = {}
        return result

    def estimate(self, data, seed=None):
        total = int(data.events.sum())
        result = super().estimate(data, seed)
        result.model.total = total
        if data is self._original:
            return self._with_semi(result, 0.25)
        self.totals.append(total)
        return self._with_semi(result, 1.5 if total % 2 == 0 else 0.5)

    def evaluate(self, fitted, data):
        assert data is self._original
        cb = 1.25 if fitted.model.total % 3 == 0 else 0.25
        return self._with_semi(super().estimate(data), cb)


class TestOutOfRangeReplicates:
    def test_bootstrap_keeps_raw_values_and_optimism_drops_flagged_pairs(self, small_trial):
        cfg = BootstrapConfig(replicates=30, seed=8)
        boot_pipe = SemiOutOfRangeOnSomeResamples(small_trial)
        iv = bootstrap_intervals(small_trial, boot_pipe, cfg)["semiparametric"]
        opt_pipe = SemiOutOfRangeOnSomeResamples(small_trial)
        res = optimism_adjust_all(small_trial, opt_pipe, cfg)["semiparametric"]
        # both draw the same resamples
        totals = np.array(boot_pipe.totals)
        assert totals.tolist() == opt_pipe.totals
        within_flagged, original_flagged = totals % 2 == 0, totals % 3 == 0
        assert within_flagged.any() and (original_flagged & ~within_flagged).any()
        assert (~(within_flagged | original_flagged)).any()

        assert iv.n_failed == 0
        np.testing.assert_array_equal(iv.replicate_values, np.where(within_flagged, 1.5, 0.5))
        dropped = int(np.sum(within_flagged | original_flagged))
        assert (res.n_failed, res.n_replicates) == (dropped, 30 - dropped)
        assert res.optimism == 0.25
        assert res.adjusted == res.unadjusted - 0.25


class TestConfigValidation:
    def test_replicates_floor(self):
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=1, seed=0)

    def test_workers_floor(self):
        with pytest.raises(ValueError):
            BootstrapConfig(replicates=10, seed=0, workers=0)


def sparse_treated_events(small_trial):
    """``small_trial`` with events in the treated arm kept for only three
    subjects: some resamples draw none of them."""
    events = small_trial.events.copy()
    keep = np.flatnonzero((small_trial.treatment == 1) & (events > 0))[:3]
    events[small_trial.treatment == 1] = 0
    events[keep] = small_trial.events[keep]
    return make_dataset(small_trial.treatment, events, small_trial.time, small_trial.covariates)


def replicate_values(data, pipeline, cfg):
    """Per kind, each replicate's within-sample cb, None where it failed."""
    return {
        kind: [None if e is None else e[0] for e in entries]
        for kind, _, entries in inference._run_replicates(data, pipeline, cfg, None, False)
    }


class TestMaximumLikelihoodBatches:
    """ML replicates are fitted as count-weighted members of one batch per
    chunk of ``inference._CHUNK`` replicates."""

    def per_replicate(self, data, pipeline, seed, replicates):
        """Each replicate's cb values by ``estimate`` on its own resample
        (None for a failed estimator), or the class of the error that
        ended it."""
        out = []
        for r in range(replicates):
            try:
                res = pipeline.estimate(data.subset(_resample(data.n, seed, r)))
            except CbIndexError as exc:
                out.append(type(exc).__name__)
            else:
                out.append({kind: res.cb_value(kind) for kind in ("parametric", "semiparametric")})
        return out

    def assert_matches(self, got, reference, kind, rtol):
        for value, rep in zip(got, reference):
            expected = None if isinstance(rep, str) else rep[kind]
            if expected is None:
                assert value is None
            else:
                assert value == pytest.approx(expected, rel=rtol, abs=0)

    def test_replicates_equal_their_own_pipeline_runs(self, small_trial):
        pipeline = BenefitPipeline(model="ml")
        cfg = BootstrapConfig(replicates=12, seed=4)
        assert cfg.replicates % inference._CHUNK
        reference = self.per_replicate(small_trial, pipeline, cfg.seed, cfg.replicates)
        for kind, values in replicate_values(small_trial, pipeline, cfg).items():
            self.assert_matches(values, reference, kind, 1e-9)

    def test_eventless_arm_fails_its_replicate_only(self, small_trial):
        data = sparse_treated_events(small_trial)
        pipeline = BenefitPipeline(model="ml", precision="relaxed")
        cfg = BootstrapConfig(replicates=20, seed=3)
        reference = self.per_replicate(data, pipeline, cfg.seed, cfg.replicates)
        failed = [r for r, rep in enumerate(reference) if isinstance(rep, str)]
        # one resample draws no treated events; its chunk holds others
        assert [reference[r] for r in failed] == ["EstimationError"]
        assert failed[0] // inference._CHUNK == (failed[0] + 1) // inference._CHUNK
        for kind, values in replicate_values(data, pipeline, cfg).items():
            assert sum(v is None for v in values) == 1
            self.assert_matches(values, reference, kind, 1e-8)

    def test_underflowing_fit_fails_its_replicate_only(self):
        """A resample that misses both subgroup subjects with events has an
        infinite ML estimate.  A member whose fitted means underflow on the
        way there fails alone, with the error naming the diverging
        coefficients, and is counted; its chunk-mates with finite
        estimates equal their own pipeline runs."""
        data = separated_trial(4, with_events=2)
        pipeline = BenefitPipeline(model="ml")
        cfg = BootstrapConfig(replicates=20, seed=4)
        draws = [_resample(data.n, cfg.seed, r) for r in range(cfg.replicates)]
        with_events = np.flatnonzero(
            (data.treatment == 1) & (data.covariates[:, 0] == 1) & (data.events > 0))
        infinite = [not np.isin(with_events, draw).any() for draw in draws]
        reference = self.per_replicate(data, pipeline, cfg.seed, cfg.replicates)
        chunks = range(0, cfg.replicates, inference._CHUNK)
        results = [res for c in chunks
                   for res in pipeline.estimate_resamples(data, draws[c:c + inference._CHUNK])]
        failed = [r for r, res in enumerate(results) if isinstance(res, CbIndexError)]
        assert failed
        for r in failed:
            start = r - r % inference._CHUNK
            assert infinite[r] and not all(infinite[start:start + inference._CHUNK])
            assert re.fullmatch(r"the maximum-likelihood estimate is infinite in treatment, "
                                r"treatment:x1: the fitted means of \d+ subjects underflow to 0; "
                                r"the ridge model gives a finite estimate", str(results[r]))
        for res, ref, diverges in zip(results, reference, infinite):
            if not diverges:
                for kind in ("parametric", "semiparametric"):
                    assert res.cb_value(kind) == pytest.approx(ref[kind], rel=1e-8, abs=0)
        for iv in bootstrap_intervals(data, pipeline, cfg).values():
            assert iv.n_failed == len(failed)

    def test_singular_solve_fails_its_replicate_only(self, small_trial, monkeypatch):
        pipeline = BenefitPipeline(model="ml")
        cfg = BootstrapConfig(replicates=12, seed=6)
        clean = replicate_values(small_trial, pipeline, cfg)
        broken = 7  # a member of a chunk of several
        counts = np.bincount(_resample(small_trial.n, cfg.seed, broken), minlength=small_trial.n)
        solve = nbglm._Batch._solve

        def singular_for_one_resample(self, lam, members):
            if any(np.array_equal(row, counts) for row in self.weights):
                raise NumericalError("singular penalized system (forced)")
            return solve(self, lam, members)

        monkeypatch.setattr(nbglm._Batch, "_solve", singular_for_one_resample)
        for kind, values in replicate_values(small_trial, pipeline, cfg).items():
            assert clean[kind][broken] is not None and values[broken] is None
            assert sum(v is None for v in values) == sum(v is None for v in clean[kind]) + 1
            for r, (value, before) in enumerate(zip(values, clean[kind])):
                if r == broken or before is None:
                    continue
                if r // inference._CHUNK == broken // inference._CHUNK:
                    # refitted one at a time: only rounding differs
                    assert value == pytest.approx(before, rel=1e-9, abs=0)
                else:
                    assert value == before


def _shared_plus(i):
    return _parallel.shared_state() + i


@pytest.mark.parametrize("cpus, tasks, pools", [(64, 3, [3]), (2, 3, [2]), (64, 1, [])])
def test_the_pool_is_capped_at_the_tasks_and_the_cpus(monkeypatch, cpus, tasks, pools):
    """A pool starts all its processes at once: a huge worker count gets
    one per task and per CPU, and one task runs in-process.  A stand-in
    pool records its size and runs the tasks here."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, task, indices, chunksize):
            return map(task, indices)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(_parallel, "_SHARED", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _parallel.run_indexed(_shared_plus, range(tasks), 10**6, 100) == [
        100 + i for i in range(tasks)]
    assert made == pools


def test_chunk_rule():
    """Replicates per task: at most ``_CHUNK``, and fewer when a chunk's
    batch members would hold more than ``_BATCH_ROWS`` design rows."""
    assert inference._chunk_size(BenefitPipeline(), 1000) == 2  # 10 folds x 1000 rows
    assert inference._chunk_size(SIM_PIPELINE, 400) == 10  # 4 folds x 400 rows
    assert inference._chunk_size(BenefitPipeline(model="ml"), 1000) == inference._CHUNK
    assert inference._chunk_size(BenefitPipeline(cv_folds=5), 10_000) == 1
    assert inference._chunk_size(ConstantPredictionPipeline(), 1000) == inference._CHUNK  # ml


def ridge_pipeline():
    return BenefitPipeline(model="ridge", cv_folds=4, lambda_grid_size=6, lambda_min_ratio=1e-3)


class TestRidgeBatches:
    """Ridge replicates are fitted as count-weighted members of batches
    over the original design: every fold of every replicate in a chunk,
    each in its replicate's own coordinates, then their final fits."""

    def per_replicate(self, data, pipeline, seed, replicates):
        """Each replicate's ``estimate`` on its own resample, or the class
        of the error that ended it."""
        out = []
        for r in range(replicates):
            try:
                out.append(pipeline.estimate(data.subset(_resample(data.n, seed, r)),
                                             seed=_fold_seed(seed, r + 1)))
            except CbIndexError as exc:
                out.append(type(exc).__name__)
        return out

    def batched(self, data, pipeline, seed, replicates):
        """Each replicate's result as its chunk's ``estimate_resamples``
        gives it, or the class of the error that ended it."""
        chunk = inference._chunk_size(pipeline, data.n)
        out = []
        for start in range(0, replicates, chunk):
            indices = range(start, min(replicates, start + chunk))
            out += pipeline.estimate_resamples(
                data, [_resample(data.n, seed, r) for r in indices],
                [_fold_seed(seed, r + 1) for r in indices],
            )
        return [type(res).__name__ if isinstance(res, CbIndexError) else res for res in out]

    def assert_matches(self, got, reference):
        assert [isinstance(res, str) and res for res in got] == [
            isinstance(res, str) and res for res in reference
        ]
        for res, ref in zip(got, reference):
            if isinstance(ref, str):
                continue
            chosen = int(np.flatnonzero(res.cv.lambda_grid == res.cv.chosen_lambda)[0])
            assert ref.cv.lambda_grid[chosen] == ref.cv.chosen_lambda
            np.testing.assert_allclose(res.cv.lambda_grid, ref.cv.lambda_grid, rtol=1e-12)
            assert res.model.scaling.means.tolist() == pytest.approx(
                ref.model.scaling.means.tolist(), rel=1e-12)
            for kind in ("parametric", "semiparametric"):
                expected = ref.cb_value(kind)
                if expected is None:
                    assert res.cb_value(kind) is None
                else:
                    assert res.cb_value(kind) == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("replicates, pipeline", [
        pytest.param(12, ridge_pipeline(), id="4-folds-final"),
        pytest.param(13, quick_pipeline(), id="3-folds-relaxed"),
        pytest.param(8, BenefitPipeline(cv_folds=10, lambda_grid_size=5, cv_loss="deviance"),
                     id="10-folds-deviance"),
    ])
    def test_replicates_equal_their_own_pipeline_runs(self, small_trial, replicates, pipeline):
        seed = 4
        chunk = inference._chunk_size(pipeline, small_trial.n)
        # several replicates share a batch, and the last chunk is not full
        assert 1 < chunk < replicates and replicates % chunk
        reference = self.per_replicate(small_trial, pipeline, seed, replicates)
        self.assert_matches(self.batched(small_trial, pipeline, seed, replicates), reference)
        # copies of one subject land in different folds
        draw = _resample(small_trial.n, seed, 0)
        fold_id = nbglm._stratified_folds(small_trial.subset(draw).treatment, pipeline.cv_folds,
                                          _fold_seed(seed, 1))
        subject_folds = np.unique(np.column_stack([draw, fold_id]), axis=0)
        assert np.any(np.bincount(subject_folds[:, 0]) > 1)

    def test_intervals_equal_their_own_pipeline_runs(self, small_trial):
        pipeline, cfg = ridge_pipeline(), BootstrapConfig(replicates=12, seed=4)
        reference = self.per_replicate(small_trial, pipeline, cfg.seed, cfg.replicates)
        for kind, values in replicate_values(small_trial, pipeline, cfg).items():
            for value, ref in zip(values, reference):
                expected = None if isinstance(ref, str) else ref.cb_value(kind)
                if expected is None:
                    assert value is None
                else:
                    assert value == pytest.approx(expected, rel=1e-9, abs=0)

    def test_unfoldable_and_constant_resamples_fail_alone(self, small_trial):
        # three treated subjects and one subject with x2 = 1: some
        # resamples draw fewer than two treated (no folds), some miss the
        # x2 subject (a constant covariate)
        treatment = np.zeros(small_trial.n, dtype=int)
        treatment[:3] = 1
        covariates = small_trial.covariates.copy()
        covariates[:, 1] = 0.0
        covariates[5, 1] = 1.0
        data = make_dataset(treatment, small_trial.events, small_trial.time, covariates)
        pipeline = ridge_pipeline()
        reference = self.per_replicate(data, pipeline, 3, 12)
        failed = {res for res in reference if isinstance(res, str)}
        assert {"FoldingError", "DegenerateCovariateError"} <= failed
        assert sum(not isinstance(res, str) for res in reference) >= 2
        self.assert_matches(self.batched(data, pipeline, 3, 12), reference)

    def test_eventless_resamples_fail_alone(self, small_trial):
        # events on one subject only: a resample that misses it has none,
        # and one that holds it in a single fold leaves a training split
        # with none
        events = np.zeros(small_trial.n, dtype=int)
        events[0] = 3
        data = make_dataset(small_trial.treatment, events, small_trial.time,
                            small_trial.covariates)
        pipeline = ridge_pipeline()
        reference = self.per_replicate(data, pipeline, 3, 12)
        eventless = [_resample(data.n, 3, r).min() > 0 for r in range(12)]
        assert any(eventless) and sum(not isinstance(res, str) for res in reference) >= 2
        assert {reference[r] for r in range(12) if eventless[r]} == {"DispersionError"}
        self.assert_matches(self.batched(data, pipeline, 3, 12), reference)

    def test_singular_solve_fails_its_replicate_only(self, small_trial, monkeypatch):
        pipeline, cfg = ridge_pipeline(), BootstrapConfig(replicates=12, seed=6)
        chunk = inference._chunk_size(pipeline, small_trial.n)
        clean = replicate_values(small_trial, pipeline, cfg)
        broken = 7  # a member of a chunk of several
        counts = np.bincount(_resample(small_trial.n, cfg.seed, broken), minlength=small_trial.n)
        solve = nbglm._Batch._solve

        def singular_for_one_resample(self, lam, members):
            # its folds' training weights and its final fit's counts
            if any(np.all(row <= counts) for row in self.weights):
                raise NumericalError("singular penalized system (forced)")
            return solve(self, lam, members)

        monkeypatch.setattr(nbglm._Batch, "_solve", singular_for_one_resample)
        for kind, values in replicate_values(small_trial, pipeline, cfg).items():
            assert clean[kind][broken] is not None and values[broken] is None
            assert sum(v is None for v in values) == sum(v is None for v in clean[kind]) + 1
            for r, (value, before) in enumerate(zip(values, clean[kind])):
                if r == broken or before is None:
                    continue
                if r // chunk == broken // chunk:
                    # refitted one at a time: only rounding differs
                    assert value == pytest.approx(before, rel=1e-9, abs=0)
                else:
                    assert value == before

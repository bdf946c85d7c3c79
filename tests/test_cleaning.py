"""Contextual outlier rules, quasi-steady filtering and the PCA detector."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULTS, flagged_rows, flags_at, rows_dataset, series_dataset
from shipdataprep.cleaning import (
    CleaningError,
    _spikes,
    contextual_filter,
    linear_quantile,
    pca_fit,
    pca_score,
    quasi_steady_filter,
)
from shipdataprep.hindcast import SteadyFilterParams
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    VariableSpec,
)

# the config's rule parameters, unless a test gives its own
contextual = functools.partial(
    contextual_filter, repeat_run=DEFAULTS.repeat_run, dropout_max=DEFAULTS.dropout_max,
    spike_scales=DEFAULTS.spike_scales,
)


def test_dropout_in_two_variables_counts_one_pair():
    ds = series_dataset({
        "a": [1.0, 2.0, 3.0, 0.0, 5.0, 6.0, 7.0, 8.0],
        "b": [10.0, 11.0, 12.0, 0.0, 14.0, 15.0, 16.0, 17.0],
    })
    report = ProcessingReport()
    out = contextual(ds, ds, report=report)
    assert sorted(f.value for f in flags_at(out, 3)) == ["dropout"]
    entry = report.stage_entries[0]
    assert entry.flag_counts == {"dropout": 1}
    assert len(entry.checks) == 2  # one row of evidence per variable


def dataset_with_ranges(values, lo=0.0, hi=200.0, name="shaft_rpm"):
    schema = [VariableSpec(name, valid_min=lo, valid_max=hi)]
    samples = [
        Sample(i * 900, {} if v is None else {name: v}) for i, v in enumerate(values)
    ]
    return rows_dataset(schema, samples)


class TestContextualFilter:
    def test_invalid_range(self):
        ds = dataset_with_ranges([50.0, -5.0, 60.0])
        out = contextual(ds, ds)
        assert out.flagged(QualityFlag.INVALID_RANGE)[1]
        assert not flags_at(out, 0)

    def test_repeated_values_in_varying_signal(self):
        rng = np.random.default_rng(0)
        noisy = list(80.0 + rng.normal(0, 1, 30))
        values = noisy[:5] + [90.0] * 30 + noisy[5:]
        ds = dataset_with_ranges(values)
        out = contextual(ds, ds, repeat_run=20)
        flagged = flagged_rows(out, QualityFlag.REPEATED_VALUE)
        assert flagged == list(range(5, 35))

    def test_constant_variable_not_repeated_flagged(self):
        ds = dataset_with_ranges([80.0] * 40)
        out = contextual(ds, ds, repeat_run=20)
        assert not out.flagged(QualityFlag.REPEATED_VALUE).any()

    def test_short_step_in_constant_signal_not_repeated_flagged(self):
        # np.var([3.3] * 3) is 1.97e-31, not 0: only distinct values count
        for head in (3.3, 80.0):
            ds = dataset_with_ranges([head] * 3 + [5.0] * 25)
            out = contextual(ds, ds, repeat_run=20)
            assert not out.flagged(QualityFlag.REPEATED_VALUE).any()

    def test_single_sample_dropout(self):
        values = [80.0] * 10 + [0.0] + [80.0] * 10
        ds = dataset_with_ranges(values)
        out = contextual(ds, ds, dropout_max=3)
        assert out.flagged(QualityFlag.DROPOUT)[10]
        assert out.flagged(QualityFlag.DROPOUT).sum() == 1

    def test_long_dead_run_is_not_dropout(self):
        values = [80.0] * 10 + [0.0] * 5 + [80.0] * 10
        ds = dataset_with_ranges(values)
        out = contextual(ds, ds, dropout_max=3)
        assert not out.flagged(QualityFlag.DROPOUT).any()

    def test_spike_flagged(self):
        rng = np.random.default_rng(1)
        values = list(80.0 + rng.normal(0, 0.5, 41))
        values[20] += 30.0
        ds = dataset_with_ranges(values)
        out = contextual(ds, ds, spike_scales=6.0)
        assert out.flagged(QualityFlag.SPIKE)[20]

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-170])
    def test_spike_rule_does_not_depend_on_scale(self, scale):
        # at 1e-170 the product of the two steps underflows to 0
        walk = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 41))
        walk[20] += 30.0
        assert 20 in _spikes(walk * scale, 6.0, np.zeros(len(walk), dtype=np.intp)).tolist()

    def test_overflowing_step_is_a_spike_without_warning(self):
        # the steps into and out of -DBL_MAX at 20 overflow to -inf and +inf
        walk = np.cumsum(np.random.default_rng(3).normal(0.0, 1.0, 41))
        walk[19] = np.finfo(float).max
        walk[20] = -np.finfo(float).max
        assert 20 in _spikes(walk, 6.0, np.zeros(len(walk), dtype=np.intp)).tolist()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=5,
            max_size=30,
        )
    )
    def test_spike_rule_never_fires_on_monotone_series(self, values):
        values = sorted(values)
        ds = dataset_with_ranges(values, lo=-1.0, hi=101.0)
        out = contextual(ds, ds)
        assert not out.flagged(QualityFlag.SPIKE).any()


    def test_rules_read_the_measured_columns_and_flag_the_dataset(self):
        # a spike in a column derived after the measured snapshot is not checked
        measured = dataset_with_ranges([80.0] * 41)
        derived = list(measured.column("shaft_rpm"))
        derived[20] = 500.0
        ds = measured.adding_variable(VariableSpec("derived_rpm", valid_max=200.0), derived)
        report = ProcessingReport()
        out = contextual(ds, measured, report=report)
        assert report.stage_entries[0].checks == []
        assert out.declares("derived_rpm") and not out.flagged(*QualityFlag).any()

    def test_measured_rows_must_match(self):
        ds = dataset_with_ranges([80.0] * 5)
        with pytest.raises(CleaningError, match="timestamps"):
            contextual(ds, dataset_with_ranges([80.0] * 4))


class TestQuasiSteady:
    def rpm_dataset(self, values):
        return series_dataset({"shaft_rpm": values})

    def test_constant_rpm_zero_flags(self):
        rng = np.random.default_rng(2)
        ds = self.rpm_dataset(list(80.0 + rng.normal(0, 0.1, 60)))
        out = quasi_steady_filter(
            ds,
            SteadyFilterParams(11, 0.01, 0.05),
            SteadyFilterParams(11, 0.001, 0.2),
        )
        assert not out.flagged(QualityFlag.UNSTEADY).any()

    def test_rpm_ramp_interior_flagged(self):
        rng = np.random.default_rng(3)
        values = (
            [60.0] * 30
            + [60.0 + 20.0 * k / 29.0 for k in range(30)]
            + [80.0] * 30
        )
        values = list(np.asarray(values) + rng.normal(0, 0.05, len(values)))
        ds = self.rpm_dataset(values)
        out = quasi_steady_filter(
            ds,
            SteadyFilterParams(11, 0.01, 1e-5),
            SteadyFilterParams(11, 0.001, 0.2),
        )
        ramp_flags = out.flagged(QualityFlag.UNSTEADY)[35:55]
        assert np.mean(ramp_flags) > 0.9

    def test_sog_dead_drop_caught_by_relaxed_pass(self):
        rng = np.random.default_rng(4)
        sog = list(6.0 + rng.normal(0, 0.02, 80))
        for i in range(40, 46):
            sog[i] = 0.0  # signal drops dead and recovers
        ds = series_dataset({"sog": sog})
        out = quasi_steady_filter(
            ds,
            SteadyFilterParams(11, 0.01, 0.05),
            SteadyFilterParams(11, 0.01, 1e-4),
        )
        region = flagged_rows(out, QualityFlag.UNSTEADY)
        assert region  # the drop/recovery edges are caught
        assert all(35 <= i <= 50 for i in region)

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(5)
        values = list(70.0 + np.cumsum(rng.normal(0, 0.3, 80)))
        ds = self.rpm_dataset(values)

        def unsteady_at(alpha):
            out = quasi_steady_filter(
                ds,
                SteadyFilterParams(11, alpha, 1e-9),
                SteadyFilterParams(11, alpha / 10.0, 1e-9),
            )
            return set(flagged_rows(out, QualityFlag.UNSTEADY))

        # smaller alpha rejects less: flag set shrinks weakly. The walk's
        # least centred gradient is 2.9e-6 per s, so the tolerance 1e-9 keeps
        # every mark of stage 1
        assert unsteady_at(0.001) <= unsteady_at(0.05)


def correlated_dataset(n=400, seed=0, faults=(), names=("a", "b", "c", "d")):
    rng = np.random.default_rng(seed)
    latent = rng.normal(0, 1, n)
    cols = {
        names[0]: latent + rng.normal(0, 0.05, n),
        names[1]: latent + rng.normal(0, 0.05, n),
        names[2]: latent + rng.normal(0, 0.05, n),
        names[3]: latent + rng.normal(0, 0.05, n),
    }
    for i in faults:
        cols[names[2]][i] -= 3.0
        cols[names[3]][i] -= 3.0
    schema = [VariableSpec(k) for k in names]
    samples = [
        Sample(i * 900, {k: float(cols[k][i]) for k in names}) for i in range(n)
    ]
    return rows_dataset(schema, samples)


class TestPca:
    def test_perfectly_correlated_first_axis(self):
        n = 100
        x = list(np.linspace(-3, 3, n))
        ds = series_dataset({"a": x, "b": x})
        det = pca_fit(ds, ["a", "b"], k=1, quantile=0.99)
        axis = det.axes[0]
        assert abs(axis[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert abs(axis[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        errors = det.errors(np.column_stack([x, x]))
        assert errors.max() < 1e-18

    def test_matches_brute_force_eigendecomposition(self):
        ds = correlated_dataset(n=200, seed=8)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=1, quantile=0.995)
        rows = np.column_stack([ds.column(v) for v in ("a", "b", "c", "d")])
        z = (rows - rows.mean(axis=0)) / rows.std(axis=0, ddof=1)
        corr = np.corrcoef(z, rowvar=False)
        evals, evecs = np.linalg.eigh(corr)
        top = evecs[:, np.argmax(evals)]
        cos = abs(float(np.dot(top, det.axes[0])))
        assert cos == pytest.approx(1.0, abs=1e-8)

    def test_constant_feature_rejected(self):
        ds = series_dataset({"a": [1.0, 2.0, 3.0] * 20, "b": [5.0] * 60})
        with pytest.raises(CleaningError, match="constant"):
            pca_fit(ds, ["a", "b"], k=1, quantile=DEFAULTS.pca_quantile)

    def test_insufficient_samples_rejected(self):
        ds = correlated_dataset(n=15)
        with pytest.raises(CleaningError, match="complete samples"):
            pca_fit(ds, ["a", "b", "c", "d"], k=2, quantile=DEFAULTS.pca_quantile)

    def test_training_mean_scores_zero(self):
        ds = correlated_dataset(n=200, seed=3)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=2, quantile=DEFAULTS.pca_quantile)
        err = det.errors(det.mean.reshape(1, -1))
        assert err[0] == pytest.approx(0.0, abs=1e-18)

    def test_threshold_is_the_quantile_of_its_own_training_errors(self):
        # the training rows: complete (row 3 is not) and not flagged (rows 10-29)
        ds = correlated_dataset(n=300, seed=4).with_values("b", [3], [None])
        ds = ds.adding_flags(QualityFlag.SPIKE, np.arange(10, 30))
        names = ["a", "b", "c", "d"]
        det = pca_fit(ds, names, k=1, quantile=0.99)
        rows = np.column_stack([ds.column(v) for v in names])
        train = np.delete(rows, [3, *range(10, 30)], axis=0)
        want = linear_quantile(det.errors(train), 0.99)
        assert np.float64(det.threshold).tobytes() == np.float64(want).tobytes()

    def test_score_determinism_against_training(self):
        ds = correlated_dataset(n=300, seed=5)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=1, quantile=0.995)
        out1 = pca_score(det, ds)
        out2 = pca_score(det, ds)
        f1 = [flags_at(out1, i) for i in range(len(out1))]
        f2 = [flags_at(out2, i) for i in range(len(out2))]
        assert f1 == f2
        # by construction of the threshold, roughly (1-q) of training exceeds
        n_flagged = sum(QualityFlag.CORRELATION_OUTLIER in f for f in f1)
        assert n_flagged <= math.ceil(0.005 * 300) + 1

    @pytest.mark.parametrize("big", [1e306, -1e306])
    def test_huge_finite_feature_is_an_inf_error_and_an_outlier(self, big):
        # the squared error overflows to inf, silently
        ds = correlated_dataset(n=300, seed=5)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=1, quantile=0.995)
        cols = {v: ds.column(v).tolist() for v in ("a", "b", "c", "d")}
        cols["c"][7] = big
        errors = det.errors(np.column_stack(list(cols.values())))
        assert errors[7] == np.inf and np.isfinite(np.delete(errors, 7)).all()
        out = pca_score(det, series_dataset(cols))
        assert 7 in flagged_rows(out, QualityFlag.CORRELATION_OUTLIER)

    def test_joint_speed_fault_detected(self):
        clean = correlated_dataset(n=500, seed=9)
        det = pca_fit(clean, ["a", "b", "c", "d"], k=DEFAULTS.pca_components, quantile=0.995)
        faulted = correlated_dataset(n=500, seed=9, faults=range(100, 110))
        out = pca_score(det, faulted)
        hits = flagged_rows(out, QualityFlag.CORRELATION_OUTLIER)
        assert set(range(100, 110)) <= set(hits)
        false_pos = [i for i in hits if not 100 <= i < 110]
        assert len(false_pos) <= 10

    def test_k_zero_chooses_the_component_count(self):
        # the config's code 0 picks the smallest k explaining MIN_EXPLAINED of
        # the variance; pinned: the k and the threshold bits of that choice
        rng = np.random.default_rng(7)
        independent = series_dataset({n: rng.normal(size=300).tolist() for n in "abcd"})
        for ds, k, threshold in (
            (correlated_dataset(n=500, seed=9), 1, "0x1.cfe8d98f038f1p-6"),
            (independent, 3, "0x1.66b4f364750f7p+2"),
        ):
            det = pca_fit(ds, ["a", "b", "c", "d"], k=0, quantile=DEFAULTS.pca_quantile)
            assert (len(det.axes), float(det.threshold).hex()) == (k, threshold)
            explicit = pca_fit(ds, ["a", "b", "c", "d"], k=k, quantile=DEFAULTS.pca_quantile)
            assert explicit.threshold == det.threshold

    def test_incomplete_sample_skipped_and_counted(self):
        ds = correlated_dataset(n=120, seed=2)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=1, quantile=DEFAULTS.pca_quantile)
        broken = ds.with_values("a", [0], [None])
        report = ProcessingReport()
        pca_score(det, broken, report)
        assert report.stage_entries[0].summary["skipped_incomplete"] == 1

    def test_rotation_invariance_of_errors(self):
        # reconstruction errors are invariant under orthogonal maps of the
        # feature space applied consistently to training and scoring data;
        # with per-feature standardization in the loop this is exact for the
        # variance-preserving orthogonal maps (signed permutations)
        ds = correlated_dataset(n=300, seed=12)
        names = ("a", "b", "c", "d")
        rows = np.column_stack([ds.column(v) for v in names])
        rng = np.random.default_rng(0)
        perm = rng.permutation(4)
        signs = rng.choice([-1.0, 1.0], size=4)
        q = np.zeros((4, 4))
        for i, (p, s) in enumerate(zip(perm, signs)):
            q[i, p] = s
        assert np.allclose(q @ q.T, np.eye(4))
        rotated = rows @ q.T
        schema = [VariableSpec(n) for n in names]
        samples = [
            Sample(i * 900, dict(zip(names, map(float, row))))
            for i, row in enumerate(rotated)
        ]
        ds_rot = rows_dataset(schema, samples)

        det = pca_fit(ds, names, k=1, quantile=0.995)
        det_rot = pca_fit(ds_rot, names, k=1, quantile=0.995)
        e1 = det.errors(rows)
        e2 = det_rot.errors(rotated)
        assert np.max(np.abs(e1 - e2)) < 1e-8

    def test_projection_in_span_has_zero_error(self):
        ds = correlated_dataset(n=200, seed=6)
        det = pca_fit(ds, ["a", "b", "c", "d"], k=2, quantile=DEFAULTS.pca_quantile)
        z = np.array([0.7, -0.2])  # arbitrary point in the axis span
        point = det.mean + (z @ det.axes) * det.scale
        assert det.errors(point.reshape(1, -1))[0] == pytest.approx(0.0, abs=1e-16)

    def test_flagged_samples_excluded_from_training(self):
        ds = correlated_dataset(n=300, seed=0, faults=range(20))
        flagged = ds.adding_flags(QualityFlag.SPIKE, np.arange(20))
        det_clean = pca_fit(flagged, ["a", "b", "c", "d"], k=1, quantile=0.995)
        det_dirty = pca_fit(ds, ["a", "b", "c", "d"], k=1, quantile=0.995)
        # excluding the gross faults tightens the threshold
        assert det_clean.threshold < det_dirty.threshold
        # invalid_range alone does not exclude a row: an out-of-range feature
        # value is missing to the fit already, and the flag may be another column's
        out_of_range = ds.adding_flags(QualityFlag.INVALID_RANGE, np.arange(20))
        det_range = pca_fit(out_of_range, ["a", "b", "c", "d"], k=1, quantile=0.995)
        assert det_range.threshold == det_dirty.threshold

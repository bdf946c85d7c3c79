"""Regularization, resampling and trip segmentation contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULTS, rows_dataset, series_dataset
from shipdataprep.ingest import default_schema
from shipdataprep.model import ProcessingReport, QualityFlag, Sample, VariableSpec, new_dataset
from shipdataprep.timeline import (
    SegmentationError,
    regularize,
    resample,
    segment_by_ports,
    segment_by_state,
    segment_by_thresholds,
)


def ts_dataset(timestamps, values=None):
    schema = [VariableSpec("x")]
    samples = [
        Sample(t, {} if values is None else {"x": values[i]})
        for i, t in enumerate(timestamps)
    ]
    return rows_dataset(schema, samples)


class TestRegularize:
    def test_single_gap_inserted(self):
        ds = regularize(ts_dataset([0, 900, 2700]), 900, report=ProcessingReport())
        assert list(ds.timestamps) == [0, 900, 1800, 2700]
        assert np.isnan(ds.column("x")[2])
        assert ds.flagged(QualityFlag.MISSING_INSERTED)[2]

    def test_uniform_series_unchanged(self):
        ds0 = ts_dataset([0, 900, 1800], values=[1.0, 2.0, 3.0])
        ds = regularize(ds0, 900, report=ProcessingReport())
        assert list(ds.timestamps) == [0, 900, 1800]
        assert not ds.flagged(*QualityFlag).any()
        assert ds.column("x").tolist() == [1.0, 2.0, 3.0]

    def test_snapping_to_nearest_lattice(self):
        from shipdataprep.model import ProcessingReport

        report = ProcessingReport()
        ds = regularize(ts_dataset([0, 890, 1805]), 900, report)
        assert list(ds.timestamps) == [0, 900, 1800]
        snaps = [c for c in report.stage_entries[0].checks if c.verdict == "snapped"]
        assert len(snaps) == 2  # 890 and 1805 moved; 0 stayed

    def test_half_interval_ties_to_earlier(self):
        ds = regularize(ts_dataset([0, 450, 1800]), 900, report=ProcessingReport())
        # 450 is exactly half: earlier point 0 wins the tie, collides with 0
        assert list(ds.timestamps) == [0, 900, 1800]

    def test_collision_keeps_nearer_flags_dropout(self):
        from shipdataprep.model import ProcessingReport

        report = ProcessingReport()
        ds = regularize(ts_dataset([0, 902, 910, 1800], [0.0, 1.0, 2.0, 3.0]), 900, report)
        assert list(ds.timestamps) == [0, 900, 1800]
        assert ds.column("x")[1] == 1.0  # 902 is nearer to 900 than 910
        assert ds.flagged(QualityFlag.DROPOUT)[1]
        assert report.stage_entries[0].flag_counts["dropout"] == 1

    def test_three_samples_on_one_slot_count_one_dropout(self):
        from shipdataprep.model import ProcessingReport

        report = ProcessingReport()
        ds = regularize(
            ts_dataset([0, 902, 910, 1190, 1800], [0.0, 1.0, 2.0, 3.0, 4.0]), 900, report
        )
        assert ds.column("x").tolist() == [0.0, 1.0, 4.0]
        entry = report.stage_entries[0]
        assert entry.flag_counts == {"dropout": 1}  # one flagged slot
        assert len([c for c in entry.checks if c.verdict == "dropout"]) == 2  # two losses

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=40), min_size=2, max_size=25, unique=True)
    )
    def test_constant_gradient_property(self, steps):
        interval = 900
        ds = regularize(ts_dataset(sorted(t * interval for t in steps)), interval, report=ProcessingReport())
        diffs = np.diff(ds.timestamps)
        assert (diffs == interval).all()


class TestResample:
    def test_down_mean_two_point(self):
        ds = series_dataset({"sog": [4.0, 6.0]}, interval=60, t0=60)
        out = resample(ds, 900, report=ProcessingReport())
        assert len(out) == 1
        assert out.column("sog")[0] == 5.0

    def test_down_mean_circular_heading(self):
        ds = series_dataset({"heading": [350.0, 10.0]}, interval=60, t0=0)
        out = resample(ds, 900, report=ProcessingReport())
        assert out.column("heading")[0] == pytest.approx(0.0, abs=1e-9)

    def test_down_mean_avoids_the_naive_fault(self):
        ds = series_dataset({"heading": [350.0, 10.0]}, interval=60, t0=0)
        # the arithmetic mean of the bin commits the 0/360 fault; resample does not
        assert np.mean(ds.column("heading")) == pytest.approx(180.0)
        assert resample(ds, 900, report=ProcessingReport()).column("heading")[0] == pytest.approx(0.0, abs=1e-9)

    def test_empty_bins_stay_empty(self):
        ds = ts_dataset([0, 2700], values=[1.0, 2.0])
        out = resample(ds, 900, report=ProcessingReport())
        assert len(out) == 4
        assert np.isnan(out.column("x")[1])
        assert out.flagged(QualityFlag.MISSING_INSERTED)[1]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=359.999), st.integers(2, 8))
    def test_circular_mean_of_equal_angles_is_identity(self, theta, count):
        ds = series_dataset({"heading": [theta] * count}, interval=60, t0=0)
        out = resample(ds, 3600, report=ProcessingReport())
        got = out.column("heading")[0]
        diff = abs(got - theta) % 360.0
        assert min(diff, 360.0 - diff) < 1e-9


def state_dataset(states):
    schema = [VariableSpec("state", kind="text")]
    samples = [Sample(i * 900, {"state": s}) for i, s in enumerate(states)]
    return rows_dataset(schema, samples)


B, S = "At Berth", "Sea Passage"


class TestSegmentByState:
    def test_single_gap_is_one_trip(self):
        ds = segment_by_state(state_dataset([B, B, S, S, S, B, B]))
        assert ds.trip_ids.tolist() == [-1, -1, 1, 1, 1, -1, -1]
        assert ds.timestamps[ds.trips()[1]].tolist() == [2 * 900, 3 * 900, 4 * 900]

    def test_all_berth_zero_trips(self):
        ds = segment_by_state(state_dataset([B, B, B]))
        assert ds.trip_ids.tolist() == [-1, -1, -1]
        assert ds.trips() == {}

    def test_leading_and_trailing_runs_count_as_trips(self):
        ds = segment_by_state(state_dataset([S, S, B, S, S]))
        assert ds.trip_ids.tolist() == [1, 1, -1, 2, 2]
        assert list(ds.trips()) == [1, 2]

    def test_absent_state_directs_to_thresholds(self):
        ds = ts_dataset([0, 900])
        with pytest.raises(SegmentationError, match="thresholds"):
            segment_by_state(ds)


class TestSegmentByThresholds:
    def test_padded_single_run(self):
        ds = series_dataset({"shaft_rpm": [0.0, 0.0, 40.0, 42.0, 0.0, 0.0]})
        out = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=1)
        assert out.trip_ids.tolist() == [-1, 1, 1, 1, 1, -1]

    def test_all_zero_zero_trips(self):
        ds = series_dataset({"shaft_rpm": [0.0] * 5, "sog": [0.0] * 5})
        out = segment_by_thresholds(
            ds, DEFAULTS.rpm_threshold, DEFAULTS.sog_threshold, DEFAULTS.pad_samples
        )
        assert out.trip_ids.tolist() == [-1] * 5

    def test_pad_merges_nearby_runs(self):
        ds = series_dataset({"shaft_rpm": [0.0, 40.0, 0.0, 40.0, 0.0]})
        out = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=1)
        assert (out.trip_ids == 1).all()

    def test_either_variable_triggers(self):
        ds = series_dataset(
            {"shaft_rpm": [0.0, 0.0, 0.0], "sog": [0.0, 3.0, 0.0]}
        )
        out = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=0)
        assert out.trip_ids.tolist() == [-1, 1, -1]

    def test_value_outside_valid_range_is_no_motion(self):
        # rpm in [0, 300] and sog in [0, 26]: a value past a bound is a bad
        # cell, not motion, and starts no trip
        ds = series_dataset({"shaft_rpm": [0.0, 1e306, 300.0, 0.0, 0.0, 0.0],
                             "sog": [0.0, 0.0, 0.0, 0.0, 26.5, 26.0]})
        specs = {s.name: s for s in default_schema()}
        ds = new_dataset([specs["shaft_rpm"], specs["sog"]], ds.timestamps,
                         {name: ds.column(name) for name in ("shaft_rpm", "sog")}, source_kind="in_service")
        out = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=0)
        assert out.trip_ids.tolist() == [-1, -1, 1, -1, -1, 2]

    def test_both_absent_fatal(self):
        with pytest.raises(SegmentationError):
            segment_by_thresholds(
                ts_dataset([0, 900]), DEFAULTS.rpm_threshold, DEFAULTS.sog_threshold,
                DEFAULTS.pad_samples,
            )

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=40),
        st.floats(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=40),
    )
    def test_threshold_monotonicity(self, rpm, thr, bump):
        ds = series_dataset({"shaft_rpm": rpm})
        low = np.asarray(rpm) > thr
        high = np.asarray(rpm) > thr + bump
        # raising the threshold never enlarges the in-trip set (pre padding)
        assert set(np.nonzero(high)[0]) <= set(np.nonzero(low)[0])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=3, max_size=40),
        st.integers(min_value=0, max_value=4),
    )
    def test_partition_property(self, rpm, pad):
        ds = series_dataset({"shaft_rpm": rpm})
        ids = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=pad).trip_ids.tolist()
        # each maximal run of in-trip rows is one trip (padded trips that
        # touch merge), and the runs are trips 1..k in time order
        firsts = [i for i, t in enumerate(ids) if t >= 0 and (i == 0 or ids[i - 1] < 0)]
        assert [ids[i] for i in firsts] == list(range(1, len(firsts) + 1))
        for prev, cur in zip(ids, ids[1:]):
            assert cur < 0 or prev < 0 or cur == prev
        # every row above the threshold is in a trip
        assert all(t >= 0 for t, r in zip(ids, rpm) if r > 10.0)

    def test_padding_stops_at_berth_boundary(self):
        ds = series_dataset(
            {
                "shaft_rpm": [0.0, 0.0, 40.0, 40.0, 0.0, 0.0],
                "state": [B, B, S, S, B, B],
            }
        )
        out = segment_by_thresholds(ds, 10.0, 1.54, pad_samples=2)
        assert out.trip_ids.tolist() == [-1, -1, 1, 1, -1, -1]


class TestSegmentByPorts:
    def test_groups_by_port_label(self):
        ds = series_dataset(
            {"port": ["OSL", "OSL", None, "AMS", "AMS"], "sog": [0, 1, 2, 1, 0]}
        )
        out = segment_by_ports(ds)
        assert out.trip_ids.tolist() == [1, 1, 1, 2, 2]

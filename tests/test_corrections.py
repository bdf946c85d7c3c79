"""Draft corrections, draft-ratio plausibility, hydrostatics and the
table-driven resistance reference implementation."""

import numpy as np
import pytest

import oracle_values as oracle
from conftest import DEFAULTS, rows_dataset
from shipdataprep.corrections import (
    CorrectionError,
    DraftChangeEvent,
    HydroTable,
    TableDrivenModel,
    _event_means,
    check_draft_ratio,
    detect_draft_events,
    fix_draft_ramp,
    fix_draft_simple,
    hydrostatics,
    resistance_components,
)
from shipdataprep.hindcast import SteadyFilterParams
from shipdataprep.ingest import IngestError, PipelineConfig
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    ShipParticulars,
    ShipType,
    VariableSpec,
)
from shipdataprep.pipeline import _hydrostatics_stage

DT = 900


def voyage_with_drafts(pre, post, in_trip, berth_len=6, sensors=("draft_fore",),
                       valid=(None, None)):
    """berth_len static samples at ``pre``, len(in_trip) moving samples,
    berth_len static samples at ``post``: the moving samples are trip 1. The
    sensors' valid range is ``valid``."""
    schema = [VariableSpec(s, "m", "linear", *valid) for s in sensors]
    samples = []
    trip_ids = []
    t = 0
    for v in [pre] * berth_len:
        samples.append(Sample(t, {s: v for s in sensors}))
        trip_ids.append(None)
        t += DT
    for v in in_trip:
        vals = {} if v is None else {s: v for s in sensors}
        samples.append(Sample(t, vals))
        trip_ids.append(1)
        t += DT
    for v in [post] * berth_len:
        samples.append(Sample(t, {s: v for s in sensors}))
        trip_ids.append(None)
        t += DT
    return rows_dataset(schema, samples).with_trip_ids(trip_ids)


def trip_span(ds):
    """The first and last timestamps of trip 1."""
    ts = ds.timestamps[ds.trips()[1]]
    return int(ts[0]), int(ts[-1])


class TestFixDraftSimple:
    def test_midpoint_of_linear_interpolation(self):
        ds = voyage_with_drafts(8.0, 7.6, [7.2] * 11)
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg)
        idx = out.trips()[1]
        mid = idx[len(idx) // 2]
        assert out.column("draft_fore")[mid] == pytest.approx(7.8, abs=1e-12)

    def test_constant_anchors_constant_trip(self):
        ds = voyage_with_drafts(9.0, 9.0, [8.0] * 7)
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg)
        for i in out.trips()[1]:
            assert out.column("draft_fore")[i] == pytest.approx(9.0, abs=1e-12)

    def test_venturi_depressed_readings_ignored_entirely(self):
        # in-trip sensor reads 7.2 while anchors say 8.0 -> 7.8: the raw
        # values must not influence the corrected series at all
        ds = voyage_with_drafts(8.0, 7.8, [7.2] * 9)
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg)
        ts = out.timestamps.astype(float)
        t0, t1 = trip_span(ds)
        for i in out.trips()[1]:
            expected = 8.0 + (7.8 - 8.0) * (ts[i] - t0) / (t1 - t0)
            assert out.column("draft_fore")[i] == pytest.approx(
                expected, abs=1e-12
            )
            assert out.column("raw_draft_fore")[i] == 7.2
            assert out.flagged(QualityFlag.DRAFT_CORRECTED)[i]

    def test_monotone_when_pre_geq_post(self):
        ds = voyage_with_drafts(8.4, 7.9, [7.0] * 15)
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg)
        vals = [out.column("draft_fore")[i] for i in out.trips()[1]]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_missing_side_falls_back_to_constant(self):
        ds = voyage_with_drafts(8.0, 7.6, [7.2] * 5, berth_len=6)
        # drop the post-trip anchors' values
        n = len(ds)
        ds = ds.with_values("draft_fore", np.arange(n - 6, n), [None] * 6)
        report = ProcessingReport()
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg, report=report)
        for i in out.trips()[1]:
            assert out.column("draft_fore")[i] == pytest.approx(8.0)
        assert any("single-sided" in note for note in report.stage_entries[0].notes)


@pytest.mark.parametrize("events", [0, 1])
def test_out_of_range_drafts_never_enter_a_mean(events):
    # berth anchors (rows 5 and 42) and event means (rows 20 and 32) skip a
    # value outside [0, 30], as if it were missing; -1e306 would overflow the ramp
    in_trip = [8.0] * 15 + [8.0 - 0.2 * k for k in range(11)] + [6.0] * 10
    clean = voyage_with_drafts(8.0, 6.0, in_trip, valid=(0.0, 30.0))
    dirty = clean.with_values("draft_fore", [5, 20, 32, 42], [-1e306, 31.0, -0.5, 1e306])
    start, _ = trip_span(clean)
    found = [DraftChangeEvent(1, start + 15 * DT, start + 25 * DT)][:events]
    fixed = [fix_draft_ramp(ds, 1, found, n_avg=5) for ds in (clean, dirty)]
    trip = clean.trips()[1]
    assert fixed[0].column("draft_fore")[trip].tolist() == pytest.approx(
        fixed[1].column("draft_fore")[trip].tolist(), abs=1e-12)


class TestFixDraftRamp:
    def ramp_fixture(self):
        # trip of 40 samples; event between samples 15 and 25 moves the
        # level from 8.0 to 6.0 linearly
        in_trip = []
        for k in range(40):
            if k < 15:
                in_trip.append(8.0)
            elif k <= 25:
                in_trip.append(8.0 + (6.0 - 8.0) * (k - 15) / 10.0)
            else:
                in_trip.append(6.0)
        ds = voyage_with_drafts(8.0, 6.0, in_trip)
        start, _ = trip_span(ds)
        return ds, DraftChangeEvent(1, start + 15 * DT, start + 25 * DT)

    def test_ramp_midpoint(self):
        ds, event = self.ramp_fixture()
        out = fix_draft_ramp(ds, 1, [event], n_avg=5)
        mid_ts = (event.start + event.end) // 2
        i = int(np.nonzero(out.timestamps == mid_ts)[0][0])
        assert out.column("draft_fore")[i] == pytest.approx(7.0, abs=1e-9)

    def test_zero_events_reduces_to_simple(self):
        ds = voyage_with_drafts(8.0, 7.6, [7.2] * 9)
        a = fix_draft_ramp(ds, 1, [], n_avg=5)
        b = fix_draft_simple(ds, 1, n_anchor=5)
        for va, vb in zip(a.column("draft_fore").tolist(), b.column("draft_fore").tolist()):
            assert va == pytest.approx(vb, abs=1e-9, nan_ok=True)

    def test_two_events_compose(self):
        # +0.5 then -0.3 -> final level pre + 0.2
        in_trip = []
        for k in range(60):
            if k < 10:
                in_trip.append(8.0)
            elif k <= 16:
                in_trip.append(8.0 + 0.5 * (k - 10) / 6.0)
            elif k < 35:
                in_trip.append(8.5)
            elif k <= 41:
                in_trip.append(8.5 - 0.3 * (k - 35) / 6.0)
            else:
                in_trip.append(8.2)
        ds = voyage_with_drafts(8.0, 8.2, in_trip)
        start, _ = trip_span(ds)
        events = [
            DraftChangeEvent(1, start + 10 * DT, start + 16 * DT),
            DraftChangeEvent(1, start + 35 * DT, start + 41 * DT),
        ]
        out = fix_draft_ramp(ds, 1, events, n_avg=5)
        last = out.trips()[1][-1]
        assert out.column("draft_fore")[last] == pytest.approx(8.2, abs=1e-9)

    def test_overlapping_events_rejected(self):
        ds, event = self.ramp_fixture()
        other = DraftChangeEvent(1, event.start + DT, event.end + DT)
        with pytest.raises(CorrectionError, match="overlapping"):
            fix_draft_ramp(ds, 1, [event, other], DEFAULTS.n_avg)

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_event_outside_the_trip_rows_rejected(self, shift):
        # the trip's bounds are the timestamps of its first and last rows
        ds, _ = self.ramp_fixture()
        start, end = trip_span(ds)
        inside = DraftChangeEvent(1, start, end)
        fix_draft_ramp(ds, 1, [inside], DEFAULTS.n_avg)
        event = DraftChangeEvent(1, start + min(shift, 0), end + max(shift, 0))
        with pytest.raises(CorrectionError, match=rf"outside trip \[{start}, {end}\]"):
            fix_draft_ramp(ds, 1, [event], DEFAULTS.n_avg)

    def test_event_in_a_trip_without_rows_rejected(self):
        ds, event = self.ramp_fixture()
        with pytest.raises(CorrectionError, match="trip 2 has no rows"):
            fix_draft_ramp(ds, 2, [DraftChangeEvent(2, event.start, event.end)], DEFAULTS.n_avg)

    def test_zero_magnitude_event_matches_simple(self):
        ds = voyage_with_drafts(8.0, 8.0, [8.0] * 30)
        start, _ = trip_span(ds)
        event = DraftChangeEvent(1, start + 10 * DT, start + 15 * DT)
        ramp = fix_draft_ramp(ds, 1, [event], n_avg=5)
        simple = fix_draft_simple(ds, 1, n_anchor=5)
        for va, vb in zip(
            ramp.column("draft_fore").tolist(), simple.column("draft_fore").tolist()
        ):
            assert va == pytest.approx(vb, abs=1e-9, nan_ok=True)


class TestDetectDraftEvents:
    def params(self):
        return SteadyFilterParams(window=11, alpha=0.01, gradient_tolerance=5e-5)

    def assert_ramp_levels(self, ds, event, levels):
        # the event leaves samples on both sides, at each sensor's levels, and
        # the ramp fix of trip 1 uses them on every sensor and every trip row
        rows = ds.trips()[1]
        for sensor, expected in levels.items():
            means = _event_means(ds, ds.column(sensor), event, rows, 10)
            assert means == pytest.approx(expected, abs=0.05)
        report = ProcessingReport()
        out = fix_draft_ramp(ds, 1, [event], DEFAULTS.n_avg, report=report)
        (entry,) = report.stage_entries
        assert entry.stage == "draft_fix:ramp:trip1"
        assert entry.notes == []
        assert [c.split(":")[0] for c in entry.corrections] == list(levels)
        assert out.flagged(QualityFlag.DRAFT_CORRECTED)[rows].all()
        for sensor, (pre, post) in levels.items():
            fixed = out.column(sensor)[rows]
            assert fixed[0] == pytest.approx(pre, abs=0.05)
            assert fixed[-1] == pytest.approx(post, abs=0.05)

    def test_flat_drafts_no_events(self):
        ds = voyage_with_drafts(8.0, 8.0, [8.0] * 40)
        assert detect_draft_events(ds, 1, self.params()) == []

    def test_mid_voyage_ramp_detected(self):
        in_trip = []
        for k in range(60):
            if k < 25:
                in_trip.append(9.0)
            elif k <= 33:
                in_trip.append(9.0 + 1.0 * (k - 25) / 8.0)  # 1 m over 2 h
            else:
                in_trip.append(10.0)
        ds = voyage_with_drafts(9.0, 10.0, in_trip, sensors=("draft_aft",))
        events = detect_draft_events(ds, 1, self.params())
        assert len(events) == 1
        ev = events[0]
        start, _ = trip_span(ds)
        assert ev.start <= start + 28 * DT
        assert ev.end >= start + 30 * DT
        self.assert_ramp_levels(ds, ev, {"draft_aft": (9.0, 10.0)})

    def test_trim_swap_merges_overlapping_sensor_events(self):
        fore, aft = [], []
        for k in range(60):
            if k < 25:
                fore.append(8.0)
                aft.append(7.0)
            elif k <= 33:
                fore.append(8.0 - 1.0 * (k - 25) / 8.0)
                aft.append(7.0 + 1.0 * (k - 25) / 8.0)
            else:
                fore.append(7.0)
                aft.append(8.0)
        schema = [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")]
        samples, ids, t = [], [], 0
        for _ in range(6):
            samples.append(Sample(t, {"draft_fore": 8.0, "draft_aft": 7.0}))
            ids.append(None)
            t += DT
        for f, a in zip(fore, aft):
            samples.append(Sample(t, {"draft_fore": f, "draft_aft": a}))
            ids.append(1)
            t += DT
        ds = rows_dataset(schema, samples).with_trip_ids(ids)
        events = detect_draft_events(ds, 1, self.params())
        assert len(events) == 1  # one event per sensor, merged by overlap
        self.assert_ramp_levels(
            ds, events[0], {"draft_fore": (8.0, 7.0), "draft_aft": (7.0, 8.0)}
        )


def particulars(ship_type=ShipType.BULK_CARRIER, design_draft=15.0):
    return ShipParticulars(
        ship_type=ship_type,
        beam=46.0,
        design_draft=design_draft,
        lwl=270.0,
        lpp=264.0,
        block_coefficient=0.8,
    )


class TestDraftRatio:
    def test_bulk_carrier_laden_passes(self):
        v = check_draft_ratio(0.91 * 15.0, particulars(), "laden")
        assert v.verdict == "pass"

    def test_oil_tanker_ballast_passes(self):
        p = particulars(ShipType.CRUDE_OIL_CARRIER)
        v = check_draft_ratio(0.60 * 15.0, p, "ballast")
        assert v.verdict == "pass"

    def test_container_excess_deviation_suggests_replacement(self):
        p = particulars(ShipType.LINE_CARRIER)
        v = check_draft_ratio(0.30 * 15.0, p, "laden")
        assert v.verdict == "replace"
        assert v.replacement == pytest.approx(0.82 * 15.0)

    def test_suspect_band(self):
        v = check_draft_ratio((0.91 - 0.2) * 15.0, particulars(), "laden")
        assert v.verdict == "suspect"
        assert v.replacement is None

    def test_scale_invariance(self):
        a = check_draft_ratio(0.7 * 15.0, particulars(design_draft=15.0), "laden")
        b = check_draft_ratio(0.7 * 30.0, particulars(design_draft=30.0), "laden")
        assert a.verdict == b.verdict
        assert a.ratio == pytest.approx(b.ratio)


class TestHydrostatics:
    def test_wsa_formula_rows_against_oracle(self):
        from shipdataprep.tables import wetted_surface

        assert wetted_surface(ShipType.CRUDE_OIL_CARRIER, 1e5, 15.0, 270.0, None) == (
            pytest.approx(oracle.WSA_TANKER_M2, abs=1e-6)
        )
        assert wetted_surface(ShipType.CRUDE_OIL_CARRIER, 1e5, 15.0, 270.0, None) == (
            pytest.approx(14_218.0, abs=0.5)
        )
        assert wetted_surface(ShipType.LINE_CARRIER, 1e5, 15.0, 270.0, None) == (
            pytest.approx(14_289.8, abs=0.5)
        )
        assert wetted_surface(ShipType.GENERAL_CARGO, 1e5, 15.0, None, 270.0) == (
            pytest.approx(oracle.WSA_GENERAL_M2, abs=1e-6)
        )

    def test_general_row_small_draft_asymptote(self):
        # as draft -> 0 the volume/draft term dominates: WSA*T/volume -> 1.025
        from shipdataprep.tables import wetted_surface

        t = 1e-6
        wsa = wetted_surface(ShipType.FERRY, 1e5, t, None, 264.0)
        assert wsa * t / 1e5 == pytest.approx(1.025, rel=1e-6)

    def test_block_coefficient_model(self):
        volume, wsa, consistent = hydrostatics(np.array([10.0]), np.array([0.5]), particulars())
        assert volume[0] == pytest.approx(0.8 * 270.0 * 46.0 * 10.0)
        assert wsa[0] > volume[0] / 10.0
        assert consistent.tolist() == [True]

    def test_wsa_increases_with_draft(self):
        drafts = np.array([6.0, 8.0, 10.0, 12.0])
        _, wsa, _ = hydrostatics(drafts, np.zeros(4), particulars())
        assert np.all(wsa > 0.0)
        assert np.all(np.diff(wsa) > 0)

    def test_table_lookup_takes_precedence(self, tmp_path):
        p = tmp_path / "hydro.csv"
        p.write_text(
            "draft_m,trim_m,displacement_m3,wsa_m2\n"
            "8,-1,60000,10000\n8,1,61000,10100\n"
            "12,-1,95000,13000\n12,1,96000,13100\n"
        )
        table = HydroTable.from_csv(p)
        volume, wsa, _ = hydrostatics(np.array([10.0]), np.array([0.0]), particulars(), table)
        assert volume[0] == pytest.approx((60000 + 61000 + 95000 + 96000) / 4)
        assert wsa[0] == pytest.approx((10000 + 10100 + 13000 + 13100) / 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_of_finite_extremes_looks_up_finite_values(self):
        big = np.finfo(float).max
        # a trim cell wider than the float range still gives its fraction
        table = HydroTable([2.0, 12.0], [-big, big], [[6e4, 6e4], [1.2e5, 1.2e5]],
                           [[1e4, 2e4], [1e4, 2e4]])
        volume, wsa = table.lookup(np.array([7.0]), np.array([0.0]))
        assert (volume.tolist(), wsa.tolist()) == ([9e4], [1.5e4])
        # a mix of DBL_MAX nodes, whose rounded sum may overflow, stays DBL_MAX
        table = HydroTable([2.0, 12.0], [0.0, 1.0], np.full((2, 2), big), np.full((2, 2), big))
        volume, wsa = table.lookup(np.linspace(2.0, 12.0, 1001), np.full(1001, 0.3))
        assert (volume == big).all() and (wsa == big).all()
        # a subnormal mean draft gives an inf bottom-plate bound: not consistent
        table = HydroTable([2.0, 12.0], [0.0], [[6e4], [9e4]], [[1e4], [1.3e4]])
        _, _, consistent = hydrostatics(np.array([1e-310, 9.0]), np.zeros(2), particulars(), table)
        assert consistent.tolist() == [False, True]

    def test_repeated_draft_trim_pair_rejected(self, tmp_path):
        # 4 rows for a 2 x 2 grid, but node (6, 1) is never written
        p = tmp_path / "hydro.csv"
        p.write_text(
            "draft_m,trim_m,displacement_m3,wsa_m2\n"
            "5,0,40000,9000\n5,0,40000,9000\n5,1,41000,9100\n6,0,50000,9500\n"
        )
        with pytest.raises(IngestError, match=r"hydro\.csv: .*repeats .*\(5\.0, 0\.0\)"):
            HydroTable.from_csv(p)

    @pytest.mark.parametrize("row, column", [
        ("nan,1,41000,9100", "draft_m"),
        ("5,1,inf,9100", "displacement_m3"),
        ("5,1,41000,nan", "wsa_m2"),
    ])
    def test_non_finite_cell_rejected(self, tmp_path, row, column):
        p = tmp_path / "hydro.csv"
        p.write_text(f"draft_m,trim_m,displacement_m3,wsa_m2\n5,0,40000,9000\n{row}\n")
        with pytest.raises(IngestError, match=rf"hydro\.csv: .*column {column} .*non-finite"):
            HydroTable.from_csv(p)

    def test_wsa_below_bottom_plate_counted_failed(self, tmp_path):
        # at draft 10 the table's 2,000 m2 is below volume / draft = 5,000 m2
        p = tmp_path / "hydro.csv"
        p.write_text(
            "draft_m,trim_m,displacement_m3,wsa_m2\n"
            "8,0,40000,9000\n12,0,60000,13000\n10,0,50000,2000\n"
        )
        ds = rows_dataset(
            [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")],
            [Sample(k * DT, {"draft_fore": f, "draft_aft": a})
             for k, (f, a) in enumerate([(8.0, 8.0), (9.5, 10.5), (12.0, 12.0)])],
        )
        report = ProcessingReport()
        out = _hydrostatics_stage(ds, particulars(), HydroTable.from_csv(p), PipelineConfig(),
                                  report)
        summary = report.stage_entries[0].summary
        assert (summary["computed"], summary["failed"]) == (2, 1)
        assert out.column("mean_draft").tolist() == [8.0, 10.0, 12.0]
        assert out.column("trim").tolist() == [0.0, 1.0, 0.0]
        assert out.column("displacement")[[0, 2]].tolist() == [40000.0, 60000.0]
        assert np.isnan(out.column("displacement")[1]) and np.isnan(out.column("wsa")[1])

    def test_extrapolation_warning(self):
        # the stage notes, once, the samples above 1.25 x the 15 m design draft
        ds = rows_dataset(
            [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")],
            [Sample(k * DT, {"draft_fore": f, "draft_aft": a})
             for k, (f, a) in enumerate([(20.0, 20.0), (10.0, 10.0), (21.0, 22.0)])],
        )
        report = ProcessingReport()
        _hydrostatics_stage(ds, particulars(), None, PipelineConfig(), report)
        (entry,) = report.stage_entries
        assert entry.stage == "hydrostatics"
        assert entry.summary["computed"] == 3
        assert [n for n in entry.notes if "extrapolating" in n] == [
            "2 sample(s) with mean draft above 1.25 x design draft 15.00 m, "
            "largest 21.50 m; extrapolating"
        ]
        report = ProcessingReport()
        _hydrostatics_stage(ds.take([1], [0]), particulars(), None, PipelineConfig(), report)
        assert not any("extrapolating" in n for n in report.stage_entries[0].notes)

    def test_nonpositive_draft_rejected(self):
        # the stage counts a mean draft <= 0 as failed and looks nothing up
        ds = rows_dataset(
            [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")],
            [Sample(0, {"draft_fore": 0.0, "draft_aft": 0.0}),
             Sample(DT, {"draft_fore": -1.0, "draft_aft": 0.5})],
        )
        report = ProcessingReport()
        out = _hydrostatics_stage(ds, particulars(), None, PipelineConfig(), report)
        assert (report.stage_entries[0].summary["computed"],
                report.stage_entries[0].summary["failed"]) == (0, 2)
        assert np.isnan(out.column("mean_draft")).all()

    def test_overflowing_drafts_fail_without_a_warning(self):
        # rows 0-1: the mean draft or the trim overflows, so the row fails;
        # rows 2-4: the volume overflows, which is not consistent, and the
        # mean of their mean drafts overflows
        big = np.finfo(float).max
        drafts = [(big, big), (big, -big / 2)] + [(big, 0.0)] * 3
        ds = rows_dataset(
            [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")],
            [Sample(k * DT, {"draft_fore": f, "draft_aft": a}) for k, (f, a) in enumerate(drafts)],
        )
        report = ProcessingReport()
        out = _hydrostatics_stage(ds, particulars(), None, PipelineConfig(), report)
        summary = report.stage_entries[0].summary
        assert (summary["computed"], summary["failed"]) == (0, 5)
        assert np.isnan(out.column("mean_draft")[:2]).all()
        assert out.column("mean_draft")[2:].tolist() == [big / 2] * 3
        assert np.isnan(out.column("displacement")).all()
        assert summary["draft_ratio"]["ratio"] == np.inf


def resistance_dataset(**cols):
    n = max(len(v) for v in cols.values())
    schema = [VariableSpec(k) for k in cols]
    samples = []
    for i in range(n):
        vals = {k: v[i] for k, v in cols.items() if v[i] is not None}
        samples.append(Sample(i * DT, vals))
    return rows_dataset(schema, samples)


class TestTableDrivenResistance:
    def wind_model(self):
        return TableDrivenModel(
            "wind", "added_wind", area=1000.0,
            angles=[0.0, 90.0, 180.0], coefficients=[0.8, 0.5, 0.1],
        )

    def test_zero_relative_wind_zero_resistance(self):
        ds = resistance_dataset(rel_wind_speed=[0.0], rel_wind_dir=[0.0])
        out = resistance_components(ds, [self.wind_model()])
        assert out.column("res_wind")[0] == 0.0

    def test_table_reproduced_at_defining_points(self):
        m = self.wind_model()
        for angle, coeff in zip(m.angles, m.coefficients):
            assert m.coefficients_at(np.array([angle]))[0] == pytest.approx(coeff)

    def test_dynamic_pressure_scaling(self):
        ds = resistance_dataset(
            rel_wind_speed=[10.0, 20.0], rel_wind_dir=[45.0, 45.0]
        )
        out = resistance_components(ds, [self.wind_model()])
        r10 = out.column("res_wind")[0]
        r20 = out.column("res_wind")[1]
        assert r20 == pytest.approx(4.0 * r10, rel=1e-12)
        # hand arithmetic for the 10 m/s case: C(45)=0.65, q=0.5*1.225*100
        assert r10 == pytest.approx(0.5 * 1.225 * 0.65 * 1000.0 * 100.0, rel=1e-12)

    def test_calm_water_monotone_in_stw(self):
        calm = TableDrivenModel("calm", "calm_water", 500.0, [0.0], [0.002])
        ds = resistance_dataset(stw=[2.0, 4.0, 6.0])
        out = resistance_components(ds, [calm])
        vals = out.column("res_calm").tolist()
        assert vals == sorted(vals)
        assert all(v >= 0 for v in vals)

    def test_single_angle_table_is_constant(self):
        # one angle: every direction takes its coefficient, wrap or not
        m = TableDrivenModel("wind", "added_wind", 100.0, [30.0], [0.7])
        ds = resistance_dataset(rel_wind_speed=[10.0, 10.0, 10.0, None],
                                rel_wind_dir=[0.0, 30.0, 200.0, 10.0])
        report = ProcessingReport()
        out = resistance_components(ds, [m], report)
        assert out.column("res_wind")[:3].tolist() == [0.5 * 1.225 * 0.7 * 100.0 * 100.0] * 3
        assert report.stage_entries[0].summary["wind"] == {
            "kind": "added_wind", "evaluated": 3, "missing_inputs": 1,
        }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_value_is_a_flag_and_missing(self):
        # finite wind speeds whose dynamic pressure overflows, as the power identity does
        ds = resistance_dataset(rel_wind_speed=[10.0, 1e306, -1e306, 1e160],
                                rel_wind_dir=[45.0, 45.0, 45.0, 45.0])
        report = ProcessingReport()
        out = resistance_components(ds, [self.wind_model()], report)
        res = out.column("res_wind")
        assert res[0] == pytest.approx(0.5 * 1.225 * 0.65 * 1000.0 * 100.0, rel=1e-12)
        assert np.isnan(res[1:]).all()
        (entry,) = report.stage_entries
        assert [(c.verdict, c.variable, c.timestamp) for c in entry.checks] == [
            ("overflow", "res_wind", t) for t in ds.timestamps[1:].tolist()
        ]
        assert out.flagged(QualityFlag.INVALID_RANGE).tolist() == [False, True, True, True]
        assert entry.flag_counts == {"invalid_range": 3}
        assert entry.summary["wind"]["evaluated"] == 4

    def test_model_missing_inputs_skipped_with_note(self):
        ds = resistance_dataset(stw=[5.0])
        report = ProcessingReport()
        out = resistance_components(ds, [self.wind_model()], report)
        assert not out.declares("res_wind")
        assert any("skipped" in n for n in report.stage_entries[0].notes)

    def test_angle_wraps_circularly(self):
        m = TableDrivenModel(
            "wind", "added_wind", 100.0, [0.0, 180.0], [1.0, 0.0]
        )
        got = m.coefficients_at(np.array([270.0, 359.9]))
        assert got[0] == pytest.approx(0.5)
        assert got[1] == pytest.approx(1.0, abs=1e-3)

    def test_from_csv(self, tmp_path):
        p = tmp_path / "wind.csv"
        p.write_text("#kind wind\n#area 1200\nangle_deg,coefficient\n0,0.9\n90,0.4\n")
        m = TableDrivenModel.from_csv(p)
        assert m.kind == "added_wind"
        assert m.area == 1200.0
        assert m.coefficients_at(np.array([0.0]))[0] == 0.9

    def test_negative_coefficient_rejected(self):
        with pytest.raises(CorrectionError):
            TableDrivenModel("w", "added_wind", 100.0, [0.0], [-0.1])

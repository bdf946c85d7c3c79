"""Draft corrections, draft-ratio plausibility, hydrostatics and the
table-driven resistance reference implementation."""

import numpy as np
import pytest

import oracle_values as oracle
from conftest import rows_dataset
from shipdataprep.corrections import (
    CorrectionError,
    DraftChangeEvent,
    HydroTable,
    TableDrivenModel,
    check_draft_ratio,
    detect_draft_events,
    fix_draft_ramp,
    fix_draft_simple,
    hydrostatics,
    resistance_components,
)
from shipdataprep.hindcast import SteadyFilterParams
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    ShipParticulars,
    ShipType,
    VariableSpec,
)
from shipdataprep.timeline import Trip

DT = 900


def voyage_with_drafts(pre, post, in_trip, berth_len=6, sensors=("draft_fore",)):
    """berth_len static samples at ``pre``, len(in_trip) moving samples,
    berth_len static samples at ``post``; returns (dataset, trip)."""
    schema = [VariableSpec(s, "m") for s in sensors]
    samples = []
    trip_ids = []
    t = 0
    for v in [pre] * berth_len:
        samples.append(Sample(t, {s: v for s in sensors}))
        trip_ids.append(None)
        t += DT
    trip_start = t
    for v in in_trip:
        vals = {} if v is None else {s: v for s in sensors}
        samples.append(Sample(t, vals))
        trip_ids.append(1)
        t += DT
    trip_end = t - DT
    for v in [post] * berth_len:
        samples.append(Sample(t, {s: v for s in sensors}))
        trip_ids.append(None)
        t += DT
    ds = rows_dataset(schema, samples).with_trip_ids(trip_ids)
    return ds, Trip(1, trip_start, trip_end)


class TestFixDraftSimple:
    def test_midpoint_of_linear_interpolation(self):
        ds, trip = voyage_with_drafts(8.0, 7.6, [7.2] * 11)
        out = fix_draft_simple(ds, trip, min_anchor=3)
        idx = out.trip_indices(1)
        mid = idx[len(idx) // 2]
        assert out.column("draft_fore")[mid] == pytest.approx(7.8, abs=1e-12)

    def test_constant_anchors_constant_trip(self):
        ds, trip = voyage_with_drafts(9.0, 9.0, [8.0] * 7)
        out = fix_draft_simple(ds, trip)
        for i in out.trip_indices(1):
            assert out.column("draft_fore")[i] == pytest.approx(9.0, abs=1e-12)

    def test_venturi_depressed_readings_ignored_entirely(self):
        # in-trip sensor reads 7.2 while anchors say 8.0 -> 7.8: the raw
        # values must not influence the corrected series at all
        ds, trip = voyage_with_drafts(8.0, 7.8, [7.2] * 9)
        out = fix_draft_simple(ds, trip)
        ts = out.timestamps.astype(float)
        t0, t1 = float(trip.start), float(trip.end)
        for i in out.trip_indices(1):
            expected = 8.0 + (7.8 - 8.0) * (ts[i] - t0) / (t1 - t0)
            assert out.column("draft_fore")[i] == pytest.approx(
                expected, abs=1e-12
            )
            assert out.column("raw_draft_fore")[i] == 7.2
            assert out.flagged(QualityFlag.DRAFT_CORRECTED)[i]

    def test_monotone_when_pre_geq_post(self):
        ds, trip = voyage_with_drafts(8.4, 7.9, [7.0] * 15)
        out = fix_draft_simple(ds, trip)
        vals = [out.column("draft_fore")[i] for i in out.trip_indices(1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_missing_side_falls_back_to_constant(self):
        ds, trip = voyage_with_drafts(8.0, 7.6, [7.2] * 5, berth_len=6)
        # drop the post-trip anchors' values
        n = len(ds)
        ds = ds.with_values("draft_fore", np.arange(n - 6, n), [None] * 6)
        report = ProcessingReport()
        out = fix_draft_simple(ds, trip, report=report)
        for i in out.trip_indices(1):
            assert out.column("draft_fore")[i] == pytest.approx(8.0)
        assert any("single-sided" in note for note in report.stage_entries[0].notes)


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
        ds, trip = voyage_with_drafts(8.0, 6.0, in_trip)
        event = DraftChangeEvent(
            1, trip.start + 15 * DT, trip.start + 25 * DT
        )
        return ds, trip, event

    def test_ramp_midpoint(self):
        ds, trip, event = self.ramp_fixture()
        out = fix_draft_ramp(ds, trip, [event], n_avg=5)
        mid_ts = (event.start + event.end) // 2
        i = int(np.nonzero(out.timestamps == mid_ts)[0][0])
        assert out.column("draft_fore")[i] == pytest.approx(7.0, abs=1e-9)

    def test_zero_events_reduces_to_simple(self):
        ds, trip = voyage_with_drafts(8.0, 7.6, [7.2] * 9)
        a = fix_draft_ramp(ds, trip, [], n_avg=5)
        b = fix_draft_simple(ds, trip, n_anchor=5)
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
        ds, trip = voyage_with_drafts(8.0, 8.2, in_trip)
        events = [
            DraftChangeEvent(1, trip.start + 10 * DT, trip.start + 16 * DT),
            DraftChangeEvent(1, trip.start + 35 * DT, trip.start + 41 * DT),
        ]
        out = fix_draft_ramp(ds, trip, events, n_avg=5)
        last = out.trip_indices(1)[-1]
        assert out.column("draft_fore")[last] == pytest.approx(8.2, abs=1e-9)

    def test_overlapping_events_rejected(self):
        ds, trip, event = self.ramp_fixture()
        other = DraftChangeEvent(1, event.start + DT, event.end + DT)
        with pytest.raises(CorrectionError, match="overlapping"):
            fix_draft_ramp(ds, trip, [event, other])

    def test_zero_magnitude_event_matches_simple(self):
        ds, trip = voyage_with_drafts(8.0, 8.0, [8.0] * 30)
        event = DraftChangeEvent(1, trip.start + 10 * DT, trip.start + 15 * DT)
        ramp = fix_draft_ramp(ds, trip, [event], n_avg=5)
        simple = fix_draft_simple(ds, trip, n_anchor=5)
        for va, vb in zip(
            ramp.column("draft_fore").tolist(), simple.column("draft_fore").tolist()
        ):
            assert va == pytest.approx(vb, abs=1e-9, nan_ok=True)


class TestDetectDraftEvents:
    def params(self):
        return SteadyFilterParams(window=11, alpha=0.01, gradient_tolerance=5e-5)

    def test_flat_drafts_no_events(self):
        ds, trip = voyage_with_drafts(8.0, 8.0, [8.0] * 40)
        assert detect_draft_events(ds, trip, self.params()) == []

    def test_mid_voyage_ramp_detected(self):
        in_trip = []
        for k in range(60):
            if k < 25:
                in_trip.append(9.0)
            elif k <= 33:
                in_trip.append(9.0 + 1.0 * (k - 25) / 8.0)  # 1 m over 2 h
            else:
                in_trip.append(10.0)
        ds, trip = voyage_with_drafts(9.0, 10.0, in_trip, sensors=("draft_aft",))
        events = detect_draft_events(
            ds, trip, self.params(), sensors=("draft_aft",)
        )
        assert len(events) == 1
        ev = events[0]
        ramp_start = trip.start + 25 * DT
        ramp_end = trip.start + 33 * DT
        assert ev.start <= ramp_start + 3 * DT
        assert ev.end >= ramp_end - 3 * DT
        pre, post = ev.means["draft_aft"]
        assert pre == pytest.approx(9.0, abs=0.05)
        assert post == pytest.approx(10.0, abs=0.05)

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
        trip_start = t
        for f, a in zip(fore, aft):
            samples.append(Sample(t, {"draft_fore": f, "draft_aft": a}))
            ids.append(1)
            t += DT
        trip = Trip(1, trip_start, t - DT)
        ds = rows_dataset(schema, samples).with_trip_ids(ids)
        events = detect_draft_events(ds, trip, self.params())
        assert len(events) == 1  # one event per sensor, merged by overlap
        assert events[0].means["draft_fore"][1] == pytest.approx(7.0, abs=0.05)
        assert events[0].means["draft_aft"][1] == pytest.approx(8.0, abs=0.05)


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
        h = hydrostatics(10.0, 0.5, particulars())
        assert h.displacement_volume == pytest.approx(0.8 * 270.0 * 46.0 * 10.0)
        assert h.wetted_surface > h.displacement_volume / h.mean_draft

    def test_wsa_increases_with_draft(self):
        prev = 0.0
        for t in (6.0, 8.0, 10.0, 12.0):
            h = hydrostatics(t, 0.0, particulars())
            assert h.wetted_surface > prev
            prev = h.wetted_surface

    def test_table_lookup_takes_precedence(self, tmp_path):
        p = tmp_path / "hydro.csv"
        p.write_text(
            "draft_m,trim_m,displacement_m3,wsa_m2\n"
            "8,-1,60000,10000\n8,1,61000,10100\n"
            "12,-1,95000,13000\n12,1,96000,13100\n"
        )
        table = HydroTable.from_csv(p)
        h = hydrostatics(10.0, 0.0, particulars(), table=table)
        assert h.displacement_volume == pytest.approx((60000 + 61000 + 95000 + 96000) / 4)
        assert h.wetted_surface == pytest.approx((10000 + 10100 + 13000 + 13100) / 4)

    def test_extrapolation_warning(self):
        report = ProcessingReport()
        hydrostatics(20.0, 0.0, particulars(), report=report)
        assert any(
            "extrapolating" in n
            for e in report.stage_entries
            for n in e.notes
        )

    def test_nonpositive_draft_rejected(self):
        with pytest.raises(CorrectionError):
            hydrostatics(0.0, 0.0, particulars())


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
            assert m.coefficient_at(float(angle)) == pytest.approx(coeff)

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
        assert m.coefficient_at(270.0) == pytest.approx(0.5)
        assert m.coefficient_at(359.9) == pytest.approx(1.0, abs=1e-3)

    def test_from_csv(self, tmp_path):
        p = tmp_path / "wind.csv"
        p.write_text("#kind wind\n#area 1200\nangle_deg,coefficient\n0,0.9\n90,0.4\n")
        m = TableDrivenModel.from_csv(p)
        assert m.kind == "added_wind"
        assert m.area == 1200.0
        assert m.coefficient_at(0.0) == 0.9

    def test_negative_coefficient_rejected(self):
        with pytest.raises(CorrectionError):
            TableDrivenModel("w", "added_wind", 100.0, [0.0], [-0.1])

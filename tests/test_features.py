"""Geodesy, ship-frame resolution, anemometer correction and AIS checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_values as oracle
from conftest import DEFAULTS, FERRY, flagged_rows, rows_dataset, series_dataset
from features_reference import angular_difference
from shipdataprep.features import (
    add_gps_heading,
    add_leg_distance,
    add_reference_height_wind,
    ais_speed_consistency,
    ais_status_check,
    gps_heading,
    haversine_distances,
    initial_bearings,
    resolve_ship_frame,
    service_speed_range,
    wind_to_reference_height,
)
from shipdataprep.ingest import default_schema
from shipdataprep.model import (
    KNOT,
    ProcessingReport,
    QualityFlag,
    Sample,
    ShipParticulars,
    ShipType,
    VariableSpec,
    new_dataset,
)

coords = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


def haversine(lat1, lon1, lat2, lon2):
    """One leg's distance through the array function."""
    return float(haversine_distances(*(np.array([v]) for v in (lat1, lon1, lat2, lon2)))[0])


def initial_bearing(lat1, lon1, lat2, lon2):
    """One leg's bearing through the array function."""
    return float(initial_bearings(*(np.array([v]) for v in (lat1, lon1, lat2, lon2)))[0])


class TestHaversine:
    def test_identical_points_zero(self):
        assert haversine(42.0, 7.0, 42.0, 7.0) == 0.0

    def test_quarter_great_circle(self):
        assert haversine(0.0, 0.0, 0.0, 90.0) == pytest.approx(
            oracle.QUARTER_CIRCLE_M, abs=1.0
        )

    def test_matches_independent_chord_formula(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            la1, lo1, la2, lo2 = (
                rng.uniform(-89, 89),
                rng.uniform(-179, 179),
                rng.uniform(-89, 89),
                rng.uniform(-179, 179),
            )
            assert haversine(la1, lo1, la2, lo2) == pytest.approx(
                oracle.chord_distance(la1, lo1, la2, lo2), rel=1e-9, abs=1e-6
            )

    @settings(max_examples=50, deadline=None)
    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert haversine(a[0], a[1], b[0], b[1]) == pytest.approx(
            haversine(b[0], b[1], a[0], a[1]), rel=1e-12, abs=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(coords, coords, coords)
    def test_triangle_inequality_and_bound(self, a, b, c):
        d_ab = haversine(*a, *b)
        d_bc = haversine(*b, *c)
        d_ac = haversine(*a, *c)
        assert d_ac <= d_ab + d_bc + 1e-6
        assert d_ac <= math.pi * 6_371_000.0 + 1e-6


class TestWindReferenceHeight:
    def test_equal_heights_identity(self):
        assert wind_to_reference_height(7.3, 25.0, 25.0) == 7.3

    def test_oracle_value(self):
        assert wind_to_reference_height(10.0, 10.0, 30.0) == pytest.approx(
            oracle.REFERENCE_WIND_10_10_30, abs=1e-9
        )
        assert wind_to_reference_height(10.0, 10.0, 30.0) == pytest.approx(8.851, abs=1e-3)

    def test_homogeneity(self):
        one = wind_to_reference_height(5.0, 12.0, 31.0)
        two = wind_to_reference_height(10.0, 12.0, 31.0)
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError):
            wind_to_reference_height(5.0, 0.0, 30.0)
        with pytest.raises(ValueError):
            wind_to_reference_height(5.0, 10.0, -1.0)

    def test_column_matches_scalar_and_drops_negative_cells(self):
        # ingest's spec holds the speed to [0, 90] m/s: a negative cell reads as missing
        speeds = [7.3, 0.0, -1.5, None, 12.25, -0.0, 1e-300]
        (spec,) = [s for s in default_schema() if s.name == "rel_wind_speed"]
        ds = new_dataset([spec], range(len(speeds)), {"rel_wind_speed": speeds},
                         source_kind="in_service")
        particulars = ShipParticulars(ShipType.BULK_CARRIER, beam=32.0, design_draft=12.0,
                                      lpp=180.0, anemometer_height=31.0,
                                      wind_reference_height=12.0)
        got = add_reference_height_wind(ds, particulars).column("rel_wind_speed_ref")
        for v, g in zip(speeds, got.tolist()):
            if v is None or v < 0:
                assert math.isnan(g)
            else:
                assert g == wind_to_reference_height(v, 12.0, 31.0)
        with pytest.raises(ValueError, match="non-negative"):
            wind_to_reference_height(-1.5, 12.0, 31.0)


def track_dataset(points, extra=None):
    schema = [VariableSpec("lat"), VariableSpec("lon")]
    if extra:
        schema += [VariableSpec(k) for k in extra]
    samples = []
    for i, (la, lo) in enumerate(points):
        vals = {"lat": la, "lon": lo}
        if extra:
            for k, col in extra.items():
                if col[i] is not None:
                    vals[k] = col[i]
        samples.append(Sample(i * 900, vals))
    return rows_dataset(schema, samples)


class TestGpsHeading:
    def test_due_east_track(self):
        ds = track_dataset([(0.0, 0.0), (0.0, 0.1), (0.0, 0.2)])
        headings = gps_heading(ds)
        assert headings[0] == pytest.approx(90.0, abs=1e-9)
        assert headings[-1] == pytest.approx(90.0, abs=1e-9)  # holds previous

    def test_due_north_track(self):
        ds = track_dataset([(0.0, 0.0), (0.1, 0.0)])
        assert gps_heading(ds)[0] == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_bearing_oracle(self):
        assert initial_bearing(0.0, 0.0, 1.0, 1.0) == pytest.approx(
            oracle.BEARING_0_0_TO_1_1, abs=1e-6
        )
        assert initial_bearing(0.0, 0.0, 1.0, 1.0) == pytest.approx(44.995, abs=0.01)

    def test_flagged_position_missing(self):
        ds = track_dataset([(0.0, 0.0), (0.0, 0.1), (0.0, 0.2)]).adding_flags(
            QualityFlag.IRRATIONAL_POSITION, [1]
        )
        headings = gps_heading(ds)
        assert math.isnan(headings[1])

    def test_stationary_pair_holds_previous(self):
        ds = track_dataset([(0.0, 0.0), (0.0, 0.1), (0.0, 0.1)])
        headings = gps_heading(ds)
        assert headings[1] == pytest.approx(90.0, abs=1e-6)

    def test_repeated_position_mid_trip_holds_previous_bearing(self):
        # east, a repeated fix, then north: the repeat holds the east bearing
        ds = track_dataset([(0.0, 0.0), (0.0, 0.1), (0.0, 0.1), (0.1, 0.1), (0.2, 0.1)])
        ds = ds.with_trip_ids([1] * 5)
        headings = gps_heading(ds)
        assert headings[:2].tolist() == pytest.approx([90.0, 90.0], abs=1e-6)
        assert headings[2:].tolist() == pytest.approx([0.0, 0.0, 0.0], abs=1e-6)

    def test_trip_boundary_restarts_the_held_bearing(self):
        # trip 2 starts on a repeated fix: it holds nothing from trip 1
        ds = track_dataset([(0.0, 0.0), (0.0, 0.1), (0.0, 0.1), (0.0, 0.1), (0.1, 0.1)])
        ds = ds.with_trip_ids([1, 1, 2, 2, 2])
        headings = gps_heading(ds)
        assert headings[:2].tolist() == pytest.approx([90.0, 90.0], abs=1e-6)
        assert math.isnan(headings[2])
        assert headings[3:].tolist() == pytest.approx([0.0, 0.0], abs=1e-6)

    def test_leg_across_the_antimeridian(self):
        # 0.2 deg of longitude east across 180 at 10 N, not 359.8 deg west
        ds = add_leg_distance(add_gps_heading(track_dataset([(10.0, 179.9), (10.0, -179.9)])))
        arc = math.radians(0.2) * 6_371_000.0 * math.cos(math.radians(10.0))
        assert ds.column("leg_distance")[1] == pytest.approx(arc, rel=1e-5)
        assert ds.column("gps_heading")[0] == pytest.approx(90.0, abs=0.02)


def frame_dataset(heading, sog, wind_u, wind_v, wave_dir=None, cur_u=None, cur_v=None):
    cols = {
        "heading": [heading],
        "sog": [sog],
        "hc_wind_u": [wind_u],
        "hc_wind_v": [wind_v],
    }
    if wave_dir is not None:
        cols["hc_mean_wave_dir"] = [wave_dir]
    if cur_u is not None:
        cols["hc_current_u"] = [cur_u]
        cols["hc_current_v"] = [cur_v]
    return series_dataset(cols)


class TestResolveShipFrame:
    def test_still_air_head_wind_equals_sog(self):
        ds = resolve_ship_frame(frame_dataset(0.0, 5.0, 0.0, 0.0), report=ProcessingReport())
        assert ds.column("rel_wind_long")[0] == pytest.approx(5.0)
        assert ds.column("rel_wind_trans")[0] == pytest.approx(0.0)

    def test_north_heading_north_wind(self):
        # wind blowing FROM north at 10 m/s = vector (0, -10); stationary ship
        ds = resolve_ship_frame(frame_dataset(0.0, 0.0, 0.0, -10.0), report=ProcessingReport())
        assert ds.column("rel_wind_long")[0] == pytest.approx(10.0)
        assert abs(np.nan_to_num(ds.column("rel_wind_trans")[0])) < 1e-12

    def test_wave_direction_aligned_with_heading(self):
        ds = resolve_ship_frame(frame_dataset(123.0, 3.0, 0.0, 0.0, wave_dir=123.0), report=ProcessingReport())
        assert ds.column("rel_wave_dir")[0] == pytest.approx(0.0, abs=1e-12)

    def test_stw_estimate_subtracts_following_current(self):
        # heading east, current flowing east at 1 m/s, sog 6 -> stw 5
        ds = resolve_ship_frame(
            frame_dataset(90.0, 6.0, 0.0, 0.0, cur_u=1.0, cur_v=0.0), report=ProcessingReport()
        )
        assert ds.column("stw_estimate")[0] == pytest.approx(5.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0, max_value=359.99),
        st.floats(min_value=-20, max_value=20),
        st.floats(min_value=-20, max_value=20),
    )
    def test_zero_sog_preserves_wind_magnitude(self, psi, u, v):
        ds = resolve_ship_frame(frame_dataset(psi, 0.0, u, v), report=ProcessingReport())
        long, trans = (np.nan_to_num(ds.column(n)[0]) for n in ("rel_wind_long", "rel_wind_trans"))
        got = long ** 2 + trans ** 2
        assert got == pytest.approx(u * u + v * v, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0, 359.99), st.floats(0, 359.99))
    def test_relative_wave_direction_mod_360(self, wave, psi):
        a = resolve_ship_frame(frame_dataset(psi, 1.0, 0.0, 0.0, wave_dir=wave), report=ProcessingReport())
        b = resolve_ship_frame(frame_dataset(psi, 1.0, 0.0, 0.0, wave_dir=(wave + 360.0) % 360.0), report=ProcessingReport())
        va = a.column("rel_wave_dir")[0]
        vb = b.column("rel_wave_dir")[0]
        assert angular_difference(va, vb) < 1e-9


def straight_track(n, speed=5.0, dt=900):
    """Equator track moving east at ``speed`` with exactly matching sog."""
    lats = [0.0] * n
    lons = [0.0]
    deg_per_m = 1.0 / (math.pi * 6_371_000.0 / 180.0)
    for _ in range(n - 1):
        lons.append(lons[-1] + speed * dt * deg_per_m)
    return lats, lons


class TestAisSpeedConsistency:
    def build(self, n=40, inject=(), value=25.0, sog_spec=VariableSpec("sog")):
        lats, lons = straight_track(n)
        sog = [5.0] * n
        for i in inject:
            sog[i] = value
        schema = [VariableSpec("lat"), VariableSpec("lon"), sog_spec]
        samples = [
            Sample(i * 900, {"lat": lats[i], "lon": lons[i], "sog": sog[i]})
            for i in range(n)
        ]
        return rows_dataset(schema, samples, source_kind="ais")

    @staticmethod
    def check(dataset, report):
        return ais_speed_consistency(
            dataset, DEFAULTS.ais_tolerance, DEFAULTS.ais_window, FERRY, report
        )

    def test_consistent_track_zero_flags(self):
        out = self.check(self.build(), ProcessingReport())
        assert not out.flagged(QualityFlag.IRRATIONAL_SPEED).any()

    def test_injected_speed_flagged_and_replaced(self):
        report = ProcessingReport()
        out = self.check(self.build(inject=(10,)), report)
        flagged = flagged_rows(out, QualityFlag.IRRATIONAL_SPEED)
        assert flagged == [10]
        assert out.column("sog")[10] == pytest.approx(5.0)
        assert out.column("raw_sog")[10] == pytest.approx(25.0)
        entry = report.stage_entries[0]
        assert entry.flag_counts["irrational_speed"] == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_absurd_speed_flagged_and_replaced(self):
        # a bare sog spec has no valid range, so 1e4 m/s is checked
        report = ProcessingReport()
        out = self.check(self.build(inject=(10,), value=1e4), report)
        assert flagged_rows(out, QualityFlag.IRRATIONAL_SPEED) == [10]
        assert out.column("sog")[10] == pytest.approx(5.0)
        assert out.column("raw_sog")[10] == 1e4
        (check,) = report.stage_entries[0].checks
        assert (check.verdict, check.observed) == ("replaced", 1e4)
        assert check.expected == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [1e306, -1e306])
    def test_speed_outside_its_valid_range_is_not_checked(self, value):
        # ingest's sog spec holds a checked speed to [0, 26] m/s, so no
        # leg's reported distance can overflow
        (spec,) = [s for s in default_schema() if s.name == "sog"]
        report = ProcessingReport()
        out = self.check(self.build(inject=(10,), value=value, sog_spec=spec), report)
        assert not out.flagged(QualityFlag.IRRATIONAL_SPEED).any()
        assert not out.declares("raw_sog")
        assert out.logged("sog")[10] == value  # stored as logged

    def test_stationary_vessel_zero_flags(self):
        schema = [VariableSpec("lat"), VariableSpec("lon"), VariableSpec("sog")]
        samples = [
            Sample(i * 900, {"lat": 10.0, "lon": 4.0, "sog": 0.0}) for i in range(10)
        ]
        ds = rows_dataset(schema, samples)
        out = self.check(ds, ProcessingReport())
        assert not out.flagged(QualityFlag.IRRATIONAL_SPEED).any()

    def test_short_legs_use_window_trend(self):
        lats, lons = straight_track(30, dt=30)
        schema = [VariableSpec("lat"), VariableSpec("lon"), VariableSpec("sog")]
        samples = [
            Sample(i * 30, {"lat": lats[i], "lon": lons[i], "sog": 5.0})
            for i in range(30)
        ]
        ds = rows_dataset(schema, samples)
        out = self.check(ds, ProcessingReport())
        assert not out.flagged(QualityFlag.IRRATIONAL_SPEED).any()


class TestServiceSpeedRange:
    def test_crude_oil_carrier(self):
        lo, hi = service_speed_range(ShipType.CRUDE_OIL_CARRIER)
        assert lo == pytest.approx(6.688, abs=1e-3)
        assert hi == pytest.approx(8.746, abs=1e-3)

    def test_cruise_and_feeder(self):
        assert service_speed_range(ShipType.CRUISE_SHIP) == (20 * KNOT, 23 * KNOT)
        assert service_speed_range(ShipType.FEEDER) == (18 * KNOT, 21 * KNOT)


class TestAisStatusCheck:
    def build(self, status, sog, trip_id=None):
        schema = [VariableSpec("nav_status"), VariableSpec("sog")]
        samples = [Sample(0, {"nav_status": status, "sog": sog}, trip_id=trip_id)]
        return rows_dataset(schema, samples)

    def test_moored_while_moving_flagged(self):
        out = ais_status_check(self.build(5.0, 7.0), DEFAULTS.port_speed_threshold, report=ProcessingReport())
        assert out.flagged(QualityFlag.STALE_AIS_STATUS)[0]

    def test_under_way_while_moving_ok(self):
        out = ais_status_check(self.build(0.0, 7.0), DEFAULTS.port_speed_threshold, report=ProcessingReport())
        assert not out.flagged(QualityFlag.STALE_AIS_STATUS)[0]

    def test_anchored_at_rest_ok(self):
        out = ais_status_check(self.build(1.0, 0.0), DEFAULTS.port_speed_threshold, report=ProcessingReport())
        assert not out.flagged(QualityFlag.STALE_AIS_STATUS)[0]

    def test_under_way_at_rest_in_port_flagged(self):
        schema = [VariableSpec("nav_status"), VariableSpec("sog")]
        samples = [
            Sample(0, {"nav_status": 0.0, "sog": 0.0}, trip_id=None),
            Sample(900, {"nav_status": 0.0, "sog": 5.0}, trip_id=1),
        ]
        ds = rows_dataset(schema, samples)
        out = ais_status_check(ds, DEFAULTS.port_speed_threshold, report=ProcessingReport())
        assert out.flagged(QualityFlag.STALE_AIS_STATUS)[0]
        assert not out.flagged(QualityFlag.STALE_AIS_STATUS)[1]

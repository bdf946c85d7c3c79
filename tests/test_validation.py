"""Validation-check battery: power identity, speed-power accumulation, stw
estimate, longitudinal wind comparison and the angular-averaging detector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_values as oracle
import validation_reference
from conftest import DEFAULTS, flagged_rows, flags_at, series_dataset
from shipdataprep.model import (
    CalmWaterCurve,
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    ShipType,
)
from shipdataprep.validation import (
    check_longitudinal_wind,
    check_power_identity,
    check_speed_power,
    check_stw,
    detect_angular_fault,
    hindcast_relative_wind_direction,
    shaft_power,
)


class TestPowerIdentity:
    def test_pure_function_oracle(self):
        assert shaft_power(2.0, 1000.0) == pytest.approx(oracle.POWER_IDENTITY_W, abs=1e-9)
        assert shaft_power(2.0, 1000.0) == pytest.approx(12_566.4, abs=0.1)

    def test_zero_case_passes(self):
        ds = series_dataset(
            {"shaft_rpm": [0.0], "shaft_torque": [0.0], "shaft_power": [0.0]}
        )
        out = check_power_identity(ds, DEFAULTS.power_tolerance, report=ProcessingReport())
        assert not flags_at(out, 0)

    def test_third_variable_derived(self):
        # n = 2 rev/s stored as 120 rpm, torque 1000 N*m -> power derived
        ds = series_dataset({"shaft_rpm": [120.0], "shaft_torque": [1000.0]})
        out = check_power_identity(ds, DEFAULTS.power_tolerance, report=ProcessingReport())
        assert out.column("derived_shaft_power")[0] == pytest.approx(
            12_566.4, abs=0.1
        )

    def test_zero_divisor_derives_nothing(self):
        # power with zero rpm, or with zero torque: no torque or rpm derived
        ds = series_dataset({
            "shaft_rpm": [0.0, None],
            "shaft_torque": [None, 0.0],
            "shaft_power": [5_000.0, 5_000.0],
        })
        report = ProcessingReport()
        out = check_power_identity(ds, DEFAULTS.power_tolerance, report=report)
        assert not any(out.declares(f"derived_shaft_{v}") for v in ("rpm", "torque", "power"))
        assert report.stage_entries[0].summary == {"checked": 0, "failed": 0, "derived": 2}

    def test_mismatch_flagged(self):
        ds = series_dataset(
            {"shaft_rpm": [120.0], "shaft_torque": [1000.0], "shaft_power": [20_000.0]}
        )
        report = ProcessingReport()
        out = check_power_identity(ds, rel_tolerance=0.05, report=report)
        assert out.flagged(QualityFlag.INVALID_RANGE)[0]
        assert report.stage_entries[0].summary["failed"] == 1

    def test_within_tolerance_not_flagged(self):
        ds = series_dataset(
            {"shaft_rpm": [120.0], "shaft_torque": [1000.0], "shaft_power": [12_600.0]}
        )
        out = check_power_identity(ds, rel_tolerance=0.02, report=ProcessingReport())
        assert not flags_at(out, 0)

    def test_derivation_is_fixed_point(self):
        ds = series_dataset({"shaft_rpm": [90.0], "shaft_torque": [5_000.0]})
        out = check_power_identity(ds, DEFAULTS.power_tolerance, report=ProcessingReport())
        derived = out.column("derived_shaft_power")[0]
        # feeding the derived power back in passes the identity exactly
        again = series_dataset(
            {"shaft_rpm": [90.0], "shaft_torque": [5_000.0], "shaft_power": [derived]}
        )
        out2 = check_power_identity(again, rel_tolerance=1e-12, report=ProcessingReport())
        assert not flags_at(out2, 0)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_from_finite_inputs_is_flagged_and_left_missing(self):
        # rows 0-2: the derived rpm, power and torque overflow to inf; row 3:
        # the expected power does; row 4 derives its power as usual
        ds = series_dataset({
            "shaft_rpm": [None, 6e307, 1e-310, 6e307, 120.0],
            "shaft_torque": [1e-310, 1e306, None, 1e306, 1000.0],
            "shaft_power": [5_000.0, None, 5e300, 1e300, None],
        })
        report = ProcessingReport()
        out = check_power_identity(ds, DEFAULTS.power_tolerance, report=report)
        (entry,) = report.stage_entries
        t = ds.timestamps.tolist()
        assert [(c.verdict, c.variable, c.timestamp) for c in entry.checks] == [
            ("fail", "shaft_power", t[3]),
            ("overflow", "derived_shaft_power", t[1]),
            ("overflow", "derived_shaft_rpm", t[0]),
            ("overflow", "derived_shaft_torque", t[2]),
        ]
        assert entry.checks[0].expected == float("inf")
        assert flagged_rows(out, QualityFlag.INVALID_RANGE) == [0, 1, 2, 3]
        assert entry.flag_counts == {"invalid_range": 4}
        assert entry.summary == {"checked": 1, "failed": 1, "derived": 4}
        power = out.column("derived_shaft_power")
        assert np.isnan(power[:4]).all() and power[4] == pytest.approx(12_566.4, abs=0.1)
        assert not out.declares("derived_shaft_rpm") and not out.declares("derived_shaft_torque")


def particulars(envelope=None):
    curve = CalmWaterCurve(
        "sea_trial", tuple((v, 800.0 * v**3) for v in (1.0, 2.0, 4.0, 6.0, 8.0))
    )
    return ShipParticulars(
        ship_type=ShipType.CRUDE_OIL_CARRIER,
        beam=46.0,
        design_draft=15.0,
        lwl=270.0,
        block_coefficient=0.8,
        calm_water_curves=(curve,),
        envelope=envelope,
    )


class TestSpeedPower:
    def on_curve_dataset(self, shift=0.0, speeds=None):
        speeds = speeds if speeds is not None else np.linspace(2.0, 7.5, 40)
        power = [800.0 * v**3 * (1.0 + shift) for v in speeds]
        return series_dataset(
            {"stw": list(speeds), "shaft_power": power, "shaft_rpm": [80.0] * len(speeds)}
        )

    def test_on_curve_zero_bias(self):
        report = ProcessingReport()
        check_speed_power(self.on_curve_dataset(), particulars(), report)
        entry = report.stage_entries[0]
        # curve is piecewise linear, cubic samples sit slightly above chords
        assert abs(entry.summary["bias_median"]) < 0.15
        assert entry.summary["compared"] == 40

    @pytest.mark.parametrize("big, bias", [(1e306, -0.06939138752045688),
                                           (-1e306, -0.07690207690207693)])
    def test_huge_finite_power_gives_an_inf_std_without_warning(self, big, bias):
        # the squares of the std overflow to inf, silently
        ds = self.on_curve_dataset().with_values("shaft_power", np.array([5]), [big])
        report = ProcessingReport()
        out = check_speed_power(ds, particulars(), report)
        summary = report.stage_entries[0].summary
        assert summary["compared"] == 40 and summary["bias_median"] == bias
        assert summary["deviation_mean"] == np.copysign(1.1263863216266173e300, big)
        assert summary["deviation_std"] == np.inf
        assert not out.flagged(QualityFlag.INVALID_RANGE).any()

    def test_shifted_power_recovers_bias(self):
        base = ProcessingReport()
        check_speed_power(self.on_curve_dataset(), particulars(), base)
        shifted = ProcessingReport()
        check_speed_power(self.on_curve_dataset(shift=0.10), particulars(), shifted)
        delta = (
            (1.0 + shifted.stage_entries[0].summary["bias_median"])
            / (1.0 + base.stage_entries[0].summary["bias_median"])
        ) - 1.0
        assert delta == pytest.approx(0.10, abs=0.01)

    def test_dense_curve_on_curve_bias_zero_shifted_recovers_exactly(self):
        # with a curve sampled densely enough, chord error vanishes: on-curve
        # bias ~ 0 and a +10% power shift is recovered as bias 0.10 +- 0.01
        speeds = tuple(np.linspace(1.0, 8.0, 200))
        dense = CalmWaterCurve("sea_trial", tuple((v, 800.0 * v**3) for v in speeds))
        p = ShipParticulars(
            ship_type=ShipType.CRUDE_OIL_CARRIER, beam=46.0, design_draft=15.0,
            lwl=270.0, block_coefficient=0.8, calm_water_curves=(dense,),
        )
        on_curve = ProcessingReport()
        check_speed_power(self.on_curve_dataset(), p, on_curve)
        assert on_curve.stage_entries[0].summary["bias_median"] == pytest.approx(
            0.0, abs=1e-3
        )
        shifted = ProcessingReport()
        check_speed_power(self.on_curve_dataset(shift=0.10), p, shifted)
        assert shifted.stage_entries[0].summary["bias_median"] == pytest.approx(
            0.10, abs=0.01
        )

    def test_point_outside_envelope_flagged_once(self):
        env = ((60.0, 0.0), (60.0, 300_000.0), (100.0, 300_000.0), (100.0, 0.0))
        ds = series_dataset(
            {
                "stw": [4.0, 5.0],
                "shaft_power": [51_200.0, 500_000.0],
                "shaft_rpm": [80.0, 85.0],
            }
        )
        report = ProcessingReport()
        out = check_speed_power(ds, particulars(envelope=env), report)
        flagged = flagged_rows(out, QualityFlag.INVALID_RANGE)
        assert flagged == [1]

    def test_outside_curve_span_skipped(self):
        ds = series_dataset(
            {"stw": [0.5, 9.5], "shaft_power": [100.0, 1e6], "shaft_rpm": [80.0, 80.0]}
        )
        report = ProcessingReport()
        check_speed_power(ds, particulars(), report)
        assert report.stage_entries[0].summary["skipped_outside_curve"] == 2

    def test_bias_invariant_under_reordering(self):
        speeds = np.linspace(2.0, 7.5, 31)
        rng = np.random.default_rng(4)
        shuffled = speeds.copy()
        rng.shuffle(shuffled)
        a = ProcessingReport()
        check_speed_power(self.on_curve_dataset(speeds=speeds), particulars(), a)
        b = ProcessingReport()
        check_speed_power(self.on_curve_dataset(speeds=shuffled), particulars(), b)
        assert (
            a.stage_entries[0].summary["bias_median"]
            == b.stage_entries[0].summary["bias_median"]
        )


SPAN_EDGES = (1.0, 8.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(8.0, 9.0)))
ENVELOPE = ((60.0, 0.0), (60.0, 300_000.0), (100.0, 300_000.0), (100.0, 0.0))


def assert_speed_power_matches_reference(ds, parts):
    got, want = ProcessingReport(), ProcessingReport()
    out = check_speed_power(ds, parts, got)
    ref = validation_reference.check_speed_power(ds, parts, want)
    assert flagged_rows(out, QualityFlag.INVALID_RANGE) == flagged_rows(
        ref, QualityFlag.INVALID_RANGE
    )
    (g,), (w,) = got.stage_entries, want.stage_entries
    assert g.checks == w.checks
    assert g.flag_counts == w.flag_counts
    # repr: bit-equal floats, and the types of the counts
    assert repr(sorted(g.summary.items())) == repr(sorted(w.summary.items()))


class TestSpeedPowerReference:
    """The array check against the row loop it replaced, which looks the
    curve up one row at a time through ``power_at``."""

    def test_span_ends_and_just_outside(self):
        speeds = list(SPAN_EDGES) + [4.0, 0.5, 9.0, None, 4.0]
        ds = series_dataset({
            "stw": speeds,
            "shaft_power": [800.0, 409_600.0, 1.0, 2.0, 400_000.0, 5.0, 6.0, 7.0, None],
            "shaft_rpm": [70.0, 80.0, 80.0, None, 90.0, 80.0, 80.0, 80.0, 80.0],
        })
        assert_speed_power_matches_reference(ds, particulars(envelope=ENVELOPE))
        report = ProcessingReport()
        check_speed_power(ds, particulars(envelope=ENVELOPE), report)
        summary = report.stage_entries[0].summary
        assert (summary["compared"], summary["skipped_outside_curve"]) == (3, 4)
        assert summary["flagged_outside_envelope"] == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(SPAN_EDGES + (float("nan"),)),
                          st.floats(0.0, 9.5)),
                st.one_of(st.just(float("nan")), st.floats(-1e5, 6e5)),
                st.one_of(st.just(float("nan")), st.floats(40.0, 120.0)),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        ),
        st.booleans(),
    )
    def test_matches_row_loop(self, rows, with_envelope):
        stw, pwr, rpm, in_trip = zip(*rows)
        ds = series_dataset({"stw": list(stw), "shaft_power": list(pwr), "shaft_rpm": list(rpm)})
        ds = ds.with_trip_ids([1 if t else None for t in in_trip])
        parts = particulars(envelope=ENVELOPE if with_envelope else None)
        assert_speed_power_matches_reference(ds, parts)


class TestStwCheck:
    def test_zero_current_zero_residual(self):
        ds = series_dataset({"stw": [5.0], "stw_estimate": [5.0]})
        report = ProcessingReport()
        check_stw(ds, 0.5, report)
        assert report.stage_entries[0].summary["residual_mean"] == 0.0

    def test_following_current_residual_zero(self):
        # sog 6, following current 1 -> estimate 5 matches measured stw 5
        ds = series_dataset({"stw": [5.0], "stw_estimate": [6.0 - 1.0]})
        report = ProcessingReport()
        check_stw(ds, 0.5, report)
        assert report.stage_entries[0].summary["residual_mean"] == 0.0

    def test_ground_tracking_fault_reported_not_flagged(self):
        # speed log stuck in ground-tracking mode: stw == sog despite a
        # steady 1 m/s current -> residuals identically 1
        n = 20
        ds = series_dataset(
            {"stw": [6.0] * n, "stw_estimate": [5.0] * n}
        )
        report = ProcessingReport()
        check_stw(ds, 0.5, report)
        entry = report.stage_entries[0]
        assert entry.summary["residual_mean"] == pytest.approx(1.0)
        assert entry.summary["beyond_tolerance"] == n
        # report-only: no flags appear on the dataset
        assert not ds.flagged(*QualityFlag).any()

    def test_overflowed_residual_is_suspect(self):
        # both inputs present: compared; the residuals of rows 1 and 2
        # overflow to +inf and -inf, so their mean is NaN, without a warning
        big = np.finfo(float).max
        ds = series_dataset({"stw": [5.0, big, -big, None], "stw_estimate": [5.0, -big, big, 5.0]})
        report = ProcessingReport()
        check_stw(ds, 0.5, report)
        entry = report.stage_entries[0]
        assert entry.summary["compared"] == 3
        assert entry.summary["beyond_tolerance"] == 2
        assert np.isnan(entry.summary["residual_mean"])
        assert entry.summary["residual_max_abs"] == np.inf
        assert [(c.verdict, c.timestamp) for c in entry.checks] == [
            ("suspect", t) for t in ds.timestamps[1:3].tolist()
        ]


def wind_check_dataset(n=30, faulted=()):
    """Head-wind scenario: heading 0, true wind from north 8 m/s, sog 5.
    Onboard relative wind: speed 13, direction 0 (head). Faulted samples
    record direction 180 instead (the 0/360 averaging fault)."""
    heading = [0.0] * n
    sog = [5.0] * n
    wind_u = [0.0] * n
    wind_v = [-8.0] * n
    rel_speed = [13.0] * n
    rel_dir = [180.0 if i in faulted else 0.0 for i in range(n)]
    return series_dataset(
        {
            "heading": heading,
            "sog": sog,
            "hc_wind_u": wind_u,
            "hc_wind_v": wind_v,
            "rel_wind_speed": rel_speed,
            "rel_wind_dir": rel_dir,
        }
    )


class TestLongitudinalWind:
    def run(self, ds, report):
        from shipdataprep.features import resolve_ship_frame

        ds = resolve_ship_frame(ds, report=ProcessingReport())
        return ds, check_longitudinal_wind(ds, tolerance=4.0, report=report, use_fixed=True)

    def test_consistent_fixture_zero_residual(self):
        report = ProcessingReport()
        ds, result = self.run(wind_check_dataset(), report)
        assert result["compared"] == 30
        assert result["beyond_tolerance"] == 0
        assert report.stage_entries[-1].summary["residual_mean"] == pytest.approx(
            0.0, abs=1e-9
        )

    def test_faulted_directions_produce_residual_cluster_and_cross_reference(self):
        ds = wind_check_dataset(faulted=range(10, 20))
        from shipdataprep.features import resolve_ship_frame

        ds = resolve_ship_frame(ds, report=ProcessingReport())
        # detector first: it flags the angular fault and writes fixed_ values
        ds = detect_angular_fault(ds, "rel_wind_dir", hindcast_relative_wind_direction(ds), report=ProcessingReport())
        report = ProcessingReport()
        result = check_longitudinal_wind(ds, tolerance=4.0, report=report, use_fixed=False)
        assert result["beyond_tolerance"] == 10
        assert result["cross_referenced"] == 10

    def test_fixed_values_clear_the_residuals(self):
        ds = wind_check_dataset(faulted=range(10, 20))
        from shipdataprep.features import resolve_ship_frame

        ds = resolve_ship_frame(ds, report=ProcessingReport())
        ds = detect_angular_fault(ds, "rel_wind_dir", hindcast_relative_wind_direction(ds), report=ProcessingReport())
        result = check_longitudinal_wind(ds, tolerance=4.0, use_fixed=True, report=ProcessingReport())
        assert result["beyond_tolerance"] == 0

    def test_overflowed_residual_is_a_mismatch(self):
        # the ship side overflows to -inf; against a finite hindcast side the
        # residual is -inf, against a hindcast side of -inf it is NaN
        big = np.finfo(float).max
        ds = series_dataset({
            "sog": [5.0, big, big],
            "rel_wind_speed": [5.0, big, big],
            "rel_wind_dir": [0.0, 180.0, 180.0],
            "rel_wind_long": [5.0, 0.0, -big],
        })
        report = ProcessingReport()
        result = check_longitudinal_wind(ds, tolerance=4.0, report=report, use_fixed=True)
        assert result == {"compared": 3, "beyond_tolerance": 2, "cross_referenced": 0}
        (entry,) = report.stage_entries
        assert [(c.verdict, c.timestamp, c.observed) for c in entry.checks] == [
            ("mismatch", t, -np.inf) for t in ds.timestamps[1:].tolist()
        ]
        assert np.isnan(entry.summary["residual_mean"])

    def test_missing_hindcast_wind_skips(self):
        ds = series_dataset({"sog": [5.0], "rel_wind_speed": [10.0]})
        result = check_longitudinal_wind(ds, DEFAULTS.wind_tolerance, use_fixed=True, report=ProcessingReport())
        assert result["compared"] == 0


class TestAngularFaultDetector:
    def build(self, recorded, reference):
        ds = series_dataset({"rel_wind_dir": recorded})
        ref = np.asarray(reference, dtype=float)
        return ds, ref

    def test_fault_near_wrap_flagged_and_fixed(self):
        ds, ref = self.build([180.0], [2.0])
        out = detect_angular_fault(ds, "rel_wind_dir", reference=ref, report=ProcessingReport())
        assert out.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT)[0]
        assert out.column("fixed_rel_wind_dir")[0] == pytest.approx(2.0)

    def test_agreement_not_flagged(self):
        ds, ref = self.build([90.0], [88.0])
        out = detect_angular_fault(ds, "rel_wind_dir", reference=ref, report=ProcessingReport())
        assert not flags_at(out, 0)

    def test_reference_away_from_wrap_not_flagged(self):
        ds, ref = self.build([180.0], [175.0])
        out = detect_angular_fault(ds, "rel_wind_dir", reference=ref, report=ProcessingReport())
        assert not flags_at(out, 0)

    def test_no_reference_skips_with_note(self):
        ds = series_dataset({"rel_wind_dir": [10.0]})
        report = ProcessingReport()
        out = detect_angular_fault(ds, "rel_wind_dir", [np.nan], report=report)
        assert out is not ds or True  # unchanged dataset is fine
        assert any("skipped" in n for n in report.stage_entries[0].notes)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.0, max_value=359.999))
    def test_never_fires_when_recorded_equals_reference(self, theta):
        ds, ref = self.build([theta], [theta])
        out = detect_angular_fault(ds, "rel_wind_dir", reference=ref, report=ProcessingReport())
        assert not flags_at(out, 0)

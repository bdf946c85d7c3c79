"""End-to-end pipeline and CLI behaviour: stage wiring, the error loop,
skip contracts, artifacts and exit codes."""

import codecs
import csv
import json
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import DEFAULTS, VoyageBuilder, expand_runs, load_generate
from shipdataprep import pipeline as pl
from shipdataprep.cli import main
from shipdataprep.ingest import PIPELINE_STAGES, load_config, load_ship_csv
from shipdataprep.model import ProcessingReport, QualityFlag, parse_iso_timestamp
from shipdataprep.pipeline import emit_plotdata, run_pipeline, write_processed_csv


def edited(path, old, new):
    """``path`` with its one ``old`` text replaced by ``new``."""
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return path


def appended(path, text):
    """``path`` with ``text`` added at its end, as UTF-8 or, given bytes, as they are."""
    with path.open("ab") as fh:
        fh.write(text if isinstance(text, bytes) else text.encode())
    return path


def hydro_table(paths, rows):
    table = paths["config"].with_name("hydro.csv")
    table.write_text("draft_m,trim_m,displacement_m3,wsa_m2\n" + rows)
    appended(paths["config"], "hydro_table = hydro.csv\n")
    return table


def grid_with_falling_lat_axis(paths):
    lines = paths["hindcast"].read_text().splitlines()
    (i,) = [i for i, line in enumerate(lines) if line.startswith("#lat ")]
    lines[i] = "#lat " + ",".join(reversed(lines[i][len("#lat "):].split(",")))
    paths["hindcast"].write_text("\n".join(lines) + "\n")
    return paths["hindcast"]


def grid_with_infinite_lon_node(paths):
    # the axis still ascends, so only the number rule refuses it
    return edited(paths["hindcast"], "#lon -4.0,", "#lon -inf,")


def ship_csv_without_stamps(paths):
    header, *rows = paths["ship_csv"].read_text().splitlines()
    rows = ["2021-02-30T00:00:00Z," + row.split(",", 1)[1] for row in rows]
    paths["ship_csv"].write_text("\n".join([header, *rows]) + "\n")
    return paths["ship_csv"]


def ship_csv_with_huge_cell(paths):
    header, first, *rest = paths["ship_csv"].read_text().splitlines()
    first = first.rsplit(",", 1)[0] + "," + "x" * (csv.field_size_limit() + 1)
    paths["ship_csv"].write_text("\n".join([header, first, *rest]) + "\n")
    return paths["ship_csv"]


# input files that cannot be used at all: each is a fatal error naming the
# file, and the message shows that the case met its own refusal, not an
# earlier one
BAD_INPUTS = {
    "config_number": (lambda p: edited(p["config"], "interval = 900", "interval = abc"),
                      "'abc' is not a number"),
    "voyage_kind": (lambda p: appended(p["config"], "voyage_kind = bogus\n"),
                    "unknown voyage kind 'bogus'"),
    "mask_policy": (lambda p: appended(p["config"], "mask_policy = bogus\n"),
                    "unknown mask policy 'bogus'"),
    "trip_method": (lambda p: edited(p["config"], "trip_method = thresholds", "trip_method = bogus"),
                    "unknown trip method 'bogus'"),
    "particulars_number": (lambda p: edited(p["particulars"], "beam = 46", "beam = forty"),
                           "beam: 'forty' is not a number"),
    "particulars_non_finite": (lambda p: edited(p["particulars"], "beam = 46", "beam = nan"),
                               "beam: 'nan' is not a finite number"),
    "config_non_finite": (lambda p: appended(p["config"], "power_tolerance = nan\n"),
                          "power_tolerance must be finite"),
    "config_negative_threshold": (lambda p: appended(p["config"], "rpm_threshold = -5\n"),
                                  "rpm_threshold must be finite and not negative"),
    "hydro_table_repeated_pair": (lambda p: hydro_table(
        p, "5,0,40000,9000\n5,0,40000,9000\n5,1,41000,9100\n6,0,50000,9500\n"
    ), "repeats the (draft, trim) pair"),
    "hydro_table_cell": (lambda p: hydro_table(p, "8,0,60000,10000\n12,0,95000,x\n"),
                         "wsa_m2: 'x' is not a number"),
    "hydro_table_nan_draft": (lambda p: hydro_table(p, "nan,0,60000,10000\n"),
                              "draft_m: 'nan' is not a finite number"),
    "hydro_table_inf_displacement": (
        lambda p: hydro_table(p, "8,0,inf,10000\n12,0,95000,13000\n"),
        "displacement_m3: 'inf' is not a finite number"),
    "hydro_table_nan_wsa": (lambda p: hydro_table(p, "8,0,60000,10000\n12,0,95000,nan\n"),
                            "wsa_m2: 'nan' is not a finite number"),
    "hydro_table_without_rows": (lambda p: hydro_table(p, ""), "got 0 rows"),
    "coefficient_cell": (lambda p: edited(p["res_wind"], "90,0.3", "90,zero"),
                         "'zero' is not a number"),
    "coefficient_without_area": (lambda p: edited(p["res_wind"], "#area 1100\n", ""),
                                 "needs #area and #kind header lines"),
    "coefficient_without_kind": (lambda p: edited(p["res_wind"], "#kind wind\n", ""),
                                 "needs #area and #kind header lines"),
    "csv_cell_too_long": (ship_csv_with_huge_cell, "field larger than field limit"),
    "csv_without_parseable_timestamp": (ship_csv_without_stamps,
                                        "no row with a parseable timestamp"),
    "grid_falling_axis": (grid_with_falling_lat_axis, "lat axis must be strictly ascending"),
    "source_kind": (lambda p: appended(p["config"], "source_kind = bogus\n"),
                    "unknown source kind 'bogus'"),
    "unit": (lambda p: appended(p["config"], "unit.sog = furlongs\n"),
             "'furlongs' is not a known unit"),
    "falling_curve": (lambda p: appended(p["particulars"], "curve.ballast = 4:900, 2:400\n"),
                      "curve 'ballast' speeds must be strictly increasing"),
    "particulars_threshold": (lambda p: appended(p["particulars"], "rpm_threshold = 5\n"),
                              "unknown particulars key 'rpm_threshold'"),
    "curve_nan_speed": (lambda p: edited(p["particulars"], "1.0:800.0", "nan:800.0"),
                        "curve.sea_trial: 'nan' is not a finite number"),
    "envelope_nan_vertex": (
        lambda p: appended(p["particulars"], "envelope = 0:0, nan:1e7, 120:2e7\n"),
        "envelope: 'nan' is not a finite number"),
    "coefficient_area_nan": (lambda p: edited(p["res_wind"], "#area 1100", "#area nan"),
                             ":2: 'nan' is not a finite number"),
    "coefficient_area_inf": (lambda p: edited(p["res_wind"], "#area 1100", "#area inf"),
                             ":2: 'inf' is not a finite number"),
    "coefficient_nan_angle": (lambda p: edited(p["res_wind"], "90,0.3", "nan,0.3"),
                              "'nan' is not a finite number"),
    "coefficient_nan_value": (lambda p: edited(p["res_wind"], "90,0.3", "90,nan"),
                              "'nan' is not a finite number"),
    "grid_infinite_axis_node": (grid_with_infinite_lon_node, "'-inf' is not a finite number"),
    "config_repeated_key": (lambda p: appended(p["config"], "sampling_interval = 1800\n"),
                            "key 'sampling_interval' repeats line 4"),
    "config_latin1_value": (lambda p: appended(p["config"], b"mask_policy = zero_fill\xb0\n"),
                            "unknown mask policy 'zero_fill\ufffd'"),
}


def run(paths, **overrides):
    config = load_config(paths["config"])
    if overrides:
        config = replace(config, **overrides)
    return run_pipeline(config)


class TestFullVoyage:
    def test_all_stages_run_exit_zero(self, tmp_path):
        paths = VoyageBuilder(tmp_path, resistance=True).build()
        result = run(paths)
        assert result.exit_code == 0
        assert not result.stage_failures
        assert list(result.dataset.trips()) == [1, 2, 3]
        names = {s.name for s in result.dataset.schema}
        assert {"hc_wind_u", "gps_heading", "rel_wind_long", "stw_estimate",
                "raw_draft_fore", "displacement", "wsa", "res_wind_coefficients"} <= names
        stages_seen = {e.stage for e in result.report.stage_entries}
        assert "regularize" in stages_seen and "clean:pca" in stages_seen

    def test_row_bookkeeping_with_gaps(self, tmp_path):
        # dropping input rows forces the regularizer to insert empties:
        # output rows = input rows + inserted
        paths = VoyageBuilder(tmp_path, drop_rows=(17, 18, 53)).build()
        result = run(paths)
        n_input = len(paths["ship_csv"].read_text().strip().splitlines()) - 1
        inserted = int(result.dataset.flagged(QualityFlag.MISSING_INSERTED).sum())
        assert inserted == 3
        assert len(result.dataset) == n_input + inserted

    def test_report_covers_every_flagged_sample(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        assert result.report.covers(result.dataset)

    def test_error_loop_converges_on_angular_fault(self, tmp_path):
        paths = VoyageBuilder(
            tmp_path, wind="head_east", wind_dir_fault=True
        ).build()
        result = run(paths)
        assert result.exit_code == 0
        faults = int(result.dataset.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
        assert faults > 0
        assert result.dataset.has_data("fixed_rel_wind_dir")
        loop = [e for e in result.report.stage_entries if e.stage == "error_loop"][-1]
        assert loop.summary["iterations"] == 2
        # second-pass wind check with the fixed directions is clean
        wind_entries = [
            e for e in result.report.stage_entries
            if e.stage == "check:longitudinal_wind"
        ]
        assert wind_entries[-1].summary["beyond_tolerance"] == 0
        assert wind_entries[0].summary["cross_referenced"] > 0

    def test_converged_error_loop_ignores_its_bound(self, tmp_path):
        # the loop stops after its second iteration, so a bound of 3 writes
        # the bytes of a bound of 2
        paths = VoyageBuilder(
            tmp_path, wind="head_east", wind_dir_fault=True, resistance=True
        ).build()
        written = []
        for bound in (2, 3):
            config = paths["config"].with_name(f"config_{bound}.txt")
            config.write_text(paths["config"].read_text() + f"max_iterations = {bound}\n")
            out = tmp_path / f"out_{bound}"
            assert main(["run", "--config", str(config), "--out", str(out),
                         "--no-timestamp-header"]) == 0
            written.append([(out / name).read_bytes() for name in ("processed.csv", "report.json")])
        assert written[0] == written[1]
        (loop,) = [e for e in json.loads(written[0][1])["stages"] if e["stage"] == "error_loop"]
        assert loop["summary"]["iterations"] == 2

    def test_flag_counts_match_dataset_pairs(self, tmp_path):
        # each (sample, flag) pair is counted once, although the second
        # error-loop iteration flags the same angular faults again
        paths = VoyageBuilder(
            tmp_path, wind="head_east", wind_dir_fault=True
        ).build()
        result = run(paths)
        counted: dict[str, int] = {}
        for entry in result.report.stage_entries:
            for flag, n in entry.flag_counts.items():
                counted[flag] = counted.get(flag, 0) + n
        pairs: dict[str, int] = {}
        for flag in QualityFlag:
            n = int(result.dataset.flagged(flag).sum())
            if n:
                pairs[flag.value] = n
        assert counted == pairs
        assert counted["angular_averaging_fault"] == 120

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_derived_rpm_is_a_flag_not_a_stage_failure(self, tmp_path):
        # an in-trip row of 5000 W at 1e-310 N m without rpm: the rpm overflows
        paths = VoyageBuilder(tmp_path).build()
        for name, value in (("shaft_rpm", np.nan), ("shaft_torque", 1e-310),
                            ("shaft_power", 5_000.0)):
            with_cells(paths, name, {20: value})
        result = run(paths)
        assert result.exit_code == 0 and result.stage_failures == []
        (entry,) = [e for e in result.report.stage_entries if e.stage == "check:power_identity"]
        stamp = int(result.dataset.timestamps[20])
        assert [(c.verdict, c.variable, c.timestamp) for c in entry.checks] == [
            ("overflow", "derived_shaft_rpm", stamp),
        ]
        assert result.dataset.flagged(QualityFlag.INVALID_RANGE)[20]
        assert "check:longitudinal_wind" in [e.stage for e in result.report.stage_entries]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_resistance_is_a_flag_not_a_stage_failure(self, tmp_path):
        # an absurd reference area: two in-trip rows of the top valid wind
        # speed (90 m/s) overflow, the voyage's own speeds do not
        paths = with_cells(VoyageBuilder(tmp_path, resistance=True).build(),
                           "rel_wind_speed", {20: 90.0, 21: 90.0})
        edited(paths["res_wind"], "#area 1100", "#area 1e305")
        result = run(paths)
        assert result.exit_code == 0 and result.stage_failures == []
        (entry,) = [e for e in result.report.stage_entries if e.stage == "resistance"]
        stamps = result.dataset.timestamps[[20, 21]].tolist()
        assert [(c.verdict, c.variable, c.timestamp) for c in entry.checks] == [
            ("overflow", "res_wind_coefficients", t) for t in stamps
        ]
        assert entry.flag_counts == {"invalid_range": 2}
        res = result.dataset.column("res_wind_coefficients")
        assert np.isnan(res[[20, 21]]).all() and np.isfinite(res[22])
        assert result.dataset.flagged(QualityFlag.INVALID_RANGE)[[20, 21]].all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("where", ["every_column", "hindcast_wind"])
    def test_dbl_max_cells_run_to_exit_zero(self, tmp_path, where):
        # DBL_MAX in every ship cell of three rows, or in every hindcast
        # wind_u node, which has no valid range: there the hindcast wind side,
        # the residuals and their mean overflow; the plot writer takes the
        # sides from the wind check's function, not its own arithmetic
        big = np.finfo(float).max
        if where == "every_column":
            paths = extreme_voyage(tmp_path, big)
        else:
            paths = with_grid_values(VoyageBuilder(
                tmp_path, n_trips=2, trip_len=40, wind_dir_fault=True, resistance=True,
            ).build(), "wind_u", -big)
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out),
                     "--no-timestamp-header"]) == 0
        assert (out / "wind_comparison.csv").exists()
        # the report is strict JSON: a non-finite number is the text "inf", "-inf" or "nan"
        text = (out / "report.json").read_text()
        stages = json.loads(text, parse_constant=non_json_constant)["stages"]
        # an out-of-range rpm or sog at berth (row 55) starts no trip
        result = run(paths)
        assert len(result.dataset.trips()) == 2
        if where == "hindcast_wind":  # each error-loop iteration checks the wind
            entries = [e for e in result.report.stage_entries
                       if e.stage == "check:longitudinal_wind"]
            assert [e.summary["residual_mean"] for e in entries] == [-np.inf] * len(entries)
            written = [s for s in stages if s["stage"] == "check:longitudinal_wind"]
            assert [s["summary"]["residual_mean"] for s in written] == ["-inf"] * len(entries)
            stamps = {c.timestamp for c in entries[0].checks if c.verdict.startswith("mismatch")}
            assert set(result.dataset.timestamps[[12, 30]].tolist()) <= stamps

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_draft_never_anchors_a_correction(self, tmp_path):
        # a -1e306 berth draft is flagged invalid_range, so it must not enter
        # the anchor means, whose ramp would overflow
        paths = extreme_voyage(tmp_path, -1e306)
        assert main(["run", "--config", str(paths["config"]),
                     "--out", str(tmp_path / "out")]) == 0
        result = run(paths)
        corrected = result.dataset.flagged(QualityFlag.DRAFT_CORRECTED)
        assert corrected.any()
        for sensor in ("draft_fore", "draft_aft"):
            drafts = result.dataset.column(sensor)[corrected]
            assert np.isfinite(drafts).all()
            assert not result.dataset.spec(sensor).outside(drafts).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_grid_cells_are_masked(self, tmp_path, token):
        # one lon of every line of the first grid variable holds the token
        paths = VoyageBuilder(tmp_path).build()
        lines = paths["hindcast"].read_text().splitlines()
        body = [i for i, line in enumerate(lines) if not line.startswith("#")]
        n = len(body) // 6  # the lines of wind_u, the first of six variables
        for i in body[:n]:
            cells = lines[i].split(",")
            cells[3] = token
            lines[i] = ",".join(cells)
        paths["hindcast"].write_text("\n".join(lines) + "\n")
        result = run(paths)
        assert result.exit_code == 0 and result.stage_failures == []
        (entry,) = [e for e in result.report.stage_entries if e.stage == "ingest:hindcast"]
        assert entry.notes == [f"variable wind_u: {n} non-finite cell(s) -> masked"]
        # only finite values are interpolated, and counted
        hc = [s.name for s in result.dataset.schema if s.name.startswith("hc_")]
        interpolated = sum(int(np.isfinite(result.dataset.column(name)).sum()) for name in hc)
        (interp,) = [e for e in result.report.stage_entries if e.stage == "interpolate"]
        assert interp.summary["samples_interpolated"] == interpolated
        assert not np.isinf(result.dataset.column("hc_wind_u")).any()

    def test_no_fault_voyage_single_iteration(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        loop = [e for e in result.report.stage_entries if e.stage == "error_loop"][-1]
        assert loop.summary["iterations"] == 1


def with_cells(paths, column, cells):
    """The voyage with the ``column`` cells of the data rows ``cells`` names
    replaced by the given values."""
    header, *rows = paths["ship_csv"].read_text().splitlines()
    j = header.split(",").index(column)
    for i, value in cells.items():
        row = rows[i].split(",")
        row[j] = repr(float(value))
        rows[i] = ",".join(row)
    paths["ship_csv"].write_text("\n".join([header, *rows]) + "\n")
    return paths


def non_json_constant(name):
    raise ValueError(f"{name} is not JSON")


def extreme_voyage(root, value):
    """A two-trip voyage with the angular wind fault and a resistance table,
    with ``value`` in data rows 12, 30 (in trip 1) and 55 (at berth) of every
    numeric column."""
    paths = VoyageBuilder(root, n_trips=2, trip_len=40, wind_dir_fault=True,
                          resistance=True).build()
    header = paths["ship_csv"].read_text().split("\n", 1)[0].split(",")
    for name in [n for n in header if n not in ("timestamp", "state")]:
        with_cells(paths, name, dict.fromkeys((12, 30, 55), value))
    return paths


def with_grid_values(paths, variable, value):
    """The voyage with every node of one hindcast variable set to ``value``."""
    lines = paths["hindcast"].read_text().splitlines()
    names = [line.split()[1] for line in lines if line.startswith("#var ")]
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    n = len(body) // len(names)  # the lines of one variable
    for i in body[names.index(variable) * n:(names.index(variable) + 1) * n]:
        lines[i] = ",".join([repr(float(value))] * len(lines[i].split(",")))
    paths["hindcast"].write_text("\n".join(lines) + "\n")
    return paths


def contextual_checks(result):
    (entry,) = [e for e in result.report.stage_entries if e.stage == "clean:contextual"]
    return entry.checks


def with_port_column(paths):
    """The ship CSV with a ``port`` column: the rows of each berth leg after
    the first carry the leg's own label, the other rows none, so a trip
    joins the leg before it and the rows before the first label are in no
    trip."""
    header, *rows = paths["ship_csv"].read_text().splitlines()
    labels, leg, was_at_berth = [], -1, False
    for row in rows:
        at_berth = row.endswith(",At Berth")
        leg += at_berth and not was_at_berth
        was_at_berth = at_berth
        labels.append(f"P{leg}" if at_berth and leg else "")
    lines = [header + ",port"] + [f"{r},{p}" for r, p in zip(rows, labels)]
    paths["ship_csv"].write_text("\n".join(lines) + "\n")
    return paths


class TestTripsEntry:
    """The ``trips`` report entry of each segmentation method: 3 trips
    between 4 berth legs for the thresholds and the state variable, and one
    trip per port label for port names, which count no berth legs, not even
    the rows before the first label."""

    @pytest.mark.parametrize("method, trips, berth_legs", [
        ("thresholds", 3, 4),
        ("state_variable", 3, 4),
        ("port_names", 3, 0),
    ])
    def test_method_trips_and_berth_legs(self, tmp_path, method, trips, berth_legs):
        paths = with_port_column(VoyageBuilder(tmp_path).build())
        result = run(paths, trip_method=method)
        assert result.exit_code == 0
        entry = [e for e in result.report.stage_entries if e.stage == "trips"]
        assert len(entry) == 1
        assert list(entry[0].summary.items()) == [
            ("method", method), ("trips", trips), ("berth_legs", berth_legs),
        ]
        assert entry[0].notes == []
        assert int(result.dataset.trip_ids.max()) == trips


class TestContextualScope:
    """The contextual rules read the measured columns, as logged and
    regularized: a sensor fault is reported under the sensor only."""

    STUCK = range(20, 45)  # in-trip rows of trip 1 (rows 10-49)

    def stuck_drafts(self, tmp_path):
        # both drafts drift through trip 1 and freeze for 25 rows
        paths = VoyageBuilder(tmp_path, resistance=True).build()
        for name, base in (("draft_fore", 8.5), ("draft_aft", 8.9)):
            drift = {i: base + 0.002 * i for i in range(10, 50)}
            drift.update({i: drift[self.STUCK[0]] for i in self.STUCK})
            with_cells(paths, name, drift)
        return paths

    def test_checks_name_ingested_variables(self, tmp_path):
        paths = with_cells(self.stuck_drafts(tmp_path), "shaft_rpm", {70: 0.0})
        result = run(paths)
        ingested = load_ship_csv(
            paths["ship_csv"], unit_map=DEFAULTS.unit_map, source_kind=DEFAULTS.source_kind, report=ProcessingReport()
        )
        ingested = {s.name for s in ingested.schema}
        checks = contextual_checks(result)
        assert {(c.verdict, c.variable) for c in checks} >= {
            ("repeated_value", "draft_fore"), ("repeated_value", "draft_aft"),
            ("dropout", "shaft_rpm"),
        }
        assert {c.variable for c in checks} <= ingested
        assert all(result.dataset.declares(n) for n in ("mean_draft", "res_wind_coefficients"))

    def test_stuck_draft_sensor_is_reported_under_the_sensor_only(self, tmp_path):
        result = run(self.stuck_drafts(tmp_path))
        stamps = result.dataset.timestamps
        stuck = {int(stamps[i]) for i in self.STUCK}
        checks = contextual_checks(result)
        # each stuck sensor is one run row, which spans the stuck rows
        runs = sorted((c.variable, c.samples) for c in checks if c.verdict == "repeated_value")
        assert runs == [("draft_aft", len(self.STUCK)), ("draft_fore", len(self.STUCK))]
        repeated = {}
        for c in expand_runs(checks, stamps):
            repeated.setdefault(c.variable, set()).add((c.verdict, c.timestamp))
        assert repeated.pop("draft_fore") == {("repeated_value", t) for t in stuck}
        assert repeated.pop("draft_aft") == {("repeated_value", t) for t in stuck}
        derived = {"mean_draft", "displacement", "wsa", "trim",
                   "raw_draft_fore", "raw_draft_aft"}
        assert all(result.dataset.declares(name) for name in derived)
        assert not derived & set(repeated)
        flagged = result.dataset.flagged(QualityFlag.REPEATED_VALUE)
        assert {int(t) for t in stamps[flagged]} == stuck

    def test_ais_sog_jump_is_a_spike_of_sog(self, tmp_path):
        paths = with_cells(VoyageBuilder(tmp_path).build(), "sog", {30: 12.0})
        result = run(paths, source_kind="ais")
        at = 30  # one message per 900-s bin: the rows keep their order
        stamp = int(result.dataset.timestamps[at])
        assert result.dataset.flagged(QualityFlag.IRRATIONAL_SPEED)[at]
        assert result.dataset.column("sog")[at] != 12.0  # replaced in place
        spikes = [(c.variable, c.timestamp, c.observed) for c in contextual_checks(result)
                  if c.verdict == "spike"]
        assert ("sog", stamp, 12.0) in spikes
        assert result.dataset.flagged(QualityFlag.SPIKE)[at]

    def test_constant_hindcast_field_sets_no_repeated_value(self, tmp_path):
        # the golden voyage: hc_sig_wave_height is 1.5 everywhere in the grid
        paths = VoyageBuilder(tmp_path, wind="head_east", wind_dir_fault=True,
                              resistance=True, drop_rows=(53,)).build()
        result = run(paths)
        assert result.dataset.has_data("hc_sig_wave_height")
        assert not any(c.variable.startswith("hc_") for c in contextual_checks(result))
        assert not result.dataset.flagged(QualityFlag.REPEATED_VALUE).any()


class TestWholePipelineInvariants:
    """Properties of the whole run on the fault voyage (head-east wind, the
    wind-direction fault, a wind resistance table) with both drafts stuck
    for 25 rows and one shaft rpm dropout, so that the contextual runs are
    in the report."""

    def voyage(self, tmp_path):
        (tmp_path / "in").mkdir()
        paths = VoyageBuilder(tmp_path / "in", wind="head_east", wind_dir_fault=True,
                              resistance=True).build()
        for name, base in (("draft_fore", 8.5), ("draft_aft", 8.9)):
            drift = {i: base + 0.002 * i for i in range(10, 50)}
            drift.update({i: drift[20] for i in range(20, 45)})
            with_cells(paths, name, drift)
        return with_cells(paths, "shaft_rpm", {70: 0.0})

    def outputs(self, paths, out):
        code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                     "--no-timestamp-header"])
        assert code == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def rewrite_body(self, paths, change):
        header, *rows = paths["ship_csv"].read_text().splitlines()
        paths["ship_csv"].write_text("\n".join([header, *change(rows)]) + "\n")

    def test_shuffled_csv_body_gives_identical_outputs(self, tmp_path):
        paths = self.voyage(tmp_path)
        want = self.outputs(paths, tmp_path / "in_order")
        checks = json.loads(want["report.json"])["stages"]
        verdicts = {c["verdict"] for e in checks if e["stage"] == "clean:contextual"
                    for c in e["checks"]}
        assert {"repeated_value", "dropout"} <= verdicts
        self.rewrite_body(paths, lambda rows: random.Random(3).sample(rows, len(rows)))
        assert self.outputs(paths, tmp_path / "shuffled") == want

    def test_exact_duplicate_row_changes_only_the_ingest_entry_and_its_flag(self, tmp_path):
        # the kept row of a repeated stamp is flagged dropout by ingest, with
        # one check naming the dropped line and its summary count; nothing else moves
        paths = self.voyage(tmp_path)
        want = self.outputs(paths, tmp_path / "once")
        self.rewrite_body(paths, lambda rows: rows[:31] + rows[30:])
        got = self.outputs(paths, tmp_path / "twice")
        assert sorted(got) == sorted(want)
        assert [k for k in want if got[k] != want[k]] == [
            "processed.csv", "report.json", "report.txt",
        ]
        header, *rows = want["processed.csv"].decode().splitlines()
        flag = header.split(",").index("flag_dropout")
        got_rows = got["processed.csv"].decode().splitlines()[1:]
        assert [k for k, (g, w) in enumerate(zip(got_rows, rows)) if g != w] == [30]
        assert (rows[30].split(",")[flag], got_rows[30].split(",")[flag]) == ("0", "1")
        assert got_rows[30].split(",")[:flag] == rows[30].split(",")[:flag]
        got_stages = json.loads(got["report.json"])["stages"]
        want_stages = json.loads(want["report.json"])["stages"]
        assert [e["stage"] for e in got_stages] == [e["stage"] for e in want_stages]
        changed = [(g, w) for g, w in zip(got_stages, want_stages) if g != w]
        assert [g["stage"] for g, _ in changed] == ["ingest:ship_csv"]
        ((g, w),) = changed
        assert g["flag_counts"] == {**w["flag_counts"], "dropout": 1}
        assert g["summary"] == {**w["summary"], "rows_dropped_duplicate_timestamp": 1}
        stamp = rows[30].split(",")[0]
        assert g["checks"] == w["checks"] + [{
            "expected": None, "observed": 33, "timestamp": stamp, "variable": "timestamp",
            "verdict": "dropout",
        }]
        assert (g["notes"], g["corrections"]) == (w["notes"], w["corrections"])


class TestAisSource:
    def test_sporadic_ais_resampled_then_regularized(self, tmp_path):
        # thin the voyage to sporadic AIS-style rows; the pipeline must
        # down-sample and fill the remaining holes with empty rows
        paths = VoyageBuilder(tmp_path, drop_rows=tuple(range(50, 70, 2))).build()
        config = load_config(paths["config"])
        config = replace(config, source_kind="ais")
        result = run_pipeline(config)
        assert result.exit_code == 0
        diffs = np.diff(result.dataset.timestamps)
        assert (diffs == config.sampling_interval).all()
        assert result.dataset.flagged(QualityFlag.MISSING_INSERTED).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("column", ["sog", "extra"])
    def test_two_finite_extremes_in_one_bin_are_averaged_and_flagged(self, tmp_path, column):
        # two DBL_MAX messages of the benchmark's AIS feed fall in one bin. In
        # an auto-declared column (no valid range) their sum overflows, but
        # their mean is finite; in sog they are out of range, so the bin's
        # mean is that of its other messages and resample flags the bin
        plan = load_generate().build("ais_feed", 1, tmp_path / "inputs")
        ship = plan.config.with_name("ship.csv")
        lines = ship.read_text().splitlines()
        lines = [f"{line},{'extra' if k == 0 else 1.5}" for k, line in enumerate(lines)]
        at = lines[0].split(",").index(column)
        for i in (5000, 5001):
            cells = lines[i].split(",")
            cells[at] = repr(sys.float_info.max)
            lines[i] = ",".join(cells)
        ship.write_text("\n".join(lines) + "\n")
        config = load_config(plan.config)
        stamps = [parse_iso_timestamp(lines[i].split(",")[0]) for i in (5000, 5001)]
        assert len({t // config.sampling_interval for t in stamps}) == 1
        assert main(["run", "--config", str(plan.config), "--out", str(tmp_path / "out"),
                     "--no-timestamp-header"]) == 0
        result = run_pipeline(config)
        assert result.exit_code == 0 and result.stage_failures == []
        bin_start = stamps[0] // config.sampling_interval * config.sampling_interval
        row = int(np.searchsorted(result.dataset.timestamps, bin_start))
        (entry,) = [e for e in result.report.stage_entries if e.stage == "resample"]
        checks = [(c.verdict, c.variable, c.timestamp, c.observed) for c in entry.checks]
        if column == "extra":
            assert 1e307 < result.dataset.column("extra")[row] < sys.float_info.max
            assert not result.dataset.flagged(QualityFlag.INVALID_RANGE)[row]
            assert checks == []
        else:
            assert 0 <= result.dataset.logged("sog")[row] <= 26
            assert result.dataset.flagged(QualityFlag.INVALID_RANGE)[row]
            assert checks == [("invalid_range", "sog", bin_start, sys.float_info.max)] * 2
            assert entry.flag_counts["invalid_range"] == 1


# per stage, in processing order: the module attribute the stage calls, and
# the prefix of the report entries it writes when it runs
STAGE_CALLS = {
    "regularize": (pl.timeline, "regularize", "regularize"),
    "trips": (pl.timeline, "segment_by_thresholds", "trips"),
    "gps_clean": (pl, "clean_gps", "gps_clean"),
    "interpolate": (pl, "interpolate", "interpolate"),
    "derive": (pl.features, "add_gps_heading", "derive:"),
    "validate": (pl.validation, "check_power_identity", "check:"),
    "draft_fix": (pl.corrections, "detect_draft_events", "draft_fix"),
    "hydrostatics": (pl, "_hydrostatics_stage", "hydrostatics"),
    "resistance": (pl.corrections, "resistance_components", "resistance"),
    "clean": (pl.cleaning, "contextual_filter", "clean:"),
}
LOOP_STAGES = ("interpolate", "derive", "validate")


# per stage, a function it calls after it has written report entries, and
# the call of it that crashes
MID_STAGE_CALLS = {
    "validate": (pl.validation, "check_stw", 1),
    "clean": (pl.cleaning, "quasi_steady_filter", 1),
    "draft_fix": (pl.corrections, "fix_draft_ramp", 2),
    "derive": (pl.features, "resolve_ship_frame", 1),
}


def crash_on_call(monkeypatch, stage, call=1, function=None):
    """Make ``stage``'s function, or the ``function`` (module, name) it
    calls, raise on its ``call``-th call."""
    module, name = function or STAGE_CALLS[stage][:2]
    original = getattr(module, name)
    calls = []

    def crash(*args, **kwargs):
        calls.append(1)
        if len(calls) == call:
            raise RuntimeError("synthetic stage crash")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, crash)


def processed_text(result, path):
    write_processed_csv(result.dataset, path, timestamp_header=False, plots=())
    return path.read_text()


def entries_but(result, failure=None):
    """The report entries of ``result`` as dicts, without the error loop's
    own entry and without the one ``failure`` entry."""
    got = [e.to_dict() for e in result.report.stage_entries if e.stage != "error_loop"]
    if failure is not None:
        assert [e["stage"] for e in got].count(failure) == 1
    return [e for e in got if e["stage"] != failure]


class TestStageFailure:
    @pytest.fixture
    def paths(self, tmp_path):
        # two error-loop iterations and every stage with work to do
        return VoyageBuilder(
            tmp_path, wind="head_east", wind_dir_fault=True, resistance=True
        ).build()

    @pytest.mark.parametrize("stage", STAGE_CALLS)
    def test_unexpected_stage_error_exits_two(self, paths, monkeypatch, stage):
        crash_on_call(monkeypatch, stage)
        result = run(paths)
        assert result.exit_code == 2
        assert result.stage_failures == [f"{stage}: synthetic stage crash"]
        entries = [e.stage for e in result.report.stage_entries]
        assert entries.count(f"{stage}:failure") == 1
        failure = entries.index(f"{stage}:failure")
        assert result.report.stage_entries[failure].notes == ["synthetic stage crash"]
        # the stages after it still run; a failure inside the loop ends the loop
        order = list(STAGE_CALLS)
        later = [
            s for s in order[order.index(stage) + 1:]
            if not (stage in LOOP_STAGES and s in LOOP_STAGES)
        ]
        for s in later:
            prefix = STAGE_CALLS[s][2]
            assert any(e.startswith(prefix) for e in entries[failure + 1:]), s

    @pytest.mark.parametrize("stage", MID_STAGE_CALLS)
    def test_mid_stage_crash_keeps_exact_flag_counts(self, paths, monkeypatch, stage):
        # the failed stage's flags and report entries both go
        module, name, call = MID_STAGE_CALLS[stage]
        crash_on_call(monkeypatch, stage, call, function=(module, name))
        result = run(paths)
        assert result.stage_failures == [f"{stage}: synthetic stage crash"]
        counted: dict[str, int] = {}
        for entry in result.report.stage_entries:
            for flag, n in entry.flag_counts.items():
                counted[flag] = counted.get(flag, 0) + n
        pairs = {f.value: int(result.dataset.flagged(f).sum()) for f in QualityFlag}
        assert counted == {flag: n for flag, n in pairs.items() if n}
        assert result.report.covers(result.dataset)

    # an iteration is all or nothing: a failure in it keeps the dataset and
    # the report entries of the loop input, or of the iteration before
    @pytest.mark.parametrize("stage", LOOP_STAGES)
    def test_first_iteration_failure_keeps_the_loop_input(
        self, paths, monkeypatch, stage, tmp_path
    ):
        stages = tuple(s for s in PIPELINE_STAGES if s not in LOOP_STAGES)
        want = run(paths, stages=stages)
        crash_on_call(monkeypatch, stage)
        result = run(paths)
        assert result.exit_code == 2
        assert processed_text(result, tmp_path / "got.csv") == processed_text(
            want, tmp_path / "want.csv")
        assert entries_but(result, f"{stage}:failure") == entries_but(want)

    @pytest.mark.parametrize("stage", LOOP_STAGES)
    def test_second_iteration_failure_keeps_the_first(
        self, paths, monkeypatch, stage, tmp_path
    ):
        want = run(paths, max_iterations=1)
        crash_on_call(monkeypatch, stage, call=2)
        result = run(paths)
        assert result.exit_code == 2
        assert result.stage_failures == [f"{stage}: synthetic stage crash"]
        loop = [e for e in result.report.stage_entries if e.stage == "error_loop"][-1]
        assert loop.summary["iterations"] == 2
        assert processed_text(result, tmp_path / "got.csv") == processed_text(
            want, tmp_path / "want.csv")
        assert entries_but(result, f"{stage}:failure") == entries_but(want)


class TestSkipContracts:
    def test_without_gps_interpolation_skipped(self, tmp_path):
        paths = VoyageBuilder(tmp_path, with_gps=False).build()
        result = run(paths)
        assert result.exit_code == 0
        assert not result.dataset.declares("hc_wind_u")
        notes = [
            n
            for e in result.report.stage_entries
            for n in e.notes
            if "skipped" in n
        ]
        assert notes

    def test_runner_notes_absent_positions_and_draft_pair(self, tmp_path):
        paths = VoyageBuilder(tmp_path, with_gps=False).build()
        rows = [line.split(",") for line in paths["ship_csv"].read_text().splitlines()]
        at = rows[0].index("draft_aft")
        paths["ship_csv"].write_text("".join(",".join(r[:at] + r[at + 1:]) + "\n" for r in rows))
        result = run(paths)
        assert result.exit_code == 0
        notes = {e.stage: e.notes for e in result.report.stage_entries
                 if e.stage in ("gps_clean", "hydrostatics")}
        assert notes == {"gps_clean": ["lat/lon absent; stage skipped"],
                         "hydrostatics": ["draft sensors absent; stage skipped"]}
        assert not result.dataset.declares("mean_draft")
        # missing particulars take precedence over a missing draft sensor
        edited(paths["config"], "particulars = particulars.txt\n", "")
        (entry,) = [e for e in run(paths).report.stage_entries if e.stage == "hydrostatics"]
        assert entry.notes == ["no ship particulars configured; stage skipped"]

    def test_disabling_late_stage_preserves_earlier_columns(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        full = run(paths)
        partial = run(
            paths,
            stages=(
                "regularize", "trips", "gps_clean", "interpolate", "derive",
                "validate", "draft_fix", "hydrostatics",
            ),
        )
        partial_names = [s.name for s in partial.dataset.schema]
        full_names = [s.name for s in full.dataset.schema]
        assert full_names[: len(partial_names)] == partial_names
        for name in partial_names:
            a = partial.dataset.column(name) if partial.dataset.spec(name).kind != "text" else None
            if a is None:
                continue
            b = full.dataset.column(name)
            assert np.array_equal(a, b, equal_nan=True)

    def test_without_particulars_each_stage_needing_them_leaves_a_note(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        edited(paths["config"], "particulars = particulars.txt\n", "")
        result = run(paths)
        assert result.exit_code == 0
        note = "no ship particulars configured; stage skipped"
        skipped = [e.stage for e in result.report.stage_entries if note in e.notes]
        assert skipped == ["derive", "validate", "hydrostatics"]
        assert not result.dataset.declares("gps_heading")

    def test_trips_skipped_when_no_basis(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths, trip_method="port_names")
        assert result.exit_code == 0
        assert result.dataset.trips() == {}
        assert any(
            "segmentation skipped" in n
            for e in result.report.stage_entries
            for n in e.notes
        )


class TestCli:
    def test_run_writes_artifacts(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        out = tmp_path / "out"
        code = main(["run", "--config", str(paths["config"]), "--out", str(out)])
        assert code == 0
        for name in ("processed.csv", "report.txt", "report.json",
                     "speed_power.csv", "wind_comparison.csv",
                     "draft_correction.csv"):
            assert (out / name).exists()
        assert len(list(out.glob("trip_*.csv"))) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["stages"]

    def test_determinism_byte_identical(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                ["run", "--config", str(paths["config"]), "--out", str(out),
                 "--no-timestamp-header"]
            )
            assert code == 0
            outs.append(out)
        for artifact in ("processed.csv", "report.json", "report.txt"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_non_finite_cell_is_missing_not_fatal(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        lines = paths["ship_csv"].read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[5].split(",")
        cells[header.index("sog")] = "inf"
        lines[5] = ",".join(cells)
        paths["ship_csv"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(paths["config"]), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        ingest = next(e for e in report["stages"] if e["stage"] == "ingest:ship_csv")
        assert "column sog: 1 unparseable cell(s) -> missing" in ingest["notes"]

    def test_negative_wind_speed_cell_is_missing_not_fatal(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        lines = paths["ship_csv"].read_text().splitlines()
        header = lines[0].split(",")
        cells = lines[20].split(",")  # an in-trip row
        cells[header.index("rel_wind_speed")] = "-1.5"
        lines[20] = ",".join(cells)
        paths["ship_csv"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                     "--no-timestamp-header"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        stages = [e["stage"] for e in report["stages"]]
        assert "derive:failure" not in stages and "validate:failure" not in stages
        assert "check:longitudinal_wind" in stages
        contextual = next(e for e in report["stages"] if e["stage"] == "clean:contextual")
        assert {
            "timestamp": cells[0], "variable": "rel_wind_speed", "expected": None,
            "observed": -1.5, "verdict": "invalid_range",
        } in contextual["checks"]
        processed = [row.split(",") for row in (out / "processed.csv").read_text().splitlines()]
        ref = processed[0].index("rel_wind_speed_ref")
        row = next(r for r in processed if r[0] == cells[0])
        assert row[ref] == ""
        assert sum(r[ref] != "" for r in processed[1:]) == len(processed) - 2

    @pytest.mark.parametrize("source_kind, exit_code", [("ais", 1), ("in_service", 0)])
    def test_ais_file_without_usable_positions_is_fatal(
        self, tmp_path, capsys, source_kind, exit_code
    ):
        paths = VoyageBuilder(tmp_path).build()
        header, *rows = paths["ship_csv"].read_text().splitlines()
        garbled = [header.split(",").index(n) for n in ("lat", "lon", "sog", "heading")]
        for k, row in enumerate(rows):
            cells = row.split(",")
            for j in garbled:
                cells[j] = f"np.float64({cells[j]})"
            rows[k] = ",".join(cells)
        paths["ship_csv"].write_text("\n".join([header, *rows]) + "\n")
        with paths["config"].open("a") as fh:
            fh.write(f"source_kind = {source_kind}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out)]) == exit_code
        if exit_code:
            assert "(bare-minimum variable, more than 50% lost)" in capsys.readouterr().err

    @pytest.mark.parametrize("source_kind", ["ais", "in_service"])
    @pytest.mark.parametrize("bad_stamps", [False, True])
    def test_ship_csv_without_usable_row_is_fatal(self, tmp_path, capsys, source_kind,
                                                   bad_stamps):
        paths = VoyageBuilder(tmp_path).build()
        header, *rows = paths["ship_csv"].read_text().splitlines()
        ts = header.split(",").index("timestamp")
        # the header alone, or every row with a timestamp that does not parse
        rows = [",".join(c if k != ts else "2021-02-30T00:00:00Z" for k, c in
                         enumerate(r.split(","))) for r in rows] if bad_stamps else []
        paths["ship_csv"].write_text("\n".join([header, *rows]) + "\n")
        with paths["config"].open("a") as fh:
            fh.write(f"source_kind = {source_kind}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out)]) == 1
        assert "no row with a parseable timestamp" in capsys.readouterr().err
        assert not out.exists()

    # ingest-check reads the inputs as run does, so it fails on the same ones
    @pytest.mark.parametrize("command, case", [
        pytest.param(command, case, id=case if command == "run" else f"{command}-{case}")
        for command in ("run", "ingest-check") for case in sorted(BAD_INPUTS)
    ])
    def test_bad_input_file_is_fatal_without_traceback(self, tmp_path, capsys, command, case):
        paths = VoyageBuilder(tmp_path, resistance=True).build()
        edit, refusal = BAD_INPUTS[case]
        broken = edit(paths)
        out = tmp_path / "out"
        assert main([command, "--config", str(paths["config"]), "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"fatal: {broken}")  # the message names the file
        assert refusal in err
        assert "Traceback" not in err
        assert not out.exists()

    # lon and draft_aft had defaults but no filter reads them: the GPS filter
    # takes lat's limit for both axes, the draft-event filter draft_fore's for both
    @pytest.mark.parametrize("name", ["lon", "draft_aft", "sgo"])
    def test_tolerance_no_filter_reads_is_fatal(self, tmp_path, capsys, name):
        paths = VoyageBuilder(tmp_path).build()
        appended(paths["config"], f"gradient_tolerance.{name} = 0.001\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"fatal: {paths['config']}: unknown key 'gradient_tolerance.{name}'")
        assert not out.exists()

    # the steady filters fit a centred window: an even or one-sample window
    # failed three stages, one by one, at run time
    @pytest.mark.parametrize("window", [1, 4])
    def test_unusable_steady_window_is_fatal(self, tmp_path, capsys, window):
        paths = VoyageBuilder(tmp_path).build()
        appended(paths["config"], f"steady_window = {window}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(f"fatal: {paths['config']}: steady_window must be an odd")
        assert not out.exists()

    def test_text_pca_feature_left_out_with_a_note(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        appended(paths["config"], "pca_features = state,sog,shaft_rpm\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(paths["config"]), "--out", str(out)]) == 0
        stages = json.loads((out / "report.json").read_text())["stages"]
        assert not [s["stage"] for s in stages if s["stage"].endswith(":failure")]
        (pca,) = [s for s in stages if s["stage"] == "clean:pca"]
        assert pca["notes"] == ["text feature 'state' left out"]
        assert pca["summary"]["scored"] > 0  # on sog and shaft_rpm
        assert [s["stage"] for s in stages].count("clean:contextual") == 1

    def test_each_tolerance_a_filter_reads(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        config = load_config(paths["config"])
        assert {v: pl._steady_params(config, v).gradient_tolerance
                for v in ("lat", "draft_fore", "shaft_rpm", "sog")} == {
            "lat": 5e-4, "draft_fore": 2e-3, "shaft_rpm": 0.05, "sog": 0.02}
        appended(paths["config"], "gradient_tolerance.default = 0.5\n")
        assert {pl._steady_params(load_config(paths["config"]), v).gradient_tolerance
                for v in ("lat", "draft_fore", "shaft_rpm", "sog")} == {0.5}
        appended(paths["config"], "".join(
            f"gradient_tolerance.{v} = {k}\n"
            for k, v in enumerate(("lat", "draft_fore", "shaft_rpm", "sog"), 1)))
        config = load_config(paths["config"])
        assert [pl._steady_params(config, v).gradient_tolerance
                for v in ("lat", "draft_fore", "shaft_rpm", "sog")] == [1, 2, 3, 4]
        assert main(["run", "--config", str(paths["config"]),
                     "--out", str(tmp_path / "out")]) == 0

    def test_duplicated_row_is_dropped_not_fatal(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        lines = paths["ship_csv"].read_text().splitlines()
        lines.insert(9, lines[5])  # line 10 repeats line 6
        paths["ship_csv"].write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                     "--no-timestamp-header"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        ingest = next(e for e in report["stages"] if e["stage"] == "ingest:ship_csv")
        assert ingest["summary"]["rows_dropped_duplicate_timestamp"] == 1
        assert ingest["flag_counts"] == {"dropout": 1}
        assert [(c["timestamp"], c["observed"]) for c in ingest["checks"]] == [
            (lines[5].split(",")[0], 10)
        ]
        processed = (out / "processed.csv").read_text().splitlines()
        assert len(processed) == len(lines) - 1  # header and one row per slot, with no gaps

    def test_missing_hindcast_exits_one(self, tmp_path, capsys):
        paths = VoyageBuilder(tmp_path).build()
        config = tmp_path / "bad.txt"
        config.write_text(
            f"ship_csv = {paths['ship_csv'].name}\n"
            f"particulars = {paths['particulars'].name}\n"
            "hindcast = nowhere/missing_grid.txt\n"
        )
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "missing_grid.txt" in capsys.readouterr().err

    def test_ingest_check(self, tmp_path, capsys):
        paths = VoyageBuilder(tmp_path).build()
        code = main(["ingest-check", "--config", str(paths["config"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "ingest check passed" in out
        assert "crude_oil_carrier" in out

    # run writes every output, and the config alone chooses the stages
    @pytest.mark.parametrize("argv", [
        ["report"], ["plotdata"], ["run", "--stages", "regularize,trips"],
    ])
    def test_subset_commands_and_flags_are_usage_errors(self, tmp_path, capsys, argv):
        paths = VoyageBuilder(tmp_path).build()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--config", str(paths["config"]), "--out", str(out)])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith("usage: shipdataprep")
        assert not out.exists()


def with_ship_cell(paths, row, column, cell):
    """The ship CSV with the ``column`` cell of data row ``row`` set to the
    bytes ``cell``; the row's stamp."""
    header, *rows = paths["ship_csv"].read_bytes().splitlines()
    cells = rows[row].split(b",")
    cells[header.split(b",").index(column.encode())] = cell
    rows[row] = b",".join(cells)
    paths["ship_csv"].write_bytes(b"\n".join([header, *rows]) + b"\n")
    return cells[0].decode()


def written(paths, out):
    """Each file that ``run`` writes for the config of ``paths``, by name."""
    code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                 "--no-timestamp-header"])
    assert code == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestInputText:
    """Every input file is read as UTF-8 whatever the locale, without a
    leading byte-order mark; an undecodable byte reads as U+FFFD, which the
    file's own rules then judge."""

    def test_byte_order_mark_on_every_input_changes_no_output(self, tmp_path):
        paths = VoyageBuilder(tmp_path, resistance=True).build()
        paths["hydro"] = hydro_table(
            paths, "8,0,60000,10000\n8,1,61000,10100\n12,0,95000,13000\n12,1,96000,13100\n")
        plain = written(paths, tmp_path / "plain")
        for p in paths.values():
            p.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
        # read as text, the mark would make each loader refuse its file
        assert written(paths, tmp_path / "bom") == plain

    def test_latin1_byte_in_a_config_comment_is_usable(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        plain = written(paths, tmp_path / "plain")
        appended(paths["config"], b"# angles in \xb0, speeds in m/s\n")
        assert written(paths, tmp_path / "latin1") == plain

    def test_latin1_bytes_in_ship_cells_are_usable(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        stamp = with_ship_cell(paths, 5, "sog", b"5.1\xb0")
        assert with_ship_cell(paths, 5, "state", b"At Berth \xb0") == stamp
        report = json.loads(written(paths, tmp_path / "out")["report.json"])
        ingest = next(e for e in report["stages"] if e["stage"] == "ingest:ship_csv")
        assert "column sog: 1 unparseable cell(s) -> missing" in ingest["notes"]
        with (tmp_path / "out" / "processed.csv").open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        (row,) = [r for r in rows if r[0] == stamp]
        assert row[header.index("sog")] == ""
        assert row[header.index("state")] == "At Berth \ufffd"


class TestPlotData:
    def test_three_trips_three_files_plus_summaries(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        out = tmp_path / "plots"
        files = emit_plotdata(result.dataset, out, result.particulars, timestamp_header=True)
        names = {f.name for f in files}
        assert {"trip_001.csv", "trip_002.csv", "trip_003.csv"} <= names
        assert {"speed_power.csv", "wind_comparison.csv", "draft_correction.csv"} <= names
        assert len(names) == 6

    def test_empty_trip_set_summaries_only(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths, stages=("regularize",))
        out = tmp_path / "plots"
        files = emit_plotdata(result.dataset, out, result.particulars, timestamp_header=True)
        names = {f.name for f in files}
        assert names == {"speed_power.csv", "wind_comparison.csv", "draft_correction.csv"}

    def test_draft_file_has_raw_and_corrected_columns(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        out = tmp_path / "plots"
        emit_plotdata(result.dataset, out, result.particulars, timestamp_header=True)
        header = (out / "draft_correction.csv").read_text().splitlines()[0]
        assert "raw_draft_fore" in header and "draft_fore" in header

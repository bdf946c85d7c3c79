"""Loaders: unit conversion at the boundary, missing-cell semantics, grid
format errors with locations, particulars defaults."""

import functools
import math
import re
import typing

import numpy as np
import pytest

from conftest import DEFAULTS, row_values
from oracle_values import TEN_KNOTS_M_PER_S
from shipdataprep.ingest import (
    PARTICULARS_KEYS,
    ConfigError,
    IngestError,
    PipelineConfig,
    load_config,
    load_hindcast,
    load_particulars,
    load_ship_csv,
)
from shipdataprep.model import KNOT, ProcessingReport, QualityFlag

# the config's unit map and source kind, unless a test gives its own
load = functools.partial(
    load_ship_csv, unit_map=DEFAULTS.unit_map, source_kind=DEFAULTS.source_kind
)


class TestShipCsv:
    def test_knots_converted_to_m_per_s(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text("timestamp,sog\n2021-01-01T00:00:00Z,10.0\n")
        ds = load(p, unit_map={"sog": "knots"}, report=ProcessingReport())
        assert ds.column("sog")[0] == pytest.approx(TEN_KNOTS_M_PER_S, abs=1e-4)
        assert ds.column("sog")[0] == pytest.approx(5.1444, abs=1e-4)

    def test_empty_file_with_header(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text("timestamp,sog,draft_fore\n")
        ds = load(p, report=ProcessingReport())
        assert len(ds) == 0

    def test_blank_cell_is_missing_and_counted(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,sog,draft_fore\n"
            "2021-01-01T00:00:00Z,5.0,\n"
            "2021-01-01T00:15:00Z,5.0,8.1\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert "draft_fore" not in row_values(ds, 0)
        assert ds.column("draft_fore")[1] == 8.1
        entry = report.stage_entries[0]
        assert entry.summary["missing_cells"]["draft_fore"] == 1

    def test_byte_order_mark_is_no_part_of_the_header(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_bytes(b"\xef\xbb\xbftimestamp,sog\n2021-01-01T00:00:00Z,5.0\n")
        assert load(p, report=ProcessingReport()).column("sog").tolist() == [5.0]

    # an undecodable byte reads as U+FFFD, which the cell's own rule judges
    def test_latin1_byte_is_judged_by_its_cell_rule(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_bytes(b"timestamp,sog,state\n2021-01-01T00:00:00Z\xb0,5.0,x\n"
                      b"2021-01-01T00:15:00Z,6.\xb0,At Berth \xb0\n")
        report = ProcessingReport()
        ds = load(p, report=report)
        assert len(ds) == 1 and np.isnan(ds.column("sog")[0])
        assert ds.text_column("state").tolist() == ["At Berth \ufffd"]
        entry = report.stage_entries[0]
        assert entry.summary["rows_skipped_bad_timestamp"] == 1
        assert entry.notes == ["column sog: 1 unparseable cell(s) -> missing"]

    def test_missing_timestamp_column_fatal(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text("time,sog\n2021-01-01T00:00:00Z,5.0\n")
        with pytest.raises(IngestError, match="timestamp"):
            load(p, report=ProcessingReport())

    def test_mostly_unparseable_bare_minimum_column_fatal(self, tmp_path):
        p = tmp_path / "ship.csv"
        rows = ["timestamp,stw"]
        for i in range(10):
            rows.append(f"2021-01-01T00:{i:02d}:00Z,{'bogus' if i < 6 else '4.0'}")
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError, match="stw"):
            load(p, report=ProcessingReport())

    def test_non_finite_cells_unparseable(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,heading,sog\n"
            "2021-01-01T00:00:00Z,4.0,inf\n"
            "2021-01-01T00:15:00Z,nan,5.0\n"
            "2021-01-01T00:30:00Z,1e400,-inf\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert [row_values(ds, i) for i in range(len(ds))] == [{"heading": 4.0}, {"sog": 5.0}, {}]
        assert report.stage_entries[0].notes == [
            "column heading: 2 unparseable cell(s) -> missing",
            "column sog: 2 unparseable cell(s) -> missing",
        ]

    def test_non_finite_cells_count_toward_bare_minimum_rule(self, tmp_path):
        p = tmp_path / "ship.csv"
        rows = ["timestamp,stw"]
        for i in range(10):
            rows.append(f"2021-01-01T00:{i:02d}:00Z,{'nan' if i < 6 else '4.0'}")
        p.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestError, match="stw: 6/10"):
            load(p, report=ProcessingReport())

    def test_repeated_timestamp_keeps_first_row_and_flags_dropout(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,sog\n"
            "2021-01-01T00:15:00Z,1.0\n"
            "# a comment line\n"
            "2021-01-01T00:00:00Z,2.0\n"
            "2021-01-01T00:15:00Z,3.0\n"
            "2021-01-01T00:30:00Z,4.0\n"
            "2021-01-01T00:15:00+00:00,5.0\n"
            "2021-01-01T00:00:00Z,\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert ds.column("sog").tolist() == [2.0, 1.0, 4.0]
        assert ds.flagged(QualityFlag.DROPOUT).tolist() == [True, True, False]
        entry = report.stage_entries[0]
        assert entry.flag_counts == {"dropout": 2}
        assert entry.summary["rows"] == 3
        assert entry.summary["rows_dropped_duplicate_timestamp"] == 3
        assert [(c.timestamp, c.variable, c.observed, c.verdict) for c in entry.checks] == [
            (ds.timestamps[1], "timestamp", 5, "dropout"),
            (ds.timestamps[1], "timestamp", 7, "dropout"),
            (ds.timestamps[0], "timestamp", 8, "dropout"),
        ]
        assert report.covers(ds)

    def test_unique_timestamps_add_no_duplicate_summary(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text("timestamp,sog\n2021-01-01T00:00:00Z,1.0\n2021-01-01T00:15:00Z,2.0\n")
        report = ProcessingReport()
        load(p, report=report)
        assert "rows_dropped_duplicate_timestamp" not in report.stage_entries[0].summary

    def test_blank_header_name_skipped_with_note(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,sog,\n"
            "2021-01-01T00:00:00Z,1.0,\n"
            "2021-01-01T00:15:00Z,2.0,x\n"
            "bad,3.0,y\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert ds.column("sog").tolist() == [1.0, 2.0]
        assert "" not in {s.name for s in ds.schema}
        assert report.stage_entries[0].notes == [
            "column 3 (blank name): skipped, 1 non-empty cell(s)"
        ]

    def test_repeated_header_name_keeps_first_column(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,sog,stw,sog,timestamp\n"
            "2021-01-01T00:00:00Z,1.0,4.0,9.0,x\n"
            "2021-01-01T00:15:00Z,,4.0,8.0,\n"
            "2021-01-01T00:30:00Z,3.0,4.0,,\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert row_values(ds, 0) == {"sog": 1.0, "stw": 4.0}
        assert np.isnan(ds.column("sog")[1])
        entry = report.stage_entries[0]
        assert entry.notes == [
            "column 4 (repeats 'sog'): skipped, 2 non-empty cell(s)",
            "column 5 (repeats 'timestamp'): skipped, 1 non-empty cell(s)",
        ]
        assert entry.summary["missing_cells"] == {"sog": 1}

    def test_stamp_with_a_nul_is_a_bad_timestamp(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text(
            "timestamp,sog\n"
            "2020-09-13T12:26:40Z\0junk,1.0\n"
            "2020-09-13T12:41:40\0,2.0\n"
            "2020-09-13T12:56:40Z,3.0\n"
        )
        report = ProcessingReport()
        ds = load(p, report=report)
        assert ds.timestamps.tolist() == [1600001800]
        assert ds.column("sog").tolist() == [3.0]
        assert report.stage_entries[0].summary["rows_skipped_bad_timestamp"] == 2

    def test_unknown_column_auto_declared(self, tmp_path):
        p = tmp_path / "ship.csv"
        p.write_text("timestamp,fuel_temp\n2021-01-01T00:00:00Z,55.5\n")
        ds = load(p, report=ProcessingReport())
        assert ds.column("fuel_temp")[0] == 55.5

    def test_unit_map_scales_each_column_into_si(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            "timestamp,sog,shaft_power\n"
            "2021-01-01T00:00:00Z,12.25,8000.5\n"
            "2021-01-01T00:15:00Z,11.0,\n"
        )
        ds = load(src, unit_map={"sog": "knots", "shaft_power": "kW"}, report=ProcessingReport())
        assert ds.column("sog").tolist() == [12.25 * KNOT, 11.0 * KNOT]
        assert ds.column("shaft_power")[0] == 8000.5 * 1000.0
        assert np.isnan(ds.column("shaft_power")[1])


GRID_HEADER = (
    "#var wave m\n"
    "#lat 10.0,11.0\n"
    "#lon 4.0,5.0\n"
    "#time 2021-01-01T00:00:00Z,2021-01-01T06:00:00Z\n"
)


def variable(grid, name):
    """The variable of ``grid`` called ``name``."""
    return next(v for v in grid.variables if v.name == name)


class TestHindcastGrid:
    def test_all_valid_cells(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER + "1,2\n3,4\n5,6\n7,8\n")
        grid = load_hindcast(p, report=ProcessingReport())
        var = variable(grid, "wave")
        assert var.values.shape == (2, 2, 2)
        assert not var.mask.any()
        assert var.values[1, 1, 0] == 7.0

    def test_masked_cell_round_trip(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER + "1,2\n3,M\n5,6\n7,8\n")
        var = variable(load_hindcast(p, report=ProcessingReport()), "wave")
        assert var.mask[0, 1, 1]
        assert var.mask.sum() == 1

    def test_shape_mismatch_names_slice(self, tmp_path):
        p = tmp_path / "grid.txt"
        # declares 2 lats -> 4 rows needed, only 3 given
        p.write_text(GRID_HEADER + "1,2\n3,4\n5,6\n")
        with pytest.raises(IngestError, match="time index 1"):
            load_hindcast(p, report=ProcessingReport())

    def test_row_length_mismatch(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER + "1,2\n3,4,9\n5,6\n7,8\n")
        with pytest.raises(IngestError, match="expected 2 values"):
            load_hindcast(p, report=ProcessingReport())

    def test_unknown_token_fatal_with_location(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER + "1,2\n3,x\n5,6\n7,8\n")
        with pytest.raises(IngestError, match="'x'"):
            load_hindcast(p, report=ProcessingReport())

    def test_latin1_byte_in_a_cell_is_an_unknown_token(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_bytes(GRID_HEADER.encode() + b"1,2\n3,4\xb0\n5,6\n7,8\n")
        with pytest.raises(IngestError, match="lon index 1: unknown token '4\ufffd'"):
            load_hindcast(p, report=ProcessingReport())

    # an infinite end node still ascends, so only the number rule refuses it
    @pytest.mark.parametrize("axis, line, node", [
        ("#lat 10.0,11.0", "#lat 10.0,inf", "inf"),
        ("#lon 4.0,5.0", "#lon -inf,5.0", "-inf"),
        ("#lat 10.0,11.0", "#lat nan,11.0", "nan"),
    ])
    def test_non_finite_axis_node_fatal(self, tmp_path, axis, line, node):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER.replace(axis, line) + "1,2\n3,4\n5,6\n7,8\n")
        at = 2 if line.startswith("#lat") else 3
        with pytest.raises(IngestError, match=re.escape(f"{p}:{at}: '{node}' is not a finite")):
            load_hindcast(p, report=ProcessingReport())

    def test_unknown_token_message_names_every_index(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(
            "#var wind m/s\n" + GRID_HEADER
            + "1,2\n3,4\n5,6\n7,8\n" + "1,2\n3,4\nM,6\n7, x \n"
        )
        with pytest.raises(IngestError) as err:
            load_hindcast(p, report=ProcessingReport())
        assert str(err.value) == (
            f"{p}:13: variable 'wave', time index 1, lat index 1, lon index 1: "
            "unknown token 'x'"
        )

    def test_cells_parse_as_python_floats(self, tmp_path):
        tokens = ["0.1", " -0 ", "1e-300", "2.5e+3", "M", "inf", "-1_000.5", " M"]
        p = tmp_path / "grid.txt"
        p.write_text(
            GRID_HEADER.replace("#lon 4.0,5.0", "#lon 4.0,5.0,6.0,7.0")
            + "\n".join(",".join(tokens[i:i + 4]) for i in (0, 4, 0, 4)) + "\n"
        )
        var = variable(load_hindcast(p, report=ProcessingReport()), "wave")
        # an M, and a number that is not finite (inf), is masked at 0.0
        masked = [t.strip() == "M" or not math.isfinite(float(t)) for t in tokens]
        expected = [0.0 if m else float(t) for t, m in zip(tokens, masked)] * 2
        assert var.values.ravel().tobytes() == np.array(expected).tobytes()
        assert var.mask.ravel().tolist() == masked * 2

    @pytest.mark.parametrize("token", ["inf", "nan", " -inf ", "NaN"])
    def test_non_finite_cells_are_masked_and_counted(self, tmp_path, token):
        p = tmp_path / "grid.txt"
        p.write_text(
            "#var dir deg\n" + GRID_HEADER
            + f"1,{token}\n3,4\n5,6\n{token},8\n" + "1,2\n3,M\n5,6\n7,8\n"
        )
        report = ProcessingReport()
        grid = load_hindcast(p, report)  # an angle's sine and cosine raise no warning
        direction, wave = variable(grid, "dir"), variable(grid, "wave")
        assert direction.mask.ravel().tolist() == [False, True] + [False] * 4 + [True, False]
        assert direction.values.ravel().tolist() == [1.0, 0.0, 3.0, 4.0, 5.0, 6.0, 0.0, 8.0]
        assert np.isfinite(direction.sin_cos).all()
        assert wave.mask.sum() == 1  # an M is no non-finite cell
        assert [(e.stage, e.notes) for e in report.stage_entries] == [
            ("ingest:hindcast", ["variable dir: 2 non-finite cell(s) -> masked"])
        ]

    def test_finite_grid_leaves_no_entry(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(GRID_HEADER + "1,2\n3,M\n5,6\n7,8\n")
        report = ProcessingReport()
        load_hindcast(p, report)
        assert report.stage_entries == []

    def test_non_monotonic_axis_fatal(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(
            "#var wave m\n#lat 11.0,10.0\n#lon 4.0,5.0\n"
            "#time 2021-01-01T00:00:00Z,2021-01-01T06:00:00Z\n"
            + "1,2\n3,4\n5,6\n7,8\n"
        )
        with pytest.raises(IngestError) as err:
            load_hindcast(p, report=ProcessingReport())
        assert str(err.value) == f"{p}: lat axis must be strictly ascending"


class TestParticulars:
    def base(self, tmp_path, extra=""):
        p = tmp_path / "part.txt"
        p.write_text(
            "ship_type = crude_oil_carrier\n"
            "lwl = 270\nbeam = 46\ndesign_draft = 15\n" + extra
        )
        return p

    def test_missing_cb_filled_with_table_midpoint(self, tmp_path):
        report = ProcessingReport()
        part = load_particulars(self.base(tmp_path), report)
        assert part.block_coefficient == pytest.approx(0.805)
        assert any("midpoint" in c for c in report.stage_entries[0].corrections)

    def test_explicit_cb_kept_verbatim(self, tmp_path):
        part = load_particulars(self.base(tmp_path, "block_coefficient = 0.6\n"), report=ProcessingReport())
        assert part.block_coefficient == 0.6

    def test_negative_design_draft_fatal(self, tmp_path):
        p = tmp_path / "part.txt"
        p.write_text(
            "ship_type = ferry\nlwl = 100\nbeam = 20\ndesign_draft = -3\n"
        )
        with pytest.raises(IngestError, match="design_draft"):
            load_particulars(p, report=ProcessingReport())

    def test_unknown_ship_type_lists_accepted(self, tmp_path):
        p = tmp_path / "part.txt"
        p.write_text("ship_type = submarine\nlwl = 100\nbeam = 20\ndesign_draft = 5\n")
        with pytest.raises(IngestError, match="crude_oil_carrier"):
            load_particulars(p, report=ProcessingReport())

    @pytest.mark.parametrize("line", [
        "beam = nan", "lpp = inf", "design_draft = -inf", "anemometer_height = nan",
    ])
    def test_non_finite_or_negative_number_fatal(self, tmp_path, line):
        # NaN passes a plain ``<= 0`` check; parse_number refuses it first
        key, value = line.split(" = ")
        p = self.base(tmp_path)
        kept = [k for k in p.read_text().splitlines() if not k.startswith(f"{key} =")]
        p.write_text("\n".join([*kept, line]) + "\n")
        with pytest.raises(IngestError, match=re.escape(f"{p}: {key}: {value!r} is not a finite")):
            load_particulars(p, report=ProcessingReport())

    # the trip thresholds are config keys; a misspelt key is no default
    @pytest.mark.parametrize("line", [
        "rpm_threshold = 5", "sog_threshold = 0", "block_coeficient = 0.8", "curve = 1:2",
    ])
    def test_unknown_key_fatal(self, tmp_path, line):
        p = self.base(tmp_path, line + "\n")
        key = line.split(" = ")[0]
        with pytest.raises(IngestError) as err:
            load_particulars(p, report=ProcessingReport())
        assert str(err.value) == f"{p}: unknown particulars key {key!r}"

    def test_every_accepted_key_loads(self, tmp_path):
        p = tmp_path / "part.txt"
        p.write_text(
            "ship_type = ferry\nlwl = 100\nlpp = 98\nbeam = 20\ndesign_draft = 5\n"
            "block_coefficient = 0.6\nanemometer_height = 30\nwind_reference_height = 10\n"
            "envelope = 0:0, 100:0, 100:9\ncurve.ballast = 2:400, 4:900\n"
        )
        assert sorted(PARTICULARS_KEYS) == sorted(
            line.split(" = ")[0] for line in p.read_text().splitlines()[:-1]
        )
        part = load_particulars(p, report=ProcessingReport())
        assert (part.lpp, part.wind_reference_height, part.curve().label) == (98.0, 10.0, "ballast")

    def test_without_lwl_and_lpp_fatal(self, tmp_path):
        p = tmp_path / "part.txt"
        p.write_text("ship_type = ferry\nbeam = 20\ndesign_draft = 5\n")
        with pytest.raises(IngestError) as err:
            load_particulars(p, report=ProcessingReport())
        assert str(err.value) == f"{p}: at least one of lwl, lpp is required"

    def test_repeated_key_fatal_naming_both_lines(self, tmp_path):
        p = self.base(tmp_path, "beam = 40\n")
        with pytest.raises(IngestError, match=re.escape(f"{p}:5: key 'beam' repeats line 3")):
            load_particulars(p, report=ProcessingReport())

    @pytest.mark.parametrize("key", ["curve.sea_trial", "envelope"])
    def test_non_finite_point_fatal(self, tmp_path, key):
        p = self.base(tmp_path, f"{key} = 1:800, nan:6400, 8:409600\n")
        with pytest.raises(IngestError, match=re.escape(f"{p}: {key}: 'nan' is not a finite")):
            load_particulars(p, report=ProcessingReport())

    def test_curves_parsed(self, tmp_path):
        part = load_particulars(
            self.base(tmp_path, "curve.sea_trial = 2:6400, 4:51200, 8:409600\n"), report=ProcessingReport()
        )
        assert part.curve().label == "sea_trial"
        assert part.curve().power_at(4.0) == 51200


class TestConfig:
    # a config that a run would read one way and a reader another way is no config
    def test_repeated_key_fatal_naming_both_lines(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("sampling_interval = 900\nship_csv = s.csv\n\nsampling_interval = 1800\n")
        with pytest.raises(IngestError, match=re.escape(
                f"{p}:4: key 'sampling_interval' repeats line 1")):
            load_config(p)

    def test_byte_order_mark_and_latin1_comment_read(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_bytes(b"\xef\xbb\xbfship_csv = s.csv\n# angles in \xb0\nsampling_interval = 600\n")
        assert load_config(p).sampling_interval == 600

    def test_latin1_byte_in_a_value_is_no_number(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_bytes(b"ship_csv = s.csv\nsampling_interval = 600\xb0\n")
        with pytest.raises(ConfigError, match="sampling_interval = '600\ufffd' is not a number"):
            load_config(p)

    def test_round_trip_and_validation(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text(
            "ship_csv = ship.csv\nsampling_interval = 600\n"
            "steady_alpha = 0.05\ngradient_tolerance.lat = 0.001\n"
            "unit.sog = knots\nstages = regularize,trips\n"
        )
        cfg = load_config(p)
        assert cfg.sampling_interval == 600
        assert cfg.gradient_tolerance["lat"] == 0.001
        assert cfg.unit_map["sog"] == "knots"
        assert cfg.stages == ("regularize", "trips")
        assert cfg.ship_csv.endswith("ship.csv")

    def test_every_number_field_loads_as_its_type(self, tmp_path):
        p = tmp_path / "config.txt"
        for name, hint in typing.get_type_hints(PipelineConfig).items():
            if hint not in (int, float, float | None):
                continue
            kind, text = (int, "3") if hint is int else (float, "0.5")
            p.write_text(f"{name} = {text}\n")
            value = getattr(load_config(p), name)
            assert type(value) is kind and value == kind(text), name

    def test_every_number_field_but_pca_components_must_be_positive(self, tmp_path):
        from shipdataprep.ingest import ConfigError

        p = tmp_path / "config.txt"
        for name, hint in typing.get_type_hints(PipelineConfig).items():
            if hint not in (int, float):
                continue
            p.write_text(f"{name} = 0\n")
            # 0 components = choose k automatically; a 0 trip threshold = any
            # motion; 0 pad samples = trips not padded
            if name in ("pca_components", "rpm_threshold", "sog_threshold", "pad_samples"):
                assert getattr(load_config(p), name) == 0
                continue
            with pytest.raises(ConfigError, match=name.replace("_", "[_ ]")):
                load_config(p)

    @pytest.mark.parametrize("line", [
        "power_tolerance = nan", "spike_scales = nan", "wind_tolerance = inf",
        "stw_tolerance = -inf", "gradient_tolerance.lat = nan", "gradient_tolerance.sog = -1",
        "rpm_threshold = -5", "sog_threshold = nan", "rpm_threshold = inf",
        "pca_components = -1",
    ])
    def test_non_finite_or_negative_number_fatal(self, tmp_path, line):
        p = tmp_path / "config.txt"
        p.write_text(f"ship_csv = s.csv\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"{p}: {key} must be finite")):
            load_config(p)

    def test_only_the_tolerances_a_filter_reads(self):
        for name in ("lat", "draft_fore", "shaft_rpm", "sog", "default"):
            assert PipelineConfig(gradient_tolerance={name: 1e-3}).gradient_tolerance == {
                name: 1e-3}
        for name in ("lon", "draft_aft", "Lat", ""):
            with pytest.raises(ConfigError, match=re.escape(f"'gradient_tolerance.{name}'")):
                PipelineConfig(gradient_tolerance={name: 1e-3})

    def test_zero_thresholds_accepted(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("ship_csv = s.csv\nrpm_threshold = 0\nsog_threshold = 0\n")
        cfg = load_config(p)
        assert (cfg.rpm_threshold, cfg.sog_threshold) == (0.0, 0.0)

    def test_absent_thresholds_take_defaults(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("ship_csv = s.csv\n")
        cfg = load_config(p)
        assert (cfg.rpm_threshold, cfg.sog_threshold) == (10.0, 3.0 * KNOT)

    def test_bad_alpha_rejected(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("ship_csv = s.csv\nsteady_alpha = 1.5\n")
        from shipdataprep.ingest import ConfigError

        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "config.txt"
        p.write_text("shpi_csv = s.csv\n")
        from shipdataprep.ingest import ConfigError

        with pytest.raises(ConfigError, match="shpi_csv"):
            load_config(p)

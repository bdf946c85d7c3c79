"""End-to-end pipeline and CLI behaviour: stage wiring, the error loop,
skip contracts, artifacts and exit codes."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import VoyageBuilder
from shipdataprep.cli import main
from shipdataprep.ingest import load_config
from shipdataprep.model import QualityFlag
from shipdataprep.pipeline import emit_plotdata, run_pipeline


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
        assert len(result.trip_index.trips) == 3
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

    def test_no_fault_voyage_single_iteration(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        loop = [e for e in result.report.stage_entries if e.stage == "error_loop"][-1]
        assert loop.summary["iterations"] == 1


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


class TestStageFailure:
    def test_unexpected_stage_error_exits_two(self, tmp_path, monkeypatch):
        paths = VoyageBuilder(tmp_path).build()

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic stage crash")

        import shipdataprep.pipeline as pl

        monkeypatch.setattr(pl.cleaning, "contextual_filter", boom)
        result = run(paths)
        assert result.exit_code == 2
        assert any("clean" in f for f in result.stage_failures)


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

    def test_trips_skipped_when_no_basis(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths, trip_method="port_names")
        assert result.exit_code == 0
        assert result.trip_index is None
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

    def test_stage_override_flag(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        out = tmp_path / "out"
        code = main(
            ["run", "--config", str(paths["config"]), "--out", str(out),
             "--stages", "regularize,trips"]
        )
        assert code == 0
        header = (out / "processed.csv").read_text().splitlines()[1]
        assert "hc_wind_u" not in header

    def test_report_subcommand_writes_only_reports(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        out = tmp_path / "out"
        code = main(["report", "--config", str(paths["config"]), "--out", str(out)])
        assert code == 0
        assert (out / "report.txt").exists()
        assert not (out / "processed.csv").exists()


class TestPlotData:
    def test_three_trips_three_files_plus_summaries(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        out = tmp_path / "plots"
        files = emit_plotdata(
            result.dataset, result.trip_index, out, result.particulars
        )
        names = {f.name for f in files}
        assert {"trip_001.csv", "trip_002.csv", "trip_003.csv"} <= names
        assert {"speed_power.csv", "wind_comparison.csv", "draft_correction.csv"} <= names
        assert len(names) == 6

    def test_empty_trip_set_summaries_only(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths, stages=("regularize",))
        out = tmp_path / "plots"
        files = emit_plotdata(result.dataset, result.trip_index, out, result.particulars)
        names = {f.name for f in files}
        assert names == {"speed_power.csv", "wind_comparison.csv", "draft_correction.csv"}

    def test_draft_file_has_raw_and_corrected_columns(self, tmp_path):
        paths = VoyageBuilder(tmp_path).build()
        result = run(paths)
        out = tmp_path / "plots"
        emit_plotdata(result.dataset, result.trip_index, out, result.particulars)
        header = (out / "draft_correction.csv").read_text().splitlines()[0]
        assert "raw_draft_fore" in header and "draft_fore" in header

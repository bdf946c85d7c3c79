"""Golden text of every CSV writer on a hand-built dataset: lossless float
cells, quoting of text, missing cells, trip ids and flags. The expected text
is fixed, so any change to a written format shows up here. The one block
pass must write it in any block size, and the same bytes as ``csv.writer``
(``tests/writer_reference.py``) for any header and text."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULTS, T0, VoyageBuilder, flags_at, rows_dataset, write_and_read_processed
from shipdataprep import ingest
from shipdataprep.cli import main
from shipdataprep.ingest import csv_field, csv_lines, load_config, load_ship_csv
from shipdataprep.model import (
    KNOT,
    CalmWaterCurve,
    QualityFlag,
    Sample,
    ShipParticulars,
    ShipType,
    VariableSpec,
    new_dataset,
)
from shipdataprep.pipeline import emit_plotdata, run_pipeline, write_processed_csv
from writer_reference import processed_rows, write_csv


def golden_dataset():
    schema = [
        VariableSpec("lat", "deg", "linear", -90.0, 90.0),
        VariableSpec("lon", "deg", "linear", -180.0, 180.0),
        VariableSpec("sog", "m/s", "linear", 0.0, 26.0),
        VariableSpec("stw", "m/s", "linear"),
        VariableSpec("shaft_power", "W", "linear"),
        VariableSpec("draft_fore", "m", "linear"),
        VariableSpec("raw_draft_fore", "m", "linear"),
        VariableSpec("rel_wind_speed", "m/s", "linear"),
        VariableSpec("rel_wind_dir", "deg", "angular"),
        VariableSpec("rel_wind_long", "m/s", "linear"),
        VariableSpec("note", "", "text"),
    ]
    samples = [
        Sample(
            T0,
            {"lat": 0.1, "lon": -0.5, "sog": 0.1, "stw": 1e-300, "shaft_power": -0.0,
             "draft_fore": 9.25, "rel_wind_speed": 8.0, "rel_wind_dir": 359.9,
             "rel_wind_long": 7.9, "note": 'say "hi", then go'},
            frozenset({QualityFlag.SPIKE, QualityFlag.ANGULAR_AVERAGING_FAULT}),
            trip_id=1,
        ),
        Sample(
            T0 + 900,
            {"sog": 5.144444444444445, "stw": 2.0, "shaft_power": 1.5e6,
             "draft_fore": 9.0, "raw_draft_fore": 8.6, "rel_wind_speed": 3.3,
             "rel_wind_dir": 180.0, "rel_wind_long": -1.7, "note": "a,b"},
            frozenset({QualityFlag.DRAFT_CORRECTED}),
            trip_id=1,
        ),
        Sample(
            T0 + 1800,
            {"lat": -12.5, "lon": 179.99, "sog": -0.0, "stw": 123456789.123, "note": "x"},
        ),
        Sample(T0 + 2700, {}, frozenset({QualityFlag.MISSING_INSERTED})),
    ]
    return rows_dataset(schema, samples, sampling_interval=900)


PARTICULARS = ShipParticulars(
    ShipType.BULK_CARRIER, beam=30.0, design_draft=10.0, lwl=180.0,
    calm_water_curves=(CalmWaterCurve("sea_trial", ((1.0, 1.0e5), (3.0, 2.0e6))),),
)


def write_all(dataset, out):
    emit_plotdata(dataset, out, PARTICULARS, timestamp_header=False)
    return {p.name: p.read_bytes().decode() for p in sorted(out.iterdir())}


PROCESSED = (
    'timestamp,lat,lon,sog,stw,shaft_power,draft_fore,raw_draft_fore,rel_wind_speed,'
    'rel_wind_dir,rel_wind_long,note,trip_id,flag_missing_inserted,flag_invalid_range,'
    'flag_repeated_value,flag_dropout,flag_spike,flag_unsteady,flag_irrational_position,'
    'flag_irrational_speed,flag_angular_averaging_fault,flag_correlation_outlier,'
    'flag_draft_corrected,flag_stale_ais_status\r\n'
    '2020-09-13T12:26:40Z,0.1,-0.5,0.1,1e-300,-0.0,9.25,,8.0,359.9,7.9,"say ""hi"",'
    ' then go",1,0,0,0,0,1,0,0,0,1,0,0,0\r\n'
    '2020-09-13T12:41:40Z,,,5.144444444444445,2.0,1500000.0,9.0,8.6,3.3,180.0,-1.7,"a,b",'
    '1,0,0,0,0,0,0,0,0,0,0,1,0\r\n'
    '2020-09-13T12:56:40Z,-12.5,179.99,-0.0,123456789.123,,,,,,,x,,0,0,0,0,0,0,0,0,0,0,0,'
    '0\r\n'
    '2020-09-13T13:11:40Z,,,,,,,,,,,,,1,0,0,0,0,0,0,0,0,0,0,0\r\n'
)
TRIP = (
    'timestamp,sog,stw,shaft_power,draft_fore,lat,lon\r\n'
    '2020-09-13T12:26:40Z,0.1,1e-300,-0.0,9.25,0.1,-0.5\r\n'
    '2020-09-13T12:41:40Z,5.144444444444445,2.0,1500000.0,9.0,,\r\n'
)
SPEED_POWER = (
    'timestamp,stw,shaft_power,curve_power\r\n'
    '2020-09-13T12:26:40Z,1e-300,-0.0,\r\n'
    '2020-09-13T12:41:40Z,2.0,1500000.0,1050000.0\r\n'
)
WIND = (
    'timestamp,ship_long_wind,hindcast_long_wind,angular_fault\r\n'
    '2020-09-13T12:26:40Z,7.899987815306302,7.800000000000001,1\r\n'
    '2020-09-13T12:41:40Z,-8.444444444444445,-6.844444444444445,0\r\n'
)
DRAFT = (
    'timestamp,trip_id,raw_draft_fore,draft_fore\r\n'
    '2020-09-13T12:26:40Z,1,,9.25\r\n'
    '2020-09-13T12:41:40Z,1,8.6,9.0\r\n'
)


def test_writers_match_golden_text(tmp_path):
    got = write_all(golden_dataset(), tmp_path)
    assert got == {
        "draft_correction.csv": DRAFT,
        "processed.csv": PROCESSED,
        "speed_power.csv": SPEED_POWER,
        "trip_001.csv": TRIP,
        "wind_comparison.csv": WIND,
    }


@pytest.mark.parametrize("block", [1, 3])
def test_writers_match_golden_text_in_small_blocks(tmp_path, monkeypatch, block):
    # the writers build rows CSV_BLOCK_ROWS at a time; the files must not show it
    monkeypatch.setattr(ingest, "CSV_BLOCK_ROWS", block)
    test_writers_match_golden_text(tmp_path)


def test_zero_row_dataset_writes_header_only_files(tmp_path):
    empty = rows_dataset(golden_dataset().schema, [], sampling_interval=900)
    got = write_all(empty, tmp_path)
    assert got["processed.csv"] == PROCESSED.split("\r\n")[0] + "\r\n"
    assert got["speed_power.csv"] == "timestamp,stw,shaft_power,curve_power\r\n"
    assert got["wind_comparison.csv"] == (
        "timestamp,ship_long_wind,hindcast_long_wind,angular_fault\r\n"
    )
    assert got["draft_correction.csv"] == "timestamp,trip_id,raw_draft_fore,draft_fore\r\n"
    assert "trip_001.csv" not in got  # no rows, so no trip


def test_trip_without_plot_data_writes_timestamps_only(tmp_path):
    empty_trip = rows_dataset(golden_dataset().schema, [Sample(T0, {}, trip_id=1)])
    got = write_all(empty_trip, tmp_path)
    assert got["trip_001.csv"] == "timestamp\r\n2020-09-13T12:26:40Z\r\n"


def test_processed_csv_round_trips_exactly(tmp_path):
    ds = golden_dataset()
    back, trips, flags = write_and_read_processed(ds, tmp_path / "processed.csv")
    assert back.timestamps.tolist() == ds.timestamps.tolist()
    for spec in ds.schema:
        if spec.kind == "text":
            assert back.text_column(spec.name).tolist() == ds.text_column(spec.name).tolist()
        else:  # bit-equal, -0.0 and 1e-300 included
            assert back.column(spec.name).tobytes() == ds.column(spec.name).tobytes()
    assert trips.tolist() == ds.trip_ids.tolist()
    assert flags == [flags_at(ds, i) for i in range(len(ds))]


def test_ship_csv_knots_round_trip(tmp_path):
    # knots in, SI in processed.csv, and the same SI values read back from it
    cells = ["10", "0.3779", "19.438444924406048", ""]
    src = tmp_path / "ship.csv"
    src.write_text("timestamp,sog\n" + "".join(
        f"2020-09-13T12:{10 + k}:00Z,{c}\n" for k, c in enumerate(cells)
    ))
    ds = load_ship_csv(src, unit_map={"sog": "knots"}, source_kind=DEFAULTS.source_kind)
    sog = ds.column("sog")
    assert sog[0] == pytest.approx(10.0 * KNOT, rel=1e-15)
    for got, cell in zip(sog[:3] / KNOT, cells):
        assert got == pytest.approx(float(cell), rel=1e-15, abs=0.0)
    assert np.isnan(sog[3])
    back, _, _ = write_and_read_processed(ds, tmp_path / "processed.csv")
    assert back.column("sog").tobytes() == sog.tobytes()


def read_all(out):
    return {p.name: p.read_bytes().decode() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_one_pass_writes_the_golden_text(tmp_path, monkeypatch, block):
    # run's path: processed.csv and the plot files from the same formatted
    # cells, and the generated-at line on processed.csv alone
    monkeypatch.setattr(ingest, "CSV_BLOCK_ROWS", block)
    emit_plotdata(golden_dataset(), tmp_path, PARTICULARS)
    got = read_all(tmp_path)
    first, got["processed.csv"] = got["processed.csv"].split("\n", 1)
    assert first.startswith("# generated ") and first.endswith("Z")
    assert got == {
        "draft_correction.csv": DRAFT,
        "processed.csv": PROCESSED,
        "speed_power.csv": SPEED_POWER,
        "trip_001.csv": TRIP,
        "wind_comparison.csv": WIND,
    }


def test_processed_csv_preamble_is_one_newline_ended_line(tmp_path):
    write_processed_csv(golden_dataset(), tmp_path / "processed.csv")
    text = (tmp_path / "processed.csv").read_bytes().decode()
    first, rest = text.split("\n", 1)
    assert first.startswith("# generated ") and first.endswith("Z")
    assert rest == PROCESSED


@pytest.mark.parametrize("block", [1, 4096])
def test_plotdata_and_run_write_the_same_plot_files(tmp_path, monkeypatch, block):
    # the CLI's run writes what the library's run_pipeline and emit_plotdata write
    monkeypatch.setattr(ingest, "CSV_BLOCK_ROWS", block)
    paths = VoyageBuilder(tmp_path, wind="head_east", wind_dir_fault=True,
                          resistance=True).build()
    run = tmp_path / "run"
    args = ["--config", str(paths["config"]), "--out", str(run), "--no-timestamp-header"]
    assert main(["run", *args]) == 0
    got = {k: v for k, v in read_all(run).items() if not k.startswith("report")}
    result = run_pipeline(load_config(paths["config"]))
    emit_plotdata(result.dataset, tmp_path / "plotdata", result.particulars, False)
    assert got == read_all(tmp_path / "plotdata")
    assert sorted(got) == [
        "draft_correction.csv", "processed.csv", "speed_power.csv", "trip_001.csv",
        "trip_002.csv", "trip_003.csv", "wind_comparison.csv",
    ]
    assert all(text.count("\r\n") > 20 for text in got.values())


# text as the writer must quote it: separators, quotes, both line-end
# characters, padding, non-ASCII, and any other text
TEXT = st.one_of(
    st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "é", "\u2028", "#", "\t"]),
            max_size=6),
    st.text(max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(TEXT, min_size=1, max_size=4), min_size=1, max_size=5).filter(
    lambda rows: len({len(r) for r in rows}) == 1
))
def test_lines_match_csv_writer(rows):
    want = io.StringIO(newline="")
    csv.writer(want).writerows(rows)
    columns = [[csv_field(c) for c in col] for col in zip(*rows)]
    assert "".join(csv_lines(columns)) == want.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.lists(TEXT.filter(bool), min_size=1, max_size=4, unique=True), st.data())
def test_processed_csv_same_bytes_as_csv_writer(tmp_path_factory, names, data):
    n = data.draw(st.integers(0, 6))
    cells = st.lists(st.one_of(st.none(), TEXT), min_size=n, max_size=n)
    schema = [VariableSpec(name, kind="text") for name in names]
    columns = {name: data.draw(cells) for name in names}
    dataset = new_dataset(schema, [T0 + 900 * i for i in range(n)], columns)
    out = tmp_path_factory.mktemp("out")
    write_processed_csv(dataset, out / "processed.csv", timestamp_header=False)
    header, rows = processed_rows(dataset)
    write_csv(out / "reference.csv", [], header, rows)
    assert (out / "processed.csv").read_bytes() == (out / "reference.csv").read_bytes()

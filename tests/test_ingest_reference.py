"""The columnar ``ingest.load_ship_csv`` against the row-by-row reader it
replaced (``tests/ingest_reference.py``), on dirty ship CSVs: garbage
tokens, non-finite and overflowing numbers, empty and padded cells, short
and long rows, bad or empty timestamps, comment rows, shuffled rows, unit
conversion, auto-declared numeric and text columns, out-of-range latitudes
and mostly unparseable bare-minimum columns. Both must give bit-equal
columns, the same ``ingest:ship_csv`` entry, and the same error, type and
message. Timestamps are unique and header names distinct: a repeated
timestamp or name is where the two differ by design."""

import csv

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, iso
from dataset_reference import assert_same
from ingest_reference import load_ship_csv_rows
from shipdataprep.ingest import IngestError, load_ship_csv
from shipdataprep.model import DatasetError, ProcessingReport, SchemaError

# header name -> what its cells look like; bare-minimum: stw, shaft_power
COLUMNS = {
    "lat": "lat",
    "lon": "number",
    "sog": "number",
    "stw": "number",
    "shaft_power": "number",
    "heading": "number",
    "state": "text",
    "x_auto": "number",
    "x_label": "text",
}
UNITS = {"sog": "knots", "shaft_power": "kW", "x_auto": "kW", "state": "knots", "lon": "m"}
GARBAGE = ["abc", "--", "1.2.3", "0x10", "five", "1e", "N/A"]
SPECIAL = ["inf", "-inf", "nan", "NaN", "1e400", "-1e400", "1e308", " 4.5 ", "  ", "1_000", "+7", "-0"]


def cell(kind: str) -> st.SearchStrategy[str]:
    numbers = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.integers(-10**6, 10**6).map(str),
    )
    if kind == "text":
        return st.sampled_from(["", " ", "At Berth", " Sea Passage", "x y", "7"])
    if kind == "lat":
        numbers = st.one_of(st.floats(-95.0, 95.0).map(repr), st.sampled_from(["90", "-90.0"]))
    return st.one_of(
        st.just(""), numbers, numbers, st.sampled_from(SPECIAL), st.sampled_from(GARBAGE)
    )


def timestamp_cell(ts: int) -> st.SearchStrategy[str]:
    text = iso(ts)
    return st.sampled_from([text, text[:-1], text[:-1] + "+00:00", f" {text} "])


@st.composite
def dirty_csv(draw):
    names = draw(st.lists(st.sampled_from(list(COLUMNS)), unique=True, max_size=6))
    header = list(names)
    header.insert(draw(st.integers(0, len(names))), "timestamp")
    ts_at = header.index("timestamp")
    stamps = draw(st.lists(st.integers(0, 10**5), unique=True, max_size=12))
    rows = []
    for t in stamps:
        row = [draw(cell(COLUMNS[name])) if name != "timestamp" else "" for name in header]
        row[ts_at] = draw(timestamp_cell(T0 + 60 * t))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):  # rows without a usable timestamp
        row = [draw(cell(COLUMNS[name])) if name != "timestamp" else "" for name in header]
        row[ts_at] = draw(st.sampled_from(["", "  ", "yesterday", "2021-13-45T00:00:00Z"]))
        rows.append(row)
    if names and rows and draw(st.booleans()):  # a bare-minimum column mostly lost
        for row in rows:
            if "stw" in header and draw(st.integers(0, 3)):
                row[header.index("stw")] = draw(st.sampled_from(GARBAGE + ["inf"]))
    rows = draw(st.permutations(rows))
    cut = [draw(st.integers(0, 2)) for _ in rows]  # 0: whole, 1: short, 2: long
    rows = [
        r if c == 0 else (r[: draw(st.integers(1, len(r)))] if c == 1 else r + ["9.5", "junk"])
        for r, c in zip(rows, cut)
    ]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), ["# comment", "1.0"])
    padded = [f" {h} " if draw(st.booleans()) else h for h in header]
    units = {k: v for k, v in UNITS.items() if draw(st.booleans())}
    return [padded] + rows, units


def outcome(load, path, units):
    report = ProcessingReport()
    try:
        result = load(path, unit_map=units, report=report)
    except (IngestError, DatasetError, SchemaError) as exc:
        result = exc
    return result, [e.to_dict() for e in report.stage_entries]


@settings(max_examples=150, deadline=None)
@given(dirty_csv(), st.sampled_from(["in_service", "ais"]))
def test_columnar_reader_matches_row_reader(tmp_path_factory, drawn, source_kind):
    rows, units = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)

    def columnar(p, **kw):
        return load_ship_csv(p, source_kind=source_kind, **kw)

    def reference(p, **kw):
        return load_ship_csv_rows(p, source_kind=source_kind, **kw)

    got, got_entries = outcome(columnar, path, units)
    want, want_entries = outcome(reference, path, units)
    assert got_entries == want_entries
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert_same(got, want)

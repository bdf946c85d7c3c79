"""The columnar ``ingest.load_ship_csv`` against the row-by-row reader it
replaced (``tests/ingest_reference.py``), on dirty ship CSVs: garbage
tokens, non-finite and overflowing numbers, empty and padded cells, short
and long rows, bad, empty or impossible timestamps, comment and blank rows,
quoted cells, ``\r\n`` or ``\n`` line ends, shuffled rows, unit conversion,
auto-declared numeric and text columns, out-of-range latitudes and mostly
unparseable bare-minimum columns. Both must give bit-equal columns, the
same ``ingest:ship_csv`` entry, and the same error, type and message.
Timestamps are unique and header names distinct: a repeated timestamp or
name is where the two differ by design. ``csv_columns`` must split each
such file as ``csv.reader`` does, on both of its paths."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, iso
from dataset_reference import assert_same
from ingest_reference import csv_columns_rows, load_ship_csv_rows
from shipdataprep.ingest import IngestError, csv_columns, load_ship_csv
from shipdataprep.model import DatasetError, ProcessingReport, SchemaError

# header name -> what its cells look like; bare-minimum: stw, shaft_power, and
# lat, lon and sog in an AIS file
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
# unparseable stamps, the canonical-looking ones among them impossible dates
BAD_STAMPS = ["", "  ", "yesterday", "2021-13-45T00:00:00Z", "2021-02-29T00:00:00Z",
              "2021-02-30T00:00:00Z", "2021-01-01T24:00:00Z", "2021-01-01T00:00:60Z",
              "0000-01-01T00:00:00Z", "2021-01-01T00:00:00z"]
SPECIAL = ["inf", "-inf", "nan", "NaN", "1e400", "-1e400", "1e308", " 4.5 ", "  ", "1_000", "+7", "-0"]


def cell(kind: str, clean: bool) -> st.SearchStrategy[str]:
    """A cell of this kind; in a ``clean`` file every number cell parses."""
    numbers = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.integers(-10**6, 10**6).map(str),
    )
    if kind == "text":
        return st.sampled_from(["", " ", "At Berth", " Sea Passage", "x y", "7", "x, y"])
    if kind == "lat":
        numbers = st.one_of(st.floats(-95.0, 95.0).map(repr), st.sampled_from(["90", "-90.0"]))
    if clean:
        return st.one_of(numbers, st.sampled_from(["1e400", " 4.5 ", "+7", "-0", "nan"]))
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
    clean = draw(st.integers(0, 3)) == 0
    stamps = draw(st.lists(st.integers(0, 10**5), unique=True, max_size=12))
    rows = []
    for t in stamps:
        row = [draw(cell(COLUMNS[name], clean)) if name != "timestamp" else "" for name in header]
        row[ts_at] = draw(timestamp_cell(T0 + 60 * t))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):  # rows without a usable timestamp
        row = [draw(cell(COLUMNS[name], clean)) if name != "timestamp" else "" for name in header]
        row[ts_at] = draw(st.sampled_from(BAD_STAMPS))
        rows.append(row)
    if names and rows and draw(st.booleans()):  # a bare-minimum column mostly lost
        for row in rows:
            if "stw" in header and draw(st.integers(0, 3)):
                row[header.index("stw")] = draw(st.sampled_from(GARBAGE + ["inf"]))
    rows = draw(st.permutations(rows))
    ragged = draw(st.booleans())  # only a file of whole rows can be split as a whole
    cut = [draw(st.integers(0, 2)) if ragged else 0 for _ in rows]  # 0: whole, 1: short, 2: long
    rows = [
        r if c == 0 else (r[: draw(st.integers(1, len(r)))] if c == 1 else r + ["9.5", "junk"])
        for r, c in zip(rows, cut)
    ]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), ["# comment", "1.0"])
    if draw(st.integers(0, 3)) == 0:  # a blank line
        rows.insert(draw(st.integers(0, len(rows))), [])
    padded = [f" {h} " if draw(st.booleans()) else h for h in header]
    units = {k: v for k, v in UNITS.items() if draw(st.booleans())}
    return [padded] + rows, units, draw(st.sampled_from(["\r\n", "\n"]))


def write(path, rows, terminator):
    """``csv.writer`` rows: a cell with a comma is quoted."""
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator=terminator).writerows(rows)


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
    rows, units, terminator = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    write(path, rows, terminator)

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


def split(path):
    try:
        header, lines, cells = csv_columns(path)
    except IngestError as exc:
        return str(exc)
    return list(header), tuple(lines), [tuple(c) for c in cells]


@settings(max_examples=150, deadline=None)
@given(dirty_csv(), st.booleans())
def test_split_matches_csv_reader(tmp_path_factory, drawn, trailing_newline):
    rows, _, terminator = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    write(path, rows, terminator)
    if not trailing_newline:
        path.write_bytes(path.read_bytes().removesuffix(terminator.encode()))
    header, lines, cells = csv_columns_rows(path)
    assert split(path) == (list(header), tuple(lines), [tuple(c) for c in cells])


def test_split_paths(tmp_path):
    """A file of whole rows is split as a whole, text and line numbers the
    same as ``csv.reader``'s, around comment and blank lines, with ``\\n``,
    ``\\r\\n`` or mixed line ends; a quote, a bare carriage return or a
    ragged row sends a file to ``csv.reader``."""
    path = tmp_path / "ship.csv"
    for text in (
        "# made by hand\ntimestamp,sog\n\nT1,1.5\n# note\nT2, 2\n\n",
        "timestamp,sog\nT1,1.5\nT2,2",
        'timestamp,sog\nT1,"1,5"\n',
        "timestamp,sog\r\nT1,1.5\r\n",
        "# made by hand\r\ntimestamp,sog\r\n\r\nT1,1.5\nT2,2\r\n# note\nT3,3",
        "timestamp,sog\rT1,1.5\rT2,2\r",
        "timestamp,sog\r\nT1,1.5\rT2,2\r\n",
        "timestamp,sog\r\r\nT1,1.5\r\n",
        "timestamp,sog\nT1,1.5,9\nT2\n",
        "timestamp,sog\n",
    ):
        path.write_text(text, newline="")
        header, lines, cells = csv_columns_rows(path)
        assert split(path) == (list(header), tuple(lines), [tuple(c) for c in cells]), text
    path.write_text("# made by hand\ntimestamp,sog\n\nT1,1.5\n# note\nT2, 2\n", newline="")
    assert split(path) == (["timestamp", "sog"], (4, 6), [("T1", "T2"), ("1.5", " 2")])


def test_crlf_file_is_split_without_the_reader(tmp_path, monkeypatch):
    def reader(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(csv, "reader", reader)
    path = tmp_path / "ship.csv"
    path.write_text("timestamp,sog\r\nT1,1.5\nT2,2\r\n", newline="")
    assert split(path) == (["timestamp", "sog"], (2, 3), [("T1", "T2"), ("1.5", "2")])
    path.write_text("timestamp,sog\r\nT1,1.5\rT2,2\r\n", newline="")
    with pytest.raises(AssertionError, match="csv.reader was called"):
        csv_columns(path)


def test_split_keeps_the_reader_cell_size_limit(tmp_path):
    path = tmp_path / "ship.csv"
    path.write_text("timestamp,note\nT1," + "x" * (csv.field_size_limit() + 1) + "\n")
    # the package names the file; the reader's own error is csv.Error
    with pytest.raises(IngestError, match=r"ship\.csv:2: field larger than field limit"):
        csv_columns(path)
    with pytest.raises(csv.Error, match="field larger than field limit"):
        csv_columns_rows(path)

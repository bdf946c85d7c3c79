"""The columnar ``ingest.load_ship_csv`` against the row-by-row reader it
replaced (``tests/ingest_reference.py``), on dirty ship CSVs: garbage
tokens, non-finite and overflowing numbers, empty and padded cells, short
and long rows, bad, empty or impossible timestamps, comment and blank rows,
quoted cells, ``\r\n`` or ``\n`` line ends, shuffled rows, unit conversion,
auto-declared numeric and text columns, out-of-range latitudes and mostly
unparseable bare-minimum columns. Both must give bit-equal columns, the
same ``ingest:ship_csv`` entry, and the same error, type and message.
Timestamps are unique and header names distinct: a repeated timestamp or
name is where the two differ by design. ``csv_blocks`` must split each
such file as ``csv.reader`` does, on both of its paths. One file in three
is plain, so that numpy's text reader takes its blocks; a table of single
lines around the reader's choice (garbage, ``1_000``, a non-ASCII digit,
padded and long stamps, ``\r\n``, comment, blank and whitespace-only lines,
a NUL, ``#`` copies of rows) must give the whole-file reader's result,
with the line's block handed to the reader exactly when it has no NUL,
quote or bare carriage return; a comment or blank row is dropped from its
block before, and the reader is never handed one.

The block readers are also held against the whole-file readers they
replaced, with ``READ_ROWS`` at 1, 3 and its default: ``load_ship_csv`` on
the same files with repeated timestamps and names as well, and
``load_hindcast`` on dirty grids (masked cells with spaces, non-finite and
unknown tokens, short and long lines, blank and comment lines, a missing
header, a falling axis). Each must give bit-equal arrays, the same notes
and the same error text, line numbers included, apart from the two
intended changes of the grid: a non-finite number is a masked cell, and an
axis or shape error names the file."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEFAULTS, T0, iso
from dataset_reference import assert_same
from ingest_reference import csv_columns, csv_columns_rows, load_ship_csv_rows, load_ship_csv_whole
from ingest_reference import load_hindcast as load_hindcast_whole
from shipdataprep import ingest
from shipdataprep.ingest import IngestError, csv_blocks, load_hindcast, load_ship_csv
from shipdataprep.model import DatasetError, ProcessingReport, SchemaError

BLOCK_ROWS = (1, 3, ingest.READ_ROWS)


def read_rows(n: int):
    """``ingest.READ_ROWS`` set to ``n`` while the block is open."""
    return mock.patch.object(ingest, "READ_ROWS", n)


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
# finite extremes and subnormals, as written
EXTREMES = ["1.7976931348623157e+308", "-1.7976931348623157e+308", "2.2250738585072014e-308",
            "5e-324", "-5e-324", "1e-310", "4.9406564584124654e-324", "-0.0", "1e306"]


def cell(kind: str, clean: bool) -> st.SearchStrategy[str]:
    """A cell of this kind; in a ``clean`` file every number cell parses."""
    numbers = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from(EXTREMES),
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


def timestamp_cell(ts: int, plain: bool = False) -> st.SearchStrategy[str]:
    """A cell of the stamp ``ts``; a ``plain`` one in a canonical form."""
    text = iso(ts)
    return st.sampled_from([text, text[:-1]] + [text[:-1] + "+00:00", f" {text} "] * (not plain))


@st.composite
def dirty_csv(draw, repeats=False):
    """Rows of a dirty ship CSV, its unit map and its line end. With
    ``repeats``, timestamps and header names may repeat and a name may be
    blank. One file in three is plain, for numpy's text reader: whole rows
    of numeric columns, every number cell parses, the stamps canonical
    but for the rows without a usable one; one plain file in four has
    blank lines or ``#`` copies of rows as well."""
    plain = draw(st.integers(0, 2)) == 0
    pool = [name for name in COLUMNS if not plain or COLUMNS[name] != "text"] + [""] * repeats
    names = draw(st.lists(st.sampled_from(pool), unique=not repeats, max_size=6))
    header = list(names)
    header.insert(draw(st.integers(0, len(names))), "timestamp")
    ts_at = header.index("timestamp")
    clean = plain or draw(st.integers(0, 3)) == 0
    most = 8 if repeats else 10**5
    stamps = draw(st.lists(st.integers(0, most), unique=not repeats, max_size=12))
    rows = []
    for t in stamps:
        row = [draw(cell(COLUMNS.get(name, "number"), clean)) if name != "timestamp" else ""
               for name in header]
        row[ts_at] = draw(timestamp_cell(T0 + 60 * t, plain))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):  # rows without a usable timestamp
        row = [draw(cell(COLUMNS.get(name, "number"), clean)) if name != "timestamp" else ""
               for name in header]
        row[ts_at] = draw(st.sampled_from(BAD_STAMPS))
        rows.append(row)
    units = {k: v for k, v in UNITS.items() if draw(st.booleans())}
    if plain:
        rows = [header] + draw(st.permutations(rows))
        if draw(st.integers(0, 3)) == 0:  # the header too may follow such a line
            for _ in range(draw(st.integers(1, 3))):  # a blank line or a "#" copy of a row
                row = draw(st.sampled_from(rows + [[]]))
                rows.insert(draw(st.integers(0, len(rows))), row and ["#" + row[0], *row[1:]])
        return rows, units, draw(st.sampled_from(["\r\n", "\n"]))
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
    return [padded] + rows, units, draw(st.sampled_from(["\r\n", "\n"]))


def write(path, rows, terminator):
    """``csv.writer`` rows: a cell with a comma is quoted."""
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator=terminator).writerows(rows)


def outcome(load, path, units, source_kind):
    report = ProcessingReport()
    try:
        result = load(path, unit_map=units, source_kind=source_kind, report=report)
    except (IngestError, DatasetError, SchemaError) as exc:
        result = exc
    return result, [e.to_dict() for e in report.stage_entries]




def assert_identical(got, want):
    """Two datasets with the same schema, timestamps, bit-equal columns,
    flags and trip ids."""
    assert got.schema == want.schema
    assert (got.source_kind, got.sampling_interval) == (want.source_kind, want.sampling_interval)
    assert got.timestamps.tolist() == want.timestamps.tolist()
    for spec in want.schema:
        if spec.kind == "text":
            assert got.text_column(spec.name).tolist() == want.text_column(spec.name).tolist()
        else:
            assert got.column(spec.name).tobytes() == want.column(spec.name).tobytes()
    assert got.flag_bits.tolist() == want.flag_bits.tolist()
    assert got.trip_ids.tolist() == want.trip_ids.tolist()


def same_outcome(got, want):
    """Two ``outcome``s with the same entries, and the same error (type and
    text) or none."""
    (got, got_entries), (want, want_entries) = got, want
    assert got_entries == want_entries
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got


@settings(max_examples=225, deadline=None)
@given(dirty_csv(), st.sampled_from(["in_service", "ais"]), st.sampled_from(BLOCK_ROWS))
def test_columnar_reader_matches_row_reader(tmp_path_factory, drawn, source_kind, block_rows):
    rows, units, terminator = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    write(path, rows, terminator)

    with read_rows(block_rows):
        got = outcome(load_ship_csv, path, units, source_kind)
    want = outcome(load_ship_csv_rows, path, units, source_kind)
    same_outcome(got, want)
    if not isinstance(want[0], Exception):
        assert_same(got[0], want[0])


@settings(max_examples=225, deadline=None)
@given(dirty_csv(repeats=True), st.sampled_from(["in_service", "ais"]),
       st.sampled_from(BLOCK_ROWS))
def test_block_reader_matches_whole_file_reader(tmp_path_factory, drawn, source_kind,
                                                block_rows):
    """Also on repeated timestamps (the first row of one is kept, in
    whichever block it falls) and repeated or blank names."""
    rows, units, terminator = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    write(path, rows, terminator)

    with read_rows(block_rows):
        got = outcome(load_ship_csv, path, units, source_kind)
    want = outcome(load_ship_csv_whole, path, units, source_kind)
    same_outcome(got, want)
    if not isinstance(want[0], Exception):
        assert_identical(got[0], want[0])


def split(path):
    """``csv_blocks`` of a file gathered as one: the header, the line number
    of each row and the cells of each column; or the error text."""
    try:
        blocks = csv_blocks(path)
        header = next(blocks)
        lines, columns = [], [[] for _ in header]
        for at, _, cells in blocks:
            lines += at.tolist()
            for column, part in zip(columns, cells()):
                column += part
    except IngestError as exc:
        return str(exc)
    return list(header), tuple(lines), [tuple(c) for c in columns]


def whole(path):
    """The same of the whole-file splitter ``csv_columns``."""
    try:
        header, lines, cells = csv_columns(path)
    except IngestError as exc:
        return str(exc)
    return list(header), tuple(lines), [tuple(c) for c in cells]


@settings(max_examples=225, deadline=None)
@given(dirty_csv(), st.booleans(), st.sampled_from(BLOCK_ROWS))
def test_split_matches_csv_reader(tmp_path_factory, drawn, trailing_newline, block_rows):
    rows, _, terminator = drawn
    path = tmp_path_factory.mktemp("csv") / "ship.csv"
    write(path, rows, terminator)
    if not trailing_newline:
        path.write_bytes(path.read_bytes().removesuffix(terminator.encode()))
    header, lines, cells = csv_columns_rows(path)
    with read_rows(block_rows):
        got = split(path)
    assert got == (list(header), tuple(lines), [tuple(c) for c in cells])
    assert got == whole(path)


def test_split_paths(tmp_path):
    """A block of whole rows is split as a whole, text and line numbers the
    same as ``csv.reader``'s, around comment and blank lines, with ``\\n``,
    ``\\r\\n`` or mixed line ends; a quote, a bare carriage return or a
    ragged row sends a block to ``csv.reader`` or a split by row. Each block
    size gives the same."""
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
        for n in BLOCK_ROWS:
            with read_rows(n):
                assert split(path) == (list(header), tuple(lines), [tuple(c) for c in cells]), text
    path.write_text("# made by hand\ntimestamp,sog\n\nT1,1.5\n# note\nT2, 2\n", newline="")
    for n in BLOCK_ROWS:
        with read_rows(n):
            assert split(path) == (["timestamp", "sog"], (4, 6), [("T1", "T2"), ("1.5", " 2")])


def test_quoted_field_runs_on_past_the_block(tmp_path):
    """A quoted field that spans lines is read past the end of its block,
    and the next block starts after it; a ``\\r\\n`` inside it reads as
    ``\\n`` unless the file has a bare ``\\r``, as over the whole text."""
    path = tmp_path / "ship.csv"
    for text, note in (
        ('timestamp,note\nT1,"a\nb\nc"\nT2,d\nT3,e\n', "a\nb\nc"),
        ('timestamp,note\r\nT1,"a\r\nb\r\nc"\r\nT2,d\r\nT3,e\r\n', "a\nb\nc"),
        ('timestamp,note\r\nT1,"a\r\nb\r\nc"\r\nT2,d\r\nT3,e\r', "a\r\nb\r\nc"),
    ):
        path.write_text(text, newline="")
        for n in BLOCK_ROWS:
            with read_rows(n):
                got = split(path)
            assert got == (["timestamp", "note"], (4, 5, 6), [("T1", "T2", "T3"), (note, "d", "e")])
            assert got == whole(path)


def test_crlf_file_is_split_without_the_reader(tmp_path, monkeypatch):
    def reader(*args, **kwargs):
        raise AssertionError("csv.reader was called")

    monkeypatch.setattr(csv, "reader", reader)
    path = tmp_path / "ship.csv"
    path.write_text("timestamp,sog\r\nT1,1.5\nT2,2\r\n", newline="")
    assert split(path) == (["timestamp", "sog"], (2, 3), [("T1", "T2"), ("1.5", "2")])
    path.write_text("timestamp,sog\r\nT1,1.5\rT2,2\r\n", newline="")
    with pytest.raises(AssertionError, match="csv.reader was called"):
        split(path)


def test_split_keeps_the_reader_cell_size_limit(tmp_path):
    path = tmp_path / "ship.csv"
    path.write_text("timestamp,note\nT1," + "x" * (csv.field_size_limit() + 1) + "\n")
    # the package names the file; the reader's own error is csv.Error
    for n in BLOCK_ROWS:
        with read_rows(n), pytest.raises(
                IngestError, match=r"ship\.csv:2: field larger than field limit"):
            list(csv_blocks(path))
    with pytest.raises(csv.Error, match="field larger than field limit"):
        csv_columns_rows(path)
    # the line number counts the lines of the blocks before
    path.write_text("timestamp,note\n" + "T1,a\n" * 4 + "T2," + "x" * (csv.field_size_limit() + 1))
    for n in BLOCK_ROWS:
        with read_rows(n), pytest.raises(
                IngestError, match=r"ship\.csv:6: field larger than field limit"):
            list(csv_blocks(path))


# the lines of a file around one line, and whether numpy's text reader is
# handed that line's block: it reads a plain block of whole lines, and
# refuses one with an unparseable or empty cell or a cut stamp; then the
# block goes cell by cell. A comment or blank row (see ``dropped``) is taken
# out of its block first, and the reader is handed the rest. It never sees
# a block with a NUL, a quote or a bare carriage return
READER_CASES = [
    ("T3,7.5,1.0\n", True),
    ("T3,abc,1.0\n", True),
    ("T3,1_000,1.0\n", True),
    ("T3,\u0661,1.0\n", True),
    ("T3,\xa01.5,1.0\n", True),
    ("T3,,1.0\n", True),
    ("T3,7.5\n", True),
    ("T3,7.5,1.0,9\n", True),
    ("   \n", True),
    ("# note\n", True),
    ("\n", True),
    ("#T3,7.5,1.0\n", True),
    (" T3 ,7.5,1.0\n", True),
    ("T3+00:00,7.5,1.0\n", True),
    ("T3,7.5,1.0\r\n", True),
    ("T3,7.5\x00,1.0\n", False),
    ("T3\x00,7.5,1.0\n", False),
    ("T3\x00\x00x,7.5,1.0\n", False),
    ('T3,"7.5",1.0\n', False),
    ("T3,7.5,1.0\r", False),
]


def load_case(tmp_path, text, block_rows):
    """A file of ``text``, loaded at ``block_rows``: it must give what the
    whole-file reader gives. Returns the lines handed to numpy's text
    reader."""
    path = tmp_path / "ship.csv"
    path.write_text(text, newline="")
    units = {"sog": "knots"}
    with read_rows(block_rows), mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as reader:
        got = outcome(load_ship_csv, path, units, DEFAULTS.source_kind)
    handed = [text_line for call in reader.call_args_list for text_line in call.args[0]]
    want = outcome(load_ship_csv_whole, path, units, DEFAULTS.source_kind)
    same_outcome(got, want)
    if not isinstance(want[0], Exception):
        assert_identical(got[0], want[0])
    return handed


def stamps_of(stamp, n):
    """``n`` distinct stamps in the form of ``stamp``, a minute apart."""
    return [stamp.replace("30:00", f"3{k}:00") for k in range(n)]


def reader_case(tmp_path, header, line, block_rows, stamp):
    """A file of ``header`` with ``line`` among three rows, loaded at
    ``block_rows`` by :func:`load_case`. Returns the line, the text of the
    file and the lines handed to numpy's text reader."""
    t = stamps_of(stamp, 4)
    line = line.replace("T3", t[3])
    text = f"{header}\n{t[0]},1.5,2.0\n{t[1]},2.5,-0.0\n{line}{t[2]},4.5,5e-324\n"
    return line, text, load_case(tmp_path, text, block_rows)


STAMPS = ["2020-09-13T12:30:00Z", "2020-09-13T12:30:00"]


def dropped(line):
    """Whether ``csv_blocks`` drops ``line`` from a plain block: a blank
    line or one that starts with ``#``."""
    return line[:1] in ("\n", "#")


@pytest.mark.parametrize("line, read", READER_CASES)
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("stamp", STAMPS)
def test_text_reader_takes_plain_blocks(tmp_path, line, read, block_rows, stamp):
    """Each case gives what the whole-file reader gives, at every block size,
    and numpy's text reader is handed the line exactly when it is plain and
    no comment or blank row, which is never handed to it."""
    line, text, handed = reader_case(tmp_path, "timestamp,sog,lon", line, block_rows, stamp)
    assert (line in handed) == (read and not dropped(line))
    if block_rows == ingest.READ_ROWS:  # one block: the reader sees all of it or none
        rows = [r for r in io.StringIO(text, newline="").readlines()[1:] if not dropped(r)]
        assert handed == (rows if read else [])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("stamp", STAMPS)
def test_text_reader_refuses_comment_rows_and_blank_lines(tmp_path, block_rows, stamp):
    """numpy's text reader is never handed a comment row or a blank line,
    and is handed the rest of its block: a ``#`` copy of a row whose first
    column is a number, blank lines that end a block (each line its own
    block at one row a block), and comment lines before the header."""
    t = stamps_of(stamp, 3)
    text = f"sog,timestamp,lon\n1.5,{t[0]},2.0\n#2.5,{t[1]},-0.0\n4.5,{t[2]},5e-324\n"
    handed = load_case(tmp_path, text, block_rows)
    assert handed == [f"1.5,{t[0]},2.0\n", f"4.5,{t[2]},5e-324\n"]

    n = block_rows
    lines = ["timestamp,sog,lon\n"] + [f"{iso(T0 + k)[:len(stamp)]},{k}.5,-{k}.0\n"
                                         for k in range(3 * n)]
    blanks = {n, 2 * n, 3 * n} - {1}  # the last line of a block but the header
    for at in blanks:
        lines[at - 1] = "\n"
    assert load_case(tmp_path, "".join(lines), n) == [r for r in lines[1:] if r != "\n"]

    text = f"# made by hand\n#\ttimestamp,sog\n\ntimestamp,sog,lon\n{t[0]},1.5,2.0\n"
    handed = load_case(tmp_path, text, block_rows)
    assert handed == [f"{t[0]},1.5,2.0\n"]


def test_rows_after_dropped_lines_keep_their_line_numbers(tmp_path):
    """With four lines a block, the second block starts with a comment row
    and a blank line, which are dropped, and numpy's text reader reads the
    rest of it: a repeated stamp on line 7 and a bad one on line 8. The
    dropout evidence names the file's lines 7 and 11, and the entry is the
    whole-file reader's."""
    t = stamps_of(STAMPS[0], 5)
    text = (f"timestamp,sog,lon\n{t[0]},1.5,2.0\n{t[1]},2.5,3.0\n{t[2]},3.5,4.0\n"
            f"# note\n\n{t[1]},9.5,9.0\nbad,1.0,1.0\n"
            f"{t[3]},nan,5.0\n{t[4]},4.5,6.0\n{t[4]},5.5,7.0\n")
    handed = load_case(tmp_path, text, 4)
    assert handed == [r for r in text.splitlines(keepends=True)[1:] if not dropped(r)]
    with read_rows(4):
        _, (entry,) = outcome(load_ship_csv, tmp_path / "ship.csv", {}, DEFAULTS.source_kind)
    assert [(c["verdict"], c["observed"]) for c in entry["checks"]] == [("dropout", 7),
                                                                         ("dropout", 11)]
    assert entry["summary"]["rows_skipped_bad_timestamp"] == 1
    assert entry["summary"]["missing_cells"] == {"sog": 1}


@pytest.mark.parametrize("header", ["timestamp,sog,state", "timestamp,sog,x_fuel",
                                    "timestamp,sog,", "timestamp,sog,sog"],
                         ids=["text", "undeclared", "blank", "repeated"])
@pytest.mark.parametrize("line", [line for line, _ in READER_CASES])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("stamp", STAMPS)
def test_text_reader_takes_only_stamp_and_number_files(tmp_path, header, line, block_rows,
                                                       stamp):
    """A file with a text, an undeclared, a blank-named or a repeated column
    is read cell by cell, every block of it: numpy's text reader is handed
    none of its lines, and each case gives what the whole-file reader gives."""
    assert reader_case(tmp_path, header, line, block_rows, stamp)[2] == []


# -- the hindcast grid ----------------------------------------------------------

GRID_UNITS = {"wind_u": "m/s", "wave_dir": "deg", "hs": "m"}
MASKS = ["M", " M ", "M ", "\tM", "M\x1c"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", " inf "]
UNKNOWN = ["x", "1.2.3", "+M", "-M", "MM", "m", "", "1 M", "\x1fx", "1\x00"]


@st.composite
def dirty_grid(draw):
    """The text of a dirty hindcast grid: masked cells with spaces,
    non-finite numbers, cells padded with what ``str.strip`` strips and
    ``float`` does not, numbers that ``float`` reads and numpy's text reader
    does not, an unknown token, short and long lines, lines that
    repeat another (exact copies, all-``M`` rows, copies that differ only in
    whitespace, copies of a line with an unknown token or a wrong width),
    blank and comment lines, a missing header or a falling axis, at any
    place."""
    names = draw(st.lists(st.sampled_from(list(GRID_UNITS)), min_size=1, max_size=2))
    nt, ny, nx = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    lats = sorted(draw(st.lists(st.integers(-60, 60), min_size=ny, max_size=ny, unique=True)))
    if ny > 1 and draw(st.integers(0, 5)) == 0:
        lats.reverse()
    header = [f"#var {name} {GRID_UNITS[name]}" for name in names]
    header += ["#conv wave_dir from"] * draw(st.booleans())
    header += [
        "#lat " + ",".join(repr(float(v)) for v in lats),
        "#lon " + ",".join(repr(2.0 * i) for i in range(nx)),
        "#time " + ",".join(iso(T0 + 21600 * i) for i in range(nt)),
    ]
    if draw(st.integers(0, 7)) == 0:  # a missing header
        del header[draw(st.integers(0, len(header) - 1))]
    numbers = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
        st.integers(-100, 100).map(str),
        # str.strip() strips \x1c-\x1f, float() does not; float() reads an
        # underscore and non-ASCII digits, numpy's text reader does not
        st.sampled_from([" -0 ", "1e-300", "1_000.5", "+7", "\x1c2.5", "3\x1f",
                         "\u0661\u0662.5", "\uff13", "\u20031.5"]),
    )
    tokens = [numbers, numbers, numbers, st.sampled_from(MASKS)]
    if draw(st.booleans()):
        tokens.append(st.sampled_from(NON_FINITE))
    body = [
        ",".join(draw(st.lists(st.one_of(tokens), min_size=nx, max_size=nx)))
        for _ in range(len(names) * nt * ny)
    ]
    altered = []  # the lines given an unknown token or a wrong width
    if body and draw(st.integers(0, 3)) == 0:  # an unknown token
        i = draw(st.integers(0, len(body) - 1))
        cells = body[i].split(",")
        cells[draw(st.integers(0, nx - 1))] = draw(st.sampled_from(UNKNOWN))
        body[i] = ",".join(cells)
        altered.append(i)
    for _ in range(draw(st.integers(0, 2))):  # a short or a long line
        if body and draw(st.integers(0, 2)) == 0:
            i = draw(st.integers(0, len(body) - 1))
            body[i] = body[i].rsplit(",", 1)[0] if draw(st.booleans()) else body[i] + ",1.5"
            altered.append(i)
    for _ in range(draw(st.integers(0, 4))):  # a line that repeats another
        if len(body) >= 2:
            sources = st.sampled_from(altered) if altered else st.nothing()
            i = draw(st.one_of(st.integers(0, len(body) - 1), sources))
            j = draw(st.sampled_from([i - 1, i + 1, draw(st.integers(0, len(body) - 1))]))
            j %= len(body)
            how = draw(st.sampled_from(["copy", "masked", "spaced"]))
            if how == "masked":
                body[i] = body[j] = ",".join([ingest.MASK_TOKEN] * nx)
            elif how == "copy":
                body[j] = body[i]
            else:  # a copy that differs only in whitespace
                pad = draw(st.sampled_from([" ", "\t", "  "]))
                body[j] = pad + body[i].replace(",", pad + ",") + pad
    if body and draw(st.integers(0, 5)) == 0:  # a line too few
        del body[draw(st.integers(0, len(body) - 1))]
    lines = header + body
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "# note"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


def expected_grid(path):
    """The whole-file grid reader's outcome with the two intended changes: a
    non-finite number masked (value 0.0) and counted in a note per
    variable, and an axis or shape error prefixed with the file."""
    try:
        with np.errstate(invalid="ignore"):  # the sine of an inf angle
            grid = load_hindcast_whole(path)
    except IngestError as exc:
        text = str(exc)
        return text if text.startswith(str(path)) else f"{path}: {text}", []
    variables, notes = [], []
    for v in grid.variables:
        bad = ~np.isfinite(v.values) & ~v.mask
        if bad.any():
            notes.append(f"variable {v.name}: {int(bad.sum())} non-finite cell(s) -> masked")
        variables.append(ingest.GridVariable(
            v.name, v.unit, np.where(bad, 0.0, v.values), v.mask | bad, v.convention))
    return ingest.HindcastGrid(
        tuple(variables), grid.latitudes, grid.longitudes, grid.timestamps
    ), [("ingest:hindcast", notes)] if notes else []


def grid_outcome(path):
    report = ProcessingReport()
    try:
        grid = load_hindcast(path, report)
    except IngestError as exc:
        grid = str(exc)
    return grid, [(e.stage, e.notes) for e in report.stage_entries]


def assert_same_grid(got, want):
    for axis in ("latitudes", "longitudes", "timestamps"):
        assert getattr(got, axis).tobytes() == getattr(want, axis).tobytes()
    assert len(got.variables) == len(want.variables)
    for g, w in zip(got.variables, want.variables):
        assert (g.name, g.unit, g.convention) == (w.name, w.unit, w.convention)
        assert g.values.tobytes() == w.values.tobytes()
        assert g.mask.tobytes() == w.mask.tobytes()
        if w.sin_cos is not None:
            assert [a.tobytes() for a in g.sin_cos] == [a.tobytes() for a in w.sin_cos]


@settings(max_examples=200, deadline=None)
@given(dirty_grid(), st.sampled_from(BLOCK_ROWS))
def test_block_grid_reader_matches_line_reader(tmp_path_factory, text, block_rows):
    path = tmp_path_factory.mktemp("grid") / "grid.txt"
    path.write_text(text, newline="")
    with read_rows(block_rows):
        got, got_entries = grid_outcome(path)
    want, want_entries = expected_grid(path)
    assert got_entries == want_entries
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert_same_grid(got, want)


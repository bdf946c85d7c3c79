"""File ingestion: ship CSV, hindcast grid files, ship particulars and
pipeline configuration, plus the CSV cell formatting and block writer that
the pipeline's output files share.

All loaders convert to the internal SI unit system at the boundary
(m, m/s, W, N*m, degrees) so later stages never see mixed units. Unit
conversion is a pure per-column scale factor.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

import numpy as np

from .model import (
    KNOT,
    SOURCE_KINDS,
    CalmWaterCurve,
    ProcessingReport,
    QualityFlag,
    SchemaError,
    ShipParticulars,
    ShipType,
    VariableSpec,
    VoyageDataset,
    add_flags,
    new_dataset,
    parse_iso_timestamps,
    timestamp_cells,
)
from .tables import VOYAGE_KINDS, block_coefficient_midpoint


class IngestError(ValueError):
    """Fatal problem with an input file."""


class ConfigError(ValueError):
    """Fatal problem with the pipeline configuration."""


# Multiplicative factors into SI. Angles stay in degrees by design.
UNIT_TO_SI: dict[str, float] = {
    "": 1.0,
    "m/s": 1.0,
    "mps": 1.0,
    "knots": KNOT,
    "kn": KNOT,
    "kt": KNOT,
    "W": 1.0,
    "kW": 1000.0,
    "MW": 1.0e6,
    "Nm": 1.0,
    "kNm": 1000.0,
    "m": 1.0,
    "cm": 0.01,
    "deg": 1.0,
    "degrees": 1.0,
    "rpm": 1.0,
    "s": 1.0,
}

# Variables from the bare-minimum list; a mostly-unparseable column among
# these is a fatal ingest error rather than a silent pile of missing values.
BARE_MINIMUM_VARIABLES = frozenset(
    {
        "shaft_rpm",
        "rudder_angle",
        "prop_pitch",
        "draft_fore",
        "draft_aft",
        "rel_wind_speed",
        "rel_wind_dir",
        "sig_wave_height",
        "rel_wave_dir",
        "mean_wave_period",
        "shaft_power",
        "stw",
    }
)
# an AIS feed has nothing to process without its positions and speeds
AIS_BARE_MINIMUM_VARIABLES = frozenset({"lat", "lon", "sog"})


def default_schema() -> list[VariableSpec]:
    """Canonical variable declarations with physically-motivated valid ranges."""
    return [
        VariableSpec("lat", "deg", "linear", -90.0, 90.0),
        VariableSpec("lon", "deg", "linear", -180.0, 180.0),
        VariableSpec("sog", "m/s", "linear", 0.0, 26.0),
        VariableSpec("stw", "m/s", "linear", 0.0, 26.0),
        VariableSpec("shaft_rpm", "rpm", "linear", 0.0, 300.0),
        VariableSpec("shaft_torque", "Nm", "linear", 0.0, 5.0e7),
        VariableSpec("shaft_power", "W", "linear", 0.0, 1.0e8),
        VariableSpec("rudder_angle", "deg", "linear", -90.0, 90.0),
        VariableSpec("prop_pitch", "deg", "linear", -90.0, 90.0),
        VariableSpec("draft_fore", "m", "linear", 0.0, 30.0),
        VariableSpec("draft_aft", "m", "linear", 0.0, 30.0),
        VariableSpec("rel_wind_speed", "m/s", "linear", 0.0, 90.0),
        VariableSpec("rel_wind_dir", "deg", "angular"),
        VariableSpec("heading", "deg", "angular"),
        VariableSpec("nav_status", "", "linear", 0.0, 15.0),
        VariableSpec("state", "", "text"),
        VariableSpec("port", "", "text"),
    ]


def _unit_factor(unit: str) -> float:
    try:
        return UNIT_TO_SI[unit]
    except KeyError:
        raise IngestError(f"unknown unit {unit!r}; known: {sorted(UNIT_TO_SI)}") from None


def load_ship_csv(
    path: str | Path,
    schema: list[VariableSpec] | None = None,
    *,
    unit_map: dict[str, str],
    source_kind: str,
    report: ProcessingReport,
) -> VoyageDataset:
    """Parse a ship data CSV into a :class:`VoyageDataset`, column by column.

    A ``timestamp`` column (ISO-8601 UTC) is required; rows where it is
    empty or bad are skipped. Empty cells, and numeric cells that are not
    finite numbers, are missing. ``unit_map`` maps column names to their
    source units; unmapped numeric columns are assumed SI already. Header
    columns not in the schema are auto-declared so that ingest is loss-free.
    Columns with a blank or an already used name are skipped with a note.
    Of rows sharing a timestamp, the first is kept and flagged ``dropout``.

    The file is read in the blocks of :func:`csv_blocks`, and each block
    becomes arrays before the next block is read, so memory follows the
    columns, not the cells; only the text of text and undeclared columns is
    kept as strings. Blank and ``#`` rows are dropped by :func:`csv_blocks`
    alone. In a file of the timestamp and declared numbers alone, numpy's
    text reader is handed the rows kept of each block that may be plain. A
    block it refuses, and every block of any other file, go cell by cell.
    """
    path = Path(path)
    schema = list(schema) if schema is not None else default_schema()
    entry = report.stage("ingest:ship_csv")

    blocks = csv_blocks(path)
    header = [h.strip() for h in next(blocks)]
    if "timestamp" not in header:
        raise IngestError(f"{path}: missing timestamp column")
    factors = {col: _unit_factor(unit) for col, unit in unit_map.items()}
    first_of = {}  # name -> its first column
    for k, name in enumerate(header):
        first_of.setdefault(name, k)
    spec_map = {s.name: s for s in schema}
    kinds = {  # name -> its declared kind, None when it is not declared
        name: spec_map[name].kind if name in spec_map else None
        for name in first_of if name and name != "timestamp"
    }
    skipped = [k for k, name in enumerate(header) if not name or first_of[name] != k]
    unparsed = set()  # undeclared columns with a cell that is no number
    layout = None  # numpy's text reader takes plain blocks of files of stamps and numbers only
    if not skipped and {None, "text"}.isdisjoint(kinds.values()):
        layout = np.dtype([(n, "U21" if n == "timestamp" else "f8") for n in header])

    def arrays(lines: np.ndarray, plain: list[str] | None, split: Callable) -> dict:
        """One block as arrays, so that its strings can go."""
        read = None if layout is None or plain is None else _read_lines(plain, layout)
        if read is not None and read["timestamp"].view((np.uint32, 21))[:, -1].any():
            read = None  # a stamp that fills its 21 characters may have been cut
        out = {"line": lines}
        if read is not None:
            out["stamp"], out["stamped"] = parse_iso_timestamps(read["timestamp"])
            with np.errstate(over="ignore"):  # to inf, as ``float`` times ``factor``
                for name in kinds:
                    out[name, "number"] = read[name] * factors.get(name, 1.0)
                    out[name, "filled"] = np.ones(len(plain), dtype=bool)
            return out
        cells = split()
        out["stamp"], out["stamped"] = parse_iso_timestamps(cells[first_of["timestamp"]])
        for k in skipped:
            out[k] = np.array([c.strip() != "" for c in cells[k]], dtype=bool)
        for name, kind in kinds.items():
            column = cells[first_of[name]]
            if kind != "text":
                out[name, "number"], out[name, "filled"], parsed = _numbers(
                    column, factors.get(name, 1.0)
                )
                if not parsed:
                    unparsed.add(name)
            if kind in (None, "text"):
                out[name, "text"] = np.array([c.strip() for c in column], dtype=object)
        return out

    # each block is copied into arrays of the most rows the file can hold (its lines), of
    # which only the pages written take memory; an empty block gives their keys and types
    empty = arrays(np.zeros(0, np.int64), None, lambda: [()] * len(header))
    most = _line_ends(path)[0] + 1
    store = {key: np.empty(most, dtype=a.dtype) for key, a in empty.items()}
    rows = 0
    for part in itertools.starmap(arrays, blocks):
        for key, a in part.items():
            store[key][rows:rows + len(a)] = a
        rows += len(part["line"])
    joined = {key: store.pop(key)[:rows] for key in list(store)}  # each freed once used
    stamps, stamped = joined.pop("stamp"), joined.pop("stamped")
    read = np.flatnonzero(stamped)
    first = read[np.unique(stamps[read], return_index=True)[1]]
    keep = np.zeros(len(stamps), dtype=bool)
    keep[first] = True
    n = len(first)

    for k in skipped:
        filled = int((joined.pop(k) & keep).sum())
        why = "blank name" if not header[k] else f"repeats {header[k]!r}"
        entry.notes.append(f"column {k + 1} ({why}): skipped, {filled} non-empty cell(s)")
    columns: dict[str, np.ndarray] = {}
    counts: dict[str, tuple[int, int]] = {}  # name -> (non-empty cells, values kept)
    for name, kind in kinds.items():
        if kind is None:  # auto-declare, so that ingest is loss-free
            kind = "text" if name in unparsed else "linear"
            spec_map[name] = VariableSpec(name, "", kind)
            schema.append(spec_map[name])
        if kind == "text":
            text = joined.pop((name, "text"))[keep]
            ok = filled = text != ""
            text[~ok] = None
            columns[name] = text
        else:
            filled = joined.pop((name, "filled"))[keep]
            values = joined.pop((name, "number"))[keep]
            ok = np.isfinite(values)
            if name == "lat":
                ok &= (values >= -90.0) & (values <= 90.0)
            values[~ok] = np.nan
            columns[name] = values
        counts[name] = (int(filled.sum()), int(ok.sum()))

    bare = BARE_MINIMUM_VARIABLES
    if source_kind == "ais":
        bare |= AIS_BARE_MINIMUM_VARIABLES
    for name, (total, kept) in sorted(counts.items()):
        if kept < total:
            entry.notes.append(f"column {name}: {total - kept} unparseable cell(s) -> missing")
            if name in bare and (total - kept) / total > 0.5:
                raise IngestError(
                    f"{path}: column {name}: {total - kept}/{total} cells unparseable "
                    "(bare-minimum variable, more than 50% lost)"
                )
    entry.summary["rows"] = n
    entry.summary["rows_skipped_bad_timestamp"] = len(stamps) - len(read)
    entry.summary["missing_cells"] = {
        name: n - kept for name, (_, kept) in sorted(counts.items()) if 0 < kept < n
    }
    dataset = new_dataset(schema, stamps[keep], columns, source_kind=source_kind)
    dropped = np.flatnonzero(stamped & ~keep)
    if len(dropped):
        entry.summary["rows_dropped_duplicate_timestamp"] = len(dropped)
        repeated = np.isin(dataset.timestamps, stamps[dropped])
        dataset = add_flags(dataset, QualityFlag.DROPOUT, repeated, entry)
        entry.check_rows(
            "dropout", stamps[dropped], variable="timestamp",
            observed=joined["line"][dropped].tolist(),
        )
    return dataset


# lines per block of csv_blocks and load_hindcast: a block's cells are turned
# into arrays, and its strings let go, before the next block is read
READ_ROWS = 4096


def csv_blocks(path: Path) -> Iterator:
    """A CSV file read ``READ_ROWS`` lines at a time, without its blank rows
    and those that start with ``#``: first the header (a list of cells),
    then, for each block with further rows, the line number of each row,
    its lines if they may be plain (else None), and a function that gives
    the cells of each header column, where a short row's absent cells are
    empty. A file without a header row is an IngestError.

    Without a quote in a block, and with every carriage return part of a
    ``\\r\\n`` line end (read as ``\\n``), a line is a row and a comma ends a
    cell: with no line longer than ``csv.reader`` accepts a cell, the block
    drops its blank and ``#`` lines once, here, and the lines it keeps are
    all that numpy's text reader and the split read. They are split by one
    ``str.split`` when their cells are asked for, each column a strided
    slice of it, and a ragged one row by row; they may be plain unless the
    block holds a NUL (which a string array drops from a cell's end). Any
    other block goes through ``csv.reader``, which reads on past the block's
    end to close a quoted field; as over the whole text, a ``\\r\\n`` inside
    a quoted field reads as ``\\n`` unless the file has a bare ``\\r``."""
    limit = csv.field_size_limit()
    crlf_only = None  # whether every \r of the file starts a \r\n, once a quote needs it
    header: list[str] | None = None
    with path.open(newline="") as fh:
        at = 0  # lines read
        while raw := list(itertools.islice(fh, READ_ROWS)):
            first, at = at + 1, at + len(raw)
            text = "".join(raw)
            no_bare_cr = "\r" not in text or text.count("\r") == text.count("\r\n")
            if '"' not in text and no_bare_cr and max(map(len, raw)) <= limit:
                lines = np.arange(first, at + 1)
                # a blank line here is "\n" or "\r\n", and a line that starts with \r ends in \r\n
                if header is None or "#" in text or "\n" in raw or "\r\n" in raw:
                    kept = [line[:1] not in "\r\n#" for line in raw]
                    lines, raw = lines[kept], list(itertools.compress(raw, kept))
                if header is None and raw:
                    header, lines, raw = raw[0].rstrip("\r\n").split(","), lines[1:], raw[1:]
                    yield header
                if raw:
                    plain = raw if "\0" not in text else None
                    yield lines, plain, functools.partial(_text_columns, raw, len(header))
                continue
            if crlf_only is None and '"' in text:
                crlf_only = _line_ends(path)[1]
            source = itertools.chain(raw, fh)
            if crlf_only:
                source = (line.replace("\r\n", "\n") for line in source)
            reader = csv.reader(source)
            numbered = []
            try:
                while reader.line_num < len(raw):
                    row = next(reader)
                    if row and not row[0].startswith("#"):
                        numbered.append((first - 1 + reader.line_num, row))
            except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
                raise IngestError(f"{path}:{first - 1 + reader.line_num}: {exc}") from None
            at = first - 1 + reader.line_num
            if header is None and numbered:
                header = numbered.pop(0)[1]
                yield header
            if numbered:
                lines, rows = zip(*numbered)
                yield np.array(lines), None, functools.partial(_columns, rows, len(header))
    if header is None:
        raise IngestError(f"{path}: empty file, expected a header row")


def _text_columns(lines: list[str], width: int) -> list:
    """:func:`_columns` of the lines :func:`csv_blocks` keeps of a block
    without a quote or a bare carriage return, so that a line ends in
    ``\\n``, ``\\r\\n`` or (the file's last) in neither."""
    rows = list(map(str.rstrip, lines, itertools.repeat("\r\n")))
    if set(map(str.count, rows, itertools.repeat(","))) == {width - 1}:
        cells = ",".join(rows).split(",")
        return [cells[k::width] for k in range(width)]
    return _columns([r.split(",") for r in rows], width)


def _columns(rows: Sequence[list], width: int) -> list:
    """The cells of each of ``width`` columns of rows of cells."""
    columns = list(itertools.islice(itertools.zip_longest(*rows, fillvalue=""), width))
    return columns + [("",) * len(rows)] * (width - len(columns))


def _read_lines(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """Comma-separated lines, none of them blank (which the reader would
    skip), through numpy's text reader, one row of ``dtype`` per line (2-D
    for a plain dtype); None when it refuses a line or gives another count
    of rows. It strips and converts a number as ``str.strip`` and ``float()``
    do, but refuses an empty cell, ``1_000`` and a non-ASCII digit; text is unstripped."""
    try:
        rows = np.loadtxt(lines, dtype, delimiter=",", comments=None,
                          ndmin=1 if dtype.names else 2)
    except ValueError:
        return None
    return rows if len(rows) == len(lines) else None


def _line_ends(path: Path) -> tuple[int, bool]:
    """The line ends of a file (``\\n``, ``\\r\\n`` or a bare ``\\r``), and
    whether it has no bare ``\\r``; read 1 MiB at a time."""
    lf = cr = crlf = 0
    last = b""  # the last byte of the chunk before: a \r there may start a \r\n
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            lf += np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            crlf += last == b"\r" and chunk[:1] == b"\n"
            if b"\r" in chunk:
                cr += chunk.count(b"\r")
                crlf += chunk.count(b"\r\n")
            last = chunk[-1:]
    return lf + cr - crlf, cr == crlf


def parse_number(text: str, where: str) -> float:
    """``float(text)``; an IngestError that names ``where`` (the file, and
    the key or line) when the text is no number."""
    try:
        return float(text)
    except ValueError:
        raise IngestError(f"{where}: {text.strip()!r} is not a number") from None


def _numbers(cells: Sequence[str], factor: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """``float(cell) * factor`` of each stripped cell, NaN for an empty or
    unparseable one; which cells are non-empty; and whether every non-empty
    cell parsed. ``float`` strips a cell itself, so a column in which every
    cell parses (no cell is then empty) is converted in one ``map``."""
    try:
        values = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        pass
    else:
        with np.errstate(over="ignore"):  # to inf, as ``float`` times ``factor``
            return values * factor, np.ones(len(cells), dtype=bool), True
    values, filled, parsed = [], [], True
    for c in cells:
        c = c.strip()
        filled.append(c != "")
        try:
            values.append(float(c) * factor if c else math.nan)
        except ValueError:
            values.append(math.nan)
            parsed = False
    return np.array(values, dtype=np.float64), np.array(filled, dtype=bool), parsed


def csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (QUOTE_MINIMAL): in double
    quotes, each quote doubled, when it holds a comma, a quote, ``\r`` or
    ``\n``; as it is otherwise."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def written_cells(values: np.ndarray) -> list[str]:
    """The written CSV cells of a column, chosen by its dtype: a float as
    ``repr`` (lossless round-trip), empty for NaN; a ``datetime64[s]`` stamp
    as ``timestamp_cells``; an integer as a trip id, empty for -1 (trip ids
    are the only integer column written); a bool as ``1`` or ``0``; an
    object as ``csv_field`` of its text, empty for None."""
    kind = values.dtype.kind
    if kind == "f":
        cells = list(map(repr, values.tolist()))
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = ""
        return cells
    if kind == "M":
        return timestamp_cells(values.view(np.int64))
    if kind == "i":
        return ["" if t < 0 else str(t) for t in values.tolist()]
    if kind == "b":
        return np.where(values, "1", "0").tolist()
    return ["" if v is None else csv_field(v) for v in values.tolist()]


def csv_lines(columns: list[Sequence[str]]) -> Iterator[str]:
    """The lines of rows given column by column, as ``csv.writer`` writes
    them: cells joined by commas, each line ended by ``\r\n``."""
    if len(columns) == 1:  # csv.writer quotes a row's only field when it is empty
        columns = [[c or '""' for c in columns[0]]]
    return map("{}\r\n".format, map(",".join, zip(*columns)))


# rows per block of write_csv_files: the cells of a block in every column (about
# 0.6 MB at 42 columns) stay well below what the pipeline itself holds
CSV_BLOCK_ROWS = 256

@dataclass
class CsvFile:
    """One file of :func:`write_csv_files`: its preamble (whole lines), its
    header, the sorted indices of the rows it holds, and its columns, each
    the index of a shared column or the file's own values at those rows."""

    path: Path
    header: list[str]
    rows: np.ndarray
    columns: list[int | np.ndarray]
    preamble: str = ""


def write_csv_files(shared: list[np.ndarray], n_rows: int, files: list[CsvFile]) -> None:
    """Write ``files`` in one pass over the rows ``0 .. n_rows - 1``, taken
    ``CSV_BLOCK_ROWS`` at a time; ``shared`` holds the columns (a value per
    row) that files name by index.

    Every cell is ``written_cells`` of its column, a shared one formatted
    once per block for all the files that use it there. Header names go
    through ``csv_field``. A file is opened at its first row and closed
    after its last, so files whose rows follow one another (the trips) are
    open one at a time; a file without rows holds its header alone. A
    file's lines of a block go to it in one write, so no more than one
    block of cells and lines is held at once."""

    def start(f: CsvFile) -> TextIO:
        fh = f.path.open("w", newline="")
        fh.write(f.preamble)
        fh.writelines(csv_lines([[csv_field(h)] for h in f.header]))
        return fh

    for f in files:
        if not len(f.rows):
            start(f).close()
    open_files: dict[int, TextIO] = {}
    try:
        for lo in range(0, n_rows, CSV_BLOCK_ROWS):
            hi = min(lo + CSV_BLOCK_ROWS, n_rows)
            block: dict[int, list[str]] = {}  # shared column -> its cells in the block
            for k, f in enumerate(files):
                a, b = np.searchsorted(f.rows, (lo, hi)).tolist()
                if a == b:
                    continue
                at = (f.rows[a:b] - lo).tolist()
                if at[-1] - at[0] == b - a - 1:  # consecutive rows
                    pick = operator.itemgetter(slice(at[0], at[-1] + 1))
                else:  # at least two rows, so a tuple of cells
                    pick = operator.itemgetter(*at)
                columns = []
                for c in f.columns:
                    if not isinstance(c, int):
                        columns.append(written_cells(c[a:b]))
                        continue
                    if c not in block:
                        block[c] = written_cells(shared[c][lo:hi])
                    columns.append(pick(block[c]))
                if a == 0:
                    open_files[k] = start(f)
                open_files[k].write("".join(csv_lines(columns)))
                if b == len(f.rows):
                    open_files.pop(k).close()
    finally:
        for fh in open_files.values():
            fh.close()


# -- hindcast grid -----------------------------------------------------------

MASK_TOKEN = "M"


@dataclass(frozen=True)
class GridVariable:
    """One gridded field: values[time, lat, lon] plus a validity mask
    (True = invalid/land). Direction fields carry their convention."""

    name: str
    unit: str
    values: np.ndarray
    mask: np.ndarray
    convention: str | None = None  # 'from' | 'toward' for direction fields
    # an angular field is interpolated as its sine and cosine, taken once here
    sin_cos: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.values.shape != self.mask.shape:
            raise IngestError(f"grid variable {self.name!r}: mask shape mismatch")
        if self.is_angular:
            rad = np.deg2rad(self.values)
            object.__setattr__(self, "sin_cos", (np.sin(rad), np.cos(rad)))

    @property
    def is_angular(self) -> bool:
        return self.unit in ("deg", "degree", "degrees")


@dataclass(frozen=True)
class HindcastGrid:
    """Gridded environmental field set on a (time, lat, lon) lattice."""

    variables: tuple[GridVariable, ...]
    latitudes: np.ndarray
    longitudes: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        for axis, name in ((self.latitudes, "lat"), (self.longitudes, "lon"),
                           (self.timestamps, "time")):
            if not np.all(axis[1:] > axis[:-1]):
                raise IngestError(f"{name} axis must be strictly ascending")
        shape = (len(self.timestamps), len(self.latitudes), len(self.longitudes))
        for v in self.variables:
            if v.values.shape != shape:
                raise IngestError(
                    f"grid variable {v.name!r}: shape {v.values.shape} != {shape}"
                )


def load_hindcast(path: str | Path, report: ProcessingReport) -> HindcastGrid:
    """Parse the plain-text gridded format.

    Header: ``#var <name> <unit>`` (one per variable, in block order),
    ``#lat``/``#lon``/``#time`` comma lists, optional ``#conv <var> from|toward``.
    Body: per variable, per time step, one line of ``|lon|`` comma-separated
    values for each latitude; the token ``M`` marks a masked cell, and a
    number that is not finite (``nan``, ``inf``) is masked as well and
    counted in an ``ingest:hindcast`` note.

    The file is read ``READ_ROWS`` lines at a time, and a block's data
    lines are parsed by :func:`_read_lines` before the next block is read;
    a line's cells are named one by one only when the reader refuses it.
    """
    path = Path(path)
    var_decls: list[tuple[str, str]] = []
    conventions: dict[str, str] = {}
    lats: list[float] = []
    lons: list[float] = []
    times: np.ndarray = np.zeros(0, dtype=np.int64)
    body: list[int] = []  # the line number of each data line
    commas: list[int] = []  # the commas of each data line
    numbers: list[np.ndarray] = []  # the cells of each block, a masked one NaN
    masks: list[int] = []  # the M cells of each data line
    bad: tuple[int, str] | None = None  # the first data line with an unknown token

    with path.open() as fh:
        lineno = 0
        while block := list(itertools.islice(fh, READ_ROWS)):
            rows = []  # the data lines as read: the reader strips a cell itself
            for raw in block:
                lineno += 1
                line = raw.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    rows.append(raw)
                    body.append(lineno)
                elif line.startswith("#var "):
                    parts = line.split()
                    if len(parts) < 3:
                        raise IngestError(f"{path}:{lineno}: malformed #var line")
                    var_decls.append((parts[1], parts[2]))
                elif line.startswith("#lat "):
                    lats = [parse_number(x, f"{path}:{lineno}") for x in line[5:].split(",")]
                elif line.startswith("#lon "):
                    lons = [parse_number(x, f"{path}:{lineno}") for x in line[5:].split(",")]
                elif line.startswith("#time "):
                    cells = line[len("#time "):].split(",")
                    times, parsed = parse_iso_timestamps(cells)
                    if not parsed.all():
                        bad_time = cells[int(np.argmin(parsed))].strip()
                        raise IngestError(f"{path}:{lineno}: {bad_time!r} is not an ISO-8601 time")
                elif line.startswith("#conv "):
                    parts = line.split()
                    if len(parts) != 3 or parts[2] not in ("from", "toward"):
                        raise IngestError(f"{path}:{lineno}: malformed #conv line")
                    conventions[parts[1]] = parts[2]
            if not rows:
                continue
            commas += map(str.count, rows, itertools.repeat(","))
            masks += map(str.count, rows, itertools.repeat(MASK_TOKEN))
            if bad is not None:
                continue  # the grid is rejected; the lines are only counted
            # a number never holds an "M", so every "M" of a block that parses
            # is a masked cell, read as NaN; a sign before one ("-M") would
            # read as a number, and is no cell
            signed = any("+M" in line or "-M" in line for line in rows if MASK_TOKEN in line)
            lines = [line.replace(MASK_TOKEN, "nan") for line in rows]
            if not signed and (read := _read_lines(lines, np.dtype(np.float64))) is not None:
                numbers.append(read.ravel())
            else:  # str.strip() strips more than float()
                values = []
                for row, line in enumerate(rows):
                    stripped = [c.strip() for c in line.split(",")]
                    try:
                        values += [math.nan if c == MASK_TOKEN else float(c) for c in stripped]
                    except ValueError:
                        bad = (len(body) - len(rows) + row, line)
                        break
                else:
                    numbers.append(np.array(values))

    if not var_decls:
        raise IngestError(f"{path}: no #var declarations")
    for axis, label in ((lats, "#lat"), (lons, "#lon"), (times, "#time")):
        if not len(axis):
            raise IngestError(f"{path}: missing {label} header")

    nt, ny, nx = len(times), len(lats), len(lons)
    expected = len(var_decls) * nt * ny
    if len(body) != expected:
        # name the first slice that comes up short
        got = len(body)
        var_i = min(got // (nt * ny), len(var_decls) - 1)
        time_i = (got % (nt * ny)) // ny
        raise IngestError(
            f"{path}: expected {expected} data rows ({len(var_decls)} variable(s) x "
            f"{nt} time step(s) x {ny} latitude(s)), got {got}; first incomplete "
            f"slice: variable {var_decls[var_i][0]!r}, time index {time_i}"
        )

    # the first line with too few or too many cells, or an unknown token
    widths = np.array(commas) + 1
    last = len(body) if bad is None else bad[0] + 1
    short = np.flatnonzero(widths[:last] != nx)
    if len(short) or bad is not None:
        row = int(short[0]) if len(short) else bad[0]
        var_i, rest = divmod(row, nt * ny)
        where = (
            f"{path}:{body[row]}: variable {var_decls[var_i][0]!r}, "
            f"time index {rest // ny}, lat index {rest % ny}"
        )
        if widths[row] != nx:
            raise IngestError(f"{where}: expected {nx} values, got {widths[row]}")
        xi, cell = _unknown_token(bad[1])
        raise IngestError(f"{where}, lon index {xi}: unknown token {cell!r}")

    values = np.concatenate(numbers).reshape(len(var_decls), nt, ny, nx)
    mask = ~np.isfinite(values)
    values[mask] = 0.0
    non_finite = mask.sum(axis=(1, 2, 3)) - np.reshape(masks, (len(var_decls), -1)).sum(axis=1)
    try:
        grid = HindcastGrid(
            tuple(
                GridVariable(name, unit, values[k], mask[k], conventions.get(name))
                for k, (name, unit) in enumerate(var_decls)
            ),
            np.asarray(lats, dtype=float),
            np.asarray(lons, dtype=float),
            np.asarray(times, dtype=np.int64),
        )
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from None
    notes = [
        f"variable {name}: {count} non-finite cell(s) -> masked"
        for (name, _), count in zip(var_decls, non_finite.tolist()) if count
    ]
    if notes:
        report.stage("ingest:hindcast").notes.extend(notes)
    return grid


def _unknown_token(line: str) -> tuple[int, str] | None:
    """The index and the stripped text of the first cell of a grid data line
    that is neither ``M`` nor a number, if there is one."""
    for xi, cell in enumerate(line.split(",")):
        cell = cell.strip()
        if cell != MASK_TOKEN:
            try:
                float(cell)
            except ValueError:
                return xi, cell
    return None


# -- ship particulars --------------------------------------------------------


def _read_kv_file(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise IngestError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_points(text: str, where: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition(":")
        pts.append((parse_number(a, where), parse_number(b, where)))
    return tuple(pts)


# the keys a particulars file may hold, besides ``curve.<label>``
PARTICULARS_KEYS = (
    "ship_type", "lwl", "lpp", "beam", "design_draft", "block_coefficient",
    "anemometer_height", "wind_reference_height", "envelope",
)


def load_particulars(path: str | Path, report: ProcessingReport) -> ShipParticulars:
    """Read a ship-particulars key=value file.

    Mandatory: ``ship_type``, ``beam``, ``design_draft`` and at least one of
    ``lwl``/``lpp``. A missing block coefficient is filled with the type's
    table midpoint and the fill is recorded in the report. Any other key
    than ``PARTICULARS_KEYS`` and ``curve.<label>`` is an error.
    """
    path = Path(path)
    kv = _read_kv_file(path)
    entry = report.stage("ingest:particulars")
    for key in kv:
        if key not in PARTICULARS_KEYS and not key.startswith("curve."):
            raise IngestError(f"{path}: unknown particulars key {key!r}")

    try:
        raw_type = kv["ship_type"]
    except KeyError:
        raise IngestError(f"{path}: missing mandatory key ship_type") from None
    try:
        ship_type = ShipType(raw_type)
    except ValueError:
        accepted = ", ".join(t.value for t in ShipType)
        raise IngestError(
            f"{path}: unknown ship type {raw_type!r}; accepted types: {accepted}"
        ) from None

    def fnum(key: str) -> float | None:
        return parse_number(kv[key], f"{path}: {key}") if key in kv else None

    for key in ("beam", "design_draft"):
        if key not in kv:
            raise IngestError(f"{path}: missing mandatory key {key}")

    cb = fnum("block_coefficient")
    if cb is None:
        cb = block_coefficient_midpoint(ship_type)
        entry.corrections.append(
            f"block_coefficient absent; filled with table midpoint {cb} "
            f"for {ship_type.value}"
        )

    curves = {
        key[len("curve."):]: _parse_points(kv[key], f"{path}: {key}")
        for key in sorted(kv)
        if key.startswith("curve.")
    }
    envelope = _parse_points(kv["envelope"], f"{path}: envelope") if "envelope" in kv else None

    try:
        return ShipParticulars(
            ship_type=ship_type,
            beam=fnum("beam"),
            design_draft=fnum("design_draft"),
            lwl=fnum("lwl"),
            lpp=fnum("lpp"),
            block_coefficient=cb,
            anemometer_height=fnum("anemometer_height"),
            wind_reference_height=fnum("wind_reference_height"),
            calm_water_curves=tuple(CalmWaterCurve(k, v) for k, v in curves.items()),
            envelope=envelope,
        )
    except SchemaError as exc:
        raise IngestError(f"{path}: {exc}") from None


# -- pipeline configuration ---------------------------------------------------

PIPELINE_STAGES = (
    "regularize",
    "trips",
    "gps_clean",
    "interpolate",
    "derive",
    "validate",
    "draft_fix",
    "hydrostatics",
    "resistance",
    "clean",
)

TRIP_METHODS = ("state_variable", "thresholds", "port_names")
MASK_POLICIES = ("zero_fill", "neighbor_mean")
# stage-2 retention limits (unit/s) of the steady filters, by the variable each
# filter is given (lat: the GPS filter, both axes; draft_fore: the draft-event
# filter, both sensors); a config's gradient_tolerance.default replaces all four
DEFAULT_GRADIENT_TOLERANCE = {"lat": 5e-4, "draft_fore": 2e-3, "shaft_rpm": 0.05, "sog": 0.02}


@dataclass
class PipelineConfig:
    """Everything the pipeline driver needs, parsed from a key=value file."""

    ship_csv: str = ""
    particulars: str = ""
    hindcast: str | None = None
    hydro_table: str | None = None
    resistance_tables: tuple[str, ...] = ()
    source_kind: str = "in_service"
    sampling_interval: int = 900
    trip_method: str = "thresholds"
    interpolation_order: int = 1
    mask_policy: str = "neighbor_mean"
    steady_window: int = 11
    steady_alpha: float = 0.01
    gradient_tolerance: dict[str, float] = field(default_factory=dict)
    pca_components: int = 0  # 0 = choose k for >= 95% explained variance
    pca_quantile: float = 0.995
    pca_features: tuple[str, ...] = ()
    stages: tuple[str, ...] = PIPELINE_STAGES
    # a sample is in-trip when shaft rpm or speed over ground (m/s) exceeds its threshold
    rpm_threshold: float = 10.0
    sog_threshold: float = 3.0 * KNOT
    pad_samples: int = 2
    max_iterations: int = 2
    ais_tolerance: float = 0.3
    ais_window: int = 5
    port_speed_threshold: float = 0.5
    power_tolerance: float = 0.02
    stw_tolerance: float = 1.0
    wind_tolerance: float = 4.0
    repeat_run: int = 20
    dropout_max: int = 3
    spike_scales: float = 6.0
    n_avg: int = 10
    voyage_kind: str = "unknown"
    unit_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.source_kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source kind {self.source_kind!r}; known: {SOURCE_KINDS}")
        if self.trip_method not in TRIP_METHODS:
            raise ConfigError(f"unknown trip method {self.trip_method!r}")
        if self.interpolation_order < 1:
            raise ConfigError("interpolation order must be >= 1")
        if self.mask_policy not in MASK_POLICIES:
            raise ConfigError(f"unknown mask policy {self.mask_policy!r}")
        if self.voyage_kind not in VOYAGE_KINDS:
            raise ConfigError(f"unknown voyage kind {self.voyage_kind!r}; known: {VOYAGE_KINDS}")
        if not 0.0 < self.steady_alpha < 1.0:
            raise ConfigError("steady_alpha must lie in (0, 1)")
        if self.steady_window < 3 or self.steady_window % 2 == 0:
            raise ConfigError("steady_window must be an odd sample count >= 3")
        if not 0.0 < self.pca_quantile < 1.0:
            raise ConfigError("pca_quantile must lie in (0, 1)")
        # every plain number must be finite and positive, except that
        # pca_components (0 = auto), a trip threshold and pad_samples may be 0
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type not in ("int", "float"):
                continue
            if f.name in ("pca_components", "rpm_threshold", "sog_threshold", "pad_samples"):
                if not 0 <= value < math.inf:
                    raise ConfigError(f"{f.name} must be finite and not negative")
            elif not 0 < value < math.inf:
                raise ConfigError(f"{f.name} must be finite and strictly positive")
        known = (*DEFAULT_GRADIENT_TOLERANCE, "default")
        for name, tol in self.gradient_tolerance.items():
            if name not in known:
                raise ConfigError(f"unknown key 'gradient_tolerance.{name}'; known: {known}")
            if not 0 < tol < math.inf:
                raise ConfigError(
                    f"gradient_tolerance.{name} must be finite and strictly positive"
                )
        unknown = set(self.stages) - set(PIPELINE_STAGES)
        if unknown:
            raise ConfigError(f"unknown stage(s): {sorted(unknown)}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a pipeline config key=value file; see README for the key list."""
    path = Path(path)
    kv = _read_kv_file(path)
    # number keys parse by their field's annotation, a string in this module
    types = {"int": int, "float": float}
    numbers = {f.name: types[f.type] for f in fields(PipelineConfig) if f.type in types}
    kwargs: dict = {}
    gradient: dict[str, float] = {}
    units: dict[str, str] = {}

    def number(key: str, value: str, kind: type) -> float:
        try:
            return kind(value)
        except ValueError:
            raise ConfigError(f"{path}: {key} = {value!r} is not a number") from None

    for key, value in kv.items():
        if key.startswith("gradient_tolerance."):
            gradient[key.split(".", 1)[1]] = number(key, value, float)
        elif key.startswith("unit."):
            if value not in UNIT_TO_SI:
                raise ConfigError(
                    f"{path}: {key} = {value!r} is not a known unit; known: {sorted(UNIT_TO_SI)}"
                )
            units[key.split(".", 1)[1]] = value
        elif key in numbers:
            kwargs[key] = number(key, value, numbers[key])
        elif key == "stages":
            kwargs["stages"] = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "pca_features":
            kwargs["pca_features"] = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "resistance_tables":
            kwargs["resistance_tables"] = tuple(
                _resolve(path, s.strip()) for s in value.split(",") if s.strip()
            )
        elif key in ("ship_csv", "particulars", "hindcast", "hydro_table"):
            kwargs[key] = _resolve(path, value)
        elif key in ("source_kind", "trip_method", "mask_policy", "voyage_kind"):
            kwargs[key] = value
        else:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    try:
        return PipelineConfig(gradient_tolerance=gradient, unit_map=units, **kwargs)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve(config_path: Path, value: str) -> str:
    """Paths in a config file are relative to the config file itself."""
    p = Path(value)
    return str(p if p.is_absolute() else (config_path.parent / p))

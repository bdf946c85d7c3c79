"""Reference for the columnar CSV reader: the row-by-row reader it replaced.

It parses cell by cell into one :class:`Sample` per row and builds the row
model of ``tests/dataset_reference.py``. ``tests/test_ingest_reference.py``
requires ``ingest.load_ship_csv`` to give the same columns, report entry and
errors on files with unique timestamps and distinct header names. On other
files the two differ by design: this reader merges a repeated column name
cell by cell, rejects a blank one and fails on a repeated timestamp, where
``load_ship_csv`` keeps the first column of a name, skips blank names and
keeps the first row of a timestamp.

``csv_columns_rows`` is the ``csv.reader`` splitter that ``ingest.csv_blocks``
keeps for blocks with quotes or carriage returns; the tests require the
block split to give the same header, line numbers and cells wherever it
applies.

``load_ship_csv_whole``, ``csv_columns``, ``_numbers`` and ``load_hindcast``
are the readers as they were before ``ingest.READ_ROWS``: the ship CSV split
as one text, and the grid parsed line by line, where a non-finite grid
number was a value and an axis error did not name the file. The tests
require the block readers to give the same arrays, notes and errors.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from dataset_reference import RowDataset, new_row_dataset
from shipdataprep.ingest import (
    AIS_BARE_MINIMUM_VARIABLES,
    BARE_MINIMUM_VARIABLES,
    MASK_TOKEN,
    GridVariable,
    HindcastGrid,
    IngestError,
    _unit_factor,
    default_schema,
    parse_number,
)
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    StageEntry,
    VariableSpec,
    VoyageDataset,
    add_flags,
    new_dataset,
    parse_iso_timestamp,
    parse_iso_timestamps,
)


def load_ship_csv_rows(
    path: str | Path,
    schema: list[VariableSpec] | None = None,
    *,
    unit_map: dict[str, str],
    source_kind: str,
    report: ProcessingReport | None = None,
) -> RowDataset:
    """The ship CSV parsed row by row into the row model."""
    path = Path(path)
    schema = list(schema) if schema is not None else default_schema()
    unit_map = dict(unit_map)
    entry = report.stage("ingest:ship_csv") if report is not None else StageEntry("ingest")

    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise IngestError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in rows[0]]
    if "timestamp" not in header:
        raise IngestError(f"{path}: missing timestamp column")
    ts_col = header.index("timestamp")

    spec_map = {s.name: s for s in schema}
    body = rows[1:]
    # auto-declare unknown columns; sniff text vs numeric from the data
    for col in header:
        if col == "timestamp" or col in spec_map:
            continue
        idx = header.index(col)
        cells = [r[idx].strip() for r in body if idx < len(r) and r[idx].strip()]
        kind = "linear"
        for c in cells:
            try:
                float(c)
            except ValueError:
                kind = "text"
                break
        spec = VariableSpec(col, "", kind)
        schema.append(spec)
        spec_map[col] = spec

    factors = {}
    for col, unit in unit_map.items():
        factors[col] = _unit_factor(unit)

    samples: list[Sample] = []
    unparseable: dict[str, int] = {}
    nonempty: dict[str, int] = {}
    skipped_rows = 0
    for rownum, row in enumerate(body, start=2):
        raw_ts = row[ts_col].strip() if ts_col < len(row) else ""
        if not raw_ts:
            skipped_rows += 1
            continue
        try:
            ts = parse_iso_timestamp(raw_ts)
        except ValueError:
            skipped_rows += 1
            continue
        values: dict[str, float | str] = {}
        for i, col in enumerate(header):
            if i == ts_col or i >= len(row):
                continue
            cell = row[i].strip()
            if not cell:
                continue
            nonempty[col] = nonempty.get(col, 0) + 1
            spec = spec_map[col]
            if spec.kind == "text":
                values[col] = cell
                continue
            try:
                v = float(cell) * factors.get(col, 1.0)
            except ValueError:
                v = math.nan
            if not math.isfinite(v) or (col == "lat" and not -90.0 <= v <= 90.0):
                unparseable[col] = unparseable.get(col, 0) + 1
                continue
            values[col] = v
        samples.append(Sample(ts, values))

    bare = set(BARE_MINIMUM_VARIABLES)
    if source_kind == "ais":
        bare |= AIS_BARE_MINIMUM_VARIABLES
    for col, bad in sorted(unparseable.items()):
        total = nonempty.get(col, 0)
        entry.notes.append(f"column {col}: {bad} unparseable cell(s) -> missing")
        if col in bare and total and bad / total > 0.5:
            raise IngestError(
                f"{path}: column {col}: {bad}/{total} cells unparseable "
                "(bare-minimum variable, more than 50% lost)"
            )
    missing_counts = {
        s.name: sum(1 for smp in samples if s.name not in smp.values)
        for s in schema
        if any(s.name in smp.values for smp in samples)
    }
    entry.summary["rows"] = len(samples)
    entry.summary["rows_skipped_bad_timestamp"] = skipped_rows
    entry.summary["missing_cells"] = {
        k: v for k, v in sorted(missing_counts.items()) if v
    }
    return new_row_dataset(schema, samples, source_kind=source_kind)



def csv_columns_rows(path: Path) -> tuple[list[str], tuple[int, ...], list[tuple[str, ...]]]:
    """Header, line number of each further row and cells of each header
    column, split by ``csv.reader``; rows that start with ``#`` are left out
    and a short row's absent cells are empty."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        numbered = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not numbered:
        raise IngestError(f"{path}: empty file, expected a header row")
    lines, (header, *body) = zip(*numbered)
    cells = list(itertools.islice(itertools.zip_longest(*body, fillvalue=""), len(header)))
    return header, lines[1:], cells + [("",) * len(body)] * (len(header) - len(cells))


def load_ship_csv_whole(
    path: str | Path,
    schema: list[VariableSpec] | None = None,
    *,
    unit_map: dict[str, str],
    source_kind: str,
    report: ProcessingReport,
) -> VoyageDataset:
    """``ingest.load_ship_csv`` as it was before block reading: the whole
    file split at once by ``csv_columns``, each column parsed by ``_numbers``.

    A ``timestamp`` column (ISO-8601 UTC) is required; rows where it is
    empty or bad are skipped. Empty cells, and numeric cells that are not
    finite numbers, are missing. ``unit_map`` maps column names to their
    source units; unmapped numeric columns are assumed SI already. Header
    columns not in the schema are auto-declared so that ingest is loss-free.
    Columns with a blank or an already used name are skipped with a note.
    Of rows sharing a timestamp, the first is kept and flagged ``dropout``.
    """
    path = Path(path)
    schema = list(schema) if schema is not None else default_schema()
    entry = report.stage("ingest:ship_csv")

    header, lines, cells = csv_columns(path)
    header = [h.strip() for h in header]
    if "timestamp" not in header:
        raise IngestError(f"{path}: missing timestamp column")
    factors = {col: _unit_factor(unit) for col, unit in unit_map.items()}
    first_of = {}  # name -> its first column
    for k, name in enumerate(header):
        first_of.setdefault(name, k)

    stamps, stamped = parse_iso_timestamps(cells[first_of["timestamp"]])
    read = np.flatnonzero(stamped)
    first = read[np.unique(stamps[read], return_index=True)[1]]
    keep = np.zeros(len(stamps), dtype=bool)
    keep[first] = True
    n = len(first)

    for k, name in enumerate(header):
        if not name or first_of[name] != k:
            filled = sum(1 for c, kept in zip(cells[k], keep) if kept and c.strip())
            why = "blank name" if not name else f"repeats {name!r}"
            entry.notes.append(f"column {k + 1} ({why}): skipped, {filled} non-empty cell(s)")
    spec_map = {s.name: s for s in schema}
    columns: dict[str, np.ndarray] = {}
    counts: dict[str, tuple[int, int]] = {}  # name -> (non-empty cells, values kept)
    for name, k in first_of.items():
        if not name or name == "timestamp":
            continue
        spec = spec_map.get(name)
        if spec is None or spec.kind != "text":
            numbers, filled, parsed = _numbers(cells[k], factors.get(name, 1.0))
        if spec is None:  # auto-declare, so that ingest is loss-free
            spec = spec_map[name] = VariableSpec(name, "", "linear" if parsed else "text")
            schema.append(spec)
        if spec.kind == "text":
            text = np.array([c.strip() for c in cells[k]], dtype=object)[keep]
            ok = filled = text != ""
            columns[name] = np.where(ok, text, None)
        else:
            filled = filled[keep]
            values = numbers[keep]
            ok = np.isfinite(values)
            if name == "lat":
                ok &= (values >= -90.0) & (values <= 90.0)
            columns[name] = np.where(ok, values, np.nan)
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
            observed=[lines[i] for i in dropped.tolist()],
        )
    return dataset


def csv_columns(path: Path) -> tuple[list[str], tuple[int, ...], list[Sequence[str]]]:
    """A CSV file without its rows that start with ``#``: the header, the
    line number of each further row, and the cells of each header column,
    where a short row's absent cells are empty.

    The text is read once. Without a quote in it, and with every carriage
    return part of a ``\r\n`` line end (read as ``\n``), a line is a row and
    a comma ends a cell, so when every row has the header's number of cells
    (and no line is longer than ``csv.reader`` accepts a cell) the body is
    split with one ``str.split`` and each column is a strided slice of it.
    Every other file, one with a bare ``\r`` among them, goes through
    ``csv.reader``, which gives the same result on such a file."""
    with path.open(newline="") as fh:
        text = fh.read()
    if "\r" in text and text.count("\r") == text.count("\r\n"):
        text = text.replace("\r\n", "\n")
    if '"' not in text and "\r" not in text:
        rows = text.split("\n")
        if not rows[-1]:
            rows.pop()  # the line end of the last line
        lines = range(1, len(rows) + 1)
        if "" in rows or text.startswith("#") or "\n#" in text:
            numbered = [(k, r) for k, r in zip(lines, rows) if r and r[0] != "#"]
            lines, rows = [k for k, _ in numbered], [r for _, r in numbered]
        if len(rows) > 1 and max(map(len, rows)) <= csv.field_size_limit():
            width = rows[0].count(",") + 1
            if set(map(str.count, rows[1:], itertools.repeat(","))) == {width - 1}:
                cells = ",".join(rows[1:]).split(",")
                return rows[0].split(","), tuple(lines[1:]), [cells[k::width] for k in range(width)]
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        numbered = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise IngestError(f"{path}:{reader.line_num}: {exc}") from None
    if not numbered:
        raise IngestError(f"{path}: empty file, expected a header row")
    lines, (header, *body) = zip(*numbered)
    cells = list(itertools.islice(itertools.zip_longest(*body, fillvalue=""), len(header)))
    return header, lines[1:], cells + [("",) * len(body)] * (len(header) - len(cells))


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


def load_hindcast(path: str | Path) -> HindcastGrid:
    """Parse the plain-text gridded format.

    Header: ``#var <name> <unit>`` (one per variable, in block order),
    ``#lat``/``#lon``/``#time`` comma lists, optional ``#conv <var> from|toward``.
    Body: per variable, per time step, one line of ``|lon|`` comma-separated
    values for each latitude; the token ``M`` marks a masked cell.
    """
    path = Path(path)
    var_decls: list[tuple[str, str]] = []
    conventions: dict[str, str] = {}
    lats: list[float] = []
    lons: list[float] = []
    times: np.ndarray = np.zeros(0, dtype=np.int64)
    body: list[tuple[int, str]] = []

    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#var "):
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
                    bad = cells[int(np.argmin(parsed))].strip()
                    raise IngestError(f"{path}:{lineno}: {bad!r} is not an ISO-8601 time")
            elif line.startswith("#conv "):
                parts = line.split()
                if len(parts) != 3 or parts[2] not in ("from", "toward"):
                    raise IngestError(f"{path}:{lineno}: malformed #conv line")
                conventions[parts[1]] = parts[2]
            elif line.startswith("#"):
                continue
            else:
                body.append((lineno, line))

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

    values = np.zeros((len(body), nx))
    mask = np.zeros((len(body), nx), dtype=bool)
    for row, (lineno, line) in enumerate(body):
        cells = [c.strip() for c in line.split(",")]
        masked = [c == MASK_TOKEN for c in cells]
        if len(cells) == nx:
            try:
                values[row] = [0.0 if m else float(c) for c, m in zip(cells, masked)]
            except ValueError:
                pass  # the cell is named below
            else:
                mask[row] = masked
                continue
        var_i, rest = divmod(row, nt * ny)
        where = (
            f"{path}:{lineno}: variable {var_decls[var_i][0]!r}, "
            f"time index {rest // ny}, lat index {rest % ny}"
        )
        if len(cells) != nx:
            raise IngestError(f"{where}: expected {nx} values, got {len(cells)}")
        for xi, cell in enumerate(cells):
            if not masked[xi]:
                try:
                    float(cell)
                except ValueError:
                    raise IngestError(
                        f"{where}, lon index {xi}: unknown token {cell!r}"
                    ) from None

    values = values.reshape(len(var_decls), nt, ny, nx)
    mask = mask.reshape(len(var_decls), nt, ny, nx)
    return HindcastGrid(
        tuple(
            GridVariable(name, unit, values[k], mask[k], conventions.get(name))
            for k, (name, unit) in enumerate(var_decls)
        ),
        np.asarray(lats, dtype=float),
        np.asarray(lons, dtype=float),
        np.asarray(times, dtype=np.int64),
    )

"""Reference for the columnar CSV reader: the row-by-row reader it replaced.

It parses cell by cell into one :class:`Sample` per row and builds the row
model of ``tests/dataset_reference.py``. ``tests/test_ingest_reference.py``
requires ``ingest.load_ship_csv`` to give the same columns, report entry and
errors on files with unique timestamps and distinct header names. On other
files the two differ by design: this reader merges a repeated column name
cell by cell, rejects a blank one and fails on a repeated timestamp, where
``load_ship_csv`` keeps the first column of a name, skips blank names and
keeps the first row of a timestamp.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from dataset_reference import RowDataset, new_row_dataset
from shipdataprep.ingest import (
    AIS_BARE_MINIMUM_VARIABLES,
    BARE_MINIMUM_VARIABLES,
    IngestError,
    _unit_factor,
    default_schema,
)
from shipdataprep.model import (
    ProcessingReport,
    Sample,
    StageEntry,
    VariableSpec,
    parse_iso_timestamp,
)


def load_ship_csv_rows(
    path: str | Path,
    schema: list[VariableSpec] | None = None,
    unit_map: dict[str, str] | None = None,
    source_kind: str = "in_service",
    report: ProcessingReport | None = None,
) -> RowDataset:
    """The ship CSV parsed row by row into the row model."""
    path = Path(path)
    schema = list(schema) if schema is not None else default_schema()
    unit_map = dict(unit_map or {})
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


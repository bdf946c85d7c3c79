"""Reference for the block writer: ``csv.writer``, which wrote every file
before ``ingest.write_csv_files`` joined the lines itself, and the cells of
each processed.csv row as the row-by-row writer built them.

``tests/test_writers.py`` requires ``write_processed_csv`` to write the same
bytes as ``write_csv`` of ``processed_rows``, and ``csv_lines`` of
``csv_field`` cells to equal ``csv.writer``'s lines.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

import numpy as np

from shipdataprep.ingest import csv_cells, trip_cells
from shipdataprep.model import QualityFlag, timestamp_cells


def write_csv(
    path: str | Path,
    preamble: Iterable[str],
    header: list[str],
    rows: Iterable[list[str]],
) -> None:
    """Write ``preamble`` lines, then the header and ``rows`` with
    ``csv.writer`` (QUOTE_MINIMAL, ``\\r\\n`` line ends)."""
    with Path(path).open("w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def processed_rows(dataset) -> tuple[list[str], list[tuple[str, ...]]]:
    """processed.csv's header and the unquoted cells of each of its rows."""
    flags = list(QualityFlag)
    header = ["timestamp"] + [s.name for s in dataset.schema] + ["trip_id"]
    header += [f"flag_{f.value}" for f in flags]
    columns = [timestamp_cells(dataset.timestamps)]
    for spec in dataset.schema:
        text = spec.kind == "text"
        columns.append(csv_cells(
            dataset.text_column(spec.name) if text else dataset.column(spec.name)
        ))
    columns.append(trip_cells(dataset.trip_ids))
    columns += [np.where(dataset.flagged(f), "1", "0").tolist() for f in flags]
    return header, list(zip(*columns))

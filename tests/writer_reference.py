"""Reference for the block writer: ``csv.writer``, which wrote every file
before ``ingest.write_csv_files`` joined the lines itself, and the cells of
each processed.csv row as the row-by-row writer built them, each formatted
here by ``repr``, ``str`` and ``datetime`` rather than by the package.

``tests/test_writers.py`` requires ``write_processed_csv`` to write the same
bytes as ``write_csv`` of ``processed_rows``, and ``csv_lines`` of
``csv_field`` cells to equal ``csv.writer``'s lines.
"""

from __future__ import annotations

import csv
import datetime
from pathlib import Path
from typing import Iterable

from shipdataprep.model import QualityFlag

EPOCH = datetime.datetime(1970, 1, 1)


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
    """processed.csv's header and the unquoted cells of each of its rows:
    the ISO stamp, ``repr`` of a number, text as it is, the trip id, 0/1 per
    flag; empty for a missing value or a sample outside every trip."""
    flags = list(QualityFlag)
    header = ["timestamp"] + [s.name for s in dataset.schema] + ["trip_id"]
    header += [f"flag_{f.value}" for f in flags]
    columns = [[(EPOCH + datetime.timedelta(seconds=t)).isoformat() + "Z"
                for t in dataset.timestamps.tolist()]]
    for spec in dataset.schema:
        if spec.kind == "text":
            columns.append(["" if v is None else v for v in dataset.text_column(spec.name)])
        else:
            columns.append(["" if v != v else repr(v)
                            for v in dataset.column(spec.name).tolist()])
    columns.append(["" if t == -1 else str(t) for t in dataset.trip_ids.tolist()])
    columns += [[str(int(m)) for m in dataset.flagged(f).tolist()] for f in flags]
    return header, list(zip(*columns))

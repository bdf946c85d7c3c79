"""The whole pipeline on dirty input: a VoyageBuilder ship CSV with garbage
and non-finite cells, out-of-range latitudes, and deleted, duplicated,
cut-short and shuffled rows still runs to the end (exit 0, or 2 for a
failed stage), and one with finite extremes, in-service or AIS, runs to
exit 0 under warnings as errors. Both keep their bookkeeping: one
processed row per lattice slot, report flag counts equal to the flags written, and every
flagged sample covered by the report."""

import csv
import json
import math
import sys
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INTERVAL, VoyageBuilder
from shipdataprep.cli import main
from shipdataprep.ingest import default_schema
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    new_dataset,
    parse_iso_timestamp,
)

BAD_CELLS = ["abc", "--", "1.2.3", "N/A", "inf", "-inf", "nan", "1e400"]
DBL_MAX = sys.float_info.max
EXTREMES = [1e306, -1e306, DBL_MAX, -DBL_MAX, 1e-310, -1e-310, -0.0]
SPECS = {spec.name: spec for spec in default_schema()}


def read_csv(path):
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def report_and_flags(out):
    """The written report as a ProcessingReport (flag counts and check
    timestamps), and the written flags as a dataset."""
    stages = json.loads((out / "report.json").read_text())["stages"]
    report = ProcessingReport()
    for stage in stages:
        entry = report.stage(stage["stage"])
        entry.flag_counts.update(stage["flag_counts"])
        for c in stage["checks"]:
            ts = None if c["timestamp"] is None else parse_iso_timestamp(c["timestamp"])
            entry.check(c["verdict"], timestamp=ts, variable=c["variable"])
    header, rows = read_csv(out / "processed.csv")
    stamps = [parse_iso_timestamp(r[0]) for r in rows]
    flag_at = {f: header.index(f"flag_{f.value}") for f in QualityFlag}
    flags = [frozenset(f for f, k in flag_at.items() if r[k] == "1") for r in rows]
    return report, new_dataset([], stamps, {}, flags=flags)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_dirty_voyage_runs_with_exact_bookkeeping(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("dirty")
    wind_dir_fault = data.draw(st.booleans())
    paths = VoyageBuilder(root, n_trips=2, trip_len=30, berth_len=8,
                          wind_dir_fault=wind_dir_fault).build()
    names, rows = read_csv(paths["ship_csv"])
    n = len(rows)
    for k in range(1, len(names)):  # bad cells: at most a third of each column
        for i in data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 3)):
            rows[i][k] = data.draw(st.sampled_from(BAD_CELLS))
    lat = names.index("lat")
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rows[i][lat] = data.draw(st.sampled_from(["95.0", "-90.5", "1e3"]))
    for i in sorted(data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)),
                    reverse=True):
        del rows[i]
    rows += [list(rows[i]) for i in data.draw(st.lists(st.integers(0, len(rows) - 1),
                                                       max_size=4))]
    for i in data.draw(st.lists(st.integers(0, len(rows) - 1), unique=True, max_size=4)):
        rows[i] = rows[i][: data.draw(st.integers(1, len(names) - 1))]
    rows = data.draw(st.permutations(rows))
    assert run_with_rows(paths, names, rows, root / "out") in (0, 2)


def extremes(name):
    """The finite extremes drawn into the column ``name``: the fixed ones, and
    each valid bound of the column one ulp either side."""
    spec = SPECS.get(name)
    bounds = [b for b in (spec.valid_min, spec.valid_max) if b is not None] if spec else []
    return EXTREMES + [math.nextafter(b, to) for b in bounds for to in (-math.inf, math.inf)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_finite_extremes_run_to_exit_zero_with_exact_bookkeeping(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("extreme")
    paths = VoyageBuilder(root, n_trips=2, trip_len=30, berth_len=8,
                          wind_dir_fault=data.draw(st.booleans()), resistance=True).build()
    names, rows = read_csv(paths["ship_csv"])
    n = len(rows)
    numeric = [k for k, name in enumerate(names) if name not in ("timestamp", "state")]
    for k in numeric:  # single cells: at most a sixth of each column
        for i in data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 6)):
            rows[i][k] = repr(data.draw(st.sampled_from(extremes(names[k]))))
    for i in data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=3)):
        value = repr(data.draw(st.sampled_from(EXTREMES)))  # a whole row of one extreme
        for k in numeric:
            rows[i][k] = value
    interval = INTERVAL
    if data.draw(st.booleans()):  # AIS input: two rows to a bin, averaged by resample
        interval = 2 * INTERVAL
        config = paths["config"].read_text().replace(
            f"sampling_interval = {INTERVAL}", f"sampling_interval = {interval}")
        paths["config"].write_text(config + "source_kind = ais\n")
        bins = [parse_iso_timestamp(r[0]) // interval for r in rows]
        pairs = [i for i in range(n - 1) if bins[i] == bins[i + 1]]
        for i in data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3)):
            k = data.draw(st.sampled_from(numeric))  # one extreme twice in a bin
            rows[i][k] = rows[i + 1][k] = repr(data.draw(st.sampled_from(EXTREMES)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_with_rows(paths, names, rows, root / "out", interval) == 0


def run_with_rows(paths, names, rows, out, interval=INTERVAL):
    """Run the voyage with its ship CSV rewritten to ``names`` and ``rows``,
    check the bookkeeping of the outputs in ``out`` and return the exit code.
    A coarser ``interval`` than the rows' is an AIS feed, whose lattice
    starts at the bin of its first row."""
    with paths["ship_csv"].open("w", newline="") as fh:
        csv.writer(fh).writerows([names] + rows)
    code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                 "--no-timestamp-header"])

    stamps = {parse_iso_timestamp(r[0]) for r in rows}
    _, written = read_csv(out / "processed.csv")
    start = min(stamps) if interval == INTERVAL else min(stamps) // interval * interval
    lattice = list(range(start, max(stamps) + 1, interval))
    assert [parse_iso_timestamp(r[0]) for r in written] == lattice

    report, flagged = report_and_flags(out)
    counted = sum(sum(e.flag_counts.values()) for e in report.stage_entries)
    pairs = sum(int(flagged.flagged(f).sum()) for f in QualityFlag)
    assert counted == pairs
    assert report.covers(flagged)
    return code

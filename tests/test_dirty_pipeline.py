"""The whole pipeline on dirty input: a VoyageBuilder ship CSV with garbage
and non-finite cells, out-of-range latitudes, and deleted, duplicated,
cut-short and shuffled rows still runs to the end (exit 0, or 2 for a
failed stage), and one with finite extremes, in-service or AIS, runs to
exit 0 under warnings as errors. Both keep their bookkeeping: one
processed row per lattice slot, report flag counts equal to the flags written, and every
flagged sample covered by the report. On both, flags only grow: each stage
after trips returns the flags of its input, row by row, and maybe more. And a
value outside its column's valid range is missing to every stage but the range
rule and the writers: on a drawn voyage, in-service or AIS, and on seven cells
of the benchmark's voyages, the run writes the processed.csv and report.json
of the run with that cell empty, but for that cell, its row's range flag and
the range evidence."""

import contextlib
import csv
import json
import math
import sys
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INTERVAL, VoyageBuilder, load_generate
from shipdataprep import corrections, pipeline
from shipdataprep.cli import main
from shipdataprep.ingest import default_schema
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    VoyageDataset,
    iso_timestamp,
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


# the stage functions that run_pipeline calls after trips, each with the
# module it looks the function up in
LATER_STAGES = [(pipeline, name) for name in (
    "clean_gps", "interpolate", "_derive", "_validate", "_draft_fix", "_hydrostatics_stage",
    "_clean",
)] + [(corrections, "resistance_components")]


@contextlib.contextmanager
def flags_only_grow():
    """While open, each of ``LATER_STAGES`` that returns must return a
    dataset of its input's rows whose flag bits hold the input's, row by
    row. Yields a dict of each stage function called -> whether it kept the
    flags every time; a failed check is recorded, not raised, as the stage
    guard would turn it into a stage failure."""
    kept = {}

    def wrapped(name, run):
        def stage(*args, **kwargs):
            given = next(a for a in args if isinstance(a, VoyageDataset))
            out = run(*args, **kwargs)
            grew = len(out) == len(given) and (
                (out.flag_bits & given.flag_bits) == given.flag_bits).all()
            kept[name] = kept.get(name, True) and bool(grew)
            return out
        return stage

    with contextlib.ExitStack() as stack:
        for module, name in LATER_STAGES:
            stack.enter_context(
                mock.patch.object(module, name, wrapped(name, getattr(module, name))))
        yield kept


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
    return report, new_dataset([], stamps, {}, flags=flags, source_kind="in_service")


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


# the axes and nodes of a drawn hydro table, which the drafts may lie far outside
HYDRO_DRAFTS = [1e-310, 2.0, 9.0, 12.0, 1e306, DBL_MAX]
HYDRO_TRIMS = [-DBL_MAX, -1e306, -1.0, 0.0, 1.0, DBL_MAX]
HYDRO_NODES = [1e4, 6e4, 9.5e4, 1e-310, 1e306, DBL_MAX]


def hydro_table(data, paths):
    """A drawn full (draft x trim) hydro table, named in the config."""
    drafts, trims = (data.draw(st.lists(st.sampled_from(axis), min_size=1, max_size=3,
                                        unique=True)) for axis in (HYDRO_DRAFTS, HYDRO_TRIMS))
    nodes = st.sampled_from(HYDRO_NODES)
    rows = [f"{d!r},{t!r},{data.draw(nodes)!r},{data.draw(nodes)!r}\n"
            for d in drafts for t in trims]
    table = paths["config"].with_name("hydro.csv")
    table.write_text("draft_m,trim_m,displacement_m3,wsa_m2\n" + "".join(rows))
    with paths["config"].open("a") as fh:
        fh.write("hydro_table = hydro.csv\n")


def grid_window(data, paths):
    """The grid cut to two or three of its longitudes, drawn so that the
    track stays outside it, enters it or leaves it."""
    start, width = data.draw(st.integers(0, 3)), data.draw(st.integers(2, 3))
    lines = paths["hindcast"].read_text().splitlines()
    for i, line in enumerate(lines):
        head = "#lon " if line.startswith("#lon ") else ""
        if head or not line.startswith("#"):
            cells = line[len(head):].split(",")
            lines[i] = head + ",".join(cells[start:start + width])
    paths["hindcast"].write_text("\n".join(lines) + "\n")


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
    if data.draw(st.booleans()):
        hydro_table(data, paths)
    if data.draw(st.booleans()):
        grid_window(data, paths)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_with_rows(paths, names, rows, root / "out", interval) == 0


def past_the_range(name):
    """The values drawn into one cell of the column ``name``, each outside its
    valid range: +-DBL_MAX, +-1e306 and one ulp past each bound. A longitude
    within one turn of the range (|lon| <= 540) is wrapped into it, so for
    ``lon`` only the values beyond."""
    spec = SPECS[name]
    values = [DBL_MAX, -DBL_MAX, 1e306, -1e306]
    if name != "lon":
        values += [math.nextafter(spec.valid_min, -math.inf),
                   math.nextafter(spec.valid_max, math.inf)]
    return values


BOUNDED = {name for name, spec in SPECS.items() if spec.valid_min is not None}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_out_of_range_cell_changes_no_other_row(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("range")
    paths = VoyageBuilder(root, n_trips=2, trip_len=30, berth_len=8,
                          wind_dir_fault=data.draw(st.booleans()),
                          resistance=data.draw(st.booleans())).build()
    names, rows = read_csv(paths["ship_csv"])
    k = names.index(data.draw(st.sampled_from(sorted(BOUNDED & set(names)))))
    i = data.draw(st.integers(0, len(rows) - 1))
    interval = INTERVAL
    if data.draw(st.booleans()):  # AIS input, two rows to a bin, averaged by resample
        interval = 2 * INTERVAL
        config = paths["config"].read_text().replace(
            f"sampling_interval = {INTERVAL}", f"sampling_interval = {interval}")
        paths["config"].write_text(config + "source_kind = ais\n")
    value = data.draw(st.sampled_from(past_the_range(names[k])))
    codes = []
    for cell in (repr(value), ""):
        edited = [list(r) for r in rows]
        edited[i][k] = cell
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes.append(run_with_rows(paths, names, edited, root / f"out_{bool(cell)}", interval))
    assert codes[0] == codes[1]
    # the edited row's processed row: its lattice slot or bin, the last at or before it
    stamp = parse_iso_timestamp(rows[i][0])
    own = max(t for t in (parse_iso_timestamp(r[0]) for r in read_csv(
        root / "out_True" / "processed.csv")[1]) if t <= stamp)
    assert_only_the_range_evidence_differs(root / "out_True", root / "out_False", names[k],
                                           iso_timestamp(own))


# one cell out of range on a benchmark voyage (seed 1; the row is a 0-based
# data row of the ship CSV), each of which once moved other cells or flags:
# a sog of 40 m/s on hindcast_loop set the row's angular fault and the wind
# fix, and on ais_feed it moved its bin's mean and gave it a spike; a shaft
# power of 2e8 W dropped the derived_shaft_power column the empty cell gives;
# a relative wind speed of 100 m/s got a reference-height speed and a wind
# resistance; an stw of 1000 m/s entered the speed-power comparison; and a
# latitude of 95 was noted unparseable at ingest and got no range flag
BENCHMARK_CELLS = [
    ("hindcast_loop", 200, "sog", 40.0),
    ("ais_feed", 2000, "sog", 40.0),
    ("long_voyage", 1000, "shaft_power", 2e8),
    ("long_voyage", 1000, "rel_wind_speed", 100.0),
    ("long_voyage", 1000, "stw", 1000.0),
    ("hindcast_loop", 200, "lat", 95.0),
    ("ais_feed", 2000, "lat", 95.0),
]


@pytest.fixture(scope="module")
def benchmark_inputs(tmp_path_factory):
    """Per workload, the config of its seed-1 inputs, built once."""
    generate, built = load_generate(), {}

    def inputs(workload):
        if workload not in built:
            root = tmp_path_factory.mktemp(workload)
            built[workload] = generate.build(workload, 1, root).config
        return built[workload]
    return inputs


@pytest.mark.parametrize("workload,row,name,value", BENCHMARK_CELLS,
                         ids=[f"{w}-{n}" for w, _, n, _ in BENCHMARK_CELLS])
def test_benchmark_cell_out_of_range_is_missing_to_every_stage(
        tmp_path, benchmark_inputs, workload, row, name, value):
    config = benchmark_inputs(workload)
    names, rows = read_csv(config.with_name("ship.csv"))
    lines = config.read_text().splitlines()
    for tag, cell in (("past", repr(value)), ("empty", "")):  # beside the other inputs
        rows[row][names.index(name)] = cell
        with config.with_name(f"ship_{tag}.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([names, *rows])
        variant = config.with_name(f"config_{tag}.txt")
        variant.write_text("".join(f"ship_csv = ship_{tag}.csv\n" if line.startswith("ship_csv")
                                   else line + "\n" for line in lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(variant), "--out", str(tmp_path / tag),
                         "--no-timestamp-header"]) == 0
    stamp = parse_iso_timestamp(rows[row][0])
    slots = [parse_iso_timestamp(r[0]) for r in read_csv(tmp_path / "past" / "processed.csv")[1]]
    if workload == "ais_feed":  # the message's bin
        own = max(t for t in slots if t <= stamp)
    else:  # the nearest lattice point, the earlier at a tie, as regularize snaps
        own = min(slots, key=lambda t: (abs(t - stamp), t))
    assert_only_the_range_evidence_differs(tmp_path / "past", tmp_path / "empty", name,
                                           iso_timestamp(own))


def assert_only_the_range_evidence_differs(past, empty, name, own):
    """The outputs in ``past``, of a run with one ``name`` cell out of range,
    and in ``empty``, of the run with that cell empty, hold the same
    processed.csv and report.json but for: the edited row's ``name`` or
    ``raw_<name>`` cell and its flag_invalid_range, set in ``past`` (the
    row is the processed row stamped ``own``); ingest's ``missing_cells``;
    and the range evidence, one invalid_range check of ``name`` at ``own``
    in clean:contextual or, for an AIS feed, resample, with its flag count
    and clean:contextual's ``samples_flagged``. Each flag is counted once,
    by the first stage to set it, so where another stage flags that row in
    both runs, the count moves to whichever of the two runs first."""
    (header, got), (empty_header, want) = read_csv(past / "processed.csv"), read_csv(
        empty / "processed.csv")
    assert header == empty_header
    assert [r[0] for r in got] == [r[0] for r in want]
    flag = header.index("flag_invalid_range")
    cells = {header.index(h) for h in (name, f"raw_{name}", "flag_invalid_range") if h in header}
    (row,) = [j for j, r in enumerate(got) if r[0] == own]
    assert got[row][flag] == "1"
    fresh = int(want[row][flag] == "0")  # the past run has one invalid_range flag more
    assert {j for j, (a, b) in enumerate(zip(got[row], want[row])) if a != b} <= cells
    assert got[:row] + got[row + 1:] == want[:row] + want[row + 1:]

    stages = [json.loads((out / "report.json").read_text())["stages"] for out in (past, empty)]
    assert [s["stage"] for s in stages[0]] == [s["stage"] for s in stages[1]]
    evidence = {"timestamp": own, "variable": name, "verdict": "invalid_range"}
    found, moved = [], {}
    for p, e in zip(*stages):
        if p["stage"] == "ingest:ship_csv":
            del p["summary"]["missing_cells"], e["summary"]["missing_cells"]
        checks = [c for c in p["checks"] if {k: c[k] for k in evidence} != evidence]
        if len(checks) < len(p["checks"]):
            found.append((p["stage"], len(p["checks"]) - len(checks)))
            p["checks"] = checks
            if "samples_flagged" in p["summary"]:
                more = p["summary"]["samples_flagged"] - e["summary"]["samples_flagged"]
                assert more in (0, 1)
                p["summary"]["samples_flagged"] -= more
        n = p["flag_counts"].pop("invalid_range", 0) - e["flag_counts"].pop("invalid_range", 0)
        if n:
            moved[p["stage"]] = n
        assert p == e, p["stage"]
    assert found in ([("clean:contextual", 1)], [("resample", 1)])
    assert sum(moved.values()) == fresh
    assert all(n == (1 if stage == found[0][0] else -1) for stage, n in moved.items())


def run_with_rows(paths, names, rows, out, interval=INTERVAL):
    """Run the voyage with its ship CSV rewritten to ``names`` and ``rows``,
    check the bookkeeping of the outputs in ``out`` and return the exit code.
    A coarser ``interval`` than the rows' is an AIS feed, whose lattice
    starts at the bin of its first row."""
    with paths["ship_csv"].open("w", newline="") as fh:
        csv.writer(fh).writerows([names] + rows)
    with flags_only_grow() as kept:
        code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                     "--no-timestamp-header"])
    assert {"clean_gps", "_clean"} <= kept.keys()
    assert all(kept.values()), kept

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

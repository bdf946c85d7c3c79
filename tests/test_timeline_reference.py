"""The whole-array run finder against the loops it replaced
(``tests/timeline_reference.py``): threshold segmentation on random in-trip
and berth masks, with values past the valid range, and padding 0-4, port grouping on label sequences with
missing labels (leading ones too), and draft-event detection with the
overlap merge of per-sensor events. Each must give the same trip ids, or
the same events. The whole-array ``resample`` must give the
bits of the per-bin loop, over bins of 1, 7-9, 127-129 and more than 8,192
members, empty and NaN-only bins, ``-0.0``, finite values whose sum
overflows, angles near 0/360 and text with missing values."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import timeline_reference as ref
from conftest import INTERVAL, T0, series_dataset
from shipdataprep.corrections import detect_draft_events
from shipdataprep.hindcast import SteadyFilterParams
from shipdataprep.ingest import default_schema
from shipdataprep.model import ProcessingReport, QualityFlag, VariableSpec, new_dataset
from shipdataprep.timeline import (
    AT_BERTH,
    SegmentationError,
    resample,
    runs,
    segment_by_ports,
    segment_by_thresholds,
)


def outcome(segment, dataset, *args):
    try:
        out = segment(dataset, *args)
    except SegmentationError as exc:
        return str(exc)
    return out.trip_ids.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda n: st.tuples(
        # rpm in [0, 300] and sog in [0, 26]; a value past a bound is no motion
        st.lists(st.sampled_from([0.0, 50.0, math.nan, 300.0, 301.0, 1e306]),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 3.0, math.nan, 26.5, -1e306]), min_size=n, max_size=n),
        st.lists(st.sampled_from([AT_BERTH, "Sea Passage", None]), min_size=n, max_size=n),
    )),
    st.sampled_from(["rpm", "sog", "both"]),
    st.booleans(),
    st.integers(0, 4),
)
def test_thresholds_match_loops(columns, which, with_state, pad):
    rpm, sog, state = columns
    values = {"shaft_rpm": rpm, "sog": sog}
    if which != "both":
        values = {"shaft_rpm": rpm} if which == "rpm" else {"sog": sog}
    if with_state:
        values["state"] = state
    specs = {spec.name: spec for spec in default_schema()}
    stamps = [T0 + i * INTERVAL for i in range(len(state))]
    ds = new_dataset([specs[name] for name in values], stamps, values, source_kind="in_service")
    assert outcome(segment_by_thresholds, ds, 10.0, 1.54, pad) == outcome(
        ref.segment_by_thresholds, ds, 10.0, 1.54, pad
    )
    in_trip = np.nan_to_num(np.array(rpm, dtype=float), nan=-1.0) > 10.0
    assert list(zip(*(r.tolist() for r in runs(in_trip)))) == ref._runs(in_trip)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["OSL", "AMS", "RTM", None, None]), min_size=1, max_size=30))
def test_ports_match_loop(ports):
    ds = series_dataset({"port": ports})
    assert outcome(segment_by_ports, ds) == outcome(ref.segment_by_ports, ds)


@st.composite
def draft_voyage(draw):
    n = draw(st.integers(8, 60))
    steps = st.sampled_from([0.0, 0.0, 0.0, 0.01, -0.01, 0.2, -0.5, 1.0])
    # the aft sensor may repeat the fore sensor's steps a few samples later,
    # so that per-sensor events overlap, touch or just miss each other
    fore = draw(st.lists(steps, min_size=n, max_size=n))
    lag = draw(st.integers(0, 4))
    aft = draw(st.one_of(st.just([0.0] * lag + fore[: n - lag]),
                         st.lists(steps, min_size=n, max_size=n)))
    columns = {}
    for sensor, col in (("draft_fore", fore), ("draft_aft", aft)):
        if draw(st.integers(0, 3)):
            col = 8.0 + np.cumsum(col)
            gaps = draw(st.lists(st.integers(0, n - 1), max_size=3))
            col[gaps] = np.nan
            columns[sensor] = col.tolist()
    lead, tail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    ids = [None] * lead + [1] * (n - lead - tail) + [None] * tail
    stamps = [T0 + i * INTERVAL for i in range(n)]
    schema = [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")]
    ds = new_dataset(schema, stamps, columns, trip_ids=ids, source_kind="in_service")
    params = SteadyFilterParams(
        draw(st.sampled_from([3, 5, 7])),
        draw(st.sampled_from([0.01, 0.2])),
        draw(st.sampled_from([1e-9, 1e-4])),
    )
    return ds, params


@settings(max_examples=200, deadline=None)
@given(draft_voyage())
def test_draft_events_match_loop(case):
    ds, params = case
    assert detect_draft_events(ds, 1, params) == ref.detect_draft_events(ds, 1, params)


BIG_BIN = 8_193  # numpy sums more than 8,192 values in blocks
RESAMPLE_SCHEMA = [
    VariableSpec("x"),
    VariableSpec("heading", "deg", "angular"),
    VariableSpec("state", kind="text"),
    VariableSpec("stw"),  # declared, without a value
    VariableSpec("rel_wind_dir", "deg", "angular"),
    VariableSpec("port", kind="text"),
]
ABSENT = {"stw": np.nan, "rel_wind_dir": np.nan, "port": None}


@st.composite
def sporadic_feed(draw):
    """Messages whose bins hold 0 (empty), 1, 7-9 or 127-129 members, and
    at times one bin of more than 8,192; columns with NaN runs, -0.0,
    angles near 0/360 and text with None, at random magnitudes, up to
    ones whose sum overflows; and a numeric, an angular and a text column
    without a value."""
    sizes = draw(st.lists(st.sampled_from([0, 1, 1, 7, 8, 9, 127, 128, 129]),
                          min_size=1, max_size=12))
    if draw(st.integers(0, 4)) == 0:
        sizes.insert(draw(st.integers(0, len(sizes))), BIG_BIN + draw(st.integers(0, 900)))
    if sizes[0] == 0:
        sizes[0] = 1  # the first message opens the first bin
    interval = 10_000
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stamps = np.concatenate([
        k * interval + np.sort(rng.choice(interval, size, replace=False))
        for k, size in enumerate(sizes)
    ]) + T0 // interval * interval + draw(st.integers(0, 3)) * 1_000
    n = len(stamps)
    # at 1e307 a bin's sum overflows, and the bin is averaged again scaled down
    x = rng.normal(0.0, 1.0, n) * draw(st.sampled_from([1.0, 1e-3, 1e12, 1e-300, 1e307]))
    x[rng.random(n) < 0.1] = -0.0
    heading = np.where(rng.random(n) < 0.5, rng.uniform(-3.0, 3.0, n) % 360.0,
                       rng.uniform(0.0, 360.0, n))
    for col in (x, heading):  # missing at random, and whole bins missing
        col[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = np.nan
        for k in np.flatnonzero(rng.random(len(sizes)) < 0.2):
            lo = sum(sizes[:k])
            col[lo : lo + sizes[k]] = np.nan
    state = rng.choice(np.array(["sea", "berth", None], dtype=object), n)
    flags = [
        {QualityFlag.DROPOUT} if r < 0.05 else {QualityFlag.SPIKE} if r < 0.1 else set()
        for r in rng.random(n)
    ]
    columns = {"x": x, "heading": heading, "state": state}
    columns.update({name: [missing] * n for name, missing in ABSENT.items()})
    return new_dataset(RESAMPLE_SCHEMA, stamps, columns, flags=flags, source_kind="in_service"), interval


@settings(max_examples=120, deadline=None)
@given(sporadic_feed())
def test_resample_same_bits_as_per_bin_loop(feed):
    ds, interval = feed
    got_report, want_report = ProcessingReport(), ProcessingReport()
    got = resample(ds, interval, report=got_report)
    want = ref.resample(ds, interval, report=want_report)
    for name in ("x", "heading", "stw", "rel_wind_dir"):
        assert np.array_equal(got.column(name).view(np.int64), want.column(name).view(np.int64))
    for name in ("state", "port"):
        assert got.text_column(name).tolist() == want.text_column(name).tolist()
    assert np.isnan(got.column("stw")).all() and np.isnan(got.column("rel_wind_dir")).all()
    assert set(got.text_column("port").tolist()) == {None}
    for a in ("timestamps", "flag_bits", "trip_ids"):
        assert np.array_equal(getattr(got, a), getattr(want, a))
    assert got.sampling_interval == want.sampling_interval
    assert got_report.to_dict() == want_report.to_dict()

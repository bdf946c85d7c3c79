"""The whole-array run finder against the loops it replaced
(``tests/timeline_reference.py``): threshold segmentation on random in-trip
and berth masks with padding 0-4, port grouping on label sequences with
missing labels (leading ones too), and draft-event detection with the
overlap merge of per-sensor events. Each must give the same trip index and
trip ids, or the same events."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import timeline_reference as ref
from conftest import INTERVAL, T0, series_dataset
from shipdataprep.corrections import detect_draft_events
from shipdataprep.hindcast import SteadyFilterParams
from shipdataprep.model import VariableSpec, new_dataset
from shipdataprep.timeline import (
    AT_BERTH,
    SegmentationError,
    Trip,
    runs,
    segment_by_ports,
    segment_by_thresholds,
)


def outcome(segment, dataset, *args):
    try:
        index, out = segment(dataset, *args)
    except SegmentationError as exc:
        return str(exc)
    return index, out.trip_ids.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([0.0, 50.0, math.nan]), min_size=n, max_size=n),
        st.lists(st.sampled_from([0.0, 3.0, math.nan]), min_size=n, max_size=n),
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
    ds = series_dataset(values)
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
    ds = new_dataset(schema, stamps, columns, trip_ids=ids)
    trip = Trip(1, stamps[lead], stamps[n - tail - 1])
    params = SteadyFilterParams(
        draw(st.sampled_from([3, 5, 7])),
        draw(st.sampled_from([0.01, 0.2])),
        draw(st.sampled_from([None, 1e-4])),
    )
    return ds, trip, params, draw(st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(draft_voyage())
def test_draft_events_match_loop(case):
    ds, trip, params, n_avg = case
    assert detect_draft_events(ds, trip, params, n_avg) == ref.detect_draft_events(
        ds, trip, params, n_avg
    )

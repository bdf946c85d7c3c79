"""The array draft fixes against the row loops they replaced
(``tests/corrections_reference.py``): a trip between two berths of 0-6
samples each, drafts with missing cells (so anchors go one-sided or
missing), 0-3 sorted disjoint draft events, with and without precomputed
event means. Both fixes must give the same bits in the ``draft_*`` and
``raw_draft_*`` columns, the same flags, and the same notes, corrections and
flag counts in their report entry."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import corrections_reference as ref
from conftest import INTERVAL, T0
from shipdataprep.corrections import (
    DRAFT_SENSORS,
    DraftChangeEvent,
    fix_draft_ramp,
    fix_draft_simple,
)
from shipdataprep.model import ProcessingReport, VariableSpec, new_dataset
from shipdataprep.timeline import Trip

draft = st.one_of(st.none(), st.floats(0.5, 20.0))


@st.composite
def voyages(draw):
    before, length, after = (draw(st.integers(0, 6)), draw(st.integers(1, 30)),
                             draw(st.integers(0, 6)))
    n = before + length + after
    stamps = [T0 + i * INTERVAL for i in range(n)]
    columns = {
        sensor: draw(st.lists(draft, min_size=n, max_size=n)) for sensor in DRAFT_SENSORS
    }
    trip_ids = [1 if before <= i < before + length else None for i in range(n)]
    schema = [VariableSpec(s, "m", role="loading_condition") for s in DRAFT_SENSORS]
    dataset = new_dataset(schema, stamps, columns, INTERVAL, trip_ids=trip_ids)
    trip = Trip(1, stamps[before], stamps[before + length - 1])
    # 0-3 events from sorted distinct instants of the trip, paired in order
    k = draw(st.integers(0, min(3, (trip.end - trip.start + 1) // 2)))
    instants = sorted(draw(st.lists(
        st.integers(trip.start, trip.end), min_size=2 * k, max_size=2 * k, unique=True
    )))
    events = []
    for start, end in zip(instants[::2], instants[1::2]):
        means = {}
        for sensor in DRAFT_SENSORS:
            if draw(st.booleans()):
                means[sensor] = (draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0)))
        events.append(DraftChangeEvent(1, start, end, means=means))
    return dataset, trip, events


def outcome(fix, *args, **kwargs):
    report = ProcessingReport()
    out = fix(*args, report=report, **kwargs)
    (entry,) = report.stage_entries
    names = [n for n in out.spec_map if n.startswith(("draft_", "raw_draft_"))]
    bits = {n: out.column(n).view(np.uint64).tolist() for n in names}
    return bits, out.flag_bits.tolist(), entry.notes, entry.corrections, entry.flag_counts


@settings(max_examples=300, deadline=None)
@given(voyages(), st.integers(1, 12))
def test_simple_fix_matches_loop(voyage, n_anchor):
    dataset, trip, _ = voyage
    assert outcome(fix_draft_simple, dataset, trip, n_anchor) == outcome(
        ref.fix_draft_simple, dataset, trip, n_anchor
    )


@settings(max_examples=300, deadline=None)
@given(voyages(), st.integers(1, 12))
def test_ramp_fix_matches_loop(voyage, n_avg):
    dataset, trip, events = voyage
    assert outcome(fix_draft_ramp, dataset, trip, events, n_avg) == outcome(
        ref.fix_draft_ramp, dataset, trip, events, n_avg
    )

"""The array draft fixes against the row loops they replaced
(``tests/corrections_reference.py``): a trip between two berths of 0-6
samples each, drafts with missing cells (so anchors go one-sided or
missing) and 0-3 sorted disjoint draft events. Both fixes must give the
same bits in the ``draft_*`` and ``raw_draft_*`` columns, the same flags,
and the same notes, corrections and flag counts in their report entry."""

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
    schema = [VariableSpec(s, "m") for s in DRAFT_SENSORS]
    dataset = new_dataset(schema, stamps, columns, INTERVAL, trip_ids=trip_ids)
    first, last = stamps[before], stamps[before + length - 1]
    # 0-3 events from sorted distinct instants of the trip, paired in order
    k = draw(st.integers(0, min(3, (last - first + 1) // 2)))
    instants = sorted(draw(st.lists(
        st.integers(first, last), min_size=2 * k, max_size=2 * k, unique=True
    )))
    events = [DraftChangeEvent(1, s, e) for s, e in zip(instants[::2], instants[1::2])]
    return dataset, events


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
    dataset, _ = voyage
    assert outcome(fix_draft_simple, dataset, 1, n_anchor) == outcome(
        ref.fix_draft_simple, dataset, 1, n_anchor
    )


@settings(max_examples=300, deadline=None)
@given(voyages(), st.integers(1, 12))
def test_ramp_fix_matches_loop(voyage, n_avg):
    dataset, events = voyage
    assert outcome(fix_draft_ramp, dataset, 1, events, n_avg) == outcome(
        ref.fix_draft_ramp, dataset, 1, events, n_avg
    )

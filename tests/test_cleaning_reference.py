"""The whole-array ``cleaning.contextual_filter`` against the loop it
replaced (``tests/cleaning_reference.py``) on columns built from runs: NaN
gaps, zero runs at group edges, all-constant columns, steps whose MAD is 0,
+0.0 beside -0.0, trip ids with berth rows between trips, and small
``repeat_run`` and ``dropout_max``. The rules read the measured columns and
flag a dataset derived from them, with one more column that neither
checks. Both must set the same flag bits and write the same check rows in
the same order, with the same flag counts and summary."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cleaning_reference as ref
from conftest import INTERVAL, T0, expand_runs
from shipdataprep.cleaning import contextual_filter
from shipdataprep.model import ProcessingReport, VariableSpec, _check_dicts, new_dataset

VALUES = [0.0, -0.0, 0.0, 3.3, 5.0, 80.0, math.nan, 1e300, -1e300]


@st.composite
def column(draw, n):
    if draw(st.integers(0, 5)) == 0:  # all constant
        return [draw(st.sampled_from(VALUES))] * n
    value = st.one_of(st.sampled_from(VALUES), st.floats(-100.0, 100.0))
    out: list[float] = []
    while len(out) < n:
        out += [draw(value)] * draw(st.sampled_from([1, 1, 2, 3, 5, 8]))
    return out[:n]


@st.composite
def voyage(draw):
    n = draw(st.integers(1, 40))
    schema, columns = [], {}
    for k in range(draw(st.integers(1, 3))):
        lo = draw(st.sampled_from([None, -1.0, 0.0]))
        hi = draw(st.sampled_from([None, 6.0, 100.0]))
        schema.append(VariableSpec(f"x{k}", valid_min=lo, valid_max=hi))
        columns[f"x{k}"] = draw(column(n))
    ids = None
    if draw(st.booleans()):  # trips and the berth rows (None) between them
        ids = [None] * n
        start = 0
        for trip_id in range(1, draw(st.integers(1, 4)) + 1):
            start += draw(st.integers(0, 3))
            end = min(n, start + draw(st.integers(1, 15)))
            ids[start:end] = [trip_id] * max(0, end - start)
            start = end
    measured = new_dataset(schema, [T0 + i * INTERVAL for i in range(n)], columns,
                           trip_ids=ids)
    derived = VariableSpec("derived", valid_min=0.0, valid_max=6.0)
    ds = measured.adding_variable(derived, draw(column(n)))
    return (ds, measured, draw(st.integers(1, 6)), draw(st.integers(1, 4)),
            draw(st.sampled_from([0.5, 2.0, 6.0])))


def outcome(fn, ds, measured, repeat_run, dropout_max, spike_scales):
    report = ProcessingReport()
    out = fn(ds, measured, repeat_run=repeat_run, dropout_max=dropout_max,
             spike_scales=spike_scales, report=report)
    (entry,) = report.stage_entries
    if fn is contextual_filter:  # a run is one row; every other check one per sample
        runs = {"repeated_value", "dropout"}
        assert all((c.samples is not None) == (c.verdict in runs) for c in entry.checks)
    rows = expand_runs(entry.checks, measured.timestamps)
    checks = repr(_check_dicts(rows))  # repr tells -0.0 from 0.0
    return out.flag_bits.tolist(), checks, list(entry.flag_counts.items()), entry.summary


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # steps between +-1e300
@settings(max_examples=400, deadline=None)
@given(voyage())
def test_contextual_filter_matches_loop(case):
    assert outcome(contextual_filter, *case) == outcome(ref.contextual_filter, *case)

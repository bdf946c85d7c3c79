"""The columnar ``VoyageDataset`` against the row model it replaced
(``tests/dataset_reference.py``): random sequences of construction, new
variables, overwritten values, flags, trip ids and regularize-style gathers
must give bit-equal columns (NaN/None as missing), the same flags and trip
ids, and the same errors, type and message."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataset_reference import FLAGS, assert_same, new_row_dataset
from shipdataprep.model import (
    DatasetError,
    Sample,
    SchemaError,
    StageEntry,
    VariableSpec,
    add_flags,
    new_dataset,
)

POOL = (
    VariableSpec("lat"),
    VariableSpec("lon"),
    VariableSpec("x"),
    VariableSpec("h", kind="angular"),
    VariableSpec("s", kind="text"),
    VariableSpec("y"),
)


def good_value(spec: VariableSpec):
    if spec.kind == "text":
        return st.text(max_size=3)
    return st.one_of(
        st.floats(allow_infinity=False),
        st.integers(-10**6, 10**6),
        st.sampled_from([-0.0, 0.0, 5e-324, -180.0, 180.0, 359.99999999999994, -1e-300]),
    )


def bad_value(spec: VariableSpec):
    if spec.kind == "text":
        return st.sampled_from([1.5, 7, float("nan")])
    return st.sampled_from([float("inf"), float("-inf"), "12.5", ""])


def column_values(data, spec: VariableSpec, n: int, with_none: bool, bad: bool) -> list:
    cell = good_value(spec)
    if with_none:
        cell = st.one_of(st.none(), cell)
    values = data.draw(st.lists(cell, min_size=n, max_size=n))
    if bad and n:
        values[data.draw(st.integers(0, n - 1))] = data.draw(bad_value(spec))
    return values


def same_outcome(columnar, rows):
    """Run both; the same error (type and message), or both results."""
    try:
        want = rows()
    except (DatasetError, SchemaError) as exc:
        with pytest.raises(type(exc)) as got:
            columnar()
        assert str(got.value) == str(exc)
        return None
    return columnar(), want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_columnar_dataset_matches_row_model(data):
    names = data.draw(st.lists(st.sampled_from(range(len(POOL))), unique=True, max_size=4))
    schema = [POOL[k] for k in sorted(names)]
    stamps = data.draw(st.lists(st.integers(0, 10**6), unique=True, max_size=10))
    n = len(stamps)
    columns = {
        spec.name: column_values(data, spec, n, with_none=True, bad=False) for spec in schema
    }
    if schema and data.draw(st.booleans()):  # one bad cell in the input rows
        spec = data.draw(st.sampled_from(schema))
        columns[spec.name] = column_values(data, spec, n, with_none=True, bad=True)
    flags = [frozenset(data.draw(st.lists(st.sampled_from(FLAGS), max_size=2))) for _ in stamps]
    trips = [data.draw(st.one_of(st.none(), st.integers(0, 3))) for _ in stamps]
    samples = [
        Sample(t, {name: col[i] for name, col in columns.items() if col[i] is not None},
               flags[i], trips[i])
        for i, t in enumerate(stamps)
    ]
    interval = data.draw(st.sampled_from([None, 900]))
    built = same_outcome(
        lambda: new_dataset(schema, stamps, columns, interval, flags=flags, trip_ids=trips, source_kind="in_service"),
        lambda: new_row_dataset(schema, samples, interval),
    )
    if built is None:
        return
    ds, ref = built
    assert_same(ds, ref)

    for _ in range(data.draw(st.integers(1, 6))):
        n = len(ds)
        op = data.draw(st.sampled_from(["add", "set", "flag", "trips", "gather"]))
        bad = data.draw(st.integers(0, 4)) == 0
        if op == "add":
            spec = data.draw(st.sampled_from(POOL))
            values = column_values(data, spec, n, with_none=True, bad=bad)
            given_values = values
            numeric = all(v is None or isinstance(v, (int, float)) for v in values)
            if spec.kind != "text" and numeric and data.draw(st.booleans()):
                given_values = np.array([np.nan if v is None else v for v in values], dtype=float)
            outcome = same_outcome(
                lambda: ds.adding_variable(spec, given_values),
                lambda: ref.adding_variable(spec, values),
            )
        elif op == "set":
            if not ds.schema or not n:
                continue
            spec = data.draw(st.sampled_from(ds.schema))
            rows = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            values = column_values(data, spec, len(rows), with_none=True, bad=bad)
            outcome = same_outcome(
                lambda: ds.with_values(spec.name, rows, values),
                lambda: ref.with_values(spec.name, dict(zip(rows, values))),
            )
        elif op == "flag":
            flag = data.draw(st.sampled_from(FLAGS))
            rows = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))
            mask = np.zeros(n, dtype=bool)
            mask[rows] = True
            entry = StageEntry("flag")
            outcome = (
                add_flags(ds, flag, mask if data.draw(st.booleans()) else rows, entry),
                ref.adding_flags({i: {flag} for i in rows}),
            )
            new_pairs = sum(flag not in ref.samples[i].flags for i in set(rows))
            assert entry.flag_counts.get(flag.value, 0) == new_pairs
        elif op == "trips":
            trip = st.one_of(st.none(), st.integers(0, 5))
            ids = data.draw(st.lists(trip, min_size=n, max_size=n))
            outcome = (ds.with_trip_ids(ids), ref.with_trip_ids(ids))
        else:  # a regularize-style gather onto a new lattice
            rows = data.draw(st.lists(st.integers(-1, n - 1), max_size=12))
            lattice = sorted(data.draw(
                st.lists(st.integers(0, 10**6), unique=True, min_size=len(rows), max_size=len(rows))
            ))
            outcome = (ds.take(np.array(rows, dtype=int), lattice), ref.gathered(rows, lattice))
        if outcome is not None:
            ds, ref = outcome
        assert_same(ds, ref)


@pytest.mark.parametrize("spec,value,message", [
    (VariableSpec("x"), float("inf"), "non-finite value for 'x'"),
    (VariableSpec("x"), "fast", "numeric variable 'x' got string 'fast'"),
    (VariableSpec("s", kind="text"), 2.5, "text variable 's' got non-string 2.5"),
])
def test_errors_match_row_model(spec, value, message):
    rows = [Sample(0, {}), Sample(900, {spec.name: value})]
    builds = (
        lambda: new_dataset([spec], [0, 900], {spec.name: [None, value]}, source_kind="in_service"),
        lambda: new_row_dataset([spec], rows),
    )
    for build in builds:
        with pytest.raises(DatasetError, match=message):
            build()
    empty = new_dataset([], [0, 900], {}, source_kind="in_service")
    with pytest.raises(DatasetError) as got:
        empty.adding_variable(spec, [None, value])
    assert str(got.value) == message

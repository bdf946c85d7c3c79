"""Reference for the columnar dataset: the row model it replaced.

A dataset here is a tuple of :class:`Sample` rows, each with its own values
dict, and every update rebuilds the rows one at a time, normalising value by
value. ``tests/test_dataset_reference.py`` drives this model and
``VoyageDataset`` through the same random operations and requires the same
columns, flags, trip ids and errors (:func:`assert_same`).

Two rules differ from the row model as it was:

- It rewrote every longitude as ``((v + 180) % 360) - 180``, which is
  inexact (12.3 became 12.300000000000011); both models here wrap only a
  longitude outside [-180, 180), and only within one turn of it
  (|lon| <= 540): a wilder value is stored as logged, outside the valid
  range, where the range rule flags it.
- Python's ``%`` rounds a tiny negative angle (above -3e-14) up to 360.0,
  and a longitude just below -180 to 180.0. The row model stored that
  value, and only the next pass through its constructor (in regularize or
  resample) moved it to 0.0 or -180.0; both models here store 0.0 or -180.0
  at once, so every value lies in [0, 360) or [-180, 180) and normalising
  twice changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from shipdataprep.model import (
    SOURCE_KINDS,
    DatasetError,
    QualityFlag,
    Sample,
    SchemaError,
    VariableSpec,
    iso_timestamp,
)


def normalise_value(spec: VariableSpec, name: str, value: float | str):
    """One stored value, or None for missing; raises on a rule violation."""
    if spec.kind == "text":
        if not isinstance(value, str):
            raise DatasetError(f"text variable {name!r} got non-string {value!r}")
        return value
    if isinstance(value, str):
        raise DatasetError(f"numeric variable {name!r} got string {value!r}")
    v = float(value)
    if math.isnan(v):
        return None  # NaN is the caller saying "missing"; store as absent
    if math.isinf(v):
        raise DatasetError(f"non-finite value for {name!r}")
    if spec.kind == "angular":
        v %= 360.0
        v = 0.0 if v == 360.0 else v
    if name == "lat" and not -90.0 <= v <= 90.0:
        raise DatasetError(f"latitude {v} outside [-90, 90]")
    if name == "lon" and not -180.0 <= v < 180.0 and abs(v) <= 540.0:
        v = ((v + 180.0) % 360.0) - 180.0
        v = -180.0 if v == 180.0 else v
    return v


@dataclass(frozen=True)
class RowDataset:
    schema: tuple[VariableSpec, ...]
    samples: tuple[Sample, ...]
    sampling_interval: int | None
    source_kind: str

    def spec(self, name: str) -> VariableSpec:
        for s in self.schema:
            if s.name == name:
                return s
        raise SchemaError(f"variable {name!r} not declared")

    def _rebuild(self, samples: Iterable[Sample], schema=None) -> "RowDataset":
        return replace(
            self,
            samples=tuple(samples),
            schema=tuple(schema if schema is not None else self.schema),
        )

    def adding_flags(self, flags_by_index: Mapping[int, Iterable[QualityFlag]]) -> "RowDataset":
        samples = list(self.samples)
        for idx, flags in flags_by_index.items():
            s = samples[idx]
            samples[idx] = replace(s, flags=s.flags | frozenset(flags))
        return self._rebuild(samples)

    def adding_variable(
        self, spec: VariableSpec, values: Sequence[float | str | None]
    ) -> "RowDataset":
        if any(s.name == spec.name for s in self.schema):
            raise SchemaError(f"variable {spec.name!r} already declared")
        if len(values) != len(self.samples):
            raise DatasetError(
                f"values for {spec.name!r}: expected {len(self.samples)} entries, "
                f"got {len(values)}"
            )
        samples = []
        for s, v in zip(self.samples, values):
            nv = None if v is None else normalise_value(spec, spec.name, v)
            if nv is None:
                samples.append(s)
                continue
            vals = dict(s.values)
            vals[spec.name] = nv
            samples.append(replace(s, values=vals))
        return self._rebuild(samples, schema=self.schema + (spec,))

    def with_values(
        self, name: str, values_by_index: Mapping[int, float | str | None]
    ) -> "RowDataset":
        spec = self.spec(name)
        samples = list(self.samples)
        for idx, v in values_by_index.items():
            s = samples[idx]
            vals = dict(s.values)
            nv = None if v is None else normalise_value(spec, name, v)
            if nv is None:
                vals.pop(name, None)
            else:
                vals[name] = nv
            samples[idx] = replace(s, values=vals)
        return self._rebuild(samples)

    def with_trip_ids(self, ids: Sequence[int | None]) -> "RowDataset":
        if len(ids) != len(self.samples):
            raise DatasetError("trip id vector length mismatch")
        return self._rebuild(replace(s, trip_id=t) for s, t in zip(self.samples, ids))

    def gathered(self, rows: Sequence[int], timestamps: Sequence[int]) -> "RowDataset":
        """What the row model's regularize built: each kept sample moved to
        its lattice timestamp, an empty row where ``rows`` is -1, and the
        result passed through the validating constructor again."""
        samples = [
            Sample(t, {}) if r < 0 else replace(self.samples[r], timestamp=t)
            for r, t in zip(rows, timestamps)
        ]
        return new_row_dataset(
            self.schema, samples, self.sampling_interval, self.source_kind
        )


def new_row_dataset(
    schema: Sequence[VariableSpec],
    samples: Iterable[Sample],
    sampling_interval: int | None = None,
    source_kind: str = "in_service",
) -> RowDataset:
    if source_kind not in SOURCE_KINDS:
        raise DatasetError(f"unknown source kind {source_kind!r}")
    names = [s.name for s in schema]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise SchemaError(f"duplicate variable name: {sorted(dupes)[0]!r}")
    spec_map = {s.name: s for s in schema}

    cleaned: list[Sample] = []
    prev_ts: int | None = None
    for s in sorted(samples, key=lambda s: s.timestamp):
        ts = int(s.timestamp)
        if prev_ts is not None and ts == prev_ts:
            raise DatasetError(f"duplicate timestamp {iso_timestamp(ts)}")
        prev_ts = ts
        vals: dict[str, float | str] = {}
        for name, value in s.values.items():
            if name not in spec_map:
                raise DatasetError(f"value for undeclared variable {name!r}")
            nv = normalise_value(spec_map[name], name, value)
            if nv is not None:
                vals[name] = nv
        cleaned.append(Sample(ts, vals, frozenset(s.flags), s.trip_id))
    return RowDataset(tuple(schema), tuple(cleaned), sampling_interval, source_kind)


FLAGS = list(QualityFlag)


def assert_same(ds, ref) -> None:
    """A ``VoyageDataset`` equals a :class:`RowDataset`: schema, metadata,
    timestamps, bit-equal columns (NaN/None as missing), flags and trip ids."""
    assert ds.schema == ref.schema
    assert ds.sampling_interval == ref.sampling_interval
    assert ds.source_kind == ref.source_kind
    assert ds.timestamps.tolist() == [s.timestamp for s in ref.samples]
    for spec in ds.schema:
        want = [s.values.get(spec.name) for s in ref.samples]
        if spec.kind == "text":
            assert ds.text_column(spec.name).tolist() == want
            continue
        got = ds.column(spec.name)
        missing = np.isnan(got)
        assert missing.tolist() == [v is None for v in want]
        present = np.array([v for v in want if v is not None], dtype=np.float64)
        assert got[~missing].view(np.int64).tolist() == present.view(np.int64).tolist()
    for flag in FLAGS:
        assert ds.flagged(flag).tolist() == [flag in s.flags for s in ref.samples]
    assert ds.trip_ids.tolist() == [-1 if s.trip_id is None else s.trip_id for s in ref.samples]

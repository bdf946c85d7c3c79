"""Core data model shared by every pipeline stage.

Datasets are immutable: each stage derives a new ``VoyageDataset`` (or a flag
overlay on one) instead of mutating in place, so intermediate results stay
valid and read-only sharing across parallel workers is safe. Quality flags
only accumulate; no stage may clear a flag set by an earlier one, and the
helper constructors here make that the only easy thing to do.

Canonical variable names used across the pipeline (all SI after ingest:
m, m/s, W, N*m, degrees in [0, 360), shaft speed in rpm):

    lat, lon, sog, stw, shaft_rpm, shaft_torque, shaft_power,
    draft_fore, draft_aft, rel_wind_speed, rel_wind_dir, heading,
    nav_status, state, port, rudder_angle, prop_pitch

Derived stages add ``hc_*`` (hindcast), ``raw_*`` (pre-correction originals),
``fixed_*`` (fault substitutions) and ``derived_*`` (identity-derived) columns.
"""

from __future__ import annotations

import datetime
import enum
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

KNOT = 1852.0 / 3600.0
"""One international knot in m/s."""

RPM_THRESHOLD = 10.0
"""Default shaft speed (rpm) above which a sample counts as in-trip."""
SOG_THRESHOLD = 3.0 * KNOT
"""Default speed over ground (m/s) above which a sample counts as in-trip."""

SOURCE_KINDS = ("in_service", "ais", "noon_report")
VARIABLE_KINDS = ("linear", "angular", "text")
VARIABLE_ROLES = (
    "operational_control",
    "loading_condition",
    "operational_environment",
    "operating_point",
    "navigation",
    "state",
    "other",
)


class SchemaError(ValueError):
    """Invalid variable declaration (duplicate name, bad bounds, ...)."""


class DatasetError(ValueError):
    """Dataset construction violated a model invariant."""


class QualityFlag(enum.Enum):
    """Per-sample quality annotations, accumulated monotonically."""

    MISSING_INSERTED = "missing_inserted"
    INVALID_RANGE = "invalid_range"
    REPEATED_VALUE = "repeated_value"
    DROPOUT = "dropout"
    SPIKE = "spike"
    UNSTEADY = "unsteady"
    IRRATIONAL_POSITION = "irrational_position"
    IRRATIONAL_SPEED = "irrational_speed"
    ANGULAR_AVERAGING_FAULT = "angular_averaging_fault"
    CORRELATION_OUTLIER = "correlation_outlier"
    DRAFT_CORRECTED = "draft_corrected"
    STALE_AIS_STATUS = "stale_ais_status"

    def __str__(self) -> str:
        return self.value


class ShipType(enum.Enum):
    """Ship categories used by the service-speed, block-coefficient and
    draft-ratio lookup tables."""

    CRUDE_OIL_CARRIER = "crude_oil_carrier"
    GAS_TANKER = "gas_tanker"
    PRODUCT_TANKER = "product_tanker"
    CHEMICAL_TANKER = "chemical_tanker"
    ORE_CARRIER = "ore_carrier"
    BULK_CARRIER = "bulk_carrier"
    LINE_CARRIER = "line_carrier"
    FEEDER = "feeder"
    GENERAL_CARGO = "general_cargo"
    COASTER = "coaster"
    RO_RO = "ro_ro"
    CRUISE_SHIP = "cruise_ship"
    FERRY = "ferry"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VariableSpec:
    """Declaration of one recorded or derived variable.

    ``kind`` is ``linear`` for ordinary reals, ``angular`` for directions in
    degrees (normalised into [0, 360) at construction) and ``text`` for
    opaque string columns (propulsive state, port names) that are carried
    through the pipeline unmodified.
    """

    name: str
    unit: str = ""
    kind: str = "linear"
    valid_min: float | None = None
    valid_max: float | None = None
    role: str = "other"

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("variable name must be non-empty")
        if self.kind not in VARIABLE_KINDS:
            raise SchemaError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if self.role not in VARIABLE_ROLES:
            raise SchemaError(f"unknown variable role {self.role!r} for {self.name!r}")
        if (
            self.valid_min is not None
            and self.valid_max is not None
            and not self.valid_min < self.valid_max
        ):
            raise SchemaError(
                f"variable {self.name!r}: valid_min {self.valid_min} must be "
                f"< valid_max {self.valid_max}"
            )


@dataclass(frozen=True)
class Sample:
    """One timestamped record. Absent keys in ``values`` mean missing;
    sentinel numbers are never used."""

    timestamp: int
    values: Mapping[str, float | str] = field(default_factory=dict)
    flags: frozenset[QualityFlag] = frozenset()
    trip_id: int | None = None

    def get(self, name: str) -> float | str | None:
        return self.values.get(name)


def iso_timestamp(ts: int) -> str:
    """Epoch seconds -> ISO-8601 UTC string with Z suffix."""
    return (
        datetime.datetime.fromtimestamp(int(ts), tz=datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    )


def parse_iso_timestamp(text: str) -> int:
    """ISO-8601 UTC string -> epoch seconds (1 s resolution)."""
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=datetime.timezone.utc)
    return int(dt.timestamp())


def generated_header() -> str:
    """The ``# generated <now>`` first line of written files (no newline)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return f"# generated {now.strftime('%Y-%m-%dT%H:%M:%SZ')}"


def _normalise_value(spec: VariableSpec, name: str, value: float | str):
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
    if name == "lat" and not -90.0 <= v <= 90.0:
        raise DatasetError(f"latitude {v} outside [-90, 90]")
    if name == "lon":
        v = ((v + 180.0) % 360.0) - 180.0
    return v


class VoyageDataset:
    """Ordered, timestamped table of ship samples with a declared schema.

    Immutable once constructed; use the ``adding_*`` / ``with_*`` helpers to
    derive updated copies. Construct through :func:`new_dataset`.
    """

    __slots__ = ("schema", "samples", "sampling_interval", "source_kind", "__dict__")

    def __init__(
        self,
        schema: tuple[VariableSpec, ...],
        samples: tuple[Sample, ...],
        sampling_interval: int | None,
        source_kind: str,
    ):
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sampling_interval", sampling_interval)
        object.__setattr__(self, "source_kind", source_kind)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("VoyageDataset is immutable")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoyageDataset):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.samples == other.samples
            and self.sampling_interval == other.sampling_interval
            and self.source_kind == other.source_kind
        )

    @cached_property
    def spec_map(self) -> dict[str, VariableSpec]:
        return {s.name: s for s in self.schema}

    @cached_property
    def timestamps(self) -> np.ndarray:
        return np.array([s.timestamp for s in self.samples], dtype=np.int64)

    def declares(self, name: str) -> bool:
        return name in self.spec_map

    def spec(self, name: str) -> VariableSpec:
        try:
            return self.spec_map[name]
        except KeyError:
            raise SchemaError(f"variable {name!r} not declared") from None

    def has_data(self, name: str) -> bool:
        """True when the variable is declared and carries at least one value."""
        return self.declares(name) and any(name in s.values for s in self.samples)

    def column(self, name: str) -> np.ndarray:
        """Numeric column as float64 with NaN for missing values."""
        spec = self.spec(name)
        if spec.kind == "text":
            raise TypeError(f"variable {name!r} is text; use text_column()")
        out = np.full(len(self.samples), np.nan)
        for i, s in enumerate(self.samples):
            v = s.values.get(name)
            if v is not None:
                out[i] = v
        return out

    def text_column(self, name: str) -> list[str | None]:
        spec = self.spec(name)
        if spec.kind != "text":
            raise TypeError(f"variable {name!r} is not text")
        return [s.values.get(name) for s in self.samples]

    @cached_property
    def trip_ids(self) -> np.ndarray:
        return np.array(
            [-1 if s.trip_id is None else s.trip_id for s in self.samples],
            dtype=np.int64,
        )

    def in_trip_mask(self) -> np.ndarray:
        return self.trip_ids >= 0

    def trip_indices(self, trip_id: int) -> np.ndarray:
        return np.nonzero(self.trip_ids == trip_id)[0]

    # -- row selection shared by the stages ---------------------------------

    def in_trip_or_all(self) -> np.ndarray:
        """In-trip rows, or every row when no trips are assigned."""
        in_trip = self.in_trip_mask()
        return in_trip if in_trip.any() else np.ones(len(self.samples), dtype=bool)

    def trip_groups(self) -> list[np.ndarray]:
        """Row indices per trip in trip-id order, or the whole series as one
        group when no trips are assigned."""
        ids = self.trip_ids
        if (ids >= 0).any():
            return [self.trip_indices(t) for t in np.unique(ids[ids >= 0])]
        return [np.arange(len(self.samples))]

    def flagged(self, *flags: QualityFlag) -> np.ndarray:
        """Rows carrying at least one of ``flags``."""
        wanted = frozenset(flags)
        return np.fromiter(
            (not wanted.isdisjoint(s.flags) for s in self.samples),
            dtype=bool,
            count=len(self.samples),
        )

    def positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latitude and longitude columns (NaN where absent or undeclared) and
        the mask of usable positions: both present and not flagged
        ``irrational_position``."""
        n = len(self.samples)
        lat = self.column("lat") if self.declares("lat") else np.full(n, np.nan)
        lon = self.column("lon") if self.declares("lon") else np.full(n, np.nan)
        ok = ~np.isnan(lat) & ~np.isnan(lon) & ~self.flagged(QualityFlag.IRRATIONAL_POSITION)
        return lat, lon, ok

    # -- functional updates -------------------------------------------------

    def _rebuild(self, samples: Iterable[Sample], schema=None, **kw) -> "VoyageDataset":
        return VoyageDataset(
            schema=tuple(schema if schema is not None else self.schema),
            samples=tuple(samples),
            sampling_interval=kw.get("sampling_interval", self.sampling_interval),
            source_kind=kw.get("source_kind", self.source_kind),
        )

    def adding_flags(
        self, flags_by_index: Mapping[int, Iterable[QualityFlag]]
    ) -> "VoyageDataset":
        """New dataset with extra flags on the given sample indices.

        Existing flags are always kept; this is the only supported way to
        change flags, which enforces monotone accumulation.
        """
        samples = list(self.samples)
        for idx, flags in flags_by_index.items():
            s = samples[idx]
            samples[idx] = replace(s, flags=s.flags | frozenset(flags))
        return self._rebuild(samples)

    def adding_variable(
        self, spec: VariableSpec, values: Sequence[float | str | None]
    ) -> "VoyageDataset":
        """Declare a new variable and attach per-sample values (None = missing)."""
        if self.declares(spec.name):
            raise SchemaError(f"variable {spec.name!r} already declared")
        if len(values) != len(self.samples):
            raise DatasetError(
                f"values for {spec.name!r}: expected {len(self.samples)} entries, "
                f"got {len(values)}"
            )
        samples = []
        for s, v in zip(self.samples, values):
            if v is None:
                samples.append(s)
                continue
            nv = _normalise_value(spec, spec.name, v)
            if nv is None:
                samples.append(s)
                continue
            vals = dict(s.values)
            vals[spec.name] = nv
            samples.append(replace(s, values=vals))
        return self._rebuild(samples, schema=self.schema + (spec,))

    def with_values(
        self, name: str, values_by_index: Mapping[int, float | str | None]
    ) -> "VoyageDataset":
        """New dataset overwriting (or clearing, with None) values of one
        declared variable at the given indices."""
        spec = self.spec(name)
        samples = list(self.samples)
        for idx, v in values_by_index.items():
            s = samples[idx]
            vals = dict(s.values)
            nv = None if v is None else _normalise_value(spec, name, v)
            if nv is None:
                vals.pop(name, None)
            else:
                vals[name] = nv
            samples[idx] = replace(s, values=vals)
        return self._rebuild(samples)

    def with_trip_ids(self, ids: Sequence[int | None]) -> "VoyageDataset":
        if len(ids) != len(self.samples):
            raise DatasetError("trip id vector length mismatch")
        samples = [replace(s, trip_id=t) for s, t in zip(self.samples, ids)]
        return self._rebuild(samples)

    def with_interval(self, seconds: int | None) -> "VoyageDataset":
        return self._rebuild(self.samples, sampling_interval=seconds)


def add_flags(
    dataset: VoyageDataset,
    flags_by_index: Mapping[int, Iterable[QualityFlag]],
    entry: StageEntry | None,
) -> VoyageDataset:
    """``dataset.adding_flags(flags_by_index)``, counting in ``entry`` each
    (sample, flag) pair that the sample did not carry yet, so a flag set
    again by a later stage or loop iteration is counted once."""
    if entry is not None:
        samples = dataset.samples
        for i, flags in flags_by_index.items():
            for flag in frozenset(flags) - samples[i].flags:
                entry.count_flag(flag)
    return dataset.adding_flags(flags_by_index)


def new_dataset(
    schema: Sequence[VariableSpec],
    samples: Iterable[Sample],
    sampling_interval: int | None = None,
    source_kind: str = "in_service",
) -> VoyageDataset:
    """Validated constructor: sorts by timestamp, rejects duplicate
    timestamps and values for undeclared variables, normalises angular
    values into [0, 360) and longitudes into [-180, 180)."""
    if source_kind not in SOURCE_KINDS:
        raise DatasetError(f"unknown source kind {source_kind!r}")
    names = [s.name for s in schema]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise SchemaError(f"duplicate variable name: {sorted(dupes)[0]!r}")
    spec_map = {s.name: s for s in schema}

    ordered = sorted(samples, key=lambda s: s.timestamp)
    cleaned: list[Sample] = []
    prev_ts: int | None = None
    for s in ordered:
        ts = int(s.timestamp)
        if prev_ts is not None and ts == prev_ts:
            raise DatasetError(f"duplicate timestamp {iso_timestamp(ts)}")
        prev_ts = ts
        vals: dict[str, float | str] = {}
        for name, value in s.values.items():
            if name not in spec_map:
                raise DatasetError(f"value for undeclared variable {name!r}")
            nv = _normalise_value(spec_map[name], name, value)
            if nv is not None:
                vals[name] = nv
        cleaned.append(Sample(ts, vals, frozenset(s.flags), s.trip_id))
    return VoyageDataset(tuple(schema), tuple(cleaned), sampling_interval, source_kind)


@dataclass(frozen=True)
class CalmWaterCurve:
    """Labelled calm-water speed-power reference curve (speed m/s, power W)."""

    label: str
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise SchemaError(f"curve {self.label!r} needs at least 2 points")
        speeds = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise SchemaError(f"curve {self.label!r} speeds must be strictly increasing")

    def power_at(self, speed: float) -> float | None:
        """Linear interpolation; None outside the curve's speed span."""
        speeds = [p[0] for p in self.points]
        powers = [p[1] for p in self.points]
        if speed < speeds[0] or speed > speeds[-1]:
            return None
        return float(np.interp(speed, speeds, powers))


@dataclass(frozen=True)
class ShipParticulars:
    """Static ship metadata consumed by features, validation and corrections."""

    ship_type: ShipType
    beam: float
    design_draft: float
    lwl: float | None = None
    lpp: float | None = None
    block_coefficient: float | None = None
    anemometer_height: float | None = None
    wind_reference_height: float | None = None
    calm_water_curves: tuple[CalmWaterCurve, ...] = ()
    envelope: tuple[tuple[float, float], ...] | None = None
    rpm_threshold: float = RPM_THRESHOLD
    sog_threshold: float = SOG_THRESHOLD

    def __post_init__(self) -> None:
        if self.lwl is None and self.lpp is None:
            raise SchemaError("at least one of lwl, lpp is required")
        for attr in ("beam", "design_draft", "lwl", "lpp",
                     "anemometer_height", "wind_reference_height"):
            v = getattr(self, attr)
            if v is not None and v <= 0:
                raise SchemaError(f"{attr} must be strictly positive, got {v}")
        cb = self.block_coefficient
        if cb is not None and not 0.0 < cb < 1.0:
            raise SchemaError(f"block coefficient must be in (0, 1), got {cb}")
        if self.envelope is not None and len(self.envelope) < 3:
            raise SchemaError("envelope polygon needs at least 3 vertices")

    @property
    def length(self) -> float:
        """Waterline length when known, else length between perpendiculars."""
        return self.lwl if self.lwl is not None else self.lpp  # type: ignore[return-value]

    def curve(self, label: str | None = None) -> CalmWaterCurve | None:
        """Named curve; default prefers a 'sea_trial' curve, else the first."""
        if not self.calm_water_curves:
            return None
        if label is not None:
            for c in self.calm_water_curves:
                if c.label == label:
                    return c
            return None
        for c in self.calm_water_curves:
            if c.label == "sea_trial":
                return c
        return self.calm_water_curves[0]


# -- processing report -------------------------------------------------------


@dataclass
class CheckDetail:
    """One row of check evidence: what was expected vs observed, and verdict."""

    timestamp: int | None
    variable: str | None
    expected: object
    observed: object
    verdict: str

    def to_dict(self) -> dict:
        return {
            "timestamp": None if self.timestamp is None else iso_timestamp(self.timestamp),
            "variable": self.variable,
            "expected": self.expected,
            "observed": self.observed,
            "verdict": self.verdict,
        }


@dataclass
class StageEntry:
    stage: str
    flag_counts: dict[str, int] = field(default_factory=dict)
    corrections: list[str] = field(default_factory=list)
    checks: list[CheckDetail] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)

    def count_flag(self, flag: QualityFlag, n: int = 1) -> None:
        if n:
            self.flag_counts[flag.value] = self.flag_counts.get(flag.value, 0) + n

    def check(
        self,
        verdict: str,
        timestamp: int | None = None,
        variable: str | None = None,
        expected: object = None,
        observed: object = None,
    ) -> None:
        self.checks.append(CheckDetail(timestamp, variable, expected, observed, verdict))

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "flag_counts": dict(sorted(self.flag_counts.items())),
            "corrections": list(self.corrections),
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
            "summary": {k: self.summary[k] for k in sorted(self.summary)},
        }


class ProcessingReport:
    """Ordered record of what every stage flagged, corrected and checked.

    The pipeline invariant is that every flagged sample in the final dataset
    has at least one corresponding entry here; :meth:`covers` verifies it.
    """

    def __init__(self) -> None:
        self.stage_entries: list[StageEntry] = []

    def stage(self, name: str) -> StageEntry:
        entry = StageEntry(stage=name)
        self.stage_entries.append(entry)
        return entry

    def covers(self, dataset: VoyageDataset) -> bool:
        """True when every flagged sample has at least one report detail."""
        detailed = {
            c.timestamp
            for e in self.stage_entries
            for c in e.checks
            if c.timestamp is not None
        }
        flagged_counts = {
            e_flag for entry in self.stage_entries for e_flag in entry.flag_counts
        }
        for s in dataset.samples:
            if s.flags and s.timestamp not in detailed:
                # allow coverage through per-stage counts on overlay stages
                if not all(f.value in flagged_counts for f in s.flags):
                    return False
        return True

    def to_dict(self) -> dict:
        return {"stages": [e.to_dict() for e in self.stage_entries]}

    def to_text(self, timestamp_header: bool = True) -> str:
        lines: list[str] = [generated_header()] if timestamp_header else []
        lines.append("PROCESSING REPORT")
        for e in self.stage_entries:
            lines.append("")
            lines.append(f"== {e.stage} ==")
            if e.flag_counts:
                joined = ", ".join(f"{k}={v}" for k, v in sorted(e.flag_counts.items()))
                lines.append(f"flags: {joined}")
            for k in sorted(e.summary):
                lines.append(f"{k}: {e.summary[k]}")
            for note in e.notes:
                lines.append(f"note: {note}")
            for c in e.corrections:
                lines.append(f"correction: {c}")
            for c in e.checks:
                ts = "-" if c.timestamp is None else iso_timestamp(c.timestamp)
                var = c.variable or "-"
                lines.append(
                    f"  {ts} {var} expected={c.expected} observed={c.observed} "
                    f"verdict={c.verdict}"
                )
        return "\n".join(lines) + "\n"

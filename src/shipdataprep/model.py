"""Core data model shared by every pipeline stage.

A ``VoyageDataset`` is stored by column: timestamps, one array per variable
(NaN or None = missing), a flag bitmask and trip ids (see the class).
:func:`new_dataset` builds one from columns, as the CSV readers split them;
stages read whole columns and hand arrays and masks back.

Datasets are immutable: each stage derives a new ``VoyageDataset`` that
shares every array it does not change, so intermediate results stay valid
and read-only sharing across parallel workers is safe. Quality flags only
accumulate; no stage may clear a flag set by an earlier one, and the helper
constructors here make that the only easy thing to do.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

KNOT = 1852.0 / 3600.0
"""One international knot in m/s."""

SOURCE_KINDS = ("in_service", "ais", "noon_report")
VARIABLE_KINDS = ("linear", "angular", "text")


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

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("variable name must be non-empty")
        if self.kind not in VARIABLE_KINDS:
            raise SchemaError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        if (
            self.valid_min is not None
            and self.valid_max is not None
            and not self.valid_min < self.valid_max
        ):
            raise SchemaError(
                f"variable {self.name!r}: valid_min {self.valid_min} must be "
                f"< valid_max {self.valid_max}"
            )

    def outside(self, values: np.ndarray) -> np.ndarray:
        """Where ``values`` lie outside [valid_min, valid_max]; NaN does not."""
        lo = -np.inf if self.valid_min is None else self.valid_min
        hi = np.inf if self.valid_max is None else self.valid_max
        return (values < lo) | (values > hi)


@dataclass(frozen=True)
class Sample:
    """One timestamped row for the positional :class:`VoyageDataset`
    constructor, which transposes a sequence of them into columns. Absent
    keys in ``values`` mean missing; sentinel numbers are never used."""

    timestamp: int
    values: Mapping[str, float | str] = field(default_factory=dict)
    flags: frozenset[QualityFlag] = frozenset()
    trip_id: int | None = None


# epoch seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59: the stamps
# whose four-digit-year text ``parse_iso_timestamp`` reads back
WRITABLE_YEARS = (-62135596800, 253402300799)


def timestamp_cells(timestamps: np.ndarray) -> list[str]:
    """``YYYY-MM-DDTHH:MM:SSZ`` of each epoch second of an int64 array, the
    year padded to four digits, formatted by numpy in one call. A stamp
    outside the years 1-9999 raises ValueError, since its text would not
    read back."""
    lo, hi = WRITABLE_YEARS
    outside = (timestamps < lo) | (timestamps > hi)
    if outside.any():
        raise ValueError(f"timestamp {timestamps[outside][0]} s lies outside the years 1-9999")
    seconds = timestamps.astype("datetime64[s]")
    return np.datetime_as_string(seconds, unit="s", timezone="UTC").tolist()


def iso_timestamp(ts: int) -> str:
    """Epoch seconds -> ISO-8601 UTC string with Z suffix, as ``timestamp_cells``."""
    return timestamp_cells(np.array([ts], dtype=np.int64))[0]


def parse_iso_timestamp(text: str) -> int:
    """ISO-8601 UTC string -> epoch seconds (1 s resolution)."""
    if "\0" in text:  # datetime reads a stamp up to a NUL, and takes it
        raise ValueError(f"NUL in timestamp {text!r}")
    cleaned = text.strip()
    if cleaned.endswith("Z"):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=datetime.timezone.utc)
    return int(dt.timestamp())


# per character of the canonical stamp but its Z, the lowest code and how far above it
_STAMP_LOW = np.array([ord(c) for c in "0000-00-00T00:00:00"], dtype=np.uint32)
_STAMP_SPAN = np.where(_STAMP_LOW == ord("0"), 9, 0).astype(np.uint32)


def parse_iso_timestamps(cells: Sequence[str] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``parse_iso_timestamp`` of each cell: int64 epoch seconds (0 where a
    cell does not parse) and the mask of the cells that parse.

    Canonical cells, ``YYYY-MM-DDTHH:MM:SS`` with or without a final ``Z``
    after the strip and with a year of 1 or later, are cast by numpy's
    ``datetime64[s]`` as one batch; numpy rejects the same impossible dates
    and times as ``datetime`` (Feb 30, ``24:00:00``, ``:60``), and then the
    whole batch goes the slow way. Every other cell goes through
    ``parse_iso_timestamp`` one by one, as does a padded cell of a string
    array at most 21 wide, which is not stripped."""
    text = cells if isinstance(cells, np.ndarray) else [c.strip() for c in cells]
    stamps, ok = np.zeros(len(text), dtype=np.int64), np.zeros(len(text), dtype=bool)
    batch = np.array(text, dtype="U21")  # U21 cuts a longer cell, but leaves it 21 long
    codes = batch.view(np.uint32).reshape(-1, 21)
    canonical = ((codes[:, :19] - _STAMP_LOW) <= _STAMP_SPAN).all(axis=1)  # below wraps high
    canonical &= ((codes[:, 19] == ord("Z")) | (codes[:, 19] == 0)) & (codes[:, 20] == 0)
    canonical &= (codes[:, :4] != ord("0")).any(axis=1)  # year 0 is no date
    if not isinstance(cells, np.ndarray):  # a str may end in a NUL, which the array drops
        canonical &= np.fromiter(map(len, text), np.intp, len(text)) == 19 + (codes[:, 19] != 0)
    at = np.flatnonzero(canonical)
    try:  # numpy parses a list of str faster than a string array, and without the Z
        seconds = np.array(batch[at].astype("U19").tolist(), dtype="datetime64[s]")
    except ValueError:
        pass
    else:
        stamps[at] = seconds.astype(np.int64)
        ok[at] = True
    for i in np.flatnonzero(~ok).tolist():
        try:
            stamps[i] = parse_iso_timestamp(text[i])
        except ValueError:
            continue
        ok[i] = True
    return stamps, ok


def generated_header() -> str:
    """The ``# generated <now>`` first line of written files (no newline)."""
    now = datetime.datetime.now(datetime.timezone.utc)
    return f"# generated {iso_timestamp(int(now.timestamp()))}"


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _normalise_column(spec: VariableSpec, values: Sequence) -> np.ndarray:
    """One variable's values as a stored read-only column: float64 for the
    numeric kinds (None and NaN = missing; angles wrap into [0, 360), and a
    longitude with |lon| <= 540 into [-180, 180)), an object array of str for
    text (None = missing). The first value that breaks a rule raises DatasetError."""
    name = spec.name
    if spec.kind == "text":
        col = np.empty(len(values), dtype=object)
        col[:] = list(values)
        for v in col:
            if v is not None and not isinstance(v, str):
                raise DatasetError(f"text variable {name!r} got non-string {v!r}")
        return _frozen(col)
    if isinstance(values, np.ndarray) and values.dtype != object:
        col, text_at = values.astype(np.float64), len(values)
    else:
        values = list(values)
        types, text_at = set(map(type, values)), len(values)
        if any(issubclass(t, str) for t in types):
            text_at = next(i for i, v in enumerate(values) if isinstance(v, str))
        col = np.array(values[:text_at], dtype=np.float64)  # None -> NaN
    n = len(values)
    inf_at = np.append(np.flatnonzero(np.isinf(col)), n)[0]
    if spec.kind == "angular":
        np.remainder(col, 360.0, out=col, where=np.isfinite(col))
        col[col == 360.0] = 0.0  # % rounds a tiny negative angle up to 360
    lat_at = np.append(np.flatnonzero((col < -90.0) | (col > 90.0)), n)[0] if name == "lat" else n
    first = min(text_at, inf_at, lat_at)
    if first < n:
        if first == text_at:
            raise DatasetError(f"numeric variable {name!r} got string {values[first]!r}")
        if first == inf_at:
            raise DatasetError(f"non-finite value for {name!r}")
        raise DatasetError(f"latitude {float(col[first])} outside [-90, 90]")
    if name == "lon":  # inexact (12.3 -> 12.300000000000011): only where needed, within a turn
        wrap = ((col < -180.0) | (col >= 180.0)) & (np.abs(col) <= 540.0)
        col[wrap] = ((col[wrap] + 180.0) % 360.0) - 180.0
        col[col == 180.0] = -180.0
    return _frozen(col)


_FLAG_BITS = {flag: 1 << k for k, flag in enumerate(QualityFlag)}


def _take(col: np.ndarray, rows: np.ndarray, missing) -> np.ndarray:
    """``col[rows]`` with ``missing`` where a row is -1."""
    return _frozen(np.concatenate([col, np.array([missing], dtype=col.dtype)])[rows])


class VoyageDataset:
    """Ordered, timestamped table of ship samples with a declared schema,
    stored by column after Apache Arrow's columnar layout:

    - ``timestamps``: int64 epoch seconds, ascending and unique;
    - one column per variable (:meth:`column`, :meth:`text_column`): float64
      with NaN for a missing value for the linear and angular kinds, an
      object array of str with None for a missing value for the text kind;
    - ``flag_bits``: a uint16 bitmask per sample, one bit per
      :class:`QualityFlag` member (:meth:`flagged` reads it);
    - ``trip_ids``: int64, -1 for a sample outside every trip.

    Every array is read-only. The ``adding_*`` / ``with_*`` helpers and
    :meth:`take` derive a new dataset that shares each array it does not
    change. Build one from columns through :func:`new_dataset`, which
    validates and sorts them; the positional constructor transposes
    :class:`Sample` rows into a :func:`new_dataset` call.
    """

    __slots__ = ("schema", "timestamps", "flag_bits", "trip_ids", "sampling_interval",
                 "source_kind", "_columns", "__dict__")

    def __init__(self, schema: tuple[VariableSpec, ...], samples: Iterable[Sample],
                 sampling_interval: int | None, source_kind: str):
        samples = tuple(samples)
        names = dict.fromkeys(name for s in samples for name in s.values)
        built = new_dataset(
            schema,
            [s.timestamp for s in samples],
            {name: [s.values.get(name) for s in samples] for name in names},
            sampling_interval,
            source_kind,
            flags=[s.flags for s in samples],
            trip_ids=[s.trip_id for s in samples],
        )
        self._set(**{name: getattr(built, name) for name in VoyageDataset.__slots__[:-1]})

    def _set(self, **state) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def _derive(self, **changes) -> "VoyageDataset":
        out = object.__new__(VoyageDataset)
        out._set(**{
            name: changes[name] if name in changes else getattr(self, name)
            for name in VoyageDataset.__slots__[:-1]
        })
        # same trip ids, same trips: pass the grouping on if it was made
        if "trip_ids" not in changes and "_trip_rows" in self.__dict__:
            out.__dict__["_trip_rows"] = self._trip_rows
        return out

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("VoyageDataset is immutable")

    def __len__(self) -> int:
        return len(self.timestamps)

    @cached_property
    def spec_map(self) -> dict[str, VariableSpec]:
        return {s.name: s for s in self.schema}

    def declares(self, name: str) -> bool:
        return name in self.spec_map

    def spec(self, name: str) -> VariableSpec:
        try:
            return self.spec_map[name]
        except KeyError:
            raise SchemaError(f"variable {name!r} not declared") from None

    def has_data(self, name: str) -> bool:
        """True when the variable is declared and carries at least one value."""
        col = self._columns.get(name)
        if col is None or col.dtype != object:
            return col is not None and not np.isnan(col).all()
        return any(v is not None for v in col)

    def column(self, name: str) -> np.ndarray:
        """Numeric column: the stored read-only float64 array, NaN = missing."""
        if self.spec(name).kind == "text":
            raise TypeError(f"variable {name!r} is text; use text_column()")
        return self._columns[name]

    def valid(self, name: str) -> np.ndarray:
        """Numeric column as every rule but the range rule reads it: NaN
        wherever a value lies outside the variable's valid range (flagged
        ``invalid_range``). The stored column keeps every value as logged."""
        col = self.column(name)
        return _frozen(np.where(self.spec(name).outside(col), np.nan, col))

    def coalesce(self, *names: str) -> np.ndarray:
        """Per row, the first value present among the named numeric columns;
        NaN where none has one. Undeclared and text columns count as missing."""
        out = np.full(len(self), np.nan)
        for name in names:
            if self.declares(name) and self.spec(name).kind != "text":
                out = np.where(np.isnan(out), self._columns[name], out)
        return out

    def text_column(self, name: str) -> np.ndarray:
        """Text column: the stored read-only object array, None = missing."""
        if self.spec(name).kind != "text":
            raise TypeError(f"variable {name!r} is not text")
        return self._columns[name]

    # -- row selection shared by the stages ---------------------------------

    def in_trip_or_all(self) -> np.ndarray:
        """In-trip rows, or every row when no trips are assigned."""
        in_trip = self.trip_ids >= 0
        return in_trip if in_trip.any() else np.ones(len(self), dtype=bool)

    @cached_property
    def _trip_rows(self) -> dict[int, np.ndarray]:
        ids = self.trip_ids
        rows = np.flatnonzero(ids >= 0)
        rows = rows[np.argsort(ids[rows], kind="stable")]
        keys, first = np.unique(ids[rows], return_index=True)
        return dict(zip(keys.tolist(), map(_frozen, np.split(rows, first[1:]))))

    def trips(self) -> dict[int, np.ndarray]:
        """Row indices of each trip (read-only, in row order), keyed by trip
        id in ascending order; empty when no trips are assigned. The grouping
        is made once per ``trip_ids`` array."""
        return dict(self._trip_rows)

    def trip_groups(self) -> list[np.ndarray]:
        """Row indices per trip in trip-id order, or the whole series as one
        group when no trips are assigned."""
        return list(self.trips().values()) or [np.arange(len(self))]

    def flagged(self, *flags: QualityFlag) -> np.ndarray:
        """Rows carrying at least one of ``flags``."""
        wanted = sum(_FLAG_BITS[f] for f in set(flags))
        return (self.flag_bits & wanted) != 0

    def positions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latitude and longitude columns as :meth:`valid` reads them (NaN
        where absent, out of range or undeclared) and the mask of usable
        positions: both present and not flagged ``irrational_position``."""
        lat, lon = (self.valid(n) if self.declares(n) else np.full(len(self), np.nan)
                    for n in ("lat", "lon"))
        ok = ~np.isnan(lat) & ~np.isnan(lon) & ~self.flagged(QualityFlag.IRRATIONAL_POSITION)
        return lat, lon, ok

    # -- functional updates -------------------------------------------------

    def adding_flags(self, flag: QualityFlag, rows) -> "VoyageDataset":
        """New dataset with ``flag`` set on ``rows`` (a boolean mask or an
        index array).

        Existing flags are always kept; this is the only supported way to
        change flags, which enforces monotone accumulation.
        """
        bits = self.flag_bits.copy()
        bits[rows] |= _FLAG_BITS[flag]
        return self._derive(flag_bits=_frozen(bits))

    def adding_variable(
        self, spec: VariableSpec, values: Sequence[float | str | None]
    ) -> "VoyageDataset":
        """Declare a new variable and attach per-sample values (None or NaN =
        missing)."""
        if self.declares(spec.name):
            raise SchemaError(f"variable {spec.name!r} already declared")
        if len(values) != len(self):
            raise DatasetError(
                f"values for {spec.name!r}: expected {len(self)} entries, "
                f"got {len(values)}"
            )
        columns = dict(self._columns)
        columns[spec.name] = _normalise_column(spec, values)
        return self._derive(schema=self.schema + (spec,), _columns=columns)

    def with_values(
        self, name: str, rows, values: Sequence[float | str | None]
    ) -> "VoyageDataset":
        """New dataset writing ``values`` into one declared variable at
        ``rows`` (a boolean mask or an index array, one value per selected
        row); None, or NaN in a numeric column, clears a value."""
        spec = self.spec(name)
        col = self._columns[name].copy()
        col[rows] = _normalise_column(spec, values)
        columns = dict(self._columns)
        columns[name] = _frozen(col)
        return self._derive(_columns=columns)

    def with_trip_ids(self, ids: Sequence[int | None]) -> "VoyageDataset":
        """New dataset with these trip ids (None or -1 = no trip)."""
        if len(ids) != len(self):
            raise DatasetError("trip id vector length mismatch")
        if not isinstance(ids, np.ndarray):
            ids = [-1 if t is None else t for t in ids]
        return self._derive(trip_ids=_frozen(np.array(ids, dtype=np.int64)))

    def with_interval(self, seconds: int | None) -> "VoyageDataset":
        return self._derive(sampling_interval=seconds)

    def take(self, rows: np.ndarray, timestamps: np.ndarray) -> "VoyageDataset":
        """New dataset whose row k copies row ``rows[k]`` of this one (values,
        flags and trip id) at ``timestamps[k]``, or is an empty row (every
        value missing, no flag, no trip) where ``rows[k]`` is -1."""
        rows = np.asarray(rows, dtype=np.intp)
        return self._derive(
            timestamps=_frozen(np.array(timestamps, dtype=np.int64)),
            flag_bits=_take(self.flag_bits, rows, 0),
            trip_ids=_take(self.trip_ids, rows, -1),
            _columns={
                name: _take(col, rows, None if col.dtype == object else np.nan)
                for name, col in self._columns.items()
            },
        )


def add_flags(
    dataset: VoyageDataset, flag: QualityFlag, rows, entry: StageEntry
) -> VoyageDataset:
    """``dataset.adding_flags(flag, rows)``, counting in ``entry`` the rows
    that did not carry ``flag`` yet, so a flag set again by a later stage or
    loop iteration is counted once."""
    out = dataset.adding_flags(flag, rows)
    entry.count_flag(flag, int(out.flagged(flag).sum() - dataset.flagged(flag).sum()))
    return out


def new_dataset(
    schema: Sequence[VariableSpec],
    timestamps: Sequence[int],
    columns: Mapping[str, Sequence[float | str | None]],
    sampling_interval: int | None = None,
    source_kind: str = "in_service",
    flags: Sequence[Iterable[QualityFlag]] | None = None,
    trip_ids: Sequence[int | None] | None = None,
) -> VoyageDataset:
    """The validated constructor. Row ``i`` is ``timestamps[i]``, the ``i``-th
    value of each column in ``columns`` (by variable name; None or NaN =
    missing; an absent column is all missing), the flags ``flags[i]`` and
    the trip ``trip_ids[i]`` (None = no trip); by default no row has either.

    Sorts the rows stably by timestamp and normalises each column (angles
    into [0, 360), longitudes within a turn into [-180, 180)). Raises on
    duplicate variable names, columns of another length, duplicate
    timestamps, values for undeclared variables, and values the normaliser
    rejects."""
    if source_kind not in SOURCE_KINDS:
        raise DatasetError(f"unknown source kind {source_kind!r}")
    names = [s.name for s in schema]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise SchemaError(f"duplicate variable name: {sorted(dupes)[0]!r}")
    stamps = np.array(timestamps, dtype=np.int64)
    n = len(stamps)
    bits = np.zeros(n, dtype=np.uint16) if flags is None else np.array(
        [sum(_FLAG_BITS[f] for f in set(row)) for row in flags], dtype=np.uint16
    )
    trips = np.full(n, -1, dtype=np.int64) if trip_ids is None else np.array(
        [-1 if t is None else t for t in trip_ids], dtype=np.int64
    )
    for name, values in [*columns.items(), ("flags", bits), ("trip_ids", trips)]:
        if len(values) != n:
            raise DatasetError(f"values for {name!r}: expected {n} entries, got {len(values)}")
    order = np.argsort(stamps, kind="stable")
    rows = None if all(isinstance(c, np.ndarray) for c in columns.values()) else order.tolist()
    stamps = stamps[order]
    repeated = np.flatnonzero(stamps[1:] == stamps[:-1])
    if len(repeated):
        raise DatasetError(f"duplicate timestamp {iso_timestamp(stamps[repeated[0]])}")
    spec_map = {s.name: s for s in schema}
    for name in columns:
        if name not in spec_map:
            raise DatasetError(f"value for undeclared variable {name!r}")
    stored = {}
    for name, spec in spec_map.items():
        if name not in columns:  # all missing
            stored[name] = _frozen(np.full(n, None if spec.kind == "text" else np.nan))
            continue
        col = columns[name]
        stored[name] = _normalise_column(
            spec, col[order] if isinstance(col, np.ndarray) else [col[i] for i in rows]
        )
    out = object.__new__(VoyageDataset)
    out._set(
        schema=tuple(schema),
        timestamps=_frozen(stamps),
        flag_bits=_frozen(bits[order]),
        trip_ids=_frozen(trips[order]),
        sampling_interval=sampling_interval,
        source_kind=source_kind,
        _columns=stored,
    )
    return out


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

    def outside_span(self, speeds: float | np.ndarray):
        """True where a speed lies below the curve's first speed or above its
        last (a float or an array); a NaN speed is not outside."""
        return (speeds < self.points[0][0]) | (speeds > self.points[-1][0])

    def power_at(self, speed: float) -> float | None:
        """Linear interpolation; None outside the curve's speed span."""
        if self.outside_span(speed):
            return None
        speeds = [p[0] for p in self.points]
        powers = [p[1] for p in self.points]
        return float(np.interp(speed, speeds, powers))

    def powers_at(self, speeds: np.ndarray) -> np.ndarray:
        """``power_at`` of each speed in one ``np.interp``; NaN outside the
        curve's speed span."""
        xp, fp = np.array(self.points).T
        out = np.interp(speeds, xp, fp)
        out[self.outside_span(speeds)] = np.nan
        return out


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

    def __post_init__(self) -> None:
        if self.lwl is None and self.lpp is None:
            raise SchemaError("at least one of lwl, lpp is required")
        for attr in ("beam", "design_draft", "lwl", "lpp",
                     "anemometer_height", "wind_reference_height"):
            v = getattr(self, attr)
            if v is not None and not 0 < v < np.inf:
                raise SchemaError(f"{attr} must be finite and strictly positive, got {v}")
        cb = self.block_coefficient
        if cb is not None and not 0.0 < cb < 1.0:
            raise SchemaError(f"block coefficient must be in (0, 1), got {cb}")
        if self.envelope is not None and len(self.envelope) < 3:
            raise SchemaError("envelope polygon needs at least 3 vertices")

    @property
    def length(self) -> float:
        """Waterline length when known, else length between perpendiculars."""
        return self.lwl if self.lwl is not None else self.lpp  # type: ignore[return-value]

    def curve(self) -> CalmWaterCurve | None:
        """The 'sea_trial' curve, else the first curve, else None."""
        if not self.calm_water_curves:
            return None
        for c in self.calm_water_curves:
            if c.label == "sea_trial":
                return c
        return self.calm_water_curves[0]


# -- processing report -------------------------------------------------------


def _stamp_texts(checks: Iterable[CheckDetail]) -> dict[int, str]:
    """The text of each distinct timestamp of ``checks`` (a run's last stamp
    too), formatted in one ``timestamp_cells`` call (``np.unique`` imports numpy.ma)."""
    stamps = np.array(sorted(
        {t for c in checks for t in (c.timestamp, c.last) if t is not None}
    ), dtype=np.int64)
    return dict(zip(stamps.tolist(), timestamp_cells(stamps)))


def _check_dicts(checks: list[CheckDetail]) -> list[dict]:
    """The JSON form of each check; the distinct stamps of ``checks`` are
    formatted together, and a missing stamp is ``None``. A run also has its
    ``last_timestamp`` and its ``samples``."""
    stamps = _stamp_texts(checks)
    out = [
        {
            "timestamp": stamps.get(c.timestamp),
            "variable": c.variable,
            "expected": c.expected,
            "observed": c.observed,
            "verdict": c.verdict,
        }
        for c in checks
    ]
    for row, c in zip(out, checks):
        if c.samples is not None:
            row.update(last_timestamp=stamps[c.last], samples=c.samples)
    return out


@dataclass
class CheckDetail:
    """One row of check evidence: what was expected vs observed, and verdict.
    A run of ``samples`` samples is one row, from ``timestamp`` to ``last``."""

    timestamp: int | None
    variable: str | None
    expected: object
    observed: object
    verdict: str
    last: int | None = None
    samples: int | None = None


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
        """One check: :meth:`check_rows` of a single row."""
        self.check_rows([verdict], [timestamp], variable, [expected], [observed])

    def check_rows(
        self,
        verdict: object,
        timestamps: Sequence[int] | np.ndarray,
        variable: str | None = None,
        expected: object = None,
        observed: object = None,
        last: Sequence[int] | np.ndarray | None = None,
        samples: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        """One check per stamp of ``timestamps``, in their order.

        ``verdict``, ``expected`` and ``observed`` are each one value for
        every row, or a list or array with one value per row. An array is
        stored as Python numbers (``tolist``), so the report keeps its ints
        as ints and its floats as floats. No stamp, no check.

        ``last`` and ``samples``, given together, make each row a run of
        samples: the stamps are its first ones, ``last`` its last ones and
        ``samples`` its sample counts."""
        stamps = np.asarray(timestamps).tolist()
        n = len(stamps)
        columns = [
            v.tolist() if isinstance(v, np.ndarray) else v if isinstance(v, list) else [v] * n
            for v in (expected, observed, verdict)
        ]
        spans = [[None] * n] * 2 if samples is None else [
            np.asarray(last).tolist(), np.asarray(samples).tolist()
        ]
        rows = zip(stamps, *columns, *spans, strict=True)
        self.checks += [
            CheckDetail(t, variable, exp, obs, v, end, k) for t, exp, obs, v, end, k in rows
        ]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "flag_counts": dict(sorted(self.flag_counts.items())),
            "corrections": list(self.corrections),
            "checks": _check_dicts(self.checks),
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
        """True when every flagged sample has at least one report detail, or
        every flag it carries was counted by some stage. A run's detail
        covers every sample from its first stamp to its last."""
        spans = np.array([
            (c.timestamp, c.timestamp if c.last is None else c.last)
            for e in self.stage_entries for c in e.checks if c.timestamp is not None
        ], dtype=np.int64).reshape(-1, 2)
        ts = dataset.timestamps  # ascending: the samples of a span form one slice
        depth = np.zeros(len(ts) + 1, dtype=np.int64)
        np.add.at(depth, np.searchsorted(ts, spans[:, 0]), 1)
        np.add.at(depth, np.searchsorted(ts, spans[:, 1], side="right"), -1)
        undetailed = np.cumsum(depth[:-1]) == 0
        counted = {flag for entry in self.stage_entries for flag in entry.flag_counts}
        uncounted = [f for f in QualityFlag if f.value not in counted]
        return not (dataset.flagged(*uncounted) & undetailed).any()

    def to_dict(self) -> dict:
        return {"stages": [e.to_dict() for e in self.stage_entries]}

    def to_text(self, timestamp_header: bool = True) -> str:
        stamps = _stamp_texts(c for e in self.stage_entries for c in e.checks)
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
                ts = stamps.get(c.timestamp, "-")
                var = c.variable or "-"
                run = ""
                if c.samples is not None:  # a run: first..last stamp and its sample count
                    ts, run = f"{ts}..{stamps[c.last]}", f" samples={c.samples}"
                lines.append(
                    f"  {ts} {var} expected={c.expected} observed={c.observed} "
                    f"verdict={c.verdict}{run}"
                )
        return "\n".join(lines) + "\n"


def stage_entry(report: ProcessingReport | None, name: str) -> StageEntry:
    """``report.stage(name)``, or a detached entry that nothing reads when
    there is no report: a stage called without one runs the same code."""
    return report.stage(name) if report is not None else StageEntry(name)

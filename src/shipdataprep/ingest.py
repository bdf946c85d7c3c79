"""File ingestion: ship CSV, hindcast grid files, ship particulars and
pipeline configuration, plus the matching writers.

All loaders convert to the internal SI unit system at the boundary
(m, m/s, W, N*m, degrees) so later stages never see mixed units. Unit
conversion is a pure per-column scale factor and is exactly inverted by
the writers.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import (
    KNOT,
    CalmWaterCurve,
    ProcessingReport,
    QualityFlag,
    SchemaError,
    ShipParticulars,
    ShipType,
    VariableSpec,
    VoyageDataset,
    add_flags,
    generated_header,
    iso_timestamp,
    new_dataset,
    parse_iso_timestamp,
    stage_entry,
)
from .tables import block_coefficient_midpoint


class IngestError(ValueError):
    """Fatal problem with an input file."""


class ConfigError(ValueError):
    """Fatal problem with the pipeline configuration."""


# Multiplicative factors into SI. Angles stay in degrees by design.
UNIT_TO_SI: dict[str, float] = {
    "": 1.0,
    "m/s": 1.0,
    "mps": 1.0,
    "knots": KNOT,
    "kn": KNOT,
    "kt": KNOT,
    "W": 1.0,
    "kW": 1000.0,
    "MW": 1.0e6,
    "Nm": 1.0,
    "kNm": 1000.0,
    "m": 1.0,
    "cm": 0.01,
    "deg": 1.0,
    "degrees": 1.0,
    "rpm": 1.0,
    "s": 1.0,
}

# Variables from the bare-minimum list; a mostly-unparseable column among
# these is a fatal ingest error rather than a silent pile of missing values.
BARE_MINIMUM_VARIABLES = frozenset(
    {
        "shaft_rpm",
        "rudder_angle",
        "prop_pitch",
        "draft_fore",
        "draft_aft",
        "rel_wind_speed",
        "rel_wind_dir",
        "sig_wave_height",
        "rel_wave_dir",
        "mean_wave_period",
        "shaft_power",
        "stw",
    }
)
# an AIS feed has nothing to process without its positions and speeds
AIS_BARE_MINIMUM_VARIABLES = frozenset({"lat", "lon", "sog"})


def default_schema() -> list[VariableSpec]:
    """Canonical variable declarations with physically-motivated valid ranges."""
    return [
        VariableSpec("lat", "deg", "linear", -90.0, 90.0, "navigation"),
        VariableSpec("lon", "deg", "linear", -180.0, 180.0, "navigation"),
        VariableSpec("sog", "m/s", "linear", 0.0, 26.0, "navigation"),
        VariableSpec("stw", "m/s", "linear", 0.0, 26.0, "operating_point"),
        VariableSpec("shaft_rpm", "rpm", "linear", 0.0, 300.0, "operational_control"),
        VariableSpec("shaft_torque", "Nm", "linear", 0.0, 5.0e7, "operational_control"),
        VariableSpec("shaft_power", "W", "linear", 0.0, 1.0e8, "operating_point"),
        VariableSpec("rudder_angle", "deg", "linear", -90.0, 90.0, "operational_control"),
        VariableSpec("prop_pitch", "deg", "linear", -90.0, 90.0, "operational_control"),
        VariableSpec("draft_fore", "m", "linear", 0.0, 30.0, "loading_condition"),
        VariableSpec("draft_aft", "m", "linear", 0.0, 30.0, "loading_condition"),
        VariableSpec("rel_wind_speed", "m/s", "linear", 0.0, 90.0, "operational_environment"),
        VariableSpec("rel_wind_dir", "deg", "angular", role="operational_environment"),
        VariableSpec("heading", "deg", "angular", role="navigation"),
        VariableSpec("nav_status", "", "linear", 0.0, 15.0, "state"),
        VariableSpec("state", "", "text", role="state"),
        VariableSpec("port", "", "text", role="state"),
    ]


def _unit_factor(unit: str) -> float:
    try:
        return UNIT_TO_SI[unit]
    except KeyError:
        raise IngestError(f"unknown unit {unit!r}; known: {sorted(UNIT_TO_SI)}") from None


def load_ship_csv(
    path: str | Path,
    schema: list[VariableSpec] | None = None,
    unit_map: dict[str, str] | None = None,
    source_kind: str = "in_service",
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Parse a ship data CSV into a :class:`VoyageDataset`, column by column.

    A ``timestamp`` column (ISO-8601 UTC) is required; rows where it is
    empty or bad are skipped. Empty cells, and numeric cells that are not
    finite numbers, are missing. ``unit_map`` maps column names to their
    source units; unmapped numeric columns are assumed SI already. Header
    columns not in the schema are auto-declared so that ingest is loss-free.
    Columns with a blank or an already used name are skipped with a note.
    Of rows sharing a timestamp, the first is kept and flagged ``dropout``.
    """
    path = Path(path)
    schema = list(schema) if schema is not None else default_schema()
    entry = stage_entry(report, "ingest:ship_csv")

    header, lines, cells = csv_columns(path)
    header = [h.strip() for h in header]
    if "timestamp" not in header:
        raise IngestError(f"{path}: missing timestamp column")
    factors = {col: _unit_factor(unit) for col, unit in (unit_map or {}).items()}
    first_of = {}  # name -> its first column
    for k, name in enumerate(header):
        first_of.setdefault(name, k)

    stamps = [_timestamp(c) for c in cells[first_of["timestamp"]]]
    read = np.flatnonzero([t is not None for t in stamps])
    first = read[np.unique([stamps[i] for i in read], return_index=True)[1]]
    keep = np.zeros(len(stamps), dtype=bool)
    keep[first] = True
    n = len(first)

    for k, name in enumerate(header):
        if not name or first_of[name] != k:
            filled = sum(1 for c, kept in zip(cells[k], keep) if kept and c.strip())
            why = "blank name" if not name else f"repeats {name!r}"
            entry.notes.append(f"column {k + 1} ({why}): skipped, {filled} non-empty cell(s)")
    spec_map = {s.name: s for s in schema}
    columns: dict[str, np.ndarray] = {}
    counts: dict[str, tuple[int, int]] = {}  # name -> (non-empty cells, values kept)
    for name, k in first_of.items():
        if not name or name == "timestamp":
            continue
        text = [c.strip() for c in cells[k]]
        filled = np.array([c != "" for c in text], dtype=bool)[keep]
        spec = spec_map.get(name)
        if spec is None or spec.kind != "text":
            numbers, parsed = _numbers(text, factors.get(name, 1.0))
        if spec is None:  # auto-declare, so that ingest is loss-free
            spec = spec_map[name] = VariableSpec(name, "", "linear" if parsed else "text")
            schema.append(spec)
        if spec.kind == "text":
            ok = filled
            columns[name] = np.where(ok, np.array(text, dtype=object)[keep], None)
        else:
            values = numbers[keep]
            ok = np.isfinite(values)
            if name == "lat":
                ok &= (values >= -90.0) & (values <= 90.0)
            columns[name] = np.where(ok, values, np.nan)
        counts[name] = (int(filled.sum()), int(ok.sum()))

    bare = BARE_MINIMUM_VARIABLES
    if source_kind == "ais":
        bare |= AIS_BARE_MINIMUM_VARIABLES
    for name, (total, kept) in sorted(counts.items()):
        if kept < total:
            entry.notes.append(f"column {name}: {total - kept} unparseable cell(s) -> missing")
            if name in bare and (total - kept) / total > 0.5:
                raise IngestError(
                    f"{path}: column {name}: {total - kept}/{total} cells unparseable "
                    "(bare-minimum variable, more than 50% lost)"
                )
    entry.summary["rows"] = n
    entry.summary["rows_skipped_bad_timestamp"] = len(stamps) - len(read)
    entry.summary["missing_cells"] = {
        name: n - kept for name, (_, kept) in sorted(counts.items()) if 0 < kept < n
    }
    dataset = new_dataset(
        schema, [stamps[i] for i in np.flatnonzero(keep)], columns, source_kind=source_kind
    )
    dropped = np.setdiff1d(read, first).tolist()
    if dropped:
        entry.summary["rows_dropped_duplicate_timestamp"] = len(dropped)
        repeated = np.isin(dataset.timestamps, [stamps[i] for i in dropped])
        dataset = add_flags(dataset, QualityFlag.DROPOUT, repeated, entry)
        for i in dropped:
            entry.check("dropout", timestamp=stamps[i], variable="timestamp",
                        observed=lines[i])
    return dataset


def csv_columns(path: Path) -> tuple[list[str], tuple[int, ...], list[tuple[str, ...]]]:
    """A CSV file without its rows that start with ``#``: the header, the
    line number of each further row, and the cells of each header column,
    where a short row's absent cells are empty."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        numbered = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    if not numbered:
        raise IngestError(f"{path}: empty file, expected a header row")
    lines, (header, *body) = zip(*numbered)
    cells = list(itertools.islice(itertools.zip_longest(*body, fillvalue=""), len(header)))
    return header, lines[1:], cells + [("",) * len(body)] * (len(header) - len(cells))


def _timestamp(cell: str) -> int | None:
    """Epoch seconds of an ISO-8601 cell, or None when it does not parse."""
    try:
        return parse_iso_timestamp(cell)
    except ValueError:
        return None


def _numbers(cells: list[str], factor: float) -> tuple[np.ndarray, bool]:
    """``float(cell) * factor`` of each stripped cell, NaN for an empty or
    unparseable one, and whether every non-empty cell parsed."""
    values, parsed = [], True
    for c in cells:
        try:
            values.append(float(c) * factor if c else math.nan)
        except ValueError:
            values.append(math.nan)
            parsed = False
    return np.array(values, dtype=np.float64), parsed


def csv_cell(value: float | str | int | None) -> str:
    """One written CSV cell: ``repr`` of a number (lossless round-trip),
    text as-is, empty for a missing value."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def csv_cells(values: np.ndarray) -> list[str]:
    """``csv_cell`` of each value of a column; NaN and None are written as
    missing."""
    return [csv_cell(v if v == v else None) for v in values.tolist()]


def timestamp_cells(timestamps: np.ndarray) -> list[str]:
    return [iso_timestamp(t) for t in timestamps.tolist()]


def trip_cells(trip_ids: np.ndarray) -> list[str]:
    return ["" if t < 0 else str(t) for t in trip_ids.tolist()]


def variable_cells(dataset: VoyageDataset, names: list[str], rows: np.ndarray) -> list[list[str]]:
    """The cells of the timestamp and of each named variable at ``rows``,
    one list per column."""
    cells = [timestamp_cells(dataset.timestamps[rows])]
    for name in names:
        text = dataset.spec(name).kind == "text"
        values = dataset.text_column(name) if text else dataset.column(name)
        cells.append(csv_cells(values[rows]))
    return cells


CSV_BLOCK_ROWS = 4096


def column_rows(
    rows: np.ndarray, cells: Callable[[np.ndarray], list[list[str]]]
) -> Iterator[tuple[str, ...]]:
    """CSV rows for the dataset rows ``rows``: ``cells`` gives the cells of
    a block of rows one list per column, and the columns are zipped into
    rows ``CSV_BLOCK_ROWS`` at a time, so memory stays flat."""
    for lo in range(0, len(rows), CSV_BLOCK_ROWS):
        yield from zip(*cells(rows[lo : lo + CSV_BLOCK_ROWS]))


def write_csv(
    path: str | Path,
    preamble: Iterable[str],
    header: list[str],
    rows: Iterable[list[str]],
) -> None:
    """Write ``preamble`` lines, then the header and ``rows`` as CSV; rows
    are consumed one at a time, so a generator keeps memory flat."""
    with Path(path).open("w", newline="") as fh:
        for line in preamble:
            fh.write(line + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_ship_csv(
    dataset: VoyageDataset,
    path: str | Path,
    unit_map: dict[str, str] | None = None,
    timestamp_header: bool = False,
) -> None:
    """Write a dataset back to ship-CSV form, inverting unit conversion.

    Values are written with ``repr`` so a reload reproduces them bit-exact
    (when no unit conversion is applied).
    """
    factors = {col: _unit_factor(u) for col, u in (unit_map or {}).items()}
    names = [s.name for s in dataset.schema]

    def cells(rows: np.ndarray) -> list[list[str]]:
        out = variable_cells(dataset, names, rows)
        for k, name in enumerate(names, start=1):  # numeric columns back to their unit
            if name in factors and dataset.spec(name).kind != "text":
                out[k] = csv_cells(dataset.column(name)[rows] / factors[name])
        return out

    preamble = [generated_header()] if timestamp_header else []
    rows = column_rows(np.arange(len(dataset)), cells)
    write_csv(path, preamble, ["timestamp"] + names, rows)


def save_dataset(dataset: VoyageDataset, path: str | Path) -> None:
    """Self-describing dump: schema header lines, then CSV with flags and
    trip ids. Round-trips exactly through :func:`load_dataset`."""
    names = [s.name for s in dataset.schema]
    preamble = [
        f"#schema {s.name};{s.unit};{s.kind};{s.role};"
        f"{csv_cell(s.valid_min)};{csv_cell(s.valid_max)}"
        for s in dataset.schema
    ]
    preamble.append(f"#source {dataset.source_kind}")
    if dataset.sampling_interval is not None:
        preamble.append(f"#interval {dataset.sampling_interval}")
    flags = sorted(QualityFlag, key=lambda f: f.value)
    marks = np.column_stack([dataset.flagged(f) for f in flags])

    def cells(rows: np.ndarray) -> list[list[str]]:
        flag_cells = [
            "|".join(f.value for f, on in zip(flags, row) if on)
            for row in marks[rows].tolist()
        ]
        return variable_cells(dataset, names, rows) + [
            trip_cells(dataset.trip_ids[rows]), flag_cells,
        ]

    rows = column_rows(np.arange(len(dataset)), cells)
    write_csv(path, preamble, ["timestamp"] + names + ["trip_id", "flags"], rows)


def load_dataset(path: str | Path) -> VoyageDataset:
    """Reload a dataset written by :func:`save_dataset`."""
    path = Path(path)
    schema: list[VariableSpec] = []
    source_kind = "in_service"
    interval: int | None = None
    with path.open() as fh:
        for line in fh:
            if line.startswith("#schema "):
                name, unit, kind, role, vmin, vmax = line[len("#schema "):].rstrip("\n").split(";")
                schema.append(
                    VariableSpec(
                        name,
                        unit,
                        kind,
                        float(vmin) if vmin else None,
                        float(vmax) if vmax else None,
                        role,
                    )
                )
            elif line.startswith("#source "):
                source_kind = line.split(None, 1)[1].strip()
            elif line.startswith("#interval "):
                interval = int(line.split(None, 1)[1])
    header, _, cells = csv_columns(path)
    kinds = {s.name: s.kind for s in schema}
    columns = {
        name: [c or None for c in col] if kinds.get(name, "text") == "text"
        else [float(c) if c else None for c in col]
        for name, col in zip(header[1:-2], cells[1:-2])
    }
    return new_dataset(
        schema,
        [parse_iso_timestamp(c) for c in cells[0]],
        columns,
        sampling_interval=interval,
        source_kind=source_kind,
        flags=[frozenset(QualityFlag(f) for f in c.split("|") if f) for c in cells[-1]],
        trip_ids=[int(c) if c else None for c in cells[-2]],
    )


# -- hindcast grid -----------------------------------------------------------

MASK_TOKEN = "M"


@dataclass(frozen=True)
class GridVariable:
    """One gridded field: values[time, lat, lon] plus a validity mask
    (True = invalid/land). Direction fields carry their convention."""

    name: str
    unit: str
    values: np.ndarray
    mask: np.ndarray
    convention: str | None = None  # 'from' | 'toward' for direction fields

    def __post_init__(self) -> None:
        if self.values.shape != self.mask.shape:
            raise IngestError(f"grid variable {self.name!r}: mask shape mismatch")

    @property
    def is_angular(self) -> bool:
        return self.unit in ("deg", "degree", "degrees")


@dataclass(frozen=True)
class HindcastGrid:
    """Gridded environmental field set on a (time, lat, lon) lattice."""

    variables: tuple[GridVariable, ...]
    latitudes: np.ndarray
    longitudes: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        for axis, name in ((self.latitudes, "lat"), (self.longitudes, "lon"),
                           (self.timestamps, "time")):
            if len(axis) >= 2 and not np.all(np.diff(axis) > 0):
                raise IngestError(f"{name} axis must be strictly ascending")
        shape = (len(self.timestamps), len(self.latitudes), len(self.longitudes))
        for v in self.variables:
            if v.values.shape != shape:
                raise IngestError(
                    f"grid variable {v.name!r}: shape {v.values.shape} != {shape}"
                )

    def variable(self, name: str) -> GridVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"no grid variable {name!r}")


def load_hindcast(path: str | Path) -> HindcastGrid:
    """Parse the plain-text gridded format.

    Header: ``#var <name> <unit>`` (one per variable, in block order),
    ``#lat``/``#lon``/``#time`` comma lists, optional ``#conv <var> from|toward``.
    Body: per variable, per time step, one line of ``|lon|`` comma-separated
    values for each latitude; the token ``M`` marks a masked cell.
    """
    path = Path(path)
    var_decls: list[tuple[str, str]] = []
    conventions: dict[str, str] = {}
    lats: list[float] = []
    lons: list[float] = []
    times: list[int] = []
    body: list[tuple[int, str]] = []

    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#var "):
                parts = line.split()
                if len(parts) < 3:
                    raise IngestError(f"{path}:{lineno}: malformed #var line")
                var_decls.append((parts[1], parts[2]))
            elif line.startswith("#lat "):
                lats = [float(x) for x in line[len("#lat "):].split(",")]
            elif line.startswith("#lon "):
                lons = [float(x) for x in line[len("#lon "):].split(",")]
            elif line.startswith("#time "):
                times = [parse_iso_timestamp(x) for x in line[len("#time "):].split(",")]
            elif line.startswith("#conv "):
                parts = line.split()
                if len(parts) != 3 or parts[2] not in ("from", "toward"):
                    raise IngestError(f"{path}:{lineno}: malformed #conv line")
                conventions[parts[1]] = parts[2]
            elif line.startswith("#"):
                continue
            else:
                body.append((lineno, line))

    if not var_decls:
        raise IngestError(f"{path}: no #var declarations")
    for axis, label in ((lats, "#lat"), (lons, "#lon"), (times, "#time")):
        if not axis:
            raise IngestError(f"{path}: missing {label} header")

    nt, ny, nx = len(times), len(lats), len(lons)
    expected = len(var_decls) * nt * ny
    if len(body) != expected:
        # name the first slice that comes up short
        got = len(body)
        var_i = min(got // (nt * ny), len(var_decls) - 1)
        time_i = (got % (nt * ny)) // ny
        raise IngestError(
            f"{path}: expected {expected} data rows ({len(var_decls)} variable(s) x "
            f"{nt} time step(s) x {ny} latitude(s)), got {got}; first incomplete "
            f"slice: variable {var_decls[var_i][0]!r}, time index {time_i}"
        )

    values = np.zeros((len(body), nx))
    mask = np.zeros((len(body), nx), dtype=bool)
    for row, (lineno, line) in enumerate(body):
        cells = [c.strip() for c in line.split(",")]
        masked = [c == MASK_TOKEN for c in cells]
        if len(cells) == nx:
            try:
                values[row] = [0.0 if m else float(c) for c, m in zip(cells, masked)]
            except ValueError:
                pass  # the cell is named below
            else:
                mask[row] = masked
                continue
        var_i, rest = divmod(row, nt * ny)
        where = (
            f"{path}:{lineno}: variable {var_decls[var_i][0]!r}, "
            f"time index {rest // ny}, lat index {rest % ny}"
        )
        if len(cells) != nx:
            raise IngestError(f"{where}: expected {nx} values, got {len(cells)}")
        for xi, cell in enumerate(cells):
            if not masked[xi]:
                try:
                    float(cell)
                except ValueError:
                    raise IngestError(
                        f"{where}, lon index {xi}: unknown token {cell!r}"
                    ) from None

    values = values.reshape(len(var_decls), nt, ny, nx)
    mask = mask.reshape(len(var_decls), nt, ny, nx)
    return HindcastGrid(
        tuple(
            GridVariable(name, unit, values[k], mask[k], conventions.get(name))
            for k, (name, unit) in enumerate(var_decls)
        ),
        np.asarray(lats, dtype=float),
        np.asarray(lons, dtype=float),
        np.asarray(times, dtype=np.int64),
    )


# -- ship particulars --------------------------------------------------------


def _read_kv_file(path: Path) -> dict[str, str]:
    out: dict[str, str] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise IngestError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_points(text: str) -> tuple[tuple[float, float], ...]:
    pts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition(":")
        pts.append((float(a), float(b)))
    return tuple(pts)


def load_particulars(
    path: str | Path, report: ProcessingReport | None = None
) -> ShipParticulars:
    """Read a ship-particulars key=value file.

    Mandatory: ``ship_type``, ``beam``, ``design_draft`` and at least one of
    ``lwl``/``lpp``. A missing block coefficient is filled with the type's
    table midpoint and the fill is recorded in the report.
    """
    path = Path(path)
    kv = _read_kv_file(path)
    entry = stage_entry(report, "ingest:particulars")

    try:
        raw_type = kv["ship_type"]
    except KeyError:
        raise IngestError(f"{path}: missing mandatory key ship_type") from None
    try:
        ship_type = ShipType(raw_type)
    except ValueError:
        accepted = ", ".join(t.value for t in ShipType)
        raise IngestError(
            f"{path}: unknown ship type {raw_type!r}; accepted types: {accepted}"
        ) from None

    def fnum(key: str) -> float | None:
        return float(kv[key]) if key in kv else None

    for key in ("beam", "design_draft"):
        if key not in kv:
            raise IngestError(f"{path}: missing mandatory key {key}")
    if "lwl" not in kv and "lpp" not in kv:
        raise IngestError(f"{path}: one of lwl, lpp is mandatory")

    cb = fnum("block_coefficient")
    if cb is None:
        cb = block_coefficient_midpoint(ship_type)
        entry.corrections.append(
            f"block_coefficient absent; filled with table midpoint {cb} "
            f"for {ship_type.value}"
        )

    curves = []
    for key in sorted(kv):
        if key.startswith("curve."):
            curves.append(CalmWaterCurve(key[len("curve."):], _parse_points(kv[key])))
    envelope = _parse_points(kv["envelope"]) if "envelope" in kv else None

    try:
        return ShipParticulars(
            ship_type=ship_type,
            beam=float(kv["beam"]),
            design_draft=float(kv["design_draft"]),
            lwl=fnum("lwl"),
            lpp=fnum("lpp"),
            block_coefficient=cb,
            anemometer_height=fnum("anemometer_height"),
            wind_reference_height=fnum("wind_reference_height"),
            calm_water_curves=tuple(curves),
            envelope=envelope,
            **{k: fnum(k) for k in ("rpm_threshold", "sog_threshold") if k in kv},
        )
    except SchemaError as exc:
        raise IngestError(f"{path}: {exc}") from None


# -- pipeline configuration ---------------------------------------------------

PIPELINE_STAGES = (
    "regularize",
    "trips",
    "gps_clean",
    "interpolate",
    "derive",
    "validate",
    "draft_fix",
    "hydrostatics",
    "resistance",
    "clean",
)

TRIP_METHODS = ("state_variable", "thresholds", "port_names")
MASK_POLICIES = ("zero_fill", "neighbor_mean")


@dataclass
class PipelineConfig:
    """Everything the pipeline driver needs, parsed from a key=value file."""

    ship_csv: str = ""
    particulars: str = ""
    hindcast: str | None = None
    hydro_table: str | None = None
    resistance_tables: tuple[str, ...] = ()
    source_kind: str = "in_service"
    sampling_interval: int = 900
    trip_method: str = "thresholds"
    interpolation_order: int = 1
    mask_policy: str = "neighbor_mean"
    steady_window: int = 11
    steady_alpha: float = 0.01
    gradient_tolerance: dict[str, float] = field(default_factory=dict)
    pca_components: int = 0  # 0 = choose k for >= 95% explained variance
    pca_quantile: float = 0.995
    pca_features: tuple[str, ...] = ()
    stages: tuple[str, ...] = PIPELINE_STAGES
    rpm_threshold: float | None = None
    sog_threshold: float | None = None
    pad_samples: int = 2
    max_iterations: int = 2
    ais_tolerance: float = 0.3
    ais_window: int = 5
    port_speed_threshold: float = 0.5
    power_tolerance: float = 0.02
    stw_tolerance: float = 1.0
    wind_tolerance: float = 4.0
    repeat_run: int = 20
    dropout_max: int = 3
    spike_scales: float = 6.0
    n_avg: int = 10
    voyage_kind: str = "unknown"
    unit_map: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trip_method not in TRIP_METHODS:
            raise ConfigError(f"unknown trip method {self.trip_method!r}")
        if self.interpolation_order < 1:
            raise ConfigError("interpolation order must be >= 1")
        if self.mask_policy not in MASK_POLICIES:
            raise ConfigError(f"unknown mask policy {self.mask_policy!r}")
        if not 0.0 < self.steady_alpha < 1.0:
            raise ConfigError("steady_alpha must lie in (0, 1)")
        if not 0.0 < self.pca_quantile < 1.0:
            raise ConfigError("pca_quantile must lie in (0, 1)")
        # every plain number must be positive, except pca_components (0 = auto)
        for f in fields(self):
            if f.type in ("int", "float") and f.name != "pca_components":
                if getattr(self, f.name) <= 0:
                    raise ConfigError(f"{f.name} must be strictly positive")
        unknown = set(self.stages) - set(PIPELINE_STAGES)
        if unknown:
            raise ConfigError(f"unknown stage(s): {sorted(unknown)}")


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a pipeline config key=value file; see README for the key list."""
    path = Path(path)
    kv = _read_kv_file(path)
    # number keys parse by their field's annotation, a string in this module
    types = {"int": int, "float": float, "float | None": float}
    numbers = {f.name: types[f.type] for f in fields(PipelineConfig) if f.type in types}
    kwargs: dict = {}
    gradient: dict[str, float] = {}
    units: dict[str, str] = {}
    for key, value in kv.items():
        if key.startswith("gradient_tolerance."):
            gradient[key.split(".", 1)[1]] = float(value)
        elif key.startswith("unit."):
            units[key.split(".", 1)[1]] = value
        elif key in numbers:
            kwargs[key] = numbers[key](value)
        elif key == "stages":
            kwargs["stages"] = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "pca_features":
            kwargs["pca_features"] = tuple(s.strip() for s in value.split(",") if s.strip())
        elif key == "resistance_tables":
            kwargs["resistance_tables"] = tuple(
                _resolve(path, s.strip()) for s in value.split(",") if s.strip()
            )
        elif key in ("ship_csv", "particulars", "hindcast", "hydro_table"):
            kwargs[key] = _resolve(path, value)
        elif key in ("source_kind", "trip_method", "mask_policy", "voyage_kind"):
            kwargs[key] = value
        else:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    try:
        return PipelineConfig(gradient_tolerance=gradient, unit_map=units, **kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _resolve(config_path: Path, value: str) -> str:
    """Paths in a config file are relative to the config file itself."""
    p = Path(value)
    return str(p if p.is_absolute() else (config_path.parent / p))

"""Draft/trim corrections, draft-ratio plausibility, hydrostatics and the
pluggable resistance-model interface.

Draft sensors under-read while the ship moves (dynamic pressure at the
transducer), so in-trip draft series are reconstructed from trustworthy
static measurements: either a single linear interpolation between the
pre- and post-voyage levels, or a piecewise-linear profile with explicit
ramps across detected draft-change operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .hindcast import SteadyFilterParams, steady_state_filter
from .ingest import csv_columns
from .model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
)
from .tables import draft_ratio_reference, wetted_surface
from .timeline import Trip, _runs

DRAFT_SENSORS = ("draft_fore", "draft_aft")

RHO_SEA_WATER = 1025.0  # kg/m^3
RHO_AIR = 1.225  # kg/m^3


class CorrectionError(ValueError):
    pass


@dataclass(frozen=True)
class DraftChangeEvent:
    """One in-voyage draft change operation (ballasting / trim adjustment)."""

    trip_id: int
    start: int
    end: int
    means: dict[str, tuple[float, float]] = field(default_factory=dict)
    source: str = "manual"  # 'manual' | 'steady_filter'

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise CorrectionError(
                f"event in trip {self.trip_id}: start {self.start} must be < end {self.end}"
            )


def _trip_bounds(dataset: VoyageDataset, trip: Trip) -> np.ndarray:
    ts = dataset.timestamps
    return np.nonzero((ts >= trip.start) & (ts <= trip.end))[0]


def _static_anchor(
    dataset: VoyageDataset, col: np.ndarray, trip: Trip, side: str,
    n_anchor: int, min_anchor: int,
) -> float | None:
    """Mean of the nearest valid static (out-of-trip) drafts on one side."""
    ts = dataset.timestamps
    if side == "pre":
        idx = np.nonzero(ts < trip.start)[0][::-1]
    else:
        idx = np.nonzero(ts > trip.end)[0]
    got = []
    for i in idx:
        if dataset.trip_ids[i] >= 0:
            continue  # only at-berth/static samples anchor the correction
        if not math.isnan(col[i]):
            got.append(col[i])
        if len(got) == n_anchor:
            break
    if len(got) < min_anchor:
        return None
    return float(np.mean(got))


def fix_draft_simple(
    dataset: VoyageDataset,
    trip: Trip,
    n_anchor: int = 10,
    min_anchor: int = 3,
    sensors: tuple[str, ...] = DRAFT_SENSORS,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Replace in-trip drafts with a linear interpolation in time between the
    pre-trip and post-trip static means; originals are preserved under
    ``raw_*`` names and replaced samples flagged ``draft_corrected``."""
    entry = report.stage(f"draft_fix:simple:trip{trip.trip_id}") if report is not None else None
    idx = _trip_bounds(dataset, trip)
    out = dataset
    if len(idx) == 0:
        return out
    ts = dataset.timestamps.astype(float)
    flagged: set[int] = set()
    for sensor in sensors:
        if not out.declares(sensor) or not out.has_data(sensor):
            continue
        col = out.column(sensor)
        pre = _static_anchor(out, col, trip, "pre", n_anchor, min_anchor)
        post = _static_anchor(out, col, trip, "post", n_anchor, min_anchor)
        if pre is None and post is None:
            if entry is not None:
                entry.notes.append(
                    f"{sensor}: no static anchors on either side; trip left unchanged"
                )
            continue
        if pre is None or post is None:
            level = pre if pre is not None else post
            corrected = {int(i): level for i in idx}
            if entry is not None:
                entry.notes.append(
                    f"{sensor}: single-sided anchor; constant extension at {level}"
                )
        else:
            t0, t1 = float(trip.start), float(trip.end)
            if t1 > t0:
                corrected = {
                    int(i): pre + (post - pre) * (ts[i] - t0) / (t1 - t0) for i in idx
                }
            else:
                corrected = {int(i): pre for i in idx}
        out = _apply_draft(out, sensor, corrected)
        flagged.update(corrected)
        if entry is not None:
            entry.corrections.append(
                f"{sensor}: {len(corrected)} in-trip values replaced "
                f"(pre={pre}, post={post})"
            )
    return add_flags(out, QualityFlag.DRAFT_CORRECTED, list(flagged), entry)


def _apply_draft(
    dataset: VoyageDataset, sensor: str, corrected: dict[int, float]
) -> VoyageDataset:
    raw_name = f"raw_{sensor}"
    col = dataset.column(sensor)
    out = dataset
    if not out.declares(raw_name):
        out = out.adding_variable(
            VariableSpec(raw_name, "m", "linear", role="loading_condition"),
            [None] * len(dataset),
        )
    raw_updates = {
        i: float(col[i]) for i in corrected if not math.isnan(col[i])
    }
    out = out.with_values(raw_name, raw_updates)
    return out.with_values(sensor, corrected)


def _event_means(
    dataset: VoyageDataset, col: np.ndarray, event: DraftChangeEvent,
    idx: np.ndarray, n_avg: int,
) -> tuple[float, float] | None:
    ts = dataset.timestamps
    before = [i for i in idx if ts[i] < event.start and not math.isnan(col[i])]
    after = [i for i in idx if ts[i] > event.end and not math.isnan(col[i])]
    if not before or not after:
        return None
    pre = float(np.mean([col[i] for i in before[-n_avg:]]))
    post = float(np.mean([col[i] for i in after[:n_avg]]))
    return pre, post


def fix_draft_ramp(
    dataset: VoyageDataset,
    trip: Trip,
    events: list[DraftChangeEvent],
    n_avg: int = 10,
    sensors: tuple[str, ...] = DRAFT_SENSORS,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Piecewise-linear draft reconstruction across in-voyage draft change
    operations: constant at the pre-event level, a linear ramp over each
    event, constant after, with consecutive events composing left to right.

    Levels chain continuously: each ramp shifts the running level by the
    event's measured (post - pre) difference, averaged over ``n_avg``
    samples on each side. With no events this reduces to the simple fix.
    """
    if not events:
        return fix_draft_simple(dataset, trip, n_anchor=n_avg, sensors=sensors, report=report)
    entry = report.stage(f"draft_fix:ramp:trip{trip.trip_id}") if report is not None else None

    events = sorted(events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        if b.start <= a.end:
            raise CorrectionError(
                f"overlapping draft events in trip {trip.trip_id}: "
                f"[{a.start}, {a.end}] and [{b.start}, {b.end}]"
            )
    for e in events:
        if e.start < trip.start or e.end > trip.end:
            raise CorrectionError(
                f"event [{e.start}, {e.end}] lies outside trip "
                f"[{trip.start}, {trip.end}]"
            )

    idx = _trip_bounds(dataset, trip)
    ts = dataset.timestamps.astype(float)
    out = dataset
    flagged: set[int] = set()
    for sensor in sensors:
        if not out.declares(sensor) or not out.has_data(sensor):
            continue
        col = out.column(sensor)
        deltas: list[tuple[int, int, float]] = []
        base: float | None = None
        usable = True
        for e in events:
            means = e.means.get(sensor) or _event_means(out, col, e, idx, n_avg)
            if means is None:
                if entry is not None:
                    entry.notes.append(
                        f"{sensor}: no samples around event [{e.start}, {e.end}]; "
                        "sensor left unchanged"
                    )
                usable = False
                break
            pre, post = means
            if base is None:
                base = pre
            deltas.append((e.start, e.end, post - pre))
        if not usable or base is None:
            continue

        corrected: dict[int, float] = {}
        for i in idx:
            t = ts[i]
            level = base
            for start, end, delta in deltas:
                if t <= start:
                    break
                if t >= end:
                    level += delta
                else:
                    level += delta * (t - start) / (end - start)
            corrected[int(i)] = level
        out = _apply_draft(out, sensor, corrected)
        flagged.update(corrected)
        if entry is not None:
            entry.corrections.append(
                f"{sensor}: ramp correction over {len(deltas)} event(s), "
                f"base level {base}"
            )
    return add_flags(out, QualityFlag.DRAFT_CORRECTED, list(flagged), entry)


def detect_draft_events(
    dataset: VoyageDataset,
    trip: Trip,
    params: SteadyFilterParams,
    n_avg: int = 10,
    sensors: tuple[str, ...] = DRAFT_SENSORS,
) -> list[DraftChangeEvent]:
    """Find in-voyage draft change operations as maximal unsteady runs of the
    two-stage filter on each draft sensor; runs shorter than half the window
    are discarded and overlapping per-sensor events merge into one."""
    idx = _trip_bounds(dataset, trip)
    if len(idx) == 0:
        return []
    ts = dataset.timestamps
    spans: list[tuple[int, int]] = []
    for sensor in sensors:
        if not dataset.declares(sensor) or not dataset.has_data(sensor):
            continue
        col = dataset.column(sensor)[idx]
        res = steady_state_filter(ts[idx].astype(float), col, params)
        for a, b in _runs(res.unsteady):
            if b - a + 1 >= params.window / 2.0:
                spans.append((int(ts[idx[a]]), int(ts[idx[b]])))

    if not spans:
        return []
    spans.sort()
    merged = [spans[0]]
    for s, e in spans[1:]:
        if s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))

    events = []
    for s, e in merged:
        if s >= e:
            continue
        event = DraftChangeEvent(trip.trip_id, s, e, source="steady_filter")
        means = {}
        for sensor in sensors:
            if dataset.declares(sensor) and dataset.has_data(sensor):
                m = _event_means(dataset, dataset.column(sensor), event, idx, n_avg)
                if m is not None:
                    means[sensor] = m
        events.append(
            DraftChangeEvent(trip.trip_id, s, e, means=means, source="steady_filter")
        )
    return events


# -- draft ratio plausibility --------------------------------------------------


@dataclass(frozen=True)
class DraftRatioVerdict:
    ratio: float
    reference: float
    verdict: str  # 'pass' | 'suspect' | 'replace'
    replacement: float | None


def check_draft_ratio(
    mean_draft: float,
    particulars: ShipParticulars,
    voyage_kind: str = "unknown",
    suspect_band: float = 0.15,
    replace_band: float = 0.30,
) -> DraftRatioVerdict:
    """Compare the actual/design draft ratio against its ship-type reference.

    Within ``suspect_band`` of the reference passes; beyond it the value is
    suspect; beyond ``replace_band`` the recommended action is replacing the
    draft with reference * design draft.
    """
    if particulars.design_draft <= 0:
        raise CorrectionError("design draft must be known and positive")
    ratio = mean_draft / particulars.design_draft
    ref = draft_ratio_reference(particulars.ship_type, voyage_kind)
    if voyage_kind == "unknown":
        # no voyage information: accept whichever reference fits better
        candidates = {
            draft_ratio_reference(particulars.ship_type, k) for k in ("ballast", "laden")
        }
        ref = min(candidates, key=lambda c: abs(ratio - c))
    dev = abs(ratio - ref)
    if dev > replace_band:
        return DraftRatioVerdict(ratio, ref, "replace", ref * particulars.design_draft)
    if dev > suspect_band:
        return DraftRatioVerdict(ratio, ref, "suspect", None)
    return DraftRatioVerdict(ratio, ref, "pass", None)


# -- hydrostatics ---------------------------------------------------------------


@dataclass(frozen=True)
class Hydrostatics:
    mean_draft: float
    trim: float  # positive by stern
    displacement_volume: float
    wetted_surface: float

    def __post_init__(self) -> None:
        if self.mean_draft <= 0 or self.displacement_volume <= 0 or self.wetted_surface <= 0:
            raise CorrectionError("hydrostatic quantities must be strictly positive")
        if self.wetted_surface <= self.displacement_volume / self.mean_draft:
            raise CorrectionError(
                "wetted surface below the bottom-plate lower bound; inputs inconsistent"
            )


class HydroTable:
    """Hydrostatic table lookup with linear interpolation in (draft, trim).

    The CSV needs columns draft_m, trim_m, displacement_m3, wsa_m2 forming a
    full rectangular grid over the listed drafts and trims.
    """

    def __init__(self, drafts, trims, displacement, wsa):
        self.drafts = np.asarray(drafts, dtype=float)
        self.trims = np.asarray(trims, dtype=float)
        self.displacement = np.asarray(displacement, dtype=float)
        self.wsa = np.asarray(wsa, dtype=float)

    @classmethod
    def from_csv(cls, path: str | Path) -> "HydroTable":
        header, _, cells = csv_columns(Path(path))
        table = dict(zip(header, cells))
        draft, trim, volume, area = (
            [float(c) for c in table[name]]
            for name in ("draft_m", "trim_m", "displacement_m3", "wsa_m2")
        )
        drafts, at_draft = np.unique(draft, return_inverse=True)
        trims, at_trim = np.unique(trim, return_inverse=True)
        if len(draft) != len(drafts) * len(trims):
            raise CorrectionError(
                f"{path}: hydro table must be a full (draft x trim) grid; "
                f"got {len(draft)} rows for {len(drafts)}x{len(trims)}"
            )
        disp = np.zeros((len(drafts), len(trims)))
        wsa = np.zeros_like(disp)
        disp[at_draft, at_trim] = volume
        wsa[at_draft, at_trim] = area
        return cls(drafts, trims, disp, wsa)

    def _interp(self, grid: np.ndarray, draft: float, trim: float) -> float:
        def locate(axis: np.ndarray, x: float) -> tuple[int, float]:
            x = float(np.clip(x, axis[0], axis[-1]))
            if len(axis) == 1:
                return 0, 0.0
            i = int(np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2))
            return i, (x - axis[i]) / (axis[i + 1] - axis[i])

        i, fx = locate(self.drafts, draft)
        j, fy = locate(self.trims, trim)
        i1 = min(i + 1, len(self.drafts) - 1)
        j1 = min(j + 1, len(self.trims) - 1)
        return float(
            (1 - fx) * (1 - fy) * grid[i, j]
            + (1 - fx) * fy * grid[i, j1]
            + fx * (1 - fy) * grid[i1, j]
            + fx * fy * grid[i1, j1]
        )

    def lookup(self, draft: float, trim: float) -> tuple[float, float]:
        return (
            self._interp(self.displacement, draft, trim),
            self._interp(self.wsa, draft, trim),
        )


def hydrostatics(
    mean_draft: float,
    trim: float,
    particulars: ShipParticulars,
    table: HydroTable | None = None,
    report: ProcessingReport | None = None,
) -> Hydrostatics:
    """Displacement volume and wetted surface at the given loading condition.

    A supplied hydrostatic table takes precedence; otherwise the block
    coefficient model (volume = C_B * L * B * T, C_B held at its design
    value) and the ship-type WSA estimation formula are used. Drafts far
    above the design draft are extrapolations and get a report warning.
    """
    if mean_draft <= 0:
        raise CorrectionError("mean draft must be strictly positive")
    if report is not None and mean_draft > 1.25 * particulars.design_draft:
        report.stage("hydrostatics:warning").notes.append(
            f"mean draft {mean_draft:.2f} m exceeds 1.25 x design draft "
            f"{particulars.design_draft:.2f} m; extrapolating"
        )
    if table is not None:
        volume, wsa = table.lookup(mean_draft, trim)
    else:
        cb = particulars.block_coefficient
        if cb is None:
            raise CorrectionError("block coefficient required without a hydro table")
        volume = cb * particulars.length * particulars.beam * mean_draft
        wsa = wetted_surface(
            particulars.ship_type, volume, mean_draft, particulars.lwl, particulars.lpp
        )
    return Hydrostatics(mean_draft, trim, volume, wsa)


# -- resistance models ------------------------------------------------------------


class ResistanceModel:
    """Interface: one resistance component evaluated per sample context.

    Implementations provide ``name``, ``kind`` ('calm_water' | 'added_wind' |
    'added_wave'), ``required`` (context keys) and ``evaluate(ctx)`` returning
    Newtons (never negative) or None when the sample lacks inputs.
    """

    name: str = "base"
    kind: str = "calm_water"
    required: tuple[str, ...] = ()

    def evaluate(self, ctx: dict[str, float]) -> float | None:  # pragma: no cover
        raise NotImplementedError


class TableDrivenModel(ResistanceModel):
    """Reference implementation driven by a coefficient-vs-angle table,
    scaled by dynamic pressure and a reference area.

    calm_water uses speed-through-water and sea water density at angle 0;
    added_wind uses the relative wind speed/direction and air density;
    added_wave uses the relative wave direction with speed-through-water as
    the scaling speed. The table interpolates linearly and wraps at 360.
    """

    KIND_MAP = {"calm": "calm_water", "wind": "added_wind", "wave": "added_wave"}

    def __init__(self, name: str, kind: str, area: float,
                 angles: list[float], coefficients: list[float]):
        if kind not in ("calm_water", "added_wind", "added_wave"):
            raise CorrectionError(f"unknown resistance kind {kind!r}")
        if area <= 0:
            raise CorrectionError("reference area must be strictly positive")
        if len(angles) != len(coefficients) or not angles:
            raise CorrectionError("coefficient table must be non-empty and aligned")
        order = np.argsort(angles)
        self.angles = np.asarray(angles, dtype=float)[order] % 360.0
        self.coefficients = np.asarray(coefficients, dtype=float)[order]
        if np.any(self.coefficients < 0):
            raise CorrectionError("reference table coefficients must be >= 0")
        self.name = name
        self.kind = kind
        self.area = area
        if kind == "calm_water":
            self.required = ("stw",)
        elif kind == "added_wind":
            self.required = ("rel_wind_speed", "rel_wind_dir")
        else:
            self.required = ("stw", "rel_wave_dir")

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "TableDrivenModel":
        path = Path(path)
        area = None
        kind = None
        angles: list[float] = []
        coeffs: list[float] = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#area"):
                    area = float(line.split()[1])
                elif line.startswith("#kind"):
                    kind = cls.KIND_MAP.get(line.split()[1])
                elif line.startswith("#") or line.lower().startswith("angle"):
                    continue
                else:
                    a, _, c = line.partition(",")
                    angles.append(float(a))
                    coeffs.append(float(c))
        if area is None or kind is None:
            raise CorrectionError(f"{path}: needs #area and #kind header lines")
        return cls(name or path.stem, kind, area, angles, coeffs)

    def coefficient_at(self, angle: float) -> float:
        a = angle % 360.0
        xs = self.angles
        if len(xs) == 1:
            return float(self.coefficients[0])
        if a < xs[0] or a > xs[-1]:  # wrap segment between last and first
            lo, hi = xs[-1], xs[0] + 360.0
            ac = a + 360.0 if a < xs[0] else a
            f = 0.0 if hi == lo else (ac - lo) / (hi - lo)
            return float(
                (1 - f) * self.coefficients[-1] + f * self.coefficients[0]
            )
        return float(np.interp(a, xs, self.coefficients))

    def evaluate(self, ctx: dict[str, float]) -> float | None:
        if any(k not in ctx for k in self.required):
            return None
        if self.kind == "calm_water":
            rho, speed, angle = RHO_SEA_WATER, ctx["stw"], 0.0
        elif self.kind == "added_wind":
            rho, speed, angle = RHO_AIR, ctx["rel_wind_speed"], ctx["rel_wind_dir"]
        else:
            rho, speed, angle = RHO_SEA_WATER, ctx["stw"], ctx["rel_wave_dir"]
        return 0.5 * rho * self.coefficient_at(angle) * self.area * speed * speed


def resistance_components(
    dataset: VoyageDataset,
    models: list[ResistanceModel],
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Evaluate each resistance model per in-trip sample into a
    ``res_<name>`` column; a model whose inputs never appear is skipped
    entirely, per-sample gaps stay missing and are counted."""
    entry = report.stage("resistance") if report is not None else None
    in_trip = dataset.in_trip_or_all()
    wind_speed_name = (
        "rel_wind_speed_ref" if dataset.declares("rel_wind_speed_ref") else "rel_wind_speed"
    )

    out = dataset
    for model in models:
        available = {
            key: dataset.has_data(
                wind_speed_name if key == "rel_wind_speed" else key
            ) or (key == "rel_wind_dir" and dataset.has_data("fixed_rel_wind_dir"))
            for key in model.required
        }
        if not all(available.values()):
            missing = sorted(k for k, ok in available.items() if not ok)
            if entry is not None:
                entry.notes.append(
                    f"model {model.name!r} skipped: missing input(s) {missing}"
                )
            continue
        # the fixed wind direction where the fault detector substituted one
        sources = {"rel_wind_speed": (wind_speed_name,),
                   "rel_wind_dir": ("fixed_rel_wind_dir", "rel_wind_dir")}
        inputs = {key: dataset.coalesce(*sources.get(key, (key,))).tolist()
                  for key in model.required}
        column: list[float | None] = [None] * len(dataset)
        missing_count = 0
        for i in np.flatnonzero(in_trip).tolist():
            ctx = {key: col[i] for key, col in inputs.items() if col[i] == col[i]}
            r = model.evaluate(ctx)
            if r is None:
                missing_count += 1
            else:
                column[i] = r
        out = out.adding_variable(
            VariableSpec(f"res_{model.name}", "N", "linear", role="operating_point"),
            column,
        )
        if entry is not None:
            entry.summary[model.name] = {
                "kind": model.kind,
                "evaluated": sum(1 for v in column if v is not None),
                "missing_inputs": missing_count,
            }
    return out

"""Draft/trim corrections, draft-ratio plausibility, hydrostatics and the
pluggable resistance-model interface.

Draft sensors under-read while the ship moves (dynamic pressure at the
transducer), so in-trip draft series are reconstructed from trustworthy
static measurements: either a single linear interpolation between the
pre- and post-voyage levels, or a piecewise-linear profile with explicit
ramps across detected draft-change operations.
"""

from __future__ import annotations

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
    stage_entry,
)
from .tables import draft_ratio_reference, wetted_surface
from .timeline import Trip, merge_spans, runs

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
    on_side = ts < trip.start if side == "pre" else ts > trip.end
    # only at-berth/static samples anchor the correction, nearest first
    got = col[on_side & (dataset.trip_ids < 0) & ~np.isnan(col)]
    got = (got[::-1] if side == "pre" else got)[:n_anchor]
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
    entry = stage_entry(report, f"draft_fix:simple:trip{trip.trip_id}")
    idx = _trip_bounds(dataset, trip)
    out = dataset
    if len(idx) == 0:
        return out
    ts = dataset.timestamps.astype(float)[idx]
    flagged = idx[:0]
    for sensor in sensors:
        if not out.declares(sensor) or not out.has_data(sensor):
            continue
        col = out.column(sensor)
        pre = _static_anchor(out, col, trip, "pre", n_anchor, min_anchor)
        post = _static_anchor(out, col, trip, "post", n_anchor, min_anchor)
        if pre is None and post is None:
            entry.notes.append(
                f"{sensor}: no static anchors on either side; trip left unchanged"
            )
            continue
        t0, t1 = float(trip.start), float(trip.end)
        if pre is None or post is None:
            level = pre if pre is not None else post
            corrected = np.full(len(idx), level)
            entry.notes.append(
                f"{sensor}: single-sided anchor; constant extension at {level}"
            )
        elif t1 > t0:
            corrected = pre + (post - pre) * (ts - t0) / (t1 - t0)
        else:
            corrected = np.full(len(idx), pre)
        out = _apply_draft(out, sensor, idx, corrected)
        flagged = idx
        entry.corrections.append(
            f"{sensor}: {len(corrected)} in-trip values replaced "
            f"(pre={pre}, post={post})"
        )
    return add_flags(out, QualityFlag.DRAFT_CORRECTED, flagged, entry)


def _apply_draft(
    dataset: VoyageDataset, sensor: str, rows: np.ndarray, corrected: np.ndarray
) -> VoyageDataset:
    """Write ``corrected`` into ``sensor`` at ``rows``, keeping each value it
    replaces in ``raw_<sensor>``."""
    raw_name = f"raw_{sensor}"
    out = dataset
    if not out.declares(raw_name):
        out = out.adding_variable(
            VariableSpec(raw_name, "m", "linear", role="loading_condition"),
            np.full(len(dataset), np.nan),
        )
    raw = dataset.column(sensor)[rows]
    out = out.with_values(raw_name, rows[~np.isnan(raw)], raw[~np.isnan(raw)])
    return out.with_values(sensor, rows, corrected)


def _event_means(
    dataset: VoyageDataset, col: np.ndarray, event: DraftChangeEvent,
    idx: np.ndarray, n_avg: int,
) -> tuple[float, float] | None:
    ts, values = dataset.timestamps[idx], col[idx]
    before = values[(ts < event.start) & ~np.isnan(values)]
    after = values[(ts > event.end) & ~np.isnan(values)]
    if not len(before) or not len(after):
        return None
    return float(np.mean(before[-n_avg:])), float(np.mean(after[:n_avg]))


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
    entry = stage_entry(report, f"draft_fix:ramp:trip{trip.trip_id}")

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
    ts = dataset.timestamps.astype(float)[idx]
    out = dataset
    flagged = idx[:0]
    for sensor in sensors:
        if not out.declares(sensor) or not out.has_data(sensor):
            continue
        col = out.column(sensor)
        means = [e.means.get(sensor) or _event_means(out, col, e, idx, n_avg) for e in events]
        if None in means:
            e = events[means.index(None)]
            entry.notes.append(
                f"{sensor}: no samples around event [{e.start}, {e.end}]; "
                "sensor left unchanged"
            )
            continue
        base = means[0][0]
        # the events are sorted and disjoint, so each one adds its ramp in turn
        level = np.full(len(idx), base)
        for e, (pre, post) in zip(events, means):
            delta = post - pre
            level = np.where(ts >= e.end, level + delta, np.where(
                ts > e.start, level + delta * (ts - e.start) / (e.end - e.start), level))
        out = _apply_draft(out, sensor, idx, level)
        flagged = idx
        entry.corrections.append(
            f"{sensor}: ramp correction over {len(events)} event(s), "
            f"base level {base}"
        )
    return add_flags(out, QualityFlag.DRAFT_CORRECTED, flagged, entry)


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
    ts = dataset.timestamps[idx]
    starts, ends = [], []
    for sensor in sensors:
        if not dataset.declares(sensor) or not dataset.has_data(sensor):
            continue
        col = dataset.column(sensor)[idx]
        a, b = runs(steady_state_filter(ts.astype(float), col, params).unsteady)
        long = b - a + 1 >= params.window / 2.0
        starts.append(ts[a[long]])
        ends.append(ts[b[long]])
    if not starts:
        return []
    starts, ends = np.concatenate(starts), np.concatenate(ends)
    order = np.argsort(starts, kind="stable")
    starts, ends = merge_spans(starts[order], ends[order], gap=0)

    events = []
    for s, e in zip(starts.tolist(), ends.tolist()):
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
    if mean_draft > 1.25 * particulars.design_draft:
        stage_entry(report, "hydrostatics:warning").notes.append(
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
    entry = stage_entry(report, "resistance")
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
        entry.summary[model.name] = {
            "kind": model.kind,
            "evaluated": sum(1 for v in column if v is not None),
            "missing_inputs": missing_count,
        }
    return out

"""Draft/trim corrections, draft-ratio plausibility, hydrostatics and the
table-driven resistance model.

Draft sensors under-read while the ship moves (dynamic pressure at the
transducer), so in-trip draft series are reconstructed from trustworthy
static measurements: either a single linear interpolation between the
pre- and post-voyage levels, or a piecewise-linear profile with explicit
ramps across detected draft-change operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import onboard_wind
from .hindcast import SteadyFilterParams, cells, steady_state_filter
from .ingest import IngestError, csv_blocks, open_input, parse_number
from .model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
)
from .tables import draft_ratio_reference, wetted_surface
from .timeline import merge_spans, runs

DRAFT_SENSORS = ("draft_fore", "draft_aft")
MIN_ANCHOR = 3  # static drafts needed on one side to anchor the simple fix

# draft-ratio deviations from the reference: beyond SUSPECT_BAND the draft is
# suspect, beyond REPLACE_BAND replacing it is recommended
SUSPECT_BAND = 0.15
REPLACE_BAND = 0.30
# a mean draft above this multiple of the design draft is an extrapolation
EXTRAPOLATION_LIMIT = 1.25

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

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise CorrectionError(
                f"event in trip {self.trip_id}: start {self.start} must be < end {self.end}"
            )


def _static_anchor(
    dataset: VoyageDataset, col: np.ndarray, idx: np.ndarray, side: str, n_anchor: int
) -> float | None:
    """Mean of the nearest valid static (out-of-trip) drafts on one side of
    the trip rows ``idx``."""
    side_rows = slice(None, idx[0]) if side == "pre" else slice(idx[-1] + 1, None)
    # only at-berth/static samples anchor the correction, nearest first
    values = col[side_rows]
    got = values[(dataset.trip_ids[side_rows] < 0) & ~np.isnan(values)]
    got = (got[::-1] if side == "pre" else got)[:n_anchor]
    if len(got) < MIN_ANCHOR:
        return None
    return float(np.mean(got))


def fix_draft_simple(
    dataset: VoyageDataset,
    trip_id: int,
    n_anchor: int,
    report: ProcessingReport,
) -> VoyageDataset:
    """Replace the drafts of trip ``trip_id`` with a linear interpolation in
    time between the pre-trip and post-trip static means; originals are
    preserved under ``raw_*`` names and replaced samples flagged
    ``draft_corrected``."""
    entry = report.stage(f"draft_fix:simple:trip{trip_id}")
    idx = dataset.trips().get(trip_id)
    out = dataset
    if idx is None:
        return out
    ts = dataset.timestamps.astype(float)[idx]
    flagged = idx[:0]
    for sensor in DRAFT_SENSORS:
        if not out.has_data(sensor):
            continue
        col = out.column(sensor)
        pre = _static_anchor(out, col, idx, "pre", n_anchor)
        post = _static_anchor(out, col, idx, "post", n_anchor)
        if pre is None and post is None:
            entry.notes.append(
                f"{sensor}: no static anchors on either side; trip left unchanged"
            )
            continue
        t0, t1 = ts[0], ts[-1]
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
            VariableSpec(raw_name, "m", "linear"),
            np.full(len(dataset), np.nan),
        )
    raw = dataset.logged(sensor)[rows]
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
    trip_id: int,
    events: list[DraftChangeEvent],
    n_avg: int,
    report: ProcessingReport,
) -> VoyageDataset:
    """Piecewise-linear draft reconstruction across in-voyage draft change
    operations: constant at the pre-event level, a linear ramp over each
    event, constant after, with consecutive events composing left to right.

    Levels chain continuously: each ramp shifts the running level by the
    event's measured (post - pre) difference, averaged over ``n_avg``
    samples on each side. With no events this reduces to the simple fix.
    """
    if not events:
        return fix_draft_simple(dataset, trip_id, n_anchor=n_avg, report=report)
    entry = report.stage(f"draft_fix:ramp:trip{trip_id}")

    events = sorted(events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        if b.start <= a.end:
            raise CorrectionError(
                f"overlapping draft events in trip {trip_id}: "
                f"[{a.start}, {a.end}] and [{b.start}, {b.end}]"
            )
    idx = dataset.trips().get(trip_id)
    if idx is None:
        raise CorrectionError(f"trip {trip_id} has no rows")
    first, last = dataset.timestamps[idx[[0, -1]]].tolist()
    for e in events:
        if e.start < first or e.end > last:
            raise CorrectionError(
                f"event [{e.start}, {e.end}] lies outside trip [{first}, {last}]"
            )

    ts = dataset.timestamps.astype(float)[idx]
    out = dataset
    flagged = idx[:0]
    for sensor in DRAFT_SENSORS:
        if not out.has_data(sensor):
            continue
        col = out.column(sensor)
        means = [_event_means(out, col, e, idx, n_avg) for e in events]
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
    dataset: VoyageDataset, trip_id: int, params: SteadyFilterParams
) -> list[DraftChangeEvent]:
    """Find the draft change operations of trip ``trip_id`` as maximal
    unsteady runs of the two-stage filter on each draft sensor; runs shorter
    than half the window are discarded and overlapping per-sensor events
    merge into one."""
    idx = dataset.trips().get(trip_id)
    if idx is None:
        return []
    ts = dataset.timestamps[idx]
    starts, ends = [], []
    sensors = [s for s in DRAFT_SENSORS if dataset.has_data(s)]
    for sensor in sensors:
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

    return [
        DraftChangeEvent(trip_id, s, e)
        for s, e in zip(starts.tolist(), ends.tolist()) if s < e
    ]


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
    voyage_kind: str,
) -> DraftRatioVerdict:
    """Compare the actual/design draft ratio against its ship-type reference.

    Within ``SUSPECT_BAND`` of the reference passes; beyond it the value is
    suspect; beyond ``REPLACE_BAND`` the recommended action is replacing the
    draft with reference * design draft.
    """
    ratio = mean_draft / particulars.design_draft
    ref = draft_ratio_reference(particulars.ship_type, voyage_kind)
    if voyage_kind == "unknown":
        # no voyage information: accept whichever reference fits better
        candidates = {
            draft_ratio_reference(particulars.ship_type, k) for k in ("ballast", "laden")
        }
        ref = min(candidates, key=lambda c: abs(ratio - c))
    dev = abs(ratio - ref)
    if dev > REPLACE_BAND:
        return DraftRatioVerdict(ratio, ref, "replace", ref * particulars.design_draft)
    if dev > SUSPECT_BAND:
        return DraftRatioVerdict(ratio, ref, "suspect", None)
    return DraftRatioVerdict(ratio, ref, "pass", None)


# -- hydrostatics ---------------------------------------------------------------


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
        blocks = csv_blocks(Path(path))
        at = {name: k for k, name in enumerate(next(blocks))}  # a repeated name: its last column
        table: dict[str, list[str]] = {name: [] for name in at}
        for cells in (split() for _, _, split in blocks):
            for name, k in at.items():
                table[name] += cells[k]
        names = ("draft_m", "trim_m", "displacement_m3", "wsa_m2")
        missing = [name for name in names if name not in table]
        if missing:
            raise IngestError(f"{path}: hydro table lacks column(s) {missing}")
        draft, trim, volume, area = (
            [parse_number(c, f"{path}: {name}") for c in table[name]] for name in names
        )
        drafts, at_draft = np.unique(draft, return_inverse=True)
        trims, at_trim = np.unique(trim, return_inverse=True)
        if not draft or len(draft) != len(drafts) * len(trims):
            raise IngestError(
                f"{path}: hydro table must be a full (draft x trim) grid; "
                f"got {len(draft)} rows for {len(drafts)}x{len(trims)}"
            )
        # the row count equals the node count, so a repeated pair leaves a
        # node unwritten
        node = at_draft * len(trims) + at_trim
        repeated = np.flatnonzero(np.bincount(node) > 1)
        if len(repeated):
            i, j = divmod(int(repeated[0]), len(trims))
            raise IngestError(
                f"{path}: hydro table repeats the (draft, trim) pair "
                f"({drafts[i]}, {trims[j]})"
            )
        disp = np.zeros((len(drafts), len(trims)))
        wsa = np.zeros_like(disp)
        disp[at_draft, at_trim] = volume
        wsa[at_draft, at_trim] = area
        return cls(drafts, trims, disp, wsa)

    def lookup(self, draft: np.ndarray, trim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Displacement volume and wetted surface at each (draft, trim) pair:
        bilinear in its grid cell, with each axis clamped to the grid."""
        i, fx, _ = cells(self.drafts, np.clip(draft, self.drafts[0], self.drafts[-1]))
        j, fy, _ = cells(self.trims, np.clip(trim, self.trims[0], self.trims[-1]))
        i1 = np.minimum(i + 1, len(self.drafts) - 1)
        j1 = np.minimum(j + 1, len(self.trims) - 1)

        def interp(grid: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):  # a rounded mix of nodes may pass them, even to inf
                return np.clip((1 - fx) * (1 - fy) * grid[i, j] + (1 - fx) * fy * grid[i, j1]
                               + fx * (1 - fy) * grid[i1, j] + fx * fy * grid[i1, j1],
                               grid.min(), grid.max())

        return interp(self.displacement), interp(self.wsa)


def hydrostatics(
    mean_draft: np.ndarray,
    trim: np.ndarray,
    particulars: ShipParticulars,
    table: HydroTable | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Displacement volume and wetted surface at each loading condition of
    strictly positive mean draft, and which of them are consistent: both
    quantities positive and the wetted surface above the bottom-plate lower
    bound (volume / draft).

    A supplied hydrostatic table takes precedence; otherwise the block
    coefficient model (volume = C_B * L * B * T, C_B held at its design
    value) and the ship-type WSA estimation formula are used. A mean draft
    above ``EXTRAPOLATION_LIMIT`` x design draft is an extrapolation.
    """
    if table is not None:
        volume, wsa = table.lookup(mean_draft, trim)
    else:
        cb = particulars.block_coefficient
        if cb is None:
            raise CorrectionError("block coefficient required without a hydro table")
        with np.errstate(over="ignore"):  # a huge draft: inf, which is not consistent
            volume = cb * particulars.length * particulars.beam * mean_draft
            wsa = wetted_surface(
                particulars.ship_type, volume, mean_draft, particulars.lwl, particulars.lpp
            )
    with np.errstate(over="ignore"):  # a subnormal draft: an inf bound, which fails
        consistent = ~((volume <= 0) | (wsa <= 0) | (wsa <= volume / mean_draft))
    return volume, wsa, consistent


# -- resistance models ------------------------------------------------------------


# per resistance kind: the density, the speed input and the angle input
# (None: the table is read at angle 0)
RESISTANCE_KINDS = {
    "calm_water": (RHO_SEA_WATER, "stw", None),
    "added_wind": (RHO_AIR, "rel_wind_speed", "rel_wind_dir"),
    "added_wave": (RHO_SEA_WATER, "stw", "rel_wave_dir"),
}


class TableDrivenModel:
    """One resistance component, ``kind`` 'calm_water', 'added_wind' or
    'added_wave', driven by a coefficient-vs-angle table and scaled by
    dynamic pressure and a reference area. ``evaluate(inputs)`` takes a
    column per ``required`` key and returns Newtons (never negative).

    calm_water uses speed-through-water and sea water density at angle 0;
    added_wind uses the relative wind speed/direction and air density;
    added_wave uses the relative wave direction with speed-through-water as
    the scaling speed. The table interpolates linearly and wraps at 360.
    """

    KIND_MAP = {"calm": "calm_water", "wind": "added_wind", "wave": "added_wave"}

    def __init__(self, name: str, kind: str, area: float,
                 angles: list[float], coefficients: list[float]):
        if kind not in RESISTANCE_KINDS:
            raise CorrectionError(f"unknown resistance kind {kind!r}")
        if area <= 0:
            raise CorrectionError("reference area must be strictly positive")
        if len(angles) != len(coefficients) or not angles:
            raise CorrectionError("coefficient table must be non-empty and aligned")
        wrapped = np.asarray(angles, dtype=float) % 360.0
        order = np.argsort(wrapped)
        self.angles = wrapped[order]
        self.coefficients = np.asarray(coefficients, dtype=float)[order]
        if np.any(self.coefficients < 0):
            raise CorrectionError("reference table coefficients must be >= 0")
        self.name = name
        self.kind = kind
        self.area = area
        self.required = tuple(k for k in RESISTANCE_KINDS[kind][1:] if k)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableDrivenModel":
        """The model of a coefficient table file, named after the file."""
        path = Path(path)
        area = None
        kind = None
        angles: list[float] = []
        coeffs: list[float] = []
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                where = f"{path}:{lineno}"
                if not line:
                    continue
                if line.startswith("#area"):
                    area = parse_number(line[len("#area"):], where)
                elif line.startswith("#kind"):
                    kind = cls.KIND_MAP.get(word := line[len("#kind"):].strip())
                    if kind is None:
                        raise IngestError(
                            f"{where}: unknown #kind {word!r}; known: {', '.join(cls.KIND_MAP)}"
                        )
                elif line.startswith("#") or line.lower().startswith("angle"):
                    continue
                else:
                    a, _, c = line.partition(",")
                    angles.append(parse_number(a, where))
                    coeffs.append(parse_number(c, where))
        if area is None or kind is None:
            raise IngestError(f"{path}: needs #area and #kind header lines")
        try:
            return cls(path.stem, kind, area, angles, coeffs)
        except CorrectionError as exc:
            raise IngestError(f"{path}: {exc}") from None

    def coefficients_at(self, angles: np.ndarray) -> np.ndarray:
        a = angles % 360.0
        xs, cs = self.angles, self.coefficients
        if len(xs) == 1:
            return np.full(len(a), cs[0])
        out = np.interp(a, xs, cs)
        wrap = (a < xs[0]) | (a > xs[-1])  # the segment between last and first
        lo, hi = xs[-1], xs[0] + 360.0
        ac = np.where(a < xs[0], a + 360.0, a)[wrap]
        f = 0.0 if hi == lo else (ac - lo) / (hi - lo)
        out[wrap] = (1 - f) * cs[-1] + f * cs[0]
        return out

    def evaluate(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        rho, speed_input, angle_input = RESISTANCE_KINDS[self.kind]
        speed = inputs[speed_input]
        angle = np.zeros(len(speed)) if angle_input is None else inputs[angle_input]
        return 0.5 * rho * self.coefficients_at(angle) * self.area * speed * speed


def resistance_components(
    dataset: VoyageDataset,
    models: list[TableDrivenModel],
    report: ProcessingReport,
) -> VoyageDataset:
    """Evaluate each resistance model per in-trip sample into a
    ``res_<name>`` column; a model whose inputs never appear is skipped
    entirely, per-sample gaps stay missing and are counted. A value that
    overflows from finite inputs (an absurd speed) is left missing, with an
    ``overflow`` check on the column and ``invalid_range`` on the sample."""
    entry = report.stage("resistance")
    in_trip = dataset.in_trip_or_all()
    # the wind inputs by the onboard-wind rule, the fixed direction included
    wind = dict(zip(("rel_wind_speed", "rel_wind_dir"), onboard_wind(dataset)))

    out, flagged = dataset, np.zeros(len(dataset), dtype=bool)
    for model in models:
        inputs = {k: wind[k] if k in wind else dataset.coalesce(k) for k in model.required}
        missing = sorted(k for k, col in inputs.items() if np.isnan(col).all())
        if missing:
            entry.notes.append(f"model {model.name!r} skipped: missing input(s) {missing}")
            continue
        rows = in_trip & np.logical_and.reduce([~np.isnan(col) for col in inputs.values()])
        column = np.full(len(dataset), np.nan)
        with np.errstate(over="ignore"):  # an inf from finite inputs is flagged below
            column[rows] = model.evaluate({key: col[rows] for key, col in inputs.items()})
        name = f"res_{model.name}"
        overflow = np.isinf(column)  # flagged, and left missing
        entry.check_rows("overflow", dataset.timestamps[overflow], variable=name)
        column[overflow] = np.nan
        flagged |= overflow
        out = out.adding_variable(VariableSpec(name, "N", "linear"), column)
        entry.summary[model.name] = {
            "kind": model.kind,
            "evaluated": int(rows.sum()),
            "missing_inputs": int((in_trip & ~rows).sum()),
        }
    return add_flags(out, QualityFlag.INVALID_RANGE, flagged, entry) if flagged.any() else out

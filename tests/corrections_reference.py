"""Reference for the draft fixes: the row loops that ``corrections.fix_draft_simple``,
``corrections.fix_draft_ramp`` and ``corrections._apply_draft`` replaced,
kept verbatim except that their two ``with_values`` calls pass the dicts'
keys and values, and that a trip's rows and its first and last timestamps
come from a scan of the trip ids; a row loop for
``corrections._static_anchor`` that picks the anchors by timestamp; and a
row loop for ``corrections._event_means``, the ramp's means on each side
of an event.

Reference for hydrostatics and resistance: the scalar ``hydrostatics``
with its table lookup and ``Hydrostatics`` checks, the sample loop of
``pipeline._hydrostatics_stage``, and the scalar coefficient lookup and
sample loop of ``resistance_components``.

``tests/test_corrections_reference.py`` requires the array code to give
the same bits in every column it writes, the same flags and the same report
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shipdataprep.corrections import (
    DRAFT_SENSORS,
    EXTRAPOLATION_LIMIT,
    MIN_ANCHOR,
    RHO_AIR,
    RHO_SEA_WATER,
    CorrectionError,
    DraftChangeEvent,
    HydroTable,
    TableDrivenModel,
    check_draft_ratio,
)
from shipdataprep.ingest import PipelineConfig
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
)
from shipdataprep.tables import wetted_surface


def _trip_rows(dataset: VoyageDataset, trip_id: int) -> list[int]:
    return [i for i, t in enumerate(dataset.trip_ids.tolist()) if t == trip_id]


def _static_anchor(
    dataset: VoyageDataset, col, start: int, end: int, side: str, n_anchor: int
) -> float | None:
    """Mean of the nearest valid static (out-of-trip) drafts before
    ``start`` or after ``end``."""
    ts, ids = dataset.timestamps, dataset.trip_ids
    order = range(len(ts) - 1, -1, -1) if side == "pre" else range(len(ts))
    got = []
    for i in order:
        on_side = ts[i] < start if side == "pre" else ts[i] > end
        if on_side and ids[i] < 0 and not math.isnan(col[i]) and len(got) < n_anchor:
            got.append(col[i])
    if len(got) < MIN_ANCHOR:
        return None
    return float(np.mean(got))


def fix_draft_simple(
    dataset: VoyageDataset,
    trip_id: int,
    n_anchor: int,
    sensors: tuple[str, ...] = DRAFT_SENSORS,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Replace in-trip drafts with a linear interpolation in time between the
    pre-trip and post-trip static means; originals are preserved under
    ``raw_*`` names and replaced samples flagged ``draft_corrected``."""
    entry = report.stage(f"draft_fix:simple:trip{trip_id}") if report is not None else None
    idx = _trip_rows(dataset, trip_id)
    out = dataset
    if len(idx) == 0:
        return out
    start, end = int(dataset.timestamps[idx[0]]), int(dataset.timestamps[idx[-1]])
    ts = dataset.timestamps.astype(float)
    flagged: set[int] = set()
    for sensor in sensors:
        if not out.declares(sensor) or not out.has_data(sensor):
            continue
        col = out.column(sensor)
        pre = _static_anchor(out, col, start, end, "pre", n_anchor)
        post = _static_anchor(out, col, start, end, "post", n_anchor)
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
            t0, t1 = float(start), float(end)
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
            VariableSpec(raw_name, "m", "linear"),
            [None] * len(dataset),
        )
    raw_updates = {
        i: float(col[i]) for i in corrected if not math.isnan(col[i])
    }
    out = out.with_values(raw_name, list(raw_updates), list(raw_updates.values()))
    return out.with_values(sensor, list(corrected), list(corrected.values()))


def _event_means(
    dataset: VoyageDataset, col, event: DraftChangeEvent, idx: list[int], n_avg: int
) -> tuple[float, float] | None:
    """Mean of the last ``n_avg`` present in-trip values before the event and
    of the first ``n_avg`` after it; None when either side has none."""
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
    trip_id: int,
    events: list[DraftChangeEvent],
    n_avg: int,
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
        return fix_draft_simple(dataset, trip_id, n_anchor=n_avg, sensors=sensors, report=report)
    entry = report.stage(f"draft_fix:ramp:trip{trip_id}") if report is not None else None

    events = sorted(events, key=lambda e: e.start)
    for a, b in zip(events, events[1:]):
        if b.start <= a.end:
            raise CorrectionError(
                f"overlapping draft events in trip {trip_id}: "
                f"[{a.start}, {a.end}] and [{b.start}, {b.end}]"
            )
    idx = _trip_rows(dataset, trip_id)
    if not idx:
        raise CorrectionError(f"trip {trip_id} has no rows")
    start, end = int(dataset.timestamps[idx[0]]), int(dataset.timestamps[idx[-1]])
    for e in events:
        if e.start < start or e.end > end:
            raise CorrectionError(
                f"event [{e.start}, {e.end}] lies outside trip "
                f"[{start}, {end}]"
            )

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
            means = _event_means(out, col, e, idx, n_avg)
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


# -- hydrostatics and resistance -----------------------------------------------
#
# The scalar hydrostatics (``Hydrostatics``, ``hydrostatics`` and the table
# lookup), the per-sample loop of ``pipeline._hydrostatics_stage``, the
# scalar coefficient lookup and ``evaluate`` of ``TableDrivenModel``, and the
# row loop of ``resistance_components``, kept verbatim except that methods
# take their table or model as the first argument.


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


def _interp(table: HydroTable, grid: np.ndarray, draft: float, trim: float) -> float:
    def locate(axis: np.ndarray, x: float) -> tuple[int, float]:
        x = float(np.clip(x, axis[0], axis[-1]))
        if len(axis) == 1:
            return 0, 0.0
        i = int(np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2))
        return i, (x - axis[i]) / (axis[i + 1] - axis[i])

    i, fx = locate(table.drafts, draft)
    j, fy = locate(table.trims, trim)
    i1 = min(i + 1, len(table.drafts) - 1)
    j1 = min(j + 1, len(table.trims) - 1)
    return float(
        (1 - fx) * (1 - fy) * grid[i, j]
        + (1 - fx) * fy * grid[i, j1]
        + fx * (1 - fy) * grid[i1, j]
        + fx * fy * grid[i1, j1]
    )


def lookup(table: HydroTable, draft: float, trim: float) -> tuple[float, float]:
    return (
        _interp(table, table.displacement, draft, trim),
        _interp(table, table.wsa, draft, trim),
    )


def hydrostatics(
    mean_draft: float,
    trim: float,
    particulars: ShipParticulars,
    table: HydroTable | None = None,
) -> Hydrostatics:
    """Displacement volume and wetted surface at the given loading condition.

    A supplied hydrostatic table takes precedence; otherwise the block
    coefficient model (volume = C_B * L * B * T, C_B held at its design
    value) and the ship-type WSA estimation formula are used. A mean draft
    above ``EXTRAPOLATION_LIMIT`` x design draft is an extrapolation.
    """
    if mean_draft <= 0:
        raise CorrectionError("mean draft must be strictly positive")
    if table is not None:
        volume, wsa = lookup(table, mean_draft, trim)
    else:
        cb = particulars.block_coefficient
        if cb is None:
            raise CorrectionError("block coefficient required without a hydro table")
        volume = cb * particulars.length * particulars.beam * mean_draft
        wsa = wetted_surface(
            particulars.ship_type, volume, mean_draft, particulars.lwl, particulars.lpp
        )
    return Hydrostatics(mean_draft, trim, volume, wsa)


def _hydrostatics_stage(
    dataset: VoyageDataset,
    particulars: ShipParticulars,
    hydro_table,
    config: PipelineConfig,
    report: ProcessingReport,
) -> VoyageDataset:
    entry = report.stage("hydrostatics")
    fore = dataset.column("draft_fore")
    aft = dataset.column("draft_aft")
    in_trip = dataset.in_trip_or_all()

    mean_draft, trim, disp, wsa = ([None] * len(dataset) for _ in range(4))
    failed = 0
    for i in range(len(dataset)):
        if not in_trip[i] or np.isnan(fore[i]) or np.isnan(aft[i]):
            continue
        t = (fore[i] + aft[i]) / 2.0
        if t <= 0:
            failed += 1
            continue
        mean_draft[i] = t
        trim[i] = aft[i] - fore[i]
        try:
            h = hydrostatics(t, aft[i] - fore[i], particulars, hydro_table)
        except CorrectionError:
            failed += 1
            continue
        disp[i] = h.displacement_volume
        wsa[i] = h.wetted_surface
    for name, unit, col in (
        ("mean_draft", "m", mean_draft),
        ("trim", "m", trim),
        ("displacement", "m3", disp),
        ("wsa", "m2", wsa),
    ):
        if not dataset.declares(name):
            dataset = dataset.adding_variable(VariableSpec(name, unit, "linear"), col)
    entry.summary["computed"] = sum(1 for v in disp if v is not None)
    entry.summary["failed"] = failed
    limit = EXTRAPOLATION_LIMIT * particulars.design_draft
    got = [v for v in mean_draft if v is not None]
    beyond = [v for v in got if v > limit]
    if beyond:
        entry.notes.append(
            f"{len(beyond)} sample(s) with mean draft above {EXTRAPOLATION_LIMIT}"
            f" x design draft {particulars.design_draft:.2f} m, largest {max(beyond):.2f} m;"
            " extrapolating"
        )
    if got:
        verdict = check_draft_ratio(
            float(np.mean(got)), particulars, config.voyage_kind
        )
        entry.summary["draft_ratio"] = {
            "ratio": verdict.ratio,
            "reference": verdict.reference,
            "verdict": verdict.verdict,
        }
        if verdict.replacement is not None:
            entry.notes.append(
                f"draft ratio deviates excessively; replacement candidate "
                f"{verdict.replacement:.2f} m"
            )
    return dataset


def coefficient_at(model: TableDrivenModel, angle: float) -> float:
    a = angle % 360.0
    xs = model.angles
    if len(xs) == 1:
        return float(model.coefficients[0])
    if a < xs[0] or a > xs[-1]:  # wrap segment between last and first
        lo, hi = xs[-1], xs[0] + 360.0
        ac = a + 360.0 if a < xs[0] else a
        f = 0.0 if hi == lo else (ac - lo) / (hi - lo)
        return float(
            (1 - f) * model.coefficients[-1] + f * model.coefficients[0]
        )
    return float(np.interp(a, xs, model.coefficients))


def evaluate(model: TableDrivenModel, ctx: dict[str, float]) -> float | None:
    if any(k not in ctx for k in model.required):
        return None
    if model.kind == "calm_water":
        rho, speed, angle = RHO_SEA_WATER, ctx["stw"], 0.0
    elif model.kind == "added_wind":
        rho, speed, angle = RHO_AIR, ctx["rel_wind_speed"], ctx["rel_wind_dir"]
    else:
        rho, speed, angle = RHO_SEA_WATER, ctx["stw"], ctx["rel_wave_dir"]
    return 0.5 * rho * coefficient_at(model, angle) * model.area * speed * speed


def resistance_components(
    dataset: VoyageDataset,
    models: list[TableDrivenModel],
    report: ProcessingReport,
) -> VoyageDataset:
    """Evaluate each resistance model per in-trip sample into a
    ``res_<name>`` column; a model whose inputs never appear is skipped
    entirely, per-sample gaps stay missing and are counted."""
    entry = report.stage("resistance")
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
            r = evaluate(model, ctx)
            if r is None:
                missing_count += 1
            else:
                column[i] = r
        out = out.adding_variable(
            VariableSpec(f"res_{model.name}", "N", "linear"),
            column,
        )
        entry.summary[model.name] = {
            "kind": model.kind,
            "evaluated": sum(1 for v in column if v is not None),
            "missing_inputs": missing_count,
        }
    return out

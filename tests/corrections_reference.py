"""Reference for the draft fixes: the row loops that ``corrections.fix_draft_simple``,
``corrections.fix_draft_ramp`` and ``corrections._apply_draft`` replaced,
kept verbatim except that their two ``with_values`` calls pass the dicts'
keys and values. ``tests/test_corrections_reference.py`` requires the
array fixes to give the same bits in the ``draft_*`` and ``raw_draft_*``
columns, the same flags and the same report entry.
"""

from __future__ import annotations

import math

from shipdataprep.corrections import (
    DRAFT_SENSORS,
    CorrectionError,
    DraftChangeEvent,
    _event_means,
    _static_anchor,
    _trip_bounds,
)
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    VariableSpec,
    VoyageDataset,
    add_flags,
)
from shipdataprep.timeline import Trip


def fix_draft_simple(
    dataset: VoyageDataset,
    trip: Trip,
    n_anchor: int = 10,
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
        pre = _static_anchor(out, col, trip, "pre", n_anchor)
        post = _static_anchor(out, col, trip, "post", n_anchor)
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
    out = out.with_values(raw_name, list(raw_updates), list(raw_updates.values()))
    return out.with_values(sensor, list(corrected), list(corrected.values()))


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

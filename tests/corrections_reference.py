"""Reference for the draft fixes: the row loops that ``corrections.fix_draft_simple``,
``corrections.fix_draft_ramp`` and ``corrections._apply_draft`` replaced,
kept verbatim except that their two ``with_values`` calls pass the dicts'
keys and values, and that a trip's rows and its first and last timestamps
come from a scan of the trip ids; and a row loop for
``corrections._static_anchor`` that picks the anchors by timestamp.
``tests/test_corrections_reference.py`` requires the array fixes to give
the same bits in the ``draft_*`` and ``raw_draft_*`` columns, the same
flags and the same report entry.
"""

from __future__ import annotations

import math

import numpy as np

from shipdataprep.corrections import (
    DRAFT_SENSORS,
    MIN_ANCHOR,
    CorrectionError,
    DraftChangeEvent,
    _event_means,
)
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    VariableSpec,
    VoyageDataset,
    add_flags,
)


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
    n_anchor: int = 10,
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


def fix_draft_ramp(
    dataset: VoyageDataset,
    trip_id: int,
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
            means = _event_means(out, col, e, np.array(idx, dtype=np.intp), n_avg)
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

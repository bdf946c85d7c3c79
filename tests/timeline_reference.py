"""Reference for the run finder and for resampling: the loops that
``timeline.runs``, ``timeline.merge_spans``, the padding of
``segment_by_thresholds`` and the bin means of ``resample`` replaced, kept
verbatim. ``tests/test_timeline_reference.py`` requires the whole-array
segmentation and draft-event detection to give the same trip ids and
events, and the whole-array resample the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from shipdataprep.corrections import DRAFT_SENSORS, DraftChangeEvent
from shipdataprep.hindcast import SteadyFilterParams, steady_state_filter
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    VoyageDataset,
    stage_entry,
)
from shipdataprep.timeline import AT_BERTH, SegmentationError


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end] index runs where mask is True."""
    runs = []
    start = None
    for i, v in enumerate(mask):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


def _moving(dataset: VoyageDataset, name: str, threshold: float) -> np.ndarray:
    """Per sample: the variable is above ``threshold`` and inside its valid range."""
    spec = dataset.spec(name)
    lo = -math.inf if spec.valid_min is None else spec.valid_min
    hi = math.inf if spec.valid_max is None else spec.valid_max
    return np.array([v > threshold and lo <= v <= hi for v in dataset.column(name).tolist()],
                    dtype=bool)


def _assign_trips(
    dataset: VoyageDataset, trip_runs: list[tuple[int, int]]
) -> VoyageDataset:
    ids = np.full(len(dataset), -1)
    for trip_id, (a, b) in enumerate(trip_runs, start=1):
        ids[a : b + 1] = trip_id
    return dataset.with_trip_ids(ids)


def segment_by_thresholds(
    dataset: VoyageDataset,
    rpm_threshold: float,
    sog_threshold: float,
    pad_samples: int,
) -> VoyageDataset:
    """A sample is in-trip when shaft rpm or speed-over-ground exceeds its
    threshold inside the variable's valid range; maximal runs are padded by
    ``pad_samples`` on each side and overlapping padded runs merge. Padding
    never crosses an at-berth leg boundary when a state variable exists."""
    have_rpm = dataset.has_data("shaft_rpm")
    have_sog = dataset.has_data("sog")
    if not have_rpm and not have_sog:
        raise SegmentationError("neither shaft_rpm nor sog present")

    n = len(dataset)
    in_trip = np.zeros(n, dtype=bool)
    if have_rpm:
        in_trip |= _moving(dataset, "shaft_rpm", rpm_threshold)
    if have_sog:
        in_trip |= _moving(dataset, "sog", sog_threshold)

    berth_mask = np.zeros(n, dtype=bool)
    if dataset.declares("state") and dataset.has_data("state"):
        states = dataset.text_column("state")
        berth_mask = np.array([s == AT_BERTH for s in states])

    padded: list[tuple[int, int]] = []
    for a, b in _runs(in_trip):
        lo = a
        for _ in range(pad_samples):
            if lo - 1 >= 0 and not berth_mask[lo - 1]:
                lo -= 1
            else:
                break
        hi = b
        for _ in range(pad_samples):
            if hi + 1 < n and not berth_mask[hi + 1]:
                hi += 1
            else:
                break
        padded.append((lo, hi))

    merged: list[tuple[int, int]] = []
    for run in padded:
        if merged and run[0] <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], run[1]))
        else:
            merged.append(run)
    return _assign_trips(dataset, merged)


def segment_by_ports(
    dataset: VoyageDataset, port_variable: str = "port"
) -> VoyageDataset:
    """Noon-report style grouping: each maximal run of one port label is a
    trip; samples with no port join the preceding run."""
    if not dataset.has_data(port_variable):
        raise SegmentationError(f"port variable {port_variable!r} absent")
    ports = dataset.text_column(port_variable)
    runs: list[tuple[int, int]] = []
    current: str | None = None
    start = 0
    for i, p in enumerate(ports):
        if p is None or p == current:
            continue
        if current is not None:
            runs.append((start, i - 1))
        current, start = p, i
    if current is not None:
        runs.append((start, len(ports) - 1))
    return _assign_trips(dataset, runs)


def detect_draft_events(
    dataset: VoyageDataset,
    trip_id: int,
    params: SteadyFilterParams,
    sensors: tuple[str, ...] = DRAFT_SENSORS,
) -> list[DraftChangeEvent]:
    """Find in-voyage draft change operations as maximal unsteady runs of the
    two-stage filter on each draft sensor; runs shorter than half the window
    are discarded and overlapping per-sensor events merge into one."""
    idx = np.nonzero(dataset.trip_ids == trip_id)[0]
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
        events.append(DraftChangeEvent(trip_id, s, e))
    return events


def _circular_mean(degrees: np.ndarray) -> float:
    rad = np.deg2rad(degrees)
    ang = math.degrees(math.atan2(np.mean(np.sin(rad)), np.mean(np.cos(rad))))
    return ang % 360.0


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of a bin's values; when their sum overflows, the mean of
    the values divided by a power of two above twice their count, times it."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        if not math.isfinite(mean):
            scale = 2.0 ** (len(values).bit_length() + 1)
            mean = float(np.mean(values / scale)) * scale
    return mean


def resample(
    dataset: VoyageDataset,
    interval_s: int,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """``timeline.resample``, averaging bin by bin."""
    entry = stage_entry(report, "resample")
    ts = dataset.timestamps
    t0 = int(ts[0] // interval_s * interval_s)
    n_bins = int((int(ts[-1]) - t0) // interval_s) + 1
    # samples are in time order, so each bin's members are adjacent rows
    bins = (ts - t0) // interval_s
    starts = np.searchsorted(bins, np.arange(n_bins))
    ends = np.searchsorted(bins, np.arange(n_bins), side="right")
    filled = np.flatnonzero(ends > starts)
    out = dataset.take(np.full(n_bins, -1), t0 + np.arange(n_bins) * interval_s)
    for spec in dataset.schema:
        text = spec.kind == "text"
        col = dataset.text_column(spec.name) if text else dataset.column(spec.name)
        present = np.array([v is not None for v in col], dtype=bool) if text else ~np.isnan(col)
        average = (
            (lambda got: got[-1]) if text  # text keeps the last value
            else _circular_mean if spec.kind == "angular"
            else _mean
        )
        spans = zip(starts[filled].tolist(), ends[filled].tolist())
        got = (col[a:b][present[a:b]] for a, b in spans)
        out = out.with_values(spec.name, filled, [average(g) if len(g) else None for g in got])
    for flag in QualityFlag:
        has = np.logical_or.reduceat(dataset.flagged(flag), starts[filled])
        out = out.adding_flags(flag, filled[has])
    out = out.adding_flags(QualityFlag.MISSING_INSERTED, ends == starts)
    out = out.with_interval(interval_s)
    n_inserted = int(out.flagged(QualityFlag.MISSING_INSERTED).sum())
    entry.count_flag(QualityFlag.MISSING_INSERTED, n_inserted)
    entry.summary["mode"] = "down_mean"
    entry.summary["rows_out"] = len(out)
    return out

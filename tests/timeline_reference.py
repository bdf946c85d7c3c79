"""Reference for the run finder: the loops that ``timeline.runs``,
``timeline.merge_spans`` and the padding of ``segment_by_thresholds``
replaced, kept verbatim. ``tests/test_timeline_reference.py`` requires the
whole-array segmentation and draft-event detection to give the same trip
index, trip ids and events.
"""

from __future__ import annotations

import numpy as np

from shipdataprep.corrections import (
    DRAFT_SENSORS,
    DraftChangeEvent,
    _event_means,
    _trip_bounds,
)
from shipdataprep.hindcast import SteadyFilterParams, steady_state_filter
from shipdataprep.model import RPM_THRESHOLD, SOG_THRESHOLD, VoyageDataset
from shipdataprep.timeline import AT_BERTH, SegmentationError, Trip, TripIndex


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


def _build_index(
    dataset: VoyageDataset, trip_runs: list[tuple[int, int]],
    berth_runs: list[tuple[int, int]], method: str,
) -> tuple[TripIndex, VoyageDataset]:
    ts = dataset.timestamps
    trips = tuple(
        Trip(i + 1, int(ts[a]), int(ts[b])) for i, (a, b) in enumerate(trip_runs)
    )
    legs = tuple((int(ts[a]), int(ts[b])) for a, b in berth_runs)
    ids = np.full(len(dataset), -1)
    for t, (a, b) in zip(trips, trip_runs):
        ids[a : b + 1] = t.trip_id
    return TripIndex(trips, legs, method), dataset.with_trip_ids(ids)


def segment_by_thresholds(
    dataset: VoyageDataset,
    rpm_threshold: float = RPM_THRESHOLD,
    sog_threshold: float = SOG_THRESHOLD,
    pad_samples: int = 2,
) -> tuple[TripIndex, VoyageDataset]:
    """A sample is in-trip when shaft rpm or speed-over-ground exceeds its
    threshold; maximal runs are padded by ``pad_samples`` on each side and
    overlapping padded runs merge. Padding never crosses an at-berth leg
    boundary when a state variable exists."""
    have_rpm = dataset.has_data("shaft_rpm")
    have_sog = dataset.has_data("sog")
    if not have_rpm and not have_sog:
        raise SegmentationError("neither shaft_rpm nor sog present")

    n = len(dataset)
    in_trip = np.zeros(n, dtype=bool)
    if have_rpm:
        rpm = dataset.column("shaft_rpm")
        in_trip |= np.nan_to_num(rpm, nan=-np.inf) > rpm_threshold
    if have_sog:
        sog = dataset.column("sog")
        in_trip |= np.nan_to_num(sog, nan=-np.inf) > sog_threshold

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

    covered = np.zeros(n, dtype=bool)
    for a, b in merged:
        covered[a : b + 1] = True
    berth_runs = _runs(~covered)
    return _build_index(dataset, merged, berth_runs, "thresholds")


def segment_by_ports(
    dataset: VoyageDataset, port_variable: str = "port"
) -> tuple[TripIndex, VoyageDataset]:
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
    return _build_index(dataset, runs, [], "port_names")


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

"""Timeline handling: uniform time steps, resampling of sporadic data and
partitioning of the series into trips and at-berth legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    RPM_THRESHOLD,
    SOG_THRESHOLD,
    ProcessingReport,
    QualityFlag,
    VoyageDataset,
    add_flags,
    iso_timestamp,
    stage_entry,
)

AT_BERTH = "At Berth"


class SegmentationError(ValueError):
    """Trip segmentation could not run with the data at hand."""


@dataclass(frozen=True)
class Trip:
    trip_id: int
    start: int
    end: int


@dataclass(frozen=True)
class TripIndex:
    """Partition of the timeline into enumerated trips and at-berth legs."""

    trips: tuple[Trip, ...]
    berth_legs: tuple[tuple[int, int], ...]
    method: str

    def __post_init__(self) -> None:
        spans = [(t.start, t.end, "trip") for t in self.trips]
        spans += [(a, b, "berth") for a, b in self.berth_legs]
        spans.sort()
        for (s1, e1, _), (s2, _, _) in zip(spans, spans[1:]):
            if s2 <= e1:
                raise SegmentationError("trips and berth legs must be disjoint")


def regularize(
    dataset: VoyageDataset, interval_s: int, report: ProcessingReport | None = None
) -> VoyageDataset:
    """Force a constant timestamp gradient of ``interval_s``.

    Samples are snapped to the nearest lattice point anchored at the first
    timestamp (ties to the earlier point); missing lattice points become
    empty rows flagged ``missing_inserted``. When two samples land on the
    same point the nearer wins, the slot is flagged ``dropout`` and the loss
    is reported.
    """
    if interval_s <= 0:
        raise ValueError("interval_s must be strictly positive")
    entry = stage_entry(report, "regularize")
    if len(dataset) == 0:
        return dataset.with_interval(interval_s)

    ts = dataset.timestamps
    t0 = int(ts[0])
    q, r = np.divmod(ts - t0, interval_s)
    slot = q + (r > interval_s / 2)  # exact half rounds down
    offset = np.abs(ts - t0 - slot * interval_s)
    snapped = int(np.count_nonzero(offset))
    for i in np.flatnonzero(offset).tolist():
        entry.check(
            "snapped",
            timestamp=int(ts[i]),
            variable="timestamp",
            expected=t0 + int(slot[i]) * interval_s,
            observed=int(ts[i]),
        )

    # samples are in time order, so the samples of one slot are adjacent
    slots, first, members = np.unique(slot, return_index=True, return_counts=True)
    kept = first.copy()
    collisions: list[tuple[int, int]] = []  # (lost ts, lattice index)
    for k in np.flatnonzero(members > 1).tolist():
        for j in range(first[k] + 1, first[k] + members[k]):
            lose = kept[k]
            if offset[j] < offset[kept[k]]:
                kept[k] = j
            else:
                lose = j
            collisions.append((int(ts[lose]), int(slots[k])))

    rows = np.full(int(slots[-1]) + 1, -1)
    rows[slots] = kept
    lattice = t0 + np.arange(len(rows)) * interval_s
    out = dataset.take(rows, lattice).with_interval(interval_s)
    out = add_flags(out, QualityFlag.MISSING_INSERTED, rows < 0, entry)
    out = add_flags(out, QualityFlag.DROPOUT, [idx for _, idx in collisions], entry)
    entry.summary["inserted_rows"] = int((rows < 0).sum())
    entry.summary["snapped_samples"] = snapped
    for lost, idx in collisions:
        entry.check(
            "dropout",
            timestamp=t0 + idx * interval_s,
            variable="timestamp",
            expected=None,
            observed=iso_timestamp(lost),
        )
    return out


def _circular_mean(degrees: np.ndarray) -> float:
    rad = np.deg2rad(degrees)
    ang = math.degrees(math.atan2(np.mean(np.sin(rad)), np.mean(np.cos(rad))))
    return ang % 360.0


def resample(
    dataset: VoyageDataset,
    interval_s: int,
    mode: str = "down_mean",
    naive_angular: bool = False,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Resample onto a uniform ``interval_s`` lattice.

    ``down_mean`` averages each bin: arithmetic mean for linear variables and
    the circular mean for angular ones (``naive_angular=True`` switches to
    the arithmetic mean on angles, which commits the well-known 0/360
    averaging fault; it exists only to build test fixtures of that fault).
    ``up_hold`` repeats the previous sample's values onto the finer lattice,
    flagging held rows. Bins with no source data become empty flagged rows.
    """
    if len(dataset) == 0:
        raise ValueError("cannot resample an empty dataset")
    if mode not in ("down_mean", "up_hold"):
        raise ValueError(f"unknown resample mode {mode!r}")
    entry = stage_entry(report, "resample")

    ts = dataset.timestamps
    t0 = int(ts[0] // interval_s * interval_s)
    if mode == "down_mean":
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
                else _circular_mean if spec.kind == "angular" and not naive_angular
                else (lambda got: float(np.mean(got)))
            )
            spans = zip(starts[filled].tolist(), ends[filled].tolist())
            got = (col[a:b][present[a:b]] for a, b in spans)
            out = out.with_values(spec.name, filled, [average(g) if len(g) else None for g in got])
        for flag in QualityFlag:
            has = np.logical_or.reduceat(dataset.flagged(flag), starts[filled])
            out = out.adding_flags(flag, filled[has])
        out = out.adding_flags(QualityFlag.MISSING_INSERTED, ends == starts)
    else:  # up_hold
        start = t0 if t0 >= int(ts[0]) else t0 + interval_s
        lattice = np.arange(start, int(ts[-1]) + 1, interval_s)
        at = np.minimum(np.searchsorted(ts, lattice), len(ts) - 1)
        exact = ts[at] == lattice
        # a point without its own sample holds the last exact hit before it
        last_hit = np.maximum.accumulate(np.where(exact, np.arange(len(lattice)), -1))
        rows = np.where(last_hit >= 0, at[last_hit], -1)
        out = dataset.take(rows, lattice)
        out = out.with_trip_ids(np.where(exact, out.trip_ids, -1))
        out = out.adding_flags(QualityFlag.MISSING_INSERTED, ~exact)

    out = out.with_interval(interval_s)
    n_inserted = int(out.flagged(QualityFlag.MISSING_INSERTED).sum())
    entry.count_flag(QualityFlag.MISSING_INSERTED, n_inserted)
    entry.summary["mode"] = mode
    entry.summary["rows_out"] = len(out)
    return out


def runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices (inclusive) of the maximal runs where ``mask``
    is True, in order."""
    edges = np.diff(np.concatenate(([False], mask, [False])).astype(np.int8))
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1


def merge_spans(
    starts: np.ndarray, ends: np.ndarray, gap: int
) -> tuple[np.ndarray, np.ndarray]:
    """Join spans sorted by start: a span whose start is at most ``gap``
    past the furthest end so far joins the span before it (``gap=1`` joins
    touching index spans, ``gap=0`` only overlapping ones)."""
    if len(starts) == 0:
        return starts, ends
    reach = np.maximum.accumulate(ends)
    first = np.flatnonzero(np.append(True, starts[1:] > reach[:-1] + gap))
    return starts[first], reach[np.append(first[1:], len(starts)) - 1]


def _build_index(
    dataset: VoyageDataset, starts: np.ndarray, ends: np.ndarray, method: str,
    berth_legs: bool = True,
) -> tuple[TripIndex, VoyageDataset]:
    """Trips from sorted disjoint (starts, ends) row spans; with
    ``berth_legs``, the runs of rows outside them are the berth legs."""
    rows = np.arange(len(dataset))
    k = np.searchsorted(starts, rows, side="right")  # trips begun by each row
    ids = np.where(rows <= np.append(ends, -1)[k - 1], k, -1)
    ts = dataset.timestamps
    trips = tuple(
        Trip(i + 1, int(ts[a]), int(ts[b])) for i, (a, b) in enumerate(zip(starts, ends))
    )
    legs = tuple((int(ts[a]), int(ts[b])) for a, b in zip(*runs(ids < 0))) if berth_legs else ()
    return TripIndex(trips, legs, method), dataset.with_trip_ids(ids)


def segment_by_state(
    dataset: VoyageDataset,
    state_variable: str = "state",
    berth_label: str = AT_BERTH,
) -> tuple[TripIndex, VoyageDataset]:
    """Trips are the gaps between continuous at-berth legs of the state
    variable; leading/trailing non-berth runs count as trips too."""
    if not dataset.has_data(state_variable):
        raise SegmentationError(
            f"state variable {state_variable!r} absent; use segment_by_thresholds"
        )
    states = dataset.text_column(state_variable)
    present = int(np.count_nonzero(np.not_equal(states, None)))
    if present < 0.9 * len(dataset):
        raise SegmentationError(
            f"state variable {state_variable!r} present on {present}/{len(dataset)} "
            "samples (< 90%); use segment_by_thresholds"
        )
    return _build_index(dataset, *runs(states != berth_label), "state_variable")


def segment_by_thresholds(
    dataset: VoyageDataset,
    rpm_threshold: float = RPM_THRESHOLD,
    sog_threshold: float = SOG_THRESHOLD,
    pad_samples: int = 2,
) -> tuple[TripIndex, VoyageDataset]:
    """A sample is in-trip when shaft rpm or speed-over-ground exceeds its
    threshold; maximal runs are padded by ``pad_samples`` on each side and
    padded runs that overlap or touch merge. Padding never reaches an at-berth
    sample of the state variable, when it exists."""
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

    berth = np.zeros(0, dtype=np.int64)
    if dataset.declares("state") and dataset.has_data("state"):
        berth = np.flatnonzero(dataset.text_column("state") == AT_BERTH)
    # padding stops short of the last berth sample before a run and the
    # first one after it; -1 and n stand for none
    bounds = np.concatenate(([-1], berth, [n]))
    starts, ends = runs(in_trip)
    starts = np.maximum(starts - pad_samples, bounds[np.searchsorted(bounds, starts) - 1] + 1)
    ends = np.minimum(ends + pad_samples, bounds[np.searchsorted(bounds, ends, side="right")] - 1)
    return _build_index(dataset, *merge_spans(starts, ends, gap=1), "thresholds")


def segment_by_ports(
    dataset: VoyageDataset, port_variable: str = "port"
) -> tuple[TripIndex, VoyageDataset]:
    """Noon-report style grouping: each maximal run of one port label is a
    trip; samples with no port join the preceding run."""
    if not dataset.has_data(port_variable):
        raise SegmentationError(f"port variable {port_variable!r} absent")
    ports = dataset.text_column(port_variable)
    present = np.flatnonzero(np.not_equal(ports, None))
    labels = ports[present]
    starts = present[np.append(True, labels[1:] != labels[:-1])]
    ends = np.append(starts[1:] - 1, len(ports) - 1)
    return _build_index(dataset, starts, ends, "port_names", berth_legs=False)

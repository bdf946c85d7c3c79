"""Timeline handling: uniform time steps, resampling of sporadic data and
partitioning of the series into trips and at-berth legs.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
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
    entry = stage_entry(report, "regularize")
    if len(dataset) == 0:
        return dataset.with_interval(interval_s)

    ts = dataset.timestamps
    t0 = int(ts[0])
    q, r = np.divmod(ts - t0, interval_s)
    slot = q + (r > interval_s / 2)  # exact half rounds down
    offset = np.abs(ts - t0 - slot * interval_s)
    moved = np.flatnonzero(offset)
    entry.check_rows(
        "snapped", ts[moved], variable="timestamp",
        expected=t0 + slot[moved] * interval_s, observed=ts[moved],
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
    entry.summary["snapped_samples"] = len(moved)
    entry.check_rows(
        "dropout", [t0 + idx * interval_s for _, idx in collisions], variable="timestamp",
        observed=[iso_timestamp(lost) for lost, _ in collisions],
    )
    return out


def _bin_means(col: np.ndarray, heads: np.ndarray, circular: bool) -> np.ndarray:
    """Per bin, the rows from one of ``heads`` to the next, the mean of the
    values of ``col`` that are present, NaN for a bin without one;
    ``circular`` takes the circular mean of angles in degrees.

    Bins with the same number of values are averaged together, as one
    bins x count block. numpy sums each contiguous row of it in the same
    pairwise order as ``np.mean`` of that bin alone, so each mean has the
    same bits as the per-bin one."""
    present = ~np.isnan(col)
    before = np.concatenate(([0], np.cumsum(present)))  # present values before each row
    first = before[heads]  # each bin's first value in ``values``
    counts = np.diff(before[np.append(heads, len(col))])
    values = col[present]
    if circular:
        rad = np.deg2rad(values)
        sin, cos = np.sin(rad), np.cos(rad)
    means = np.full(len(heads), np.nan)
    for count in sorted(set(counts[counts > 0].tolist())):  # np.unique imports numpy.ma
        bins = np.flatnonzero(counts == count)
        block = first[bins, None] + np.arange(count)
        if circular:  # math's atan2 and degrees: numpy's differ in the last bit
            pairs = zip(sin[block].mean(axis=1).tolist(), cos[block].mean(axis=1).tolist())
            means[bins] = [math.degrees(math.atan2(s, c)) % 360.0 for s, c in pairs]
        else:
            # a mean of finite values is finite: an overflowed bin is redone scaled by 2**k
            with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf - inf
                means[bins] = values[block].mean(axis=1)
                over, scale = ~np.isfinite(means[bins]), 2.0 ** (count.bit_length() + 1)
                means[bins[over]] = (values[block[over]] / scale).mean(axis=1) * scale
    return means


def resample(
    dataset: VoyageDataset, interval_s: int, report: ProcessingReport | None = None
) -> VoyageDataset:
    """Down-sample onto a uniform ``interval_s`` lattice by averaging each
    bin: the arithmetic mean for linear variables, the circular mean for
    angular ones (an arithmetic mean of angles would commit the 0/360
    averaging fault) and the last value present for text. A sample carries
    every flag of its bin. Bins with no source data become empty rows
    flagged ``missing_inserted``.
    """
    if len(dataset) == 0:
        raise ValueError("cannot resample an empty dataset")
    entry = stage_entry(report, "resample")

    ts = dataset.timestamps
    t0 = int(ts[0] // interval_s * interval_s)
    n_bins = int((int(ts[-1]) - t0) // interval_s) + 1
    # samples are in time order, so each bin's members are adjacent rows
    bins = (ts - t0) // interval_s
    starts = np.searchsorted(bins, np.arange(n_bins))
    ends = np.searchsorted(bins, np.arange(n_bins), side="right")
    filled = np.flatnonzero(ends > starts)
    heads = starts[filled]
    out = dataset.take(np.full(n_bins, -1), t0 + np.arange(n_bins) * interval_s)
    for spec in dataset.schema:
        text = spec.kind == "text"
        col = dataset.text_column(spec.name) if text else dataset.column(spec.name)
        present = np.not_equal(col, None) if text else ~np.isnan(col)
        if not present.any():
            continue  # missing, as taken
        if text:  # the last value present in each bin
            last = np.maximum.reduceat(np.where(present, np.arange(len(col)), -1), heads)
            values = np.where(last >= 0, col[last], None)
        else:
            values = _bin_means(col, heads, spec.kind == "angular")
        out = out.with_values(spec.name, filled, values)
    for flag in QualityFlag:
        has = np.logical_or.reduceat(dataset.flagged(flag), heads)
        out = out.adding_flags(flag, filled[has])
    out = out.adding_flags(QualityFlag.MISSING_INSERTED, ends == starts)

    out = out.with_interval(interval_s)
    n_inserted = int(out.flagged(QualityFlag.MISSING_INSERTED).sum())
    entry.count_flag(QualityFlag.MISSING_INSERTED, n_inserted)
    entry.summary["mode"] = "down_mean"
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


def _assign_trips(dataset: VoyageDataset, starts: np.ndarray, ends: np.ndarray) -> VoyageDataset:
    """The dataset with trips 1..k on the sorted disjoint (starts, ends) row
    spans, in order; rows outside them get no trip."""
    rows = np.arange(len(dataset))
    k = np.searchsorted(starts, rows, side="right")  # trips begun by each row
    return dataset.with_trip_ids(np.where(rows <= np.append(ends, -1)[k - 1], k, -1))


def segment_by_state(dataset: VoyageDataset) -> VoyageDataset:
    """Trips are the gaps between continuous at-berth legs of the ``state``
    variable; leading/trailing non-berth runs count as trips too."""
    if not dataset.has_data("state"):
        raise SegmentationError("state variable 'state' absent; use segment_by_thresholds")
    states = dataset.text_column("state")
    present = int(np.count_nonzero(np.not_equal(states, None)))
    if present < 0.9 * len(dataset):
        raise SegmentationError(
            f"state variable 'state' present on {present}/{len(dataset)} "
            "samples (< 90%); use segment_by_thresholds"
        )
    return _assign_trips(dataset, *runs(states != AT_BERTH))


def segment_by_thresholds(
    dataset: VoyageDataset,
    rpm_threshold: float,
    sog_threshold: float,
    pad_samples: int,
) -> VoyageDataset:
    """A sample is in-trip when shaft rpm or speed-over-ground, as
    :meth:`VoyageDataset.valid` reads it, exceeds its threshold;
    maximal runs are padded by ``pad_samples`` on each side and padded runs
    that overlap or touch merge. Padding never reaches an at-berth sample of
    the state variable, when it exists."""
    if not (dataset.has_data("shaft_rpm") or dataset.has_data("sog")):
        raise SegmentationError("neither shaft_rpm nor sog present")

    n = len(dataset)
    in_trip = np.zeros(n, dtype=bool)
    for name, threshold in (("shaft_rpm", rpm_threshold), ("sog", sog_threshold)):
        if dataset.has_data(name):
            in_trip |= dataset.valid(name) > threshold

    berth = np.zeros(0, dtype=np.int64)
    if dataset.has_data("state"):
        berth = np.flatnonzero(dataset.text_column("state") == AT_BERTH)
    # padding stops short of the last berth sample before a run and the
    # first one after it; -1 and n stand for none
    bounds = np.concatenate(([-1], berth, [n]))
    starts, ends = runs(in_trip)
    starts = np.maximum(starts - pad_samples, bounds[np.searchsorted(bounds, starts) - 1] + 1)
    ends = np.minimum(ends + pad_samples, bounds[np.searchsorted(bounds, ends, side="right")] - 1)
    return _assign_trips(dataset, *merge_spans(starts, ends, gap=1))


def segment_by_ports(dataset: VoyageDataset) -> VoyageDataset:
    """Noon-report style grouping: each maximal run of one ``port`` label is
    a trip; samples with no port join the preceding run."""
    if not dataset.has_data("port"):
        raise SegmentationError("port variable 'port' absent")
    ports = dataset.text_column("port")
    present = np.flatnonzero(np.not_equal(ports, None))
    labels = ports[present]
    starts = present[np.append(True, labels[1:] != labels[:-1])]
    ends = np.append(starts[1:] - 1, len(ports) - 1)
    return _assign_trips(dataset, starts, ends)

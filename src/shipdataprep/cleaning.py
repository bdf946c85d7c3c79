"""Final-stage cleaning: contextual outlier rules (invalid range, repeated
values, drop-outs, spikes), quasi-steady filtering of the control variables,
and a PCA reconstruction-error detector for correlation-defying outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hindcast import SteadyFilterParams, steady_state_filter
from .model import ProcessingReport, QualityFlag, VoyageDataset, add_flags, stage_entry
from .timeline import runs


class CleaningError(ValueError):
    pass


DEAD_VALUE = 0.0  # what a dropped-out sensor reads
MIN_EXPLAINED = 0.95  # variance share the automatic PCA component count explains


def contextual_filter(
    dataset: VoyageDataset,
    measured: VoyageDataset,
    repeat_run: int,
    dropout_max: int,
    spike_scales: float,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag contextual outliers per measured variable, on ``dataset``.

    The rules read ``measured``, the same rows as logged and regularized,
    before any stage derived or corrected a column: its numeric variables
    and its trip groups. A sensor fault is reported once, under the sensor.
    Columns the pipeline computed (``gps_heading``, ``leg_distance``, the
    wind and wave components, ``stw_estimate``, ``trim``, ``mean_draft``,
    ``displacement``, ``wsa``, ``derived_*``, ``res_*``, ``fixed_*``) can
    only inherit a fault from their inputs, and the ``hc_*`` columns are
    interpolated model fields, in which a constant value is no fault.
    Columns corrected in place (drafts, AIS ``sog``) are checked as logged;
    their ``raw_*`` copies hold only the rows a correction replaced.

    invalid_range: value outside the schema's [valid_min, valid_max]; the
    other rules read ``measured.valid``, where such a value is missing.
    repeated_value: a run of >= ``repeat_run`` identical values in a variable
    that varies elsewhere (it holds two distinct values outside the run).
    dropout: < ``dropout_max`` consecutive dead values (``DEAD_VALUE``)
    squeezed between live neighbours. spike: both steps around a sample
    exceed ``spike_scales`` robust scales (MAD-based) of the variable's
    differences, with opposite signs. The last three rules run per trip
    group (the whole series when no trips are assigned), on each column laid
    out as its trip groups end to end, a NaN after each. A repeated-value or
    dropout run is one check row (first and last stamp, sample count); the
    rows come by variable, then trip, then rule.
    """
    if not np.array_equal(dataset.timestamps, measured.timestamps):
        raise CleaningError("measured columns must have the dataset's timestamps")
    entry = stage_entry(report, "clean:contextual")
    marks: dict[QualityFlag, np.ndarray] = {}
    groups = measured.trip_groups()
    # position p of a laid-out column holds row layout[p], or NaN where that is -1
    layout = np.concatenate([np.append(g, -1) for g in groups])
    group = np.repeat(np.arange(len(groups)), [len(g) + 1 for g in groups])
    stamps = np.append(dataset.timestamps, 0)[layout]

    def add(flag: QualityFlag, at: np.ndarray, first: np.ndarray, variable: str,
            observed: object, **run) -> None:
        if len(at):  # a flag no row gets stays out of the counts
            marks.setdefault(flag, np.zeros(len(dataset), dtype=bool))[at] = True
        entry.check_rows(flag.value, first, variable, observed=observed, **run)

    numeric = [s for s in measured.schema if s.kind != "text"]
    for spec in numeric:
        # range rule applies everywhere, to the logged column; pattern rules run per trip group
        col_all = measured.column(spec.name)
        bad = np.flatnonzero(spec.outside(col_all))
        add(QualityFlag.INVALID_RANGE, bad, dataset.timestamps[bad], spec.name, col_all[bad])

        col = np.append(measured.valid(spec.name), np.nan)[layout]
        spikes = _spikes(col, spike_scales, group)
        found = (_repeated(col, group, repeat_run), _dropouts(col, dropout_max),
                 (spikes, np.ones_like(spikes)))
        starts, lengths = map(np.concatenate, zip(*found))
        rule = np.repeat(np.arange(len(found)), [len(f[0]) for f in found])
        order = np.argsort(group[starts] * len(found) + rule, kind="stable")
        # one evidence call per stretch of one rule
        for block in np.split(order, np.flatnonzero(np.diff(rule[order])) + 1):
            if not len(block):
                continue
            flag, s, n = _RULES[rule[block[0]]], starts[block], lengths[block]
            run = {} if flag is QualityFlag.SPIKE else {"last": stamps[s + n - 1], "samples": n}
            observed = DEAD_VALUE if flag is QualityFlag.DROPOUT else col[s]
            add(flag, layout[_spread(s, n)], stamps[s], spec.name, observed, **run)

    out = dataset
    for flag, rows in marks.items():
        out = add_flags(out, flag, rows, entry)
    flagged = np.logical_or.reduce([np.zeros(len(dataset), dtype=bool), *marks.values()])
    entry.summary["samples_flagged"] = int(flagged.sum())
    return out


_RULES = (QualityFlag.REPEATED_VALUE, QualityFlag.DROPOUT, QualityFlag.SPIKE)


def _spread(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the runs with these starts and lengths, in order."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _repeated(col: np.ndarray, group: np.ndarray, repeat_run: int) -> tuple[np.ndarray, ...]:
    """Starts and lengths of the runs of at least ``repeat_run`` identical
    values while the other values of the run's group (``group`` numbers each
    position's group) hold two distinct ones: the group holds three, or two
    and the run's value also outside the run."""
    starts = np.flatnonzero(np.append(True, col[1:] != col[:-1]))
    lengths = np.diff(np.append(starts, len(col)))
    keep = (lengths >= repeat_run) & ~np.isnan(col[starts])
    starts, lengths = starts[keep], lengths[keep]
    if len(starts):
        bounds = np.flatnonzero(np.append(True, group[1:] != group[:-1]))
        lo, hi = (f.reduceat(col, bounds)[group] for f in (np.fmin, np.fmax))

        def count(mask: np.ndarray) -> np.ndarray:  # per run, in its group
            return np.bincount(group[mask], minlength=len(bounds))[group[starts]]

        held = np.where(col[starts] == lo[starts], count(col == lo), count(col == hi))
        keep = (lo[starts] < hi[starts]) & (held > lengths)
        keep |= count((col > lo) & (col < hi)) > 0
        starts, lengths = starts[keep], lengths[keep]
    return starts, lengths


def _dropouts(col: np.ndarray, dropout_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the runs of fewer than ``dropout_max`` dead
    values with a live value on each side."""
    dead = col == DEAD_VALUE
    starts, ends = runs(dead)
    lengths = ends - starts + 1
    live = np.concatenate(([False], ~dead & ~np.isnan(col), [False]))
    short = (lengths < dropout_max) & live[starts] & live[ends + 2]
    return starts[short], lengths[short]


def _spikes(col: np.ndarray, spike_scales: float, group: np.ndarray) -> np.ndarray:
    """Positions whose steps in and out both exceed ``spike_scales`` robust
    scales of the steps in their group (``group`` numbers each position's
    group), with opposite signs."""
    with np.errstate(over="ignore"):  # a huge step: +-inf
        diffs = np.diff(col)
    at = np.flatnonzero(~np.isnan(diffs))
    dd, g = diffs[at], group[at]
    size = int(group.max(initial=-1)) + 1
    mad = _medians(np.abs(dd - _medians(dd, g, size)[g]), g, size)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: the group has no spike
        scale = 1.4826 * mad
        limit = np.where(scale > 0, spike_scales * scale, np.inf)[group[1:-1]]
    up, down = diffs[:-1], diffs[1:]
    # both steps exceed limit > 0, so neither is zero and their signs decide
    spike = (np.abs(up) > limit) & (np.abs(down) > limit) & ((up > 0) != (down > 0))
    return np.flatnonzero(spike) + 1


def _medians(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """``np.median`` of the values of each of ``size`` groups (``group``
    numbers each value's group), from one sort; NaN for a group with a NaN
    value or fewer than 3 values."""
    v = values[np.lexsort((values, group))]
    count = np.bincount(group, minlength=size)
    mid = np.cumsum(count) - count + count // 2
    out = np.full(size, np.nan)
    odd, even = (count >= 3) & (count % 2 == 1), (count >= 3) & (count % 2 == 0)
    out[odd] = v[mid[odd]]
    out[even] = (v[mid[even] - 1] + v[mid[even]]) / 2.0  # np.median's mean of two
    out[np.bincount(group, weights=np.isnan(values), minlength=size) > 0] = np.nan
    return out


def linear_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` of one or more values by numpy's 'linear'
    steps, without its ``numpy.ma`` import: a partition at numpy's indices (a
    sort can flip a zero's sign), the last value if NaN, else numpy's lerp."""
    n = len(values)
    x = (n - 1) * q
    inside = 0 <= x < n - 1
    lo = math.floor(x) if inside else 0 if x < 0 else -1  # at or past the top, or NaN: -1
    hi = lo + 1 if inside else lo
    v = np.array(values, dtype=float)
    v.partition(sorted({0, -1, lo, hi}))
    if np.isnan(v[-1]):
        return float(v[-1])
    a, b, t = v[lo], v[hi], x - lo
    d = b - a
    return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def quasi_steady_filter(
    dataset: VoyageDataset,
    rpm_params: SteadyFilterParams,
    sog_params: SteadyFilterParams,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag samples recorded during accelerations/decelerations: the steady
    filter on shaft rpm, plus a relaxed pass on speed-over-ground that
    catches dead-signal drops and recoveries. Falls back to sog alone when
    rpm is not recorded."""
    entry = stage_entry(report, "clean:quasi_steady")
    ts = dataset.timestamps.astype(float)
    unsteady = np.zeros(len(dataset), dtype=bool)

    passes = []
    if dataset.has_data("shaft_rpm"):
        passes.append(("shaft_rpm", rpm_params))
    if dataset.has_data("sog"):
        passes.append(("sog", sog_params))
    if not passes:
        entry.notes.append("neither shaft_rpm nor sog present; filter skipped")
        return dataset

    for name, params in passes:
        col = dataset.valid(name)
        for idx in dataset.trip_groups():
            res = steady_state_filter(ts[idx], col[idx], params)
            if res.warning:
                entry.notes.append(f"{name}: {res.warning}")
            unsteady[idx[res.unsteady]] = True

    out = add_flags(dataset, QualityFlag.UNSTEADY, unsteady, entry)
    entry.summary["variables"] = [name for name, _ in passes]
    entry.check_rows("unsteady", dataset.timestamps[unsteady])
    return out


# -- PCA reconstruction-error detector ------------------------------------------

# flags that keep a sample out of the training pool; corrections are fine, and
# an out-of-range feature value is missing to the fit already (VoyageDataset.valid)
_TRAINING_EXCLUDED = frozenset(QualityFlag) - {
    QualityFlag.DRAFT_CORRECTED, QualityFlag.INVALID_RANGE}


@dataclass(frozen=True)
class PcaDetector:
    """Standardising PCA projector with a frozen reconstruction-error threshold."""

    features: tuple[str, ...]
    k: int
    mean: np.ndarray
    scale: np.ndarray
    axes: np.ndarray  # (k, n_features), rows orthonormal
    threshold: float

    def __post_init__(self) -> None:
        if self.k >= len(self.features):
            raise CleaningError("component count k must be below the feature count")
        gram = self.axes @ self.axes.T
        if not np.allclose(gram, np.eye(self.k), atol=1e-8):
            raise CleaningError("principal axes must be orthonormal")

    def errors(self, rows: np.ndarray) -> np.ndarray:
        """Squared reconstruction error of standardized rows."""
        return _errors((rows - self.mean) / self.scale, self.axes)


def _errors(z: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Squared reconstruction error of rows ``z`` already standardized."""
    recon = (z @ axes.T) @ axes
    with np.errstate(over="ignore"):  # a huge finite value: an inf error
        return ((z - recon) ** 2).sum(axis=1)


def _complete_rows(
    dataset: VoyageDataset, features: tuple[str, ...], exclude_flagged: bool
) -> tuple[np.ndarray, np.ndarray]:
    cols = np.column_stack([dataset.valid(f) for f in features])
    ok = ~np.isnan(cols).any(axis=1)
    if exclude_flagged:
        ok &= ~dataset.flagged(*_TRAINING_EXCLUDED)
    return cols, ok


def pca_fit(
    dataset: VoyageDataset,
    features: list[str] | tuple[str, ...],
    k: int,
    quantile: float,
) -> PcaDetector:
    """Fit the detector on complete, previously-unflagged samples.

    Features are standardized to zero mean and unit scale; the axes are the
    top-k eigenvectors of the sample correlation matrix. When ``k`` is 0,
    the smallest k explaining at least ``MIN_EXPLAINED`` of the
    variance (but below the feature count) is chosen. The threshold freezes
    the ``quantile`` of the training reconstruction errors.
    """
    features = tuple(features)
    if len(features) < 2:
        raise CleaningError("need at least two features")
    cols, ok = _complete_rows(dataset, features, exclude_flagged=True)
    rows = cols[ok]
    n = len(rows)

    mean = rows.mean(axis=0) if n else np.zeros(len(features))
    std = rows.std(axis=0, ddof=1) if n > 1 else np.zeros(len(features))
    for f, s in zip(features, std):
        if s == 0.0:
            raise CleaningError(f"feature {f!r} is constant; cannot standardize")

    z = (rows - mean) / std
    corr = (z.T @ z) / (n - 1)
    evals, evecs = np.linalg.eigh(corr)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]

    if k == 0:
        total = float(evals.sum())
        cum = np.cumsum(evals) / total
        k = int(np.searchsorted(cum, MIN_EXPLAINED) + 1)
        k = min(k, len(features) - 1)
    if not 0 < k < len(features):
        raise CleaningError(f"component count k={k} must be in [1, {len(features) - 1}]")
    if n < 10 * k:
        raise CleaningError(
            f"need at least {10 * k} complete samples to fit k={k}, got {n}"
        )

    axes = evecs[:, :k].T.copy()
    for row in axes:  # deterministic sign: largest magnitude entry positive
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    threshold = linear_quantile(_errors(z, axes), quantile)
    return PcaDetector(features, k, mean, std, axes, threshold)


def pca_score(
    detector: PcaDetector,
    dataset: VoyageDataset,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag samples whose reconstruction error exceeds the detector's
    threshold; samples incomplete over the detector features are skipped
    and counted."""
    entry = stage_entry(report, "clean:pca")
    cols, ok = _complete_rows(dataset, detector.features, exclude_flagged=False)
    outlier = np.zeros(len(dataset), dtype=bool)
    skipped = int((~ok).sum())
    if ok.any():
        errors = detector.errors(cols[ok])
        beyond = errors > detector.threshold
        outlier[np.flatnonzero(ok)[beyond]] = True
        entry.check_rows(
            "correlation_outlier", dataset.timestamps[outlier],
            variable=",".join(detector.features), expected=detector.threshold,
            observed=errors[beyond],
        )
    out = add_flags(dataset, QualityFlag.CORRELATION_OUTLIER, outlier, entry)
    entry.summary["scored"] = int(ok.sum())
    entry.summary["skipped_incomplete"] = skipped
    entry.summary["threshold"] = detector.threshold
    entry.summary["k"] = detector.k
    return out

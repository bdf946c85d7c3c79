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
    repeat_run: int = 20,
    dropout_max: int = 3,
    spike_scales: float = 6.0,
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

    invalid_range: value outside the schema's [valid_min, valid_max].
    repeated_value: a run of >= ``repeat_run`` identical values in a variable
    that varies elsewhere (it holds two distinct values outside the run).
    dropout: < ``dropout_max`` consecutive dead values (``DEAD_VALUE``)
    squeezed between live neighbours. spike: both steps around a sample
    exceed ``spike_scales`` robust scales (MAD-based) of the variable's
    differences, with opposite signs. The last three rules run per trip
    group (the whole series when no trips are assigned).
    """
    if not np.array_equal(dataset.timestamps, measured.timestamps):
        raise CleaningError("measured columns must have the dataset's timestamps")
    entry = stage_entry(report, "clean:contextual")
    marks: dict[QualityFlag, np.ndarray] = {}
    groups = measured.trip_groups()

    def add(flag: QualityFlag, rows: np.ndarray, variable: str, observed: object) -> None:
        if len(rows):  # a flag no row gets stays out of the counts
            marks.setdefault(flag, np.zeros(len(dataset), dtype=bool))[rows] = True
        entry.check_rows(flag.value, dataset.timestamps[rows], variable, observed=observed)

    numeric = [s for s in measured.schema if s.kind != "text"]
    for spec in numeric:
        col_all = measured.column(spec.name)
        # range rule applies everywhere; pattern rules run per trip group
        if spec.valid_min is not None or spec.valid_max is not None:
            lo = -math.inf if spec.valid_min is None else spec.valid_min
            hi = math.inf if spec.valid_max is None else spec.valid_max
            bad = np.flatnonzero((col_all < lo) | (col_all > hi))
            add(QualityFlag.INVALID_RANGE, bad, spec.name, col_all[bad])

        for idx in groups:
            col = col_all[idx]
            if (~np.isnan(col)).sum() < 3:
                continue
            rows, observed = _repeated(col, repeat_run)
            add(QualityFlag.REPEATED_VALUE, idx[rows], spec.name, observed)
            rows = _dropouts(col, dropout_max)
            add(QualityFlag.DROPOUT, idx[rows], spec.name, DEAD_VALUE)
            rows = _spikes(col, spike_scales)
            add(QualityFlag.SPIKE, idx[rows], spec.name, col[rows])

    out = dataset
    for flag, rows in marks.items():
        out = add_flags(out, flag, rows, entry)
    flagged = np.logical_or.reduce([np.zeros(len(dataset), dtype=bool), *marks.values()])
    entry.summary["samples_flagged"] = int(flagged.sum())
    return out


def _repeated(col: np.ndarray, repeat_run: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows in runs of at least ``repeat_run`` identical values while the
    values outside the run hold two distinct ones, and the run's value at
    each row."""
    starts = np.flatnonzero(np.append(True, col[1:] != col[:-1]))
    lengths = np.diff(np.append(starts, len(col)))
    after = len(col) - starts - lengths  # values after each run

    def outside(f):  # f of the values before each run and after it; NaN if none
        return f(np.append(np.nan, f.accumulate(col))[starts],
                 np.append(np.nan, f.accumulate(col[::-1]))[after])

    keep = (lengths >= repeat_run) & ~np.isnan(col[starts])
    keep &= outside(np.fmin) < outside(np.fmax)
    rows = np.flatnonzero(np.repeat(keep, lengths))
    return rows, np.repeat(col[starts], lengths)[rows]


def _dropouts(col: np.ndarray, dropout_max: int) -> np.ndarray:
    """Rows in runs of fewer than ``dropout_max`` dead values with a live
    value on each side."""
    dead = col == DEAD_VALUE
    starts, ends = runs(dead)
    live = np.concatenate(([False], ~dead & ~np.isnan(col), [False]))
    short = (ends - starts + 1 < dropout_max) & live[starts] & live[ends + 2]
    return np.flatnonzero(dead)[np.repeat(short, ends - starts + 1)]


def _spikes(col: np.ndarray, spike_scales: float) -> np.ndarray:
    """Rows whose steps in and out both exceed ``spike_scales`` robust
    scales of the column's steps, with opposite signs."""
    diffs = np.diff(col)
    dd = diffs[~np.isnan(diffs)]
    if len(dd) < 3:
        return np.zeros(0, dtype=np.int64)
    mad = float(np.median(np.abs(dd - np.median(dd))))
    scale = 1.4826 * mad
    if scale <= 0:
        return np.zeros(0, dtype=np.int64)
    limit = spike_scales * scale
    up, down = diffs[:-1], diffs[1:]
    # both steps exceed limit > 0, so neither is zero and their signs decide
    spike = (np.abs(up) > limit) & (np.abs(down) > limit) & ((up > 0) != (down > 0))
    return np.flatnonzero(spike) + 1


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
        col = dataset.column(name)
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

# flags that keep a sample out of the training pool; corrections are fine
_TRAINING_EXCLUDED = frozenset(QualityFlag) - {QualityFlag.DRAFT_CORRECTED}


@dataclass(frozen=True)
class PcaDetector:
    """Standardising PCA projector with a frozen reconstruction-error
    threshold taken at a training-error quantile."""

    features: tuple[str, ...]
    k: int
    mean: np.ndarray
    scale: np.ndarray
    axes: np.ndarray  # (k, n_features), rows orthonormal
    threshold: float
    quantile: float

    def __post_init__(self) -> None:
        if self.k >= len(self.features):
            raise CleaningError("component count k must be below the feature count")
        gram = self.axes @ self.axes.T
        if not np.allclose(gram, np.eye(self.k), atol=1e-8):
            raise CleaningError("principal axes must be orthonormal")

    def errors(self, rows: np.ndarray) -> np.ndarray:
        """Squared reconstruction error of standardized rows."""
        z = (rows - self.mean) / self.scale
        recon = (z @ self.axes.T) @ self.axes
        return ((z - recon) ** 2).sum(axis=1)


def _complete_rows(
    dataset: VoyageDataset, features: tuple[str, ...], exclude_flagged: bool
) -> tuple[np.ndarray, np.ndarray]:
    cols = np.column_stack([dataset.column(f) for f in features])
    ok = ~np.isnan(cols).any(axis=1)
    if exclude_flagged:
        ok &= ~dataset.flagged(*_TRAINING_EXCLUDED)
    return cols, ok


def pca_fit(
    dataset: VoyageDataset,
    features: list[str] | tuple[str, ...],
    k: int | None = None,
    quantile: float = 0.995,
) -> PcaDetector:
    """Fit the detector on complete, previously-unflagged samples.

    Features are standardized to zero mean and unit scale; the axes are the
    top-k eigenvectors of the sample correlation matrix. When ``k`` is not
    given, the smallest k explaining at least ``MIN_EXPLAINED`` of the
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

    if k is None:
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
    detector = PcaDetector(
        features, k, mean, std, axes, threshold=0.0, quantile=quantile
    )
    train_errors = detector.errors(rows)
    threshold = float(np.quantile(train_errors, quantile))
    return PcaDetector(features, k, mean, std, axes, threshold, quantile)


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

"""Final-stage cleaning: contextual outlier rules (invalid range, repeated
values, drop-outs, spikes), quasi-steady filtering of the control variables,
and a PCA reconstruction-error detector for correlation-defying outliers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hindcast import SteadyFilterParams, steady_state_filter
from .model import ProcessingReport, QualityFlag, VoyageDataset, add_flags


class CleaningError(ValueError):
    pass


def contextual_filter(
    dataset: VoyageDataset,
    repeat_run: int = 20,
    dropout_max: int = 3,
    spike_scales: float = 6.0,
    dead_values: dict[str, float] | None = None,
    in_trip_only: bool = True,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag contextual outliers per numeric variable.

    invalid_range: value outside the schema's [valid_min, valid_max].
    repeated_value: a run of >= ``repeat_run`` identical values in a variable
    that actually varies elsewhere. dropout: < ``dropout_max`` consecutive
    dead values (0 by default) squeezed between live neighbours. spike: both
    steps around a sample exceed ``spike_scales`` robust scales (MAD-based)
    of the variable's differences, with opposite signs.
    """
    entry = report.stage("clean:contextual") if report is not None else None
    dead_values = dead_values or {}
    marks: dict[QualityFlag, np.ndarray] = defaultdict(lambda: np.zeros(len(dataset), dtype=bool))
    groups = dataset.trip_groups() if in_trip_only else [np.arange(len(dataset))]
    stamps = dataset.timestamps.tolist()

    def add(i: int, flag: QualityFlag, variable: str, observed) -> None:
        marks[flag][i] = True
        if entry is not None:
            entry.check(flag.value, timestamp=stamps[i], variable=variable, observed=observed)

    numeric = [s for s in dataset.schema if s.kind != "text"]
    for spec in numeric:
        col_all = dataset.column(spec.name)
        # range rule applies everywhere; pattern rules run per trip group
        if spec.valid_min is not None or spec.valid_max is not None:
            lo = -math.inf if spec.valid_min is None else spec.valid_min
            hi = math.inf if spec.valid_max is None else spec.valid_max
            bad = (col_all < lo) | (col_all > hi)
            for i in np.nonzero(bad)[0]:
                add(int(i), QualityFlag.INVALID_RANGE, spec.name, float(col_all[i]))

        dead = dead_values.get(spec.name, 0.0)
        for idx in groups:
            col = col_all[idx]
            n = len(col)
            if (~np.isnan(col)).sum() < 3:
                continue

            # repeated values: identical run in an otherwise varying signal
            k = 0
            while k < n:
                if math.isnan(col[k]):
                    k += 1
                    continue
                j = k
                while j + 1 < n and col[j + 1] == col[k]:
                    j += 1
                run_len = j - k + 1
                if run_len >= repeat_run:
                    outside = np.concatenate([col[:k], col[j + 1:]])
                    outside = outside[~np.isnan(outside)]
                    if len(outside) >= 2 and float(np.var(outside)) > 0.0:
                        for m in range(k, j + 1):
                            add(int(idx[m]), QualityFlag.REPEATED_VALUE,
                                spec.name, float(col[k]))
                k = j + 1

            # drop-outs: short dead runs between live neighbours
            k = 0
            while k < n:
                if col[k] == dead:
                    j = k
                    while j + 1 < n and col[j + 1] == dead:
                        j += 1
                    run_len = j - k + 1
                    before_ok = (
                        k > 0 and not math.isnan(col[k - 1]) and col[k - 1] != dead
                    )
                    after_ok = (
                        j + 1 < n and not math.isnan(col[j + 1]) and col[j + 1] != dead
                    )
                    if run_len < dropout_max and before_ok and after_ok:
                        for m in range(k, j + 1):
                            add(int(idx[m]), QualityFlag.DROPOUT, spec.name, dead)
                    k = j + 1
                else:
                    k += 1

            # spikes: opposite-signed jumps both beyond the robust scale
            diffs = np.diff(col)
            dd = diffs[~np.isnan(diffs)]
            if len(dd) < 3:
                continue
            mad = float(np.median(np.abs(dd - np.median(dd))))
            scale = 1.4826 * mad
            if scale <= 0:
                continue
            limit = spike_scales * scale
            for m in range(1, n - 1):
                up, down = diffs[m - 1], diffs[m]
                if math.isnan(up) or math.isnan(down):
                    continue
                if abs(up) > limit and abs(down) > limit and up * down < 0:
                    add(int(idx[m]), QualityFlag.SPIKE, spec.name, float(col[m]))

    out = dataset
    for flag, rows in marks.items():
        out = add_flags(out, flag, rows, entry)
    if entry is not None:
        flagged = np.logical_or.reduce([np.zeros(len(dataset), dtype=bool), *marks.values()])
        entry.summary["samples_flagged"] = int(flagged.sum())
    return out


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
    entry = report.stage("clean:quasi_steady") if report is not None else None
    ts = dataset.timestamps.astype(float)
    unsteady = np.zeros(len(dataset), dtype=bool)

    passes = []
    if dataset.declares("shaft_rpm") and dataset.has_data("shaft_rpm"):
        passes.append(("shaft_rpm", rpm_params))
    if dataset.declares("sog") and dataset.has_data("sog"):
        passes.append(("sog", sog_params))
    if not passes:
        if entry is not None:
            entry.notes.append("neither shaft_rpm nor sog present; filter skipped")
        return dataset

    for name, params in passes:
        col = dataset.column(name)
        for idx in dataset.trip_groups():
            res = steady_state_filter(ts[idx], col[idx], params)
            if res.warning and entry is not None:
                entry.notes.append(f"{name}: {res.warning}")
            unsteady[idx[res.unsteady]] = True

    out = add_flags(dataset, QualityFlag.UNSTEADY, unsteady, entry)
    if entry is not None:
        entry.summary["variables"] = [name for name, _ in passes]
        for t in dataset.timestamps[unsteady].tolist():
            entry.check("unsteady", timestamp=t, variable=None)
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

    def save(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w") as fh:
            fh.write(f"#features {','.join(self.features)}\n")
            fh.write(f"#k {self.k}\n")
            fh.write(f"#quantile {float(self.quantile)!r}\n")
            fh.write(f"#threshold {float(self.threshold)!r}\n")
            fh.write("#mean " + ",".join(repr(float(v)) for v in self.mean) + "\n")
            fh.write("#scale " + ",".join(repr(float(v)) for v in self.scale) + "\n")
            for row in self.axes:
                fh.write("#axis " + ",".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "PcaDetector":
        path = Path(path)
        features: tuple[str, ...] = ()
        k = 0
        quantile = threshold = 0.0
        mean = scale = None
        axes = []
        with path.open() as fh:
            for line in fh:
                key, _, rest = line.rstrip("\n").partition(" ")
                if key == "#features":
                    features = tuple(rest.split(","))
                elif key == "#k":
                    k = int(rest)
                elif key == "#quantile":
                    quantile = float(rest)
                elif key == "#threshold":
                    threshold = float(rest)
                elif key == "#mean":
                    mean = np.array([float(v) for v in rest.split(",")])
                elif key == "#scale":
                    scale = np.array([float(v) for v in rest.split(",")])
                elif key == "#axis":
                    axes.append([float(v) for v in rest.split(",")])
        if mean is None or scale is None or not axes:
            raise CleaningError(f"{path}: incomplete detector file")
        return cls(features, k, mean, scale, np.array(axes), threshold, quantile)


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
    min_explained: float = 0.95,
) -> PcaDetector:
    """Fit the detector on complete, previously-unflagged samples.

    Features are standardized to zero mean and unit scale; the axes are the
    top-k eigenvectors of the sample correlation matrix. When ``k`` is not
    given, the smallest k explaining at least ``min_explained`` of the
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
        k = int(np.searchsorted(cum, min_explained) + 1)
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
    entry = report.stage("clean:pca") if report is not None else None
    cols, ok = _complete_rows(dataset, detector.features, exclude_flagged=False)
    outlier = np.zeros(len(dataset), dtype=bool)
    skipped = int((~ok).sum())
    if ok.any():
        errors = detector.errors(cols[ok])
        rows = np.flatnonzero(ok)
        outlier[rows[errors > detector.threshold]] = True
        if entry is not None:
            stamps = dataset.timestamps[rows].tolist()
            for local in np.flatnonzero(errors > detector.threshold).tolist():
                entry.check(
                    "correlation_outlier",
                    timestamp=stamps[local],
                    variable=",".join(detector.features),
                    expected=detector.threshold,
                    observed=float(errors[local]),
                )
    out = add_flags(dataset, QualityFlag.CORRELATION_OUTLIER, outlier, entry)
    if entry is not None:
        entry.summary["scored"] = int(ok.sum())
        entry.summary["skipped_incomplete"] = skipped
        entry.summary["threshold"] = detector.threshold
        entry.summary["k"] = detector.k
    return out

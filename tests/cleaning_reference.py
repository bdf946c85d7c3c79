"""Reference for the contextual rules: the loop that ``cleaning.contextual_filter``
replaced, kept verbatim except that the spike rule compares the signs of the
two steps (their product underflows to 0 for tiny steps), that the rules
read the columns and trips of the measured dataset and flag the dataset
given first, and that the pattern rules read a value outside the valid
range as missing (only the range rule reads it as logged). It walks each
column per trip group in ``while`` loops, one run at a time.
``tests/test_cleaning_reference.py`` requires the whole-array rules to give
the same flags, the same check rows in the same order, and the same flag
counts and summary.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from shipdataprep.model import ProcessingReport, QualityFlag, VoyageDataset, add_flags


def contextual_filter(
    dataset: VoyageDataset,
    measured: VoyageDataset,
    repeat_run: int,
    dropout_max: int,
    spike_scales: float,
    dead_values: dict[str, float] | None = None,
    in_trip_only: bool = True,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag contextual outliers per numeric variable of ``measured`` (the
    logged columns on ``dataset``'s rows), on ``dataset``.

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
    assert np.array_equal(dataset.timestamps, measured.timestamps)
    groups = measured.trip_groups() if in_trip_only else [np.arange(len(dataset))]
    stamps = dataset.timestamps.tolist()

    def add(i: int, flag: QualityFlag, variable: str, observed) -> None:
        marks[flag][i] = True
        if entry is not None:
            entry.check(flag.value, timestamp=stamps[i], variable=variable, observed=observed)

    numeric = [s for s in measured.schema if s.kind != "text"]
    for spec in numeric:
        logged = measured.column(spec.name)
        # range rule applies everywhere; pattern rules run per trip group, on
        # the column with every out-of-range value missing
        lo = -math.inf if spec.valid_min is None else spec.valid_min
        hi = math.inf if spec.valid_max is None else spec.valid_max
        bad = (logged < lo) | (logged > hi)
        for i in np.nonzero(bad)[0]:
            add(int(i), QualityFlag.INVALID_RANGE, spec.name, float(logged[i]))
        col_all = np.where(bad, np.nan, logged)

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
                    if len(outside) and outside.min() < outside.max():
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
                if abs(up) > limit and abs(down) > limit and (up > 0) != (down > 0):
                    add(int(idx[m]), QualityFlag.SPIKE, spec.name, float(col[m]))

    out = dataset
    for flag, rows in marks.items():
        out = add_flags(out, flag, rows, entry)
    if entry is not None:
        flagged = np.logical_or.reduce([np.zeros(len(dataset), dtype=bool), *marks.values()])
        entry.summary["samples_flagged"] = int(flagged.sum())
    return out

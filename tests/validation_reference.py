"""Reference for the speed-power check: the row loop that
``validation.check_speed_power`` replaced, kept verbatim. It looks up the
calm-water curve one row at a time through the scalar
``CalmWaterCurve.power_at``. ``tests/test_validation.py`` requires the
array check to give the same flags, the same check rows in the same order
and a bit-equal summary.
"""

from __future__ import annotations

import math

import numpy as np

from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VoyageDataset,
    add_flags,
    stage_entry,
)
from shipdataprep.validation import _point_in_polygon


def check_speed_power(
    dataset: VoyageDataset,
    particulars: ShipParticulars,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    entry = stage_entry(report, "check:speed_power")
    curve = particulars.curve()
    if curve is None or not dataset.has_data("stw") or not dataset.has_data("shaft_power"):
        entry.notes.append("curve, stw or shaft_power unavailable; check skipped")
        return dataset
    stw = dataset.column("stw")
    pwr = dataset.column("shaft_power")
    rpm = dataset.coalesce("shaft_rpm")
    in_trip = dataset.in_trip_or_all()

    deviations = []
    skipped = 0
    stamps = dataset.timestamps.tolist()
    outside = np.zeros(len(dataset), dtype=bool)
    for i in range(len(dataset)):
        if not in_trip[i] or math.isnan(stw[i]) or math.isnan(pwr[i]):
            continue
        ref = curve.power_at(stw[i])
        if ref is None:
            skipped += 1
            continue
        if ref > 0:
            deviations.append((pwr[i] - ref) / ref)
        if particulars.envelope is not None and not math.isnan(rpm[i]):
            if not _point_in_polygon(rpm[i], pwr[i], particulars.envelope):
                outside[i] = True
                entry.check(
                    "outside_envelope",
                    timestamp=stamps[i],
                    variable="shaft_power",
                    expected=None,
                    observed=(float(rpm[i]), float(pwr[i])),
                )
    out = add_flags(dataset, QualityFlag.INVALID_RANGE, outside, entry)
    entry.summary["curve"] = curve.label
    entry.summary["compared"] = len(deviations)
    entry.summary["skipped_outside_curve"] = skipped
    entry.summary["flagged_outside_envelope"] = int(outside.sum())
    if deviations:
        dev = np.array(sorted(deviations))  # sorted: order-invariant stats
        entry.summary["bias_median"] = float(np.median(dev))
        entry.summary["deviation_mean"] = float(dev.mean())
        entry.summary["deviation_std"] = float(dev.std())
    return out

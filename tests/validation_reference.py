"""Reference for the validation checks: the row loops that
``validation.check_power_identity``, ``check_speed_power`` and
``detect_angular_fault`` replaced, and the scalar ray casting of
``validation._inside_polygon``, kept verbatim apart from one later rule
that both versions follow: a derived power-identity value that overflows
to inf is flagged invalid_range, left missing and named in an 'overflow'
check row. ``check_speed_power`` looks the calm-water curve up one row at
a time through the scalar ``CalmWaterCurve.power_at``. ``tests/test_validation.py`` and
``tests/test_validation_reference.py`` require the array checks to give the
same flags, the same derived columns, the same check rows in the same order
and a bit-equal summary.
"""

from __future__ import annotations

import math

import numpy as np

from features_reference import angular_difference
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
    stage_entry,
)
from shipdataprep.validation import (
    DIFFERENCE_THRESHOLD,
    TWO_PI,
    WRAP_BAND,
    hindcast_relative_wind_direction,
    shaft_power,
)


def check_power_identity(
    dataset: VoyageDataset,
    rel_tolerance: float = 0.02,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Validate P = 2*pi*n*tau wherever all three of shaft rpm, torque and
    power are recorded; derive the third variable wherever exactly two are.

    Shaft speed is stored in rpm, so the identity uses rpm/60. Violations
    beyond ``rel_tolerance`` (relative to recorded power) flag the power
    sample as invalid; derivations land in ``derived_*`` variables.
    """
    entry = stage_entry(report, "check:power_identity")
    n = len(dataset)
    rpm = dataset.coalesce("shaft_rpm")
    tau = dataset.coalesce("shaft_torque")
    pwr = dataset.coalesce("shaft_power")
    rev_s = rpm / 60.0

    invalid = np.zeros(n, dtype=bool)
    derived_p, derived_n, derived_t = ([None] * n for _ in range(3))
    checked = derived = 0
    eps = 1e-9
    for i in range(n):
        have = (not math.isnan(rev_s[i]), not math.isnan(tau[i]), not math.isnan(pwr[i]))
        if all(have):
            checked += 1
            expected = shaft_power(rev_s[i], tau[i])
            resid = abs(pwr[i] - expected) / max(abs(pwr[i]), eps)
            invalid[i] = resid > rel_tolerance
        elif sum(have) == 2:
            derived += 1
            if not have[2]:
                derived_p[i] = shaft_power(rev_s[i], tau[i])
            elif not have[1]:
                derived_t[i] = pwr[i] / (TWO_PI * rev_s[i]) if rev_s[i] != 0 else None
            else:
                derived_n[i] = pwr[i] / (TWO_PI * tau[i]) * 60.0 if tau[i] != 0 else None

    entry.check_rows(
        "fail", dataset.timestamps[invalid], variable="shaft_power",
        expected=shaft_power(rev_s[invalid], tau[invalid]), observed=pwr[invalid],
    )
    out, flagged = dataset, invalid.copy()
    for name, unit, col in (
        ("derived_shaft_power", "W", derived_p),
        ("derived_shaft_rpm", "rpm", derived_n),
        ("derived_shaft_torque", "Nm", derived_t),
    ):
        # a value that overflows to inf is flagged, and left missing
        overflow = [i for i in range(n) if col[i] is not None and math.isinf(col[i])]
        entry.check_rows("overflow", dataset.timestamps[overflow], variable=name)
        for i in overflow:
            col[i] = None
            flagged[i] = True
        if any(v is not None for v in col):
            out = out.adding_variable(VariableSpec(name, unit, "linear"), col)
    out = add_flags(out, QualityFlag.INVALID_RANGE, flagged, entry)
    entry.summary.update(
        {"checked": checked, "failed": int(invalid.sum()), "derived": derived}
    )
    return out


def _point_in_polygon(x: float, y: float, polygon) -> bool:
    """Ray casting; boundary points count as inside."""
    inside = False
    n = len(polygon)
    for k in range(n):
        x1, y1 = polygon[k]
        x2, y2 = polygon[(k + 1) % n]
        if (y1 > y) != (y2 > y):
            xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
            if x < xin:
                inside = not inside
            elif x == xin:
                return True
        elif y1 == y == y2 and min(x1, x2) <= x <= max(x1, x2):
            return True
    return inside


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


def detect_angular_fault(
    dataset: VoyageDataset,
    variable: str,
    reference: np.ndarray | list | None = None,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Detect time-averaging faults on an angular variable near the 0/360
    wrap and substitute the reference value.

    A sample is flagged when the recorded angle differs from the reference
    by more than ``DIFFERENCE_THRESHOLD`` degrees while the reference sits
    within ``WRAP_BAND`` degrees of the wrap (where naive averaging breaks).
    The substitute value is stored in ``fixed_<variable>``; the recorded one
    is never modified.
    """
    entry = stage_entry(report, f"check:angular_fault:{variable}")
    if reference is None:
        if variable == "heading" and dataset.declares("gps_heading"):
            reference = dataset.column("gps_heading")
        elif variable == "rel_wind_dir":
            reference = hindcast_relative_wind_direction(dataset)
    reference = None if reference is None else np.asarray(reference, dtype=float)
    if reference is None or np.isnan(reference).all():
        entry.notes.append(
            f"no reference series available for {variable!r}; detector skipped"
        )
        return dataset
    if not dataset.has_data(variable):
        entry.notes.append(f"variable {variable!r} has no data; detector skipped")
        return dataset
    recorded = dataset.column(variable)

    faulty = np.zeros(len(dataset), dtype=bool)
    for i in range(len(dataset)):
        r, ref = recorded[i], reference[i]
        if math.isnan(r) or math.isnan(ref):
            continue
        near_wrap = ref <= WRAP_BAND or ref >= 360.0 - WRAP_BAND
        faulty[i] = near_wrap and angular_difference(r, ref) > DIFFERENCE_THRESHOLD
    out = add_flags(dataset, QualityFlag.ANGULAR_AVERAGING_FAULT, faulty, entry)
    fixed_name = f"fixed_{variable}"
    if faulty.any():
        if out.declares(fixed_name):
            out = out.with_values(fixed_name, faulty, reference[faulty])
        else:
            out = out.adding_variable(
                VariableSpec(fixed_name, "deg", "angular"),
                np.where(faulty, reference, np.nan),
            )
    entry.summary["flagged"] = int(faulty.sum())
    entry.check_rows(
        "angular_averaging_fault", dataset.timestamps[faulty], variable,
        expected=reference[faulty], observed=recorded[faulty],
    )
    return out

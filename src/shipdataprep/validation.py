"""Validation-check battery: shaft power identity, speed-power curve
accumulation, speed-through-water cross-check, longitudinal wind comparison
against hindcast, and the 0/360 angular-averaging fault detector.

The stw and wind checks are diagnostics: they write evidence into the
report but do not flag samples, since the compared quantities are known to
disagree for benign reasons.
"""

from __future__ import annotations

import math

import numpy as np

from .features import angular_difference
from .model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
    stage_entry,
)

TWO_PI = 2.0 * math.pi


def shaft_power(n_rev_s: float, torque: float) -> float:
    """Shaft power in W from shaft speed in rev/s and torque in N*m.

    The identity is exact; it is the basis of the validation check below.
    """
    return TWO_PI * n_rev_s * torque


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
    stamps = dataset.timestamps.tolist()

    invalid = np.zeros(n, dtype=bool)
    derived_p, derived_n, derived_t = ([None] * n for _ in range(3))
    checked = failed = derived = 0
    eps = 1e-9
    for i in range(n):
        have = (not math.isnan(rev_s[i]), not math.isnan(tau[i]), not math.isnan(pwr[i]))
        if all(have):
            checked += 1
            expected = shaft_power(rev_s[i], tau[i])
            resid = abs(pwr[i] - expected) / max(abs(pwr[i]), eps)
            if resid > rel_tolerance:
                failed += 1
                invalid[i] = True
                entry.check(
                    "fail",
                    timestamp=stamps[i],
                    variable="shaft_power",
                    expected=expected,
                    observed=float(pwr[i]),
                )
        elif sum(have) == 2:
            derived += 1
            if not have[2]:
                derived_p[i] = shaft_power(rev_s[i], tau[i])
            elif not have[1]:
                derived_t[i] = pwr[i] / (TWO_PI * rev_s[i]) if rev_s[i] != 0 else None
            else:
                derived_n[i] = pwr[i] / (TWO_PI * tau[i]) * 60.0 if tau[i] != 0 else None

    out = add_flags(dataset, QualityFlag.INVALID_RANGE, invalid, entry)
    for name, unit, col in (
        ("derived_shaft_power", "W", derived_p),
        ("derived_shaft_rpm", "rpm", derived_n),
        ("derived_shaft_torque", "Nm", derived_t),
    ):
        if any(v is not None for v in col):
            out = out.adding_variable(
                VariableSpec(name, unit, "linear", role="operating_point"), col
            )
    entry.summary.update(
        {"checked": checked, "failed": failed, "derived": derived}
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
    """Compare in-trip shaft power against the calm-water curve at the same
    speed-through-water; estimate any constant bias (median relative
    deviation) and flag samples falling outside the engine envelope."""
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


def check_stw(
    dataset: VoyageDataset,
    tolerance: float = 1.0,
    report: ProcessingReport | None = None,
) -> None:
    """Report-only comparison of the measured speed-through-water against
    its estimate from speed-over-ground minus the longitudinal current."""
    entry = stage_entry(report, "check:stw")
    if not (dataset.has_data("stw") and dataset.has_data("stw_estimate")):
        entry.notes.append("stw or stw_estimate absent; check skipped")
        return
    stw = dataset.column("stw")
    est = dataset.column("stw_estimate")
    resid = stw - est
    good = ~np.isnan(resid)
    entry.summary["compared"] = int(good.sum())
    if good.any():
        r = resid[good]
        entry.summary["residual_mean"] = float(r.mean())
        entry.summary["residual_median"] = float(np.median(r))
        entry.summary["residual_max_abs"] = float(np.abs(r).max())
        entry.summary["beyond_tolerance"] = int((np.abs(r) > tolerance).sum())
        stamps = dataset.timestamps.tolist()
        for i in np.nonzero(good & (np.abs(resid) > tolerance))[0]:
            entry.check(
                "suspect",
                timestamp=stamps[i],
                variable="stw",
                expected=float(est[i]),
                observed=float(stw[i]),
            )


def onboard_longitudinal_wind(dataset: VoyageDataset, use_fixed: bool = True) -> np.ndarray:
    """Longitudinal relative wind (head positive) from onboard anemometer
    measurements: speed times the cosine of the relative direction off the
    bow."""
    ref = dataset.declares("rel_wind_speed_ref")
    speed = dataset.coalesce("rel_wind_speed_ref" if ref else "rel_wind_speed")
    names = ("fixed_rel_wind_dir", "rel_wind_dir") if use_fixed else ("rel_wind_dir",)
    direction = dataset.coalesce(*names)
    return speed * np.cos(np.deg2rad(direction))


def check_longitudinal_wind(
    dataset: VoyageDataset,
    tolerance: float = 4.0,
    report: ProcessingReport | None = None,
    use_fixed: bool = True,
) -> dict:
    """Compare the ship-derived true longitudinal wind (onboard relative wind
    minus speed-over-ground) against the hindcast value, and cross-reference
    large residuals with angular-averaging-fault flags.

    Returns a small summary dict (also written to the report) so the
    pipeline can decide whether an interpolation/derivation error loop is
    warranted.
    """
    entry = stage_entry(report, "check:longitudinal_wind")
    result = {"compared": 0, "beyond_tolerance": 0, "cross_referenced": 0}
    needed = ("sog", "rel_wind_long")
    if not all(dataset.has_data(v) for v in needed) or not (
        dataset.has_data("rel_wind_speed") or dataset.has_data("rel_wind_speed_ref")
    ):
        entry.notes.append("onboard wind, sog or hindcast wind absent; check skipped")
        return result

    sog = dataset.column("sog")
    onboard_rel = onboard_longitudinal_wind(dataset, use_fixed=use_fixed)
    hc_rel = dataset.column("rel_wind_long")  # hindcast-derived, head positive
    # both sides reduced to true longitudinal wind: relative minus motion
    ship_side = onboard_rel - sog
    hc_side = hc_rel - sog
    resid = ship_side - hc_side
    good = ~np.isnan(resid)
    result["compared"] = int(good.sum())
    big = good & (np.abs(resid) > tolerance)
    result["beyond_tolerance"] = int(big.sum())
    faulted = dataset.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT)
    stamps = dataset.timestamps.tolist()
    for i in np.nonzero(big)[0]:
        if faulted[i]:
            result["cross_referenced"] += 1
        entry.check(
            "mismatch+angular_fault" if faulted[i] else "mismatch",
            timestamp=stamps[i],
            variable="rel_wind_long",
            expected=float(hc_side[i]),
            observed=float(ship_side[i]),
        )
    entry.summary.update(result)
    r = resid[good]
    if len(r):
        entry.summary["residual_mean"] = float(r.mean())
        entry.summary["residual_max_abs"] = float(np.abs(r).max())
    return result


def hindcast_relative_wind_direction(dataset: VoyageDataset) -> np.ndarray:
    """Reference relative wind direction (degrees off the bow) derived from
    the hindcast wind components, heading and speed-over-ground."""
    n = len(dataset)
    if not (dataset.declares("rel_wind_long") and dataset.declares("rel_wind_trans")):
        return np.full(n, np.nan)
    long_rel = dataset.column("rel_wind_long")
    trans_rel = dataset.column("rel_wind_trans")
    ang = np.degrees(np.arctan2(trans_rel, long_rel)) % 360.0
    ang[np.isnan(long_rel) | np.isnan(trans_rel)] = np.nan
    return ang


def detect_angular_fault(
    dataset: VoyageDataset,
    variable: str,
    reference: np.ndarray | list | None = None,
    difference_threshold: float = 90.0,
    wrap_band: float = 45.0,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Detect time-averaging faults on an angular variable near the 0/360
    wrap and substitute the reference value.

    A sample is flagged when the recorded angle differs from the reference
    by more than ``difference_threshold`` degrees while the reference sits
    within ``wrap_band`` degrees of the wrap (where naive averaging breaks).
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
        near_wrap = ref <= wrap_band or ref >= 360.0 - wrap_band
        faulty[i] = near_wrap and angular_difference(r, ref) > difference_threshold
    out = add_flags(dataset, QualityFlag.ANGULAR_AVERAGING_FAULT, faulty, entry)
    fixed_name = f"fixed_{variable}"
    if faulty.any():
        if out.declares(fixed_name):
            out = out.with_values(fixed_name, faulty, reference[faulty])
        else:
            out = out.adding_variable(
                VariableSpec(fixed_name, "deg", "angular", role="operational_environment"),
                np.where(faulty, reference, np.nan),
            )
    entry.summary["flagged"] = int(faulty.sum())
    stamps = dataset.timestamps.tolist()
    for i in np.flatnonzero(faulty).tolist():
        entry.check(
            "angular_averaging_fault",
            timestamp=stamps[i],
            variable=variable,
            expected=float(reference[i]),
            observed=float(recorded[i]),
        )
    return out

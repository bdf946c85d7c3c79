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

from . import features
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

# an angle this far (degrees) from its reference is an averaging fault when
# the reference lies within WRAP_BAND degrees of the 0/360 wrap
DIFFERENCE_THRESHOLD = 90.0
WRAP_BAND = 45.0


def median(values: np.ndarray) -> float:
    """``np.median`` of one or more values by numpy's steps, without its
    ``numpy.ma`` import: a partition at numpy's indices, the last value if
    NaN, else the mean of the middle one or two (so -0.0 gives 0.0)."""
    n = len(values)
    v = np.array(values, dtype=float)
    v.partition([n // 2 - 1, n // 2, -1] if n % 2 == 0 else [(n - 1) // 2, -1])
    return float(v[-1] if np.isnan(v[-1]) else v[(n - 1) // 2 : n // 2 + 1].mean())


def shaft_power(n_rev_s: float, torque: float) -> float:
    """Shaft power in W from shaft speed in rev/s and torque in N*m.

    The identity is exact; it is the basis of the validation check below.
    """
    return TWO_PI * n_rev_s * torque


def check_power_identity(
    dataset: VoyageDataset,
    rel_tolerance: float,
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

    have_n, have_t, have_p = ~np.isnan(rev_s), ~np.isnan(tau), ~np.isnan(pwr)
    present = have_n.astype(int) + have_t + have_p
    full, two = present == 3, present == 2
    with np.errstate(over="ignore"):  # an inf from finite inputs is flagged below
        expected = shaft_power(rev_s[full], tau[full])
        resid = np.abs(pwr[full] - expected) / np.maximum(np.abs(pwr[full]), 1e-9)
        # the third variable where two are recorded and the divisor is not zero
        derived_p, derived_n, derived_t = (np.full(n, np.nan) for _ in range(3))
        rows = two & ~have_p
        derived_p[rows] = shaft_power(rev_s[rows], tau[rows])
        rows = two & ~have_t & (rev_s != 0)
        derived_t[rows] = pwr[rows] / (TWO_PI * rev_s[rows])
        rows = two & ~have_n & (tau != 0)
        derived_n[rows] = pwr[rows] / (TWO_PI * tau[rows]) * 60.0
    invalid = np.zeros(n, dtype=bool)
    invalid[full] = resid > rel_tolerance

    entry.check_rows(
        "fail", dataset.timestamps[invalid], variable="shaft_power",
        expected=expected[invalid[full]], observed=pwr[invalid],
    )
    out, flagged = dataset, invalid.copy()
    for name, unit, col in (
        ("derived_shaft_power", "W", derived_p),
        ("derived_shaft_rpm", "rpm", derived_n),
        ("derived_shaft_torque", "Nm", derived_t),
    ):
        overflow = np.isinf(col)  # flagged, and left missing
        entry.check_rows("overflow", dataset.timestamps[overflow], variable=name)
        col[overflow] = np.nan
        flagged |= overflow
        if not np.isnan(col).all():
            out = out.adding_variable(VariableSpec(name, unit, "linear"), col)
    out = add_flags(out, QualityFlag.INVALID_RANGE, flagged, entry)
    entry.summary.update(
        {"checked": int(full.sum()), "failed": int(invalid.sum()), "derived": int(two.sum())}
    )
    return out


def _inside_polygon(x: np.ndarray, y: np.ndarray, polygon) -> np.ndarray:
    """Ray casting, one pass per edge over all points; boundary points count
    as inside."""
    inside = np.zeros(len(x), dtype=bool)
    boundary = np.zeros(len(x), dtype=bool)
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        crosses = np.flatnonzero((y1 > y) != (y2 > y))
        xin = (x2 - x1) * (y[crosses] - y1) / (y2 - y1) + x1
        inside[crosses] ^= x[crosses] < xin
        boundary[crosses] |= x[crosses] == xin
        boundary |= (y1 == y) & (y == y2) & (min(x1, x2) <= x) & (x <= max(x1, x2))
    return inside | boundary


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

    ref = curve.powers_at(stw)
    compared = in_trip & ~np.isnan(stw) & ~np.isnan(pwr)
    on_curve = compared & ~curve.outside_span(stw)
    positive = on_curve & (ref > 0)
    deviations = (pwr[positive] - ref[positive]) / ref[positive]
    outside = np.zeros(len(dataset), dtype=bool)
    if particulars.envelope is not None:
        rows = on_curve & ~np.isnan(rpm)
        outside[rows] = ~_inside_polygon(rpm[rows], pwr[rows], particulars.envelope)
    observed = list(zip(rpm[outside].tolist(), pwr[outside].tolist()))
    stamps = dataset.timestamps[outside]
    entry.check_rows("outside_envelope", stamps, "shaft_power", observed=observed)
    out = add_flags(dataset, QualityFlag.INVALID_RANGE, outside, entry)
    entry.summary["curve"] = curve.label
    entry.summary["compared"] = len(deviations)
    entry.summary["skipped_outside_curve"] = int((compared & ~on_curve).sum())
    entry.summary["flagged_outside_envelope"] = int(outside.sum())
    if len(deviations):
        dev = np.sort(deviations, kind="stable")  # sorted: order-invariant stats
        entry.summary["bias_median"] = median(dev)
        entry.summary["deviation_mean"] = float(dev.mean())
        with np.errstate(over="ignore"):  # a huge finite deviation: an inf std
            entry.summary["deviation_std"] = float(dev.std())
    return out


def check_stw(
    dataset: VoyageDataset,
    tolerance: float,
    report: ProcessingReport | None = None,
) -> None:
    """Report-only comparison of the measured speed-through-water against
    its estimate from speed-over-ground minus the longitudinal current. A
    sample with both inputs present is compared; a residual not within
    ``tolerance`` (inf or NaN too) is suspect."""
    entry = stage_entry(report, "check:stw")
    if not (dataset.has_data("stw") and dataset.has_data("stw_estimate")):
        entry.notes.append("stw or stw_estimate absent; check skipped")
        return
    stw = dataset.column("stw")
    est = dataset.column("stw_estimate")
    good = ~np.isnan(stw) & ~np.isnan(est)
    entry.summary["compared"] = int(good.sum())
    if good.any():
        with np.errstate(over="ignore", invalid="ignore"):  # huge inputs: inf or NaN
            resid = stw - est
            r = resid[good]
            entry.summary["residual_mean"] = float(r.mean())
            entry.summary["residual_median"] = median(r)
            entry.summary["residual_max_abs"] = float(np.abs(r).max())
        beyond = good & ~(np.abs(resid) <= tolerance)
        entry.summary["beyond_tolerance"] = int(beyond.sum())
        stamps = dataset.timestamps[beyond]
        entry.check_rows("suspect", stamps, "stw", expected=est[beyond], observed=stw[beyond])


def longitudinal_winds(
    dataset: VoyageDataset, use_fixed: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The true longitudinal wind (head positive) from the ship and from the
    hindcast: the onboard relative wind (:func:`features.onboard_wind`)
    along the bow, and ``rel_wind_long``, each minus speed-over-ground. NaN
    where an input is missing; +-inf (never NaN) where finite inputs overflow."""
    speed, direction = features.onboard_wind(dataset, use_fixed)
    sog = dataset.coalesce("sog")
    with np.errstate(over="ignore"):
        return speed * np.cos(np.deg2rad(direction)) - sog, dataset.coalesce("rel_wind_long") - sog


def check_longitudinal_wind(
    dataset: VoyageDataset,
    tolerance: float,
    report: ProcessingReport | None = None,
    *,
    use_fixed: bool,
) -> dict:
    """Compare the ship-derived true longitudinal wind against the hindcast
    value (:func:`longitudinal_winds`), and cross-reference large residuals
    with angular-averaging-fault flags. A sample with its inputs present is
    compared; a residual not within ``tolerance`` (inf or NaN too) is a mismatch.

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

    ship_side, hc_side = longitudinal_winds(dataset, use_fixed)
    good = ~np.isnan(ship_side) & ~np.isnan(hc_side)
    with np.errstate(over="ignore", invalid="ignore"):  # sides of +-inf: inf or NaN
        resid = ship_side - hc_side
        if good.any():
            entry.summary["residual_mean"] = float(resid[good].mean())
            entry.summary["residual_max_abs"] = float(np.abs(resid[good]).max())
    result["compared"] = int(good.sum())
    big = good & ~(np.abs(resid) <= tolerance)
    result["beyond_tolerance"] = int(big.sum())
    faulted = dataset.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT)[big]
    result["cross_referenced"] = int(faulted.sum())
    entry.check_rows(
        np.where(faulted, "mismatch+angular_fault", "mismatch"),
        dataset.timestamps[big], variable="rel_wind_long",
        expected=hc_side[big], observed=ship_side[big],
    )
    entry.summary.update(result)
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
    reference: np.ndarray | list,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Detect time-averaging faults on an angular variable near the 0/360
    wrap and substitute the reference value.

    A sample is flagged when the recorded angle differs from ``reference``
    (one angle per row, NaN = none) by more than ``DIFFERENCE_THRESHOLD``
    degrees while the reference sits within ``WRAP_BAND`` degrees of the
    wrap (where naive averaging breaks). The substitute value is stored in
    ``fixed_<variable>``; the recorded one is never modified.
    """
    entry = stage_entry(report, f"check:angular_fault:{variable}")
    reference = np.asarray(reference, dtype=float)
    if np.isnan(reference).all():
        entry.notes.append(f"no reference series available for {variable!r}; detector skipped")
        return dataset
    if not dataset.has_data(variable):
        entry.notes.append(f"variable {variable!r} has no data; detector skipped")
        return dataset
    recorded = dataset.column(variable)

    near_wrap = (reference <= WRAP_BAND) | (reference >= 360.0 - WRAP_BAND)
    apart = np.abs(recorded - reference) % 360.0  # NaN where either is missing
    faulty = near_wrap & (np.minimum(apart, 360.0 - apart) > DIFFERENCE_THRESHOLD)
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

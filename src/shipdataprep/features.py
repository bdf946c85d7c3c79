"""Derived features: great-circle distances and bearings, anemometer height
correction, ship-frame wind/wave/current components and AIS rationality
checks.

Sign convention (documented once, used everywhere): the longitudinal
relative wind is positive for head wind, so with zero true wind a ship
moving at ``sog`` sees ``+sog``. The transverse component is positive for
wind from starboard. Direction variables use the meteorological
from-convention in degrees.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
)
from .tables import service_speed_range

EARTH_RADIUS_M = 6_371_000.0

# legs shorter than this take the implied speed from the windowed trend
MIN_LEG_SECONDS = 60.0
# the distance mismatch is relative to at least this many metres
DISTANCE_FLOOR_M = 100.0


def _squares(x: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each element, through libm ``pow`` as the scalar
    formula squares; numpy's ``x**2`` is ``x * x``, which differs in the
    last bit."""
    return np.array([v ** 2 for v in x.tolist()], dtype=np.float64)


def haversine_distances(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Great-circle distance in metres from each (lat1, lon1) point to the
    paired (lat2, lon2) point, in degrees. numpy's radians, sin, cos and
    sqrt give ``math``'s bits; the squares and ``asin`` are taken per
    element, because numpy's differ in the last bit."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    a = _squares(np.sin(dphi / 2.0)) + np.cos(phi1) * np.cos(phi2) * _squares(np.sin(dlam / 2.0))
    arc = list(map(math.asin, np.minimum(1.0, np.sqrt(a)).tolist()))
    return 2.0 * EARTH_RADIUS_M * np.array(arc, dtype=np.float64)


def initial_bearings(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Initial great-circle bearing in degrees [0, 360) from each (lat1, lon1)
    point to the paired (lat2, lon2) point; ``atan2`` per element, because
    numpy's ``arctan2`` differs from libm's in the last bit."""
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dlam = np.radians(lon2 - lon1)
    x = np.sin(dlam) * np.cos(phi2)
    y = np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam)
    angle = list(map(math.atan2, x.tolist(), y.tolist()))
    return np.degrees(np.array(angle, dtype=np.float64)) % 360.0


def wind_to_reference_height(v_wt: float, z_ref: float, z_a: float) -> float:
    """Correct an anemometer wind speed to the reference height assuming a
    1/9-power vertical wind profile."""
    if z_ref <= 0 or z_a <= 0:
        raise ValueError("heights must be strictly positive")
    if v_wt < 0:
        raise ValueError("wind speed must be non-negative")
    return v_wt * (z_ref / z_a) ** (1.0 / 9.0)


def _trip_steps(dataset: VoyageDataset) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the trip groups, one group after another, and for each
    step from one of those rows to the next whether both are in one group."""
    groups = dataset.trip_groups()
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return np.concatenate(groups), group[1:] == group[:-1]


def gps_heading(dataset: VoyageDataset) -> np.ndarray:
    """Per-sample heading estimated from consecutive GPS positions.

    Each sample takes the initial bearing towards the next one; the last
    sample of a trip (and any sample that cannot see a valid next position)
    holds the previous bearing. Samples with flagged or missing positions
    get no value (NaN), and the held bearing restarts after them.
    """
    lat, lon, ok = dataset.positions()
    rows, linked = _trip_steps(dataset)
    i, j = rows[:-1], rows[1:]
    step = linked & ok[i] & ok[j] & ((lat[i] != lat[j]) | (lon[i] != lon[j]))
    i, j = i[step], j[step]
    moving = np.append(step, False)
    held = np.full(len(rows), np.nan)
    held[moving] = initial_bearings(lat[i], lon[i], lat[j], lon[j])
    # each row holds the value of the last row at or before it, in its own
    # group, that set one: a new bearing, or none at a bad position
    start = np.append(True, ~linked)
    sets = moving | ~ok[rows] | start
    latest = np.maximum.accumulate(np.where(sets, np.arange(len(rows)), 0))
    out = np.full(len(dataset), np.nan)
    out[rows] = held[latest]
    return out


def add_gps_heading(dataset: VoyageDataset) -> VoyageDataset:
    if not (dataset.has_data("lat") and dataset.has_data("lon")):
        return dataset
    values = gps_heading(dataset)
    return dataset.adding_variable(VariableSpec("gps_heading", "deg", "angular"), values)


def add_leg_distance(dataset: VoyageDataset) -> VoyageDataset:
    """Distance in metres from the previous sample, per trip."""
    if not (dataset.has_data("lat") and dataset.has_data("lon")):
        return dataset
    lat, lon, ok = dataset.positions()
    rows, linked = _trip_steps(dataset)
    i, j = rows[:-1], rows[1:]
    leg = linked & ok[i] & ok[j]
    i, j = i[leg], j[leg]
    values = np.full(len(dataset), np.nan)
    values[j] = haversine_distances(lat[i], lon[i], lat[j], lon[j])
    return dataset.adding_variable(VariableSpec("leg_distance", "m", "linear"), values)


def add_reference_height_wind(
    dataset: VoyageDataset, particulars: ShipParticulars
) -> VoyageDataset:
    """Anemometer wind corrected to the reference height, as
    ``rel_wind_speed_ref`` (the factor of :func:`wind_to_reference_height`);
    missing where the measured speed is missing or out of range, and skipped
    when either height is unknown."""
    z_ref, z_a = particulars.wind_reference_height, particulars.anemometer_height
    if z_ref is None or z_a is None or not dataset.has_data("rel_wind_speed"):
        return dataset
    speed = dataset.column("rel_wind_speed") * wind_to_reference_height(1.0, z_ref, z_a)
    return dataset.adding_variable(VariableSpec("rel_wind_speed_ref", "m/s", "linear"), speed)


def heading_series(dataset: VoyageDataset) -> np.ndarray:
    """Best available heading per sample: corrected value, then the measured
    compass heading, then the GPS estimate."""
    return dataset.coalesce("fixed_heading", "heading", "gps_heading")


def onboard_wind(dataset: VoyageDataset, use_fixed: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Onboard relative wind speed and direction (deg off the bow) per sample:
    ``rel_wind_speed_ref`` if declared, else ``rel_wind_speed``; with
    ``use_fixed``, ``fixed_rel_wind_dir`` where it has a value, else ``rel_wind_dir``."""
    ref = dataset.declares("rel_wind_speed_ref")
    speed = dataset.coalesce("rel_wind_speed_ref" if ref else "rel_wind_speed")
    names = ("fixed_rel_wind_dir", "rel_wind_dir") if use_fixed else ("rel_wind_dir",)
    return speed, dataset.coalesce(*names)


def resolve_ship_frame(dataset: VoyageDataset, report: ProcessingReport) -> VoyageDataset:
    """Resolve hindcast wind/current vectors into the ship frame and derive
    the relative wave direction and a speed-through-water estimate.

    Adds (where inputs exist): ``rel_wind_long`` / ``rel_wind_trans`` (m/s,
    head wind and starboard wind positive), ``rel_wave_dir`` (deg),
    ``stw_estimate`` (m/s).
    """
    entry = report.stage("derive:ship_frame")
    psi = heading_series(dataset)
    sog = dataset.coalesce("sog")
    rad = np.deg2rad(psi)
    sin_p, cos_p = np.sin(rad), np.cos(rad)

    out = dataset
    added = []

    if dataset.has_data("hc_wind_u") and dataset.has_data("hc_wind_v"):
        u = dataset.column("hc_wind_u")
        v = dataset.column("hc_wind_v")
        long_true = u * sin_p + v * cos_p  # toward-bow component of wind vector
        trans_true = u * cos_p - v * sin_p  # toward-starboard component
        rel_long = sog - long_true  # head wind positive
        rel_trans = -trans_true  # wind from starboard positive
        out = out.adding_variable(VariableSpec("rel_wind_long", "m/s", "linear"), rel_long)
        out = out.adding_variable(VariableSpec("rel_wind_trans", "m/s", "linear"), rel_trans)
        added += ["rel_wind_long", "rel_wind_trans"]

    if dataset.has_data("hc_mean_wave_dir"):
        wave = dataset.column("hc_mean_wave_dir")
        rel_wave = (wave - psi) % 360.0
        out = out.adding_variable(VariableSpec("rel_wave_dir", "deg", "angular"), rel_wave)
        added.append("rel_wave_dir")

    if dataset.has_data("hc_current_u") and dataset.has_data("hc_current_v"):
        cu = dataset.column("hc_current_u")
        cv = dataset.column("hc_current_v")
        current_long = cu * sin_p + cv * cos_p  # following current positive
        stw_est = sog - current_long
        out = out.adding_variable(VariableSpec("stw_estimate", "m/s", "linear"), stw_est)
        added.append("stw_estimate")

    entry.summary["variables_added"] = added
    if not added:
        entry.notes.append("no hindcast wind/wave/current inputs; nothing derived")
    return out


def ais_speed_consistency(
    dataset: VoyageDataset,
    tolerance_fraction: float,
    window: int,
    particulars: ShipParticulars,
    report: ProcessingReport,
) -> VoyageDataset:
    """Flag speed-over-ground values inconsistent with the distance actually
    covered between consecutive positions, and replace them with the nearest
    unflagged neighbour's value.

    Each sample is checked against its forward leg (the last sample against
    its backward leg). For very short legs (< ``MIN_LEG_SECONDS``) the
    implied speed comes from a ``window``-leg average trend instead of the
    single leg. Originals are preserved under ``raw_sog``. An out-of-range
    value is missing here, as everywhere: not checked, no replacement.
    """
    entry = report.stage("ais_speed_consistency")
    if not dataset.has_data("sog") or not (
        dataset.has_data("lat") and dataset.has_data("lon")
    ):
        entry.notes.append("sog or positions absent; check skipped")
        return dataset

    lat, lon, ok = dataset.positions()
    sog = dataset.column("sog")
    ts = dataset.timestamps.astype(float)
    n = len(dataset)

    # leg k joins sample k to k+1
    leg_dist = np.full(max(n - 1, 0), np.nan)
    leg_dt = np.full(max(n - 1, 0), np.nan)
    usable = ok[:-1] & ok[1:] & (ts[1:] > ts[:-1])
    k = np.flatnonzero(usable)
    leg_dist[k] = haversine_distances(lat[k], lon[k], lat[k + 1], lon[k + 1])
    leg_dt[k] = ts[k + 1] - ts[k]

    # each sample is checked over its forward leg, the last one over its
    # backward leg; a leg too short takes the distance and time of the
    # present legs within window // 2 of it
    legs = np.minimum(np.arange(n), n - 2)
    present = ~np.isnan(sog) & (legs >= 0)
    present[present] = ~np.isnan(leg_dist[legs[present]])
    checked = np.flatnonzero(present)
    legs = legs[checked]
    dist, dt = leg_dist[legs], leg_dt[legs]
    half = window // 2
    for m in np.flatnonzero(dt < MIN_LEG_SECONDS).tolist():
        lo, hi = max(0, int(legs[m]) - half), min(len(leg_dist), int(legs[m]) + half + 1)
        good = ~np.isnan(leg_dist[lo:hi])
        dist[m], dt[m] = leg_dist[lo:hi][good].sum(), leg_dt[lo:hi][good].sum()
    reported = sog[checked] * dt
    larger = np.maximum(np.maximum(reported, dist), DISTANCE_FLOOR_M)
    over = np.abs(reported - dist) / larger > tolerance_fraction
    flagged = checked[over]
    implied = dist[over] / dt[over]  # the speed over each flagged sample's leg

    out = dataset
    if len(flagged) and not out.declares("raw_sog"):
        raw = np.full(n, np.nan)
        raw[flagged] = sog[flagged]
        out = out.adding_variable(VariableSpec("raw_sog", "m/s", "linear"), raw)

    # the nearest unflagged present value within the window, earlier first
    # at equal distance; NaN: no trustworthy neighbour
    trusted = ~np.isnan(sog)
    trusted[flagged] = False
    replacements = np.full(len(flagged), np.nan)
    for d in range(1, window + 1):
        for j in (flagged - d, flagged + d):
            take = np.isnan(replacements) & (j >= 0) & (j < n)
            take[take] = trusted[j[take]]
            replacements[take] = sog[j[take]]

    out = out.with_values("sog", flagged, replacements)
    out = add_flags(out, QualityFlag.IRRATIONAL_SPEED, flagged, entry)

    entry.check_rows(
        np.where(np.isnan(replacements), "left_missing", "replaced"),
        dataset.timestamps[flagged], variable="sog",
        expected=[round(v, 6) for v in implied.tolist()], observed=sog[flagged],
    )
    unreplaced = int(np.isnan(replacements).sum())
    if unreplaced:
        lo, hi = service_speed_range(particulars.ship_type)
        entry.notes.append(
            f"{unreplaced} flagged sample(s) had no valid neighbour "
            f"within {window}; values cleared; service-speed fallback range for "
            f"{particulars.ship_type.value}: {lo:.3f}-{hi:.3f} m/s"
        )
    return out


def ais_status_check(
    dataset: VoyageDataset,
    port_speed_threshold: float,
    report: ProcessingReport,
) -> VoyageDataset:
    """Cross-check the AIS navigation status against the measured speed.

    Status 1 (at anchorage) or 5 (moored) while moving faster than the port
    speed threshold, or status 0 (under way) while stationary inside a berth
    leg, means the manually updated fields are stale; the sample is flagged
    and the draft/destination fields should be treated with suspicion.
    """
    entry = report.stage("ais_status_check")
    if not dataset.has_data("nav_status") or not dataset.has_data("sog"):
        entry.notes.append("nav_status or sog absent; check skipped")
        return dataset
    status = np.rint(dataset.column("nav_status"))  # half to even, as round()
    sog = dataset.column("sog")
    in_trip = dataset.trip_ids >= 0

    stale = ((status == 1) | (status == 5)) & (sog > port_speed_threshold)
    if in_trip.any():
        stale |= (status == 0) & (sog == 0.0) & ~in_trip
    out = add_flags(dataset, QualityFlag.STALE_AIS_STATUS, stale, entry)
    observed = list(zip(status[stale].astype(np.int64).tolist(), sog[stale].tolist()))
    stamps = dataset.timestamps[stale]
    entry.check_rows("stale_ais_status", stamps, "nav_status", observed=observed)
    if stale.any():
        entry.notes.append(
            "manually entered fields (draft, destination, ETA) of flagged "
            "samples are suspect"
        )
    return out

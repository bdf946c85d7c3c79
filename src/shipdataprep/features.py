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
    stage_entry,
)
from .tables import service_speed_range  # re-exported lookup  # noqa: F401

EARTH_RADIUS_M = 6_371_000.0


def haversine(
    lat1: float, lon1: float, lat2: float, lon2: float, r: float = EARTH_RADIUS_M
) -> float:
    """Great-circle distance in metres between two (lat, lon) points."""
    if r <= 0:
        raise ValueError("earth radius must be strictly positive")
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * r * math.asin(min(1.0, math.sqrt(a)))


def initial_bearing(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial great-circle bearing from point 1 to point 2, degrees [0, 360)."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dlam = math.radians(lon2 - lon1)
    x = math.sin(dlam) * math.cos(phi2)
    y = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(x, y)) % 360.0


def angular_difference(a: float, b: float) -> float:
    """Smallest absolute difference between two angles in degrees, [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)


def wind_to_reference_height(v_wt: float, z_ref: float, z_a: float) -> float:
    """Correct an anemometer wind speed to the reference height assuming a
    1/9-power vertical wind profile."""
    if z_ref <= 0 or z_a <= 0:
        raise ValueError("heights must be strictly positive")
    if v_wt < 0:
        raise ValueError("wind speed must be non-negative")
    return v_wt * (z_ref / z_a) ** (1.0 / 9.0)


def gps_heading(dataset: VoyageDataset) -> list[float | None]:
    """Per-sample heading estimated from consecutive GPS positions.

    Each sample takes the initial bearing towards the next one; the last
    sample of a trip (and any sample that cannot see a valid next position)
    holds the previous bearing. Samples with flagged or missing positions
    get no value.
    """
    lat, lon, ok = dataset.positions()
    out: list[float | None] = [None] * len(dataset)
    for idx in dataset.trip_groups():
        prev: float | None = None
        for k, i in enumerate(idx):
            if not ok[i]:
                prev = None
                continue
            j = idx[k + 1] if k + 1 < len(idx) else None
            if j is not None and ok[j] and (lat[i] != lat[j] or lon[i] != lon[j]):
                b = initial_bearing(lat[i], lon[i], lat[j], lon[j])
                out[i] = b
                prev = b
            else:
                out[i] = prev
    return out


def add_gps_heading(dataset: VoyageDataset) -> VoyageDataset:
    if not (dataset.has_data("lat") and dataset.has_data("lon")):
        return dataset
    values = gps_heading(dataset)
    return dataset.adding_variable(
        VariableSpec("gps_heading", "deg", "angular", role="navigation"), values
    )


def add_leg_distance(dataset: VoyageDataset) -> VoyageDataset:
    """Distance in metres from the previous sample, per trip."""
    if not (dataset.has_data("lat") and dataset.has_data("lon")):
        return dataset
    lat, lon, ok = dataset.positions()
    values: list[float | None] = [None] * len(dataset)
    for idx in dataset.trip_groups():
        for k in range(1, len(idx)):
            i, j = idx[k - 1], idx[k]
            if ok[i] and ok[j]:
                values[j] = haversine(lat[i], lon[i], lat[j], lon[j])
    return dataset.adding_variable(
        VariableSpec("leg_distance", "m", "linear", role="navigation"), values
    )


def add_reference_height_wind(
    dataset: VoyageDataset, particulars: ShipParticulars
) -> VoyageDataset:
    """Anemometer wind corrected to the reference height, as
    ``rel_wind_speed_ref`` (the factor of :func:`wind_to_reference_height`);
    missing where the measured speed is missing or negative, and skipped
    when either height is unknown."""
    z_ref, z_a = particulars.wind_reference_height, particulars.anemometer_height
    if z_ref is None or z_a is None or not dataset.has_data("rel_wind_speed"):
        return dataset
    v = dataset.column("rel_wind_speed")
    return dataset.adding_variable(
        VariableSpec("rel_wind_speed_ref", "m/s", "linear",
                     role="operational_environment"),
        np.where(v >= 0, v * (z_ref / z_a) ** (1.0 / 9.0), np.nan),
    )


def heading_series(dataset: VoyageDataset) -> np.ndarray:
    """Best available heading per sample: corrected value, then the measured
    compass heading, then the GPS estimate."""
    return dataset.coalesce("fixed_heading", "heading", "gps_heading")


def resolve_ship_frame(
    dataset: VoyageDataset, report: ProcessingReport | None = None
) -> VoyageDataset:
    """Resolve hindcast wind/current vectors into the ship frame and derive
    the relative wave direction and a speed-through-water estimate.

    Adds (where inputs exist): ``rel_wind_long`` / ``rel_wind_trans`` (m/s,
    head wind and starboard wind positive), ``rel_wave_dir`` (deg),
    ``stw_estimate`` (m/s).
    """
    entry = stage_entry(report, "derive:ship_frame")
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
        out = out.adding_variable(
            VariableSpec("rel_wind_long", "m/s", "linear",
                         role="operational_environment"),
            rel_long,
        )
        out = out.adding_variable(
            VariableSpec("rel_wind_trans", "m/s", "linear",
                         role="operational_environment"),
            rel_trans,
        )
        added += ["rel_wind_long", "rel_wind_trans"]

    if dataset.has_data("hc_mean_wave_dir"):
        wave = dataset.column("hc_mean_wave_dir")
        rel_wave = (wave - psi) % 360.0
        out = out.adding_variable(
            VariableSpec("rel_wave_dir", "deg", "angular",
                         role="operational_environment"),
            rel_wave,
        )
        added.append("rel_wave_dir")

    if dataset.has_data("hc_current_u") and dataset.has_data("hc_current_v"):
        cu = dataset.column("hc_current_u")
        cv = dataset.column("hc_current_v")
        current_long = cu * sin_p + cv * cos_p  # following current positive
        stw_est = sog - current_long
        out = out.adding_variable(
            VariableSpec("stw_estimate", "m/s", "linear", role="operating_point"),
            stw_est,
        )
        added.append("stw_estimate")

    entry.summary["variables_added"] = added
    if not added:
        entry.notes.append("no hindcast wind/wave/current inputs; nothing derived")
    return out


def ais_speed_consistency(
    dataset: VoyageDataset,
    tolerance_fraction: float = 0.3,
    window: int = 5,
    min_leg_seconds: float = 60.0,
    distance_floor_m: float = 100.0,
    report: ProcessingReport | None = None,
    particulars: ShipParticulars | None = None,
) -> VoyageDataset:
    """Flag speed-over-ground values inconsistent with the distance actually
    covered between consecutive positions, and replace them with the nearest
    unflagged neighbour's value.

    Each sample is checked against its forward leg (the last sample against
    its backward leg). For very short legs (< ``min_leg_seconds``) the
    implied speed comes from a ``window``-leg average trend instead of the
    single leg. Originals are preserved under ``raw_sog``.
    """
    entry = stage_entry(report, "ais_speed_consistency")
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
    leg_dist = np.full(n - 1 if n > 1 else 0, np.nan)
    leg_dt = np.full(n - 1 if n > 1 else 0, np.nan)
    for k in range(n - 1):
        if ok[k] and ok[k + 1] and ts[k + 1] > ts[k]:
            leg_dist[k] = haversine(lat[k], lon[k], lat[k + 1], lon[k + 1])
            leg_dt[k] = ts[k + 1] - ts[k]

    def implied_over(leg: int) -> tuple[float, float] | None:
        """(distance, dt) for the check at this leg, trend-averaged when the
        leg is too short."""
        if math.isnan(leg_dist[leg]):
            return None
        if leg_dt[leg] >= min_leg_seconds:
            return float(leg_dist[leg]), float(leg_dt[leg])
        half = window // 2
        lo, hi = max(0, leg - half), min(len(leg_dist), leg + half + 1)
        d = leg_dist[lo:hi]
        t = leg_dt[lo:hi]
        good = ~np.isnan(d)
        if not good.any():
            return None
        return float(d[good].sum()), float(t[good].sum())

    flagged: list[int] = []
    details: list[tuple[int, float, float]] = []  # (index, observed, implied)
    for i in range(n):
        if math.isnan(sog[i]):
            continue
        leg = i if i < n - 1 else i - 1
        if leg < 0:
            continue
        got = implied_over(leg)
        if got is None:
            continue
        dist, dt = got
        reported = sog[i] * dt
        mismatch = abs(reported - dist) / max(reported, dist, distance_floor_m)
        if mismatch > tolerance_fraction:
            flagged.append(i)
            details.append((i, float(sog[i]), dist / dt))

    out = dataset
    if flagged and not out.declares("raw_sog"):
        raw = np.full(n, np.nan)
        raw[flagged] = sog[flagged]
        out = out.adding_variable(
            VariableSpec("raw_sog", "m/s", "linear", role="navigation"), raw
        )

    flagged_set = set(flagged)
    replacements = np.full(len(flagged), np.nan)  # NaN: no trustworthy neighbour
    for k, i in enumerate(flagged):
        j = next((j for d in range(1, window + 1) for j in (i - d, i + d)
                  if 0 <= j < n and j not in flagged_set and not math.isnan(sog[j])), None)
        if j is not None:
            replacements[k] = sog[j]

    out = out.with_values("sog", flagged, replacements)
    out = add_flags(out, QualityFlag.IRRATIONAL_SPEED, flagged, entry)

    for (i, observed, implied), value in zip(details, replacements.tolist()):
        entry.check(
            "left_missing" if math.isnan(value) else "replaced",
            timestamp=int(ts[i]),
            variable="sog",
            expected=round(implied, 6),
            observed=observed,
        )
    unreplaced = int(np.isnan(replacements).sum())
    if unreplaced:
        note = (
            f"{unreplaced} flagged sample(s) had no valid neighbour "
            f"within {window}; values cleared"
        )
        if particulars is not None:
            lo, hi = service_speed_range(particulars.ship_type)
            note += (
                f"; service-speed fallback range for {particulars.ship_type.value}: "
                f"{lo:.3f}-{hi:.3f} m/s"
            )
        entry.notes.append(note)
    return out


def ais_status_check(
    dataset: VoyageDataset,
    port_speed_threshold: float = 0.5,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Cross-check the AIS navigation status against the measured speed.

    Status 1 (at anchorage) or 5 (moored) while moving faster than the port
    speed threshold, or status 0 (under way) while stationary inside a berth
    leg, means the manually updated fields are stale; the sample is flagged
    and the draft/destination fields should be treated with suspicion.
    """
    entry = stage_entry(report, "ais_status_check")
    if not dataset.has_data("nav_status") or not dataset.has_data("sog"):
        entry.notes.append("nav_status or sog absent; check skipped")
        return dataset
    status = dataset.column("nav_status")
    sog = dataset.column("sog")
    in_trip = dataset.trip_ids >= 0
    has_trips = in_trip.any()

    stale = np.zeros(len(dataset), dtype=bool)
    for i in range(len(dataset)):
        if math.isnan(status[i]) or math.isnan(sog[i]):
            continue
        st = int(round(status[i]))
        moving = sog[i] > port_speed_threshold
        if st in (1, 5) and moving:
            stale[i] = True
        elif st == 0 and sog[i] == 0.0 and has_trips and not in_trip[i]:
            stale[i] = True
    out = add_flags(dataset, QualityFlag.STALE_AIS_STATUS, stale, entry)
    stamps = dataset.timestamps.tolist()
    for i in np.flatnonzero(stale).tolist():
        entry.check(
            "stale_ais_status",
            timestamp=stamps[i],
            variable="nav_status",
            expected=None,
            observed=(int(round(status[i])), float(sog[i])),
        )
    if stale.any():
        entry.notes.append(
            "manually entered fields (draft, destination, ETA) of flagged "
            "samples are suspect"
        )
    return out

"""Reference for the features stages: the scalar great-circle helpers and
the row loops that ``features.gps_heading``, ``add_leg_distance``,
``ais_speed_consistency`` and ``ais_status_check`` replaced, kept verbatim.
``tests/test_features_reference.py`` requires the array stages to give the
same bits in every column they write, the same flags and the same report
entry.
"""

from __future__ import annotations

import math

import numpy as np

from shipdataprep.features import DISTANCE_FLOOR_M, EARTH_RADIUS_M, MIN_LEG_SECONDS
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    add_flags,
    stage_entry,
)
from shipdataprep.tables import service_speed_range


def haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two (lat, lon) points."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


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
    return dataset.adding_variable(VariableSpec("gps_heading", "deg", "angular"), values)


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
    return dataset.adding_variable(VariableSpec("leg_distance", "m", "linear"), values)


def ais_speed_consistency(
    dataset: VoyageDataset,
    tolerance_fraction: float,
    window: int,
    particulars: ShipParticulars,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag speed-over-ground values inconsistent with the distance actually
    covered between consecutive positions, and replace them with the nearest
    unflagged neighbour's value.

    Each sample is checked against its forward leg (the last sample against
    its backward leg). For very short legs (< ``MIN_LEG_SECONDS``) the
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
        if leg_dt[leg] >= MIN_LEG_SECONDS:
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
    implied: list[float] = []  # the speed over each flagged sample's leg
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
        mismatch = abs(reported - dist) / max(reported, dist, DISTANCE_FLOOR_M)
        if mismatch > tolerance_fraction:
            flagged.append(i)
            implied.append(dist / dt)

    out = dataset
    if flagged and not out.declares("raw_sog"):
        raw = np.full(n, np.nan)
        raw[flagged] = sog[flagged]
        out = out.adding_variable(VariableSpec("raw_sog", "m/s", "linear"), raw)

    flagged_set = set(flagged)
    replacements = np.full(len(flagged), np.nan)  # NaN: no trustworthy neighbour
    for k, i in enumerate(flagged):
        j = next((j for d in range(1, window + 1) for j in (i - d, i + d)
                  if 0 <= j < n and j not in flagged_set and not math.isnan(sog[j])), None)
        if j is not None:
            replacements[k] = sog[j]

    out = out.with_values("sog", flagged, replacements)
    out = add_flags(out, QualityFlag.IRRATIONAL_SPEED, flagged, entry)

    entry.check_rows(
        np.where(np.isnan(replacements), "left_missing", "replaced"),
        dataset.timestamps[flagged], variable="sog",
        expected=[round(v, 6) for v in implied], observed=sog[flagged],
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
    pairs = zip(status[stale].tolist(), sog[stale].tolist())
    observed = [(int(round(st)), v) for st, v in pairs]
    stamps = dataset.timestamps[stale]
    entry.check_rows("stale_ais_status", stamps, "nav_status", observed=observed)
    if stale.any():
        entry.notes.append(
            "manually entered fields (draft, destination, ETA) of flagged "
            "samples are suspect"
        )
    return out

"""Seeded input generator for the benchmark workloads.

Every input is written as plain files (ship CSV, hindcast grid, particulars,
resistance table, config); the program under test sees nothing else. The
returned :class:`Plan` carries what the generator knows about those inputs,
so the output checks compare the program against values computed here and
not by the program.

The physics follows ``VoyageBuilder`` in ``tests/conftest.py``, extended to
any number of trips: power obeys P = 2*pi*n*tau exactly, the onboard wind is
the analytic hindcast wind resolved at the recorded heading (both headings),
in-trip draft sensors under-read the berth levels, and the same seed always
gives the same files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

INTERVAL = 900
T0 = 1_600_000_000  # in-service anchor (any second works: regularize anchors here)
T0_AIS = 1_600_000_200  # multiple of 900, so resample bins start at the first message
M_PER_DEG = 111_320.0
ANEMOMETER_FACTOR = (10.0 / 30.0) ** (1.0 / 9.0)  # reference 10 m / anemometer 30 m
GARBAGE_TOKENS = ("n/a", "ERR", "#VALUE!", "--", "?")
FAULT_DIR = 180.0  # naive mean of two directions straddling north

WORKLOADS = ("hindcast_loop", "long_voyage", "ais_feed")


@dataclass
class Grid:
    times: np.ndarray
    lats: np.ndarray
    lons: np.ndarray
    values: dict[str, np.ndarray]  # name -> [t, lat, lon]
    mask: np.ndarray  # [lat, lon], static land mask shared by all variables
    angular: tuple[str, ...]


@dataclass
class Plan:
    """What the generator knows about one workload's inputs."""

    config: Path
    csv_rows: int  # data rows in the ship CSV
    lattice: np.ndarray  # expected output timestamps
    dropped: np.ndarray  # lattice timestamps with no input row
    trips: list[tuple[int, int]]  # expected (start, end) timestamps per trip
    angular_faults: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    stale_status: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    sog_jumps: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    drafts: dict[str, np.ndarray] | None = None  # sensor -> expected value per lattice row
    grid: Grid | None = None
    loop_iterations: int = 1


def iso(ts: np.ndarray) -> list[str]:
    text = np.datetime_as_string(np.asarray(ts, dtype="datetime64[s]"), unit="s")
    return [s + "Z" for s in text.tolist()]


def _fmt(v) -> str:
    return repr(float(v))


# -- analytic environment ------------------------------------------------------


def _fields(t, lat, lon):
    """Smooth analytic hindcast fields; wind blows from the east, so eastbound
    legs meet it near 0 deg off the bow and westbound legs near 180 deg."""
    day = 86_400.0
    tt = (np.asarray(t, dtype=float) - T0) / day
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    return {
        "wind_u": -8.0 + 1.2 * np.sin(2 * np.pi * tt / 5.0) + 0.4 * (lat - 10.0),
        "wind_v": 0.8 * np.cos(2 * np.pi * tt / 3.0) + 0.05 * (lon - 5.0),
        "current_u": 0.3 + 0.05 * np.sin(2 * np.pi * tt / 7.0),
        "current_v": 0.04 * np.cos(2 * np.pi * tt / 2.0) + 0.0 * lat,
        "sig_wave_height": 1.5 + 0.5 * np.sin(2 * np.pi * tt / 4.0) + 0.1 * (lat - 10.0),
        "mean_wave_period": 7.0 + np.sin(2 * np.pi * tt / 6.0) + 0.02 * lon,
        # crosses north, so the circular interpolation path matters
        "mean_wave_dir": (330.0 + 60.0 * np.sin(2 * np.pi * tt / 4.0) + 3.0 * lon) % 360.0,
    }


GRID_UNITS = {
    "wind_u": "m/s",
    "wind_v": "m/s",
    "current_u": "m/s",
    "current_v": "m/s",
    "sig_wave_height": "m",
    "mean_wave_period": "s",
    "mean_wave_dir": "deg",
}


def _write_grid(path: Path, start: int, end: int, masked: list[tuple[float, float]]) -> Grid:
    lats = np.arange(8.0, 12.0 + 1e-9, 0.5)
    lons = np.arange(-2.5, 12.5 + 1e-9, 0.5)
    times = np.arange(start - (start % 21_600), end + 2 * 21_600, 21_600, dtype=np.int64)
    tg, yg, xg = np.meshgrid(times.astype(float), lats, lons, indexing="ij")
    values = {k: v for k, v in _fields(tg, yg, xg).items()}
    mask = np.zeros((len(lats), len(lons)), dtype=bool)
    for la, lo in masked:
        mask[int(np.argmin(abs(lats - la))), int(np.argmin(abs(lons - lo)))] = True
    lines = [f"#var {name} {GRID_UNITS[name]}" for name in values]
    lines.append("#conv mean_wave_dir from")
    lines.append("#lat " + ",".join(_fmt(v) for v in lats))
    lines.append("#lon " + ",".join(_fmt(v) for v in lons))
    lines.append("#time " + ",".join(iso(times)))
    for name, arr in values.items():
        for ti in range(len(times)):
            for yi in range(len(lats)):
                lines.append(
                    ",".join(
                        "M" if mask[yi, xi] else _fmt(arr[ti, yi, xi])
                        for xi in range(len(lons))
                    )
                )
    path.write_text("\n".join(lines) + "\n")
    return Grid(times, lats, lons, values, mask, ("mean_wave_dir",))


def _write_particulars(path: Path) -> None:
    curve = ", ".join(f"{v}:{800.0 * v ** 3}" for v in (1.0, 2.0, 4.0, 6.0, 8.0))
    path.write_text(
        "ship_type = crude_oil_carrier\n"
        "lwl = 270\n"
        "lpp = 264\n"
        "beam = 46\n"
        "design_draft = 15\n"
        "block_coefficient = 0.8\n"
        "anemometer_height = 30\n"
        "wind_reference_height = 10\n"
        f"curve.sea_trial = {curve}\n"
    )


def _write_resistance_table(path: Path) -> None:
    path.write_text(
        "#kind wind\n#area 1100\nangle_deg,coefficient\n"
        "0,0.85\n45,0.65\n90,0.3\n135,0.1\n180,0.05\n"
    )


def _spaced_picks(rng, candidates: np.ndarray, count: int, gap: int) -> np.ndarray:
    """``count`` sorted picks from ``candidates`` with at least ``gap`` between
    any two, drawn in seeded order."""
    picked: list[int] = []
    taken = np.zeros(int(candidates.max()) + gap + 2, dtype=bool) if len(candidates) else None
    for c in rng.permutation(candidates):
        if len(picked) == count:
            break
        if taken[max(0, c - gap + 1): c + gap].any():
            continue
        taken[c] = True
        picked.append(int(c))
    if len(picked) < count:
        raise ValueError("not enough room for the requested picks")
    return np.sort(np.array(picked, dtype=np.int64))


# -- in-service voyages ----------------------------------------------------------


def _in_service(
    root: Path,
    rng,
    n_trips: int,
    trip_len: int,
    berth_len: int,
    ramp_trips: tuple[int, ...],
    drop_count: int,
    garbage_per_column: int,
    fault_block: int,
    with_grid: bool,
) -> Plan:
    segments = []  # (kind, k, first row, length)
    row = 0
    for k in range(n_trips):
        segments.append(("berth", k, row, berth_len))
        row += berth_len
        segments.append(("trip", k, row, trip_len))
        row += trip_len
    segments.append(("berth", n_trips, row, berth_len))
    n = row + berth_len
    ts = T0 + INTERVAL * np.arange(n, dtype=np.int64)

    # consecutive berth levels differ by 0.15-0.5 m, so every trip has a draft
    # change that a draft operation can carry
    fore_levels = np.empty(n_trips + 1)
    fore_levels[0] = rng.uniform(8.6, 9.4)
    for k in range(1, n_trips + 1):
        step = rng.uniform(0.15, 0.5)
        prev = fore_levels[k - 1]
        up = prev + step <= 9.5 and (prev - step < 8.5 or rng.random() < 0.5)
        fore_levels[k] = prev + step if up else prev - step
    fore_levels = fore_levels.round(2)
    aft_levels = (fore_levels + 0.4).round(2)

    at_sea = np.zeros(n, dtype=bool)
    lat = np.empty(n)
    lon = np.empty(n)
    heading = np.empty(n)
    sog = np.zeros(n)
    rpm = np.zeros(n)
    fore = np.empty(n)
    aft = np.empty(n)
    exp_fore = np.full(n, np.nan)
    exp_aft = np.full(n, np.nan)
    ramps: list[tuple[int, int]] = []
    cur_lat, cur_lon, cur_head = 10.0, 0.0, 90.0
    for kind, k, first, length in segments:
        rows = np.arange(first, first + length)
        if kind == "berth":
            lat[rows], lon[rows], heading[rows] = cur_lat, cur_lon, cur_head
            fore[rows], aft[rows] = fore_levels[k], aft_levels[k]
            continue
        at_sea[rows] = True
        east = k % 2 == 0
        sog[rows] = 5.0 + rng.normal(0.0, 0.05, length)
        rpm[rows] = 80.0 + rng.normal(0.0, 0.3, length)
        frac = np.arange(length) / (length - 1)
        lats = 10.0 + (0.25 if east else -0.25) * np.sin(np.pi * frac)
        lons = np.empty(length)
        x = cur_lon
        for j in range(length):
            lons[j] = x
            step = sog[first + j] * INTERVAL / (M_PER_DEG * math.cos(math.radians(lats[j])))
            x = x + step if east else x - step
        nxt_lat = np.append(lats[1:], lats[-1])
        nxt_lon = np.append(lons[1:], x)
        dx = (nxt_lon - lons) * np.cos(np.radians(lats))
        dy = nxt_lat - lats
        heads = np.degrees(np.arctan2(dx, dy)) % 360.0
        lat[rows], lon[rows], heading[rows] = lats, lons, heads
        cur_lat, cur_lon, cur_head = 10.0, x, float(heads[-1])  # the next berth
        # the draft sensor under-reads by 0.4 m while moving
        pre_f, post_f = fore_levels[k] - 0.4, fore_levels[k + 1] - 0.4
        pre_a, post_a = aft_levels[k] - 0.4, aft_levels[k + 1] - 0.4
        t0, t1 = float(ts[rows[0]]), float(ts[rows[-1]])
        if k in ramp_trips:
            a = first + length // 3
            b = a + 12
            ramps.append((a, b))
            for pre, post, out, exp in (
                (pre_f, post_f, fore, exp_fore), (pre_a, post_a, aft, exp_aft),
            ):
                lvl = np.interp(ts[rows].astype(float), [ts[a], ts[b]], [pre, post])
                out[rows] = lvl
                exp[rows] = lvl
        else:
            fore[rows] = (fore_levels[k] + fore_levels[k + 1]) / 2.0 - 0.4
            aft[rows] = (aft_levels[k] + aft_levels[k + 1]) / 2.0 - 0.4
            along = (ts[rows].astype(float) - t0) / (t1 - t0)
            exp_fore[rows] = fore_levels[k] + (fore_levels[k + 1] - fore_levels[k]) * along
            exp_aft[rows] = aft_levels[k] + (aft_levels[k + 1] - aft_levels[k]) * along
    env = _fields(ts, lat, lon)
    psi = np.radians(heading)
    sin_p, cos_p = np.sin(psi), np.cos(psi)
    current_long = env["current_u"] * sin_p + env["current_v"] * cos_p
    stw = np.where(at_sea, sog - current_long, 0.0)
    power = np.where(at_sea, 800.0 * np.maximum(stw, 0.0) ** 3 * (1 + rng.normal(0, 0.01, n)), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        torque = np.where(rpm > 0, power / (2 * np.pi * rpm / 60.0), 0.0)
    long_true = env["wind_u"] * sin_p + env["wind_v"] * cos_p
    trans_true = env["wind_u"] * cos_p - env["wind_v"] * sin_p
    rel_long = sog - long_true
    rel_trans = -trans_true
    rel_speed = np.hypot(rel_long, rel_trans) / ANEMOMETER_FACTOR
    rel_dir = np.degrees(np.arctan2(rel_trans, rel_long)) % 360.0

    faults = np.zeros(0, dtype=np.int64)
    if fault_block:
        picks = []
        for kind, k, first, length in segments:
            if kind == "trip" and k % 2 == 0:
                start = first + 5 + int(rng.integers(0, length - fault_block - 10))
                picks.extend(range(start, start + fault_block))
        faults = np.array(picks, dtype=np.int64)
        rel_dir[faults] = FAULT_DIR

    # rows that may be dropped or garbled: not the lattice ends, not next to a
    # segment boundary (trip spans stay the at-sea runs) and not near a draft
    # ramp (the detected operation stays the generated one)
    protected = np.zeros(n, dtype=bool)
    protected[:3] = protected[-3:] = True
    for _, _, first, length in segments:
        protected[max(0, first - 3): first + 3] = True
    for a, b in ramps:
        protected[a - 12: b + 13] = True
    free = np.nonzero(~protected)[0]
    dropped = _spaced_picks(rng, free, drop_count, 4) if drop_count else np.zeros(0, np.int64)
    keep = np.ones(n, dtype=bool)
    keep[dropped] = False

    columns = {
        "lat": lat, "lon": lon, "sog": sog, "stw": stw, "shaft_rpm": rpm,
        "shaft_torque": torque, "shaft_power": power, "draft_fore": fore,
        "draft_aft": aft, "rel_wind_speed": rel_speed, "rel_wind_dir": rel_dir,
        "heading": heading,
    }
    cells = {name: [_fmt(v) for v in col] for name, col in columns.items()}
    cells["state"] = ["Sea Passage" if s else "At Berth" for s in at_sea]
    if garbage_per_column:
        usable = np.nonzero(keep & ~protected)[0]
        for name in ("stw", "shaft_torque", "rel_wind_speed"):
            for i in rng.choice(usable, garbage_per_column, replace=False):
                cells[name][i] = GARBAGE_TOKENS[int(rng.integers(len(GARBAGE_TOKENS)))]

    names = list(cells)
    stamps = iso(ts)
    lines = ["timestamp," + ",".join(names)]
    for i in np.nonzero(keep)[0]:
        lines.append(stamps[i] + "," + ",".join(cells[c][i] for c in names))
    (root / "ship.csv").write_text("\n".join(lines) + "\n")
    _write_particulars(root / "particulars.txt")

    config = [
        "ship_csv = ship.csv",
        "particulars = particulars.txt",
        "sampling_interval = 900",
        "trip_method = thresholds",
    ]
    grid = None
    if with_grid:
        # a few land nodes next to the track exercise the neighbour-mean fill
        span = float(lon.max())
        grid = _write_grid(
            root / "grid.txt", int(ts[0]), int(ts[-1]),
            [(10.5, round(0.3 * span * 2) / 2), (9.5, round(0.7 * span * 2) / 2)],
        )
        config.append("hindcast = grid.txt")
    else:
        _write_resistance_table(root / "wind_coefficients.csv")
        config.append("resistance_tables = wind_coefficients.csv")
        # flat in-trip drafts have zero gradient; anything moving is an operation
        config.append("gradient_tolerance.draft_fore = 1e-09")
    (root / "config.txt").write_text("\n".join(config) + "\n")

    trips = []
    for kind, _, first, length in segments:
        if kind == "trip":
            trips.append((int(ts[first]), int(ts[first + length - 1])))
    return Plan(
        config=root / "config.txt",
        csv_rows=int(keep.sum()),
        lattice=ts,
        dropped=ts[dropped],
        trips=trips,
        angular_faults=ts[faults],
        drafts={"draft_fore": exp_fore, "draft_aft": exp_aft},
        grid=grid,
        loop_iterations=2 if fault_block else 1,
    )


# -- AIS feed ------------------------------------------------------------------------

ACCEL = (0.04, 0.08, 0.12, 0.17, 0.24, 0.34, 0.48, 0.67, 0.94, 1.3, 1.8, 2.5, 3.5, 4.9)
SOG_THRESHOLD = 3.0 * 1852.0 / 3600.0
PAD = 2


def _ais(root: Path, rng, n_trips: int, cruise_bins: int, berth_bins: int,
         stale_per_trip: int, jumps_per_trip: int, gaps: int) -> Plan:
    # per-bin plan: speed, direction, status and injected faults
    speed: list[float] = []
    east: list[bool] = []
    for k in range(n_trips):
        speed += [0.0] * berth_bins
        east += [k % 2 == 1] * berth_bins  # berth keeps the previous course
        prof = list(ACCEL) + [5.0] * cruise_bins + list(reversed(ACCEL))
        speed += prof
        east += [k % 2 == 0] * len(prof)
    speed += [0.0] * berth_bins
    east += [True] * berth_bins
    speed_b = np.array(speed)
    east_b = np.array(east)
    n_bins = len(speed_b)
    cruise = speed_b == 5.0

    # faults sit in the cruise interior, at least 6 bins from each other and
    # from a radio gap, so each one is judged against clean neighbours
    interior = np.nonzero(
        cruise & np.roll(cruise, 8) & np.roll(cruise, -8)
    )[0]
    n_cruise_faults = n_trips * (stale_per_trip + jumps_per_trip) + gaps
    chosen = _spaced_picks(rng, interior, n_cruise_faults, 6)
    chosen = rng.permutation(chosen)
    stale_sea = np.sort(chosen[: n_trips * stale_per_trip])
    jumps = np.sort(chosen[n_trips * stale_per_trip: n_trips * (stale_per_trip + jumps_per_trip)])
    gap_bins = np.sort(chosen[n_trips * (stale_per_trip + jumps_per_trip):])
    # a stale 'under way' status in the middle of each berth leg between trips
    # (the first leg is not found as a start: it opens the series)
    starts = np.nonzero(np.diff(np.concatenate([[1], (speed_b == 0).astype(int)])) == 1)[0]
    stale_berth = np.array([s + berth_bins // 2 for s in starts[:-1]], dtype=np.int64)

    status_b = np.where(speed_b > 0, 0.0, 5.0)
    status_b[stale_sea] = 5.0
    status_b[stale_berth] = 0.0
    reported_b = speed_b.copy()
    reported_b[jumps] = 3.0 * speed_b[jumps]

    # message times: 20-40 s apart, none inside a radio gap bin
    horizon = n_bins * INTERVAL
    gaps_t = rng.uniform(20.0, 40.0, int(horizon / 20.0) + 10)
    t_rel = np.concatenate([[0.0], np.cumsum(gaps_t)])
    t_rel = np.floor(t_rel[t_rel < horizon])
    t_rel = np.unique(t_rel)
    b_of = (t_rel // INTERVAL).astype(np.int64)
    keep = ~np.isin(b_of, gap_bins)
    t_rel, b_of = t_rel[keep], b_of[keep]

    # eastward distance is the integral of the piecewise-constant velocity
    velocity = speed_b * np.where(east_b, 1.0, -1.0)
    x_at_bin_start = np.concatenate([[0.0], np.cumsum(velocity * INTERVAL)])
    x = x_at_bin_start[b_of] + (t_rel - b_of * INTERVAL) * velocity[b_of]
    lat0 = 10.0
    lon = x / (M_PER_DEG * math.cos(math.radians(lat0)))
    lat = np.full(len(t_rel), lat0)
    m = len(t_rel)
    moving = speed_b[b_of] > 0
    sog = reported_b[b_of] + np.where(speed_b[b_of] >= 1.0, rng.normal(0.0, 0.03, m), 0.0)
    heading = np.where(east_b[b_of], 90.0, 270.0) + np.where(moving, rng.normal(0.0, 1.0, m), 0.0)
    heading %= 360.0
    status = status_b[b_of]

    ts = T0_AIS + t_rel.astype(np.int64)
    stamps = iso(ts)
    lines = ["timestamp,lat,lon,sog,heading,nav_status"]
    rows = zip(stamps, lat.tolist(), lon.tolist(), sog.tolist(), heading.tolist(),
               status.astype(int).tolist())
    for stamp, la, lo, sp, hd, st in rows:
        lines.append(f"{stamp},{la!r},{lo!r},{sp!r},{hd!r},{st}")
    (root / "ship.csv").write_text("\n".join(lines) + "\n")
    _write_particulars(root / "particulars.txt")
    (root / "config.txt").write_text(
        "ship_csv = ship.csv\n"
        "particulars = particulars.txt\n"
        "source_kind = ais\n"
        "sampling_interval = 900\n"
        "trip_method = thresholds\n"
    )

    lattice = T0_AIS + INTERVAL * np.arange(n_bins, dtype=np.int64)
    # trips: bins above the speed threshold, padded by PAD bins each side
    above = speed_b > SOG_THRESHOLD
    trips = []
    k = 0
    while k < n_bins:
        if not above[k]:
            k += 1
            continue
        j = k
        while j + 1 < n_bins and above[j + 1]:
            j += 1
        trips.append((int(lattice[max(0, k - PAD)]), int(lattice[min(n_bins - 1, j + PAD)])))
        k = j + 1
    return Plan(
        config=root / "config.txt",
        csv_rows=m,
        lattice=lattice,
        dropped=lattice[gap_bins],
        trips=trips,
        stale_status=np.sort(lattice[np.concatenate([stale_sea, stale_berth])]),
        sog_jumps=lattice[jumps],
    )


def build(workload: str, seed: int, root: str | Path) -> Plan:
    """Write the inputs of ``workload`` for ``seed`` under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "hindcast_loop":
        return _in_service(root, rng, n_trips=4, trip_len=100, berth_len=20,
                           ramp_trips=(), drop_count=0, garbage_per_column=0,
                           fault_block=30, with_grid=True)
    if workload == "long_voyage":
        return _in_service(root, rng, n_trips=8, trip_len=400, berth_len=40,
                           ramp_trips=(1, 4, 6), drop_count=36, garbage_per_column=10,
                           fault_block=0, with_grid=False)
    if workload == "ais_feed":
        return _ais(root, rng, n_trips=8, cruise_bins=130, berth_bins=20,
                    stale_per_trip=3, jumps_per_trip=3, gaps=4)
    raise ValueError(f"unknown workload {workload!r}")

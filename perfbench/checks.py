"""Checks of one operation's outputs against values computed apart from the
program: the generator's plan, and scipy for the interpolated hindcast."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from generate import Plan

TOL = 1e-9


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


def parse_ts(stamps: list[str]) -> np.ndarray:
    return np.array([s.rstrip("Z") for s in stamps], dtype="datetime64[s]").astype(np.int64)


class Processed:
    """processed.csv as columns."""

    def __init__(self, path: Path):
        header, rows = read_csv(path)
        cols = list(zip(*rows)) if rows else [()] * len(header)
        self.text = dict(zip(header, cols))
        self.ts = parse_ts(list(self.text["timestamp"]))
        self.trip = np.array([int(v) if v else -1 for v in self.text["trip_id"]])
        self.flag_names = [h[len("flag_"):] for h in header if h.startswith("flag_")]

    def num(self, name: str) -> np.ndarray:
        return np.array([float(v) if v else np.nan for v in self.text[name]])

    def flagged(self, flag: str) -> np.ndarray:
        return self.ts[np.array([v == "1" for v in self.text["flag_" + flag]], dtype=bool)]

    def flag_pairs(self) -> int:
        return sum(sum(v == "1" for v in self.text["flag_" + f]) for f in self.flag_names)


def report_flag_total(report: dict) -> int:
    return sum(sum(e["flag_counts"].values()) for e in report["stages"])


def _same(label: str, got: np.ndarray, want: np.ndarray, problems: list[str]) -> None:
    got, want = np.sort(np.asarray(got)), np.sort(np.asarray(want))
    if len(got) != len(want) or not np.array_equal(got, want):
        problems.append(f"{label}: {len(got)} flagged, {len(want)} injected, sets differ")


def check_hindcast(plan: Plan, data: Processed, problems: list[str]) -> int:
    """Unmasked order-1 hc_* columns against scipy's trilinear interpolator
    over (t, lat, lon); angular fields through sin and cos. Returns the number
    of values compared."""
    from scipy.interpolate import RegularGridInterpolator

    grid = plan.grid
    lat, lon = data.num("lat"), data.num("lon")
    in_trip = data.trip >= 0
    yi = np.clip(np.searchsorted(grid.lats, lat, side="right") - 1, 0, len(grid.lats) - 2)
    xi = np.clip(np.searchsorted(grid.lons, lon, side="right") - 1, 0, len(grid.lons) - 2)
    masked = (
        grid.mask[yi, xi] | grid.mask[yi + 1, xi] | grid.mask[yi, xi + 1] | grid.mask[yi + 1, xi + 1]
    )
    use = in_trip & ~masked & ~np.isnan(lat) & ~np.isnan(lon)
    pts = np.column_stack([data.ts[use].astype(float), lat[use], lon[use]])
    axes = (grid.times.astype(float), grid.lats, grid.lons)
    compared = 0
    for name, values in grid.values.items():
        got = data.num("hc_" + name)[use]
        if name in grid.angular:
            rad = np.radians(values)
            s = RegularGridInterpolator(axes, np.sin(rad))(pts)
            c = RegularGridInterpolator(axes, np.cos(rad))(pts)
            want = np.degrees(np.arctan2(s, c)) % 360.0
            err = np.abs((got - want + 180.0) % 360.0 - 180.0)
        else:
            want = RegularGridInterpolator(axes, values)(pts)
            err = np.abs(got - want)
        if np.isnan(err).any():
            problems.append(f"hc_{name}: {int(np.isnan(err).sum())} unmasked in-trip values missing")
        elif err.max(initial=0.0) > TOL:
            problems.append(f"hc_{name}: max deviation {err.max():.3g} from scipy > {TOL}")
        compared += len(err)
    if use.sum() < 0.7 * in_trip.sum():
        problems.append(f"only {int(use.sum())} of {int(in_trip.sum())} in-trip samples unmasked")
    return compared


def check_covers(data: Processed, report: dict, model) -> bool:
    """The program's own ``ProcessingReport.covers`` over the written outputs;
    ``model`` is the program's ``shipdataprep.model`` module."""
    rep = model.ProcessingReport()
    for st in report["stages"]:
        entry = rep.stage(st["stage"])
        entry.flag_counts.update(st["flag_counts"])
        for c in st["checks"]:
            ts = None if c["timestamp"] is None else model.parse_iso_timestamp(c["timestamp"])
            entry.check(c["verdict"], timestamp=ts, variable=c["variable"])
    flags = {f: np.array([v == "1" for v in data.text["flag_" + f]]) for f in data.flag_names}
    samples = []
    for i, ts in enumerate(data.ts.tolist()):
        got = frozenset(model.QualityFlag(f) for f, col in flags.items() if col[i])
        samples.append(model.Sample(ts, {}, got))
    dataset = model.VoyageDataset((), tuple(samples), None, "in_service")
    return rep.covers(dataset)


def check_outputs(plan: Plan, out_dir: Path, model) -> list[str]:
    """Every check of one operation's outputs; returns the problems found."""
    problems: list[str] = []
    data = Processed(out_dir / "processed.csv")
    report = json.loads((out_dir / "report.json").read_text())

    if not np.array_equal(data.ts, plan.lattice):
        problems.append(f"rows: {len(data.ts)} written, lattice has {len(plan.lattice)}")
        return problems
    _same("missing_inserted", data.flagged("missing_inserted"), plan.dropped, problems)

    files = sorted(p.name for p in out_dir.glob("trip_*.csv"))
    want_files = [f"trip_{k:03d}.csv" for k in range(1, len(plan.trips) + 1)]
    if files != want_files:
        problems.append(f"trip files {files} != planned {want_files}")
    else:
        for k, (start, end) in enumerate(plan.trips, start=1):
            _, rows = read_csv(out_dir / f"trip_{k:03d}.csv")
            ts = parse_ts([r[0] for r in rows])
            want = plan.lattice[(plan.lattice >= start) & (plan.lattice <= end)]
            rows_k = data.ts[data.trip == k]
            if not (np.array_equal(ts, want) and np.array_equal(rows_k, want)):
                problems.append(f"trip {k}: rows differ from the planned span")

    if plan.drafts is not None:
        in_trip = np.zeros(len(plan.lattice), dtype=bool)
        for start, end in plan.trips:
            in_trip |= (plan.lattice >= start) & (plan.lattice <= end)
        for sensor, want in plan.drafts.items():
            err = np.abs(data.num(sensor)[in_trip] - want[in_trip])
            if np.isnan(err).any() or err.max(initial=0.0) > TOL:
                problems.append(f"{sensor}: in-trip values deviate from the analytic ramp")

    _same("angular_averaging_fault", data.flagged("angular_averaging_fault"),
          plan.angular_faults, problems)
    _same("stale_ais_status", data.flagged("stale_ais_status"), plan.stale_status, problems)
    _same("irrational_speed", data.flagged("irrational_speed"), plan.sog_jumps, problems)

    loop = [e for e in report["stages"] if e["stage"] == "error_loop"]
    iterations = loop[-1]["summary"].get("iterations") if loop else None
    if iterations != plan.loop_iterations:
        problems.append(f"error loop ran {iterations} iteration(s), expected {plan.loop_iterations}")
    if plan.loop_iterations > 1:
        wind = [e for e in report["stages"] if e["stage"] == "check:longitudinal_wind"]
        last = wind[-1]["summary"] if wind else {}
        if not last.get("compared") or last.get("beyond_tolerance") != 0:
            problems.append(f"last wind check: {last}")

    if not check_covers(data, report, model):
        problems.append("report.covers(dataset) is false")

    if plan.grid is not None and check_hindcast(plan, data, problems) == 0:
        problems.append("no hindcast values compared")
    return problems

"""Shared fixture builders: synthetic voyages, hindcast grid files, ship
particulars and pipeline configs written to temp directories."""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from shipdataprep.model import QualityFlag, VariableSpec, VoyageDataset, new_dataset

INTERVAL = 900
T0 = 1_600_000_000  # any fixed UTC anchor


def iso(ts: int) -> str:
    from shipdataprep.model import iso_timestamp

    return iso_timestamp(ts)


def flags_at(dataset, i: int) -> frozenset:
    """The flags of row ``i``, read through ``dataset.flagged``."""
    return frozenset(f for f in QualityFlag if dataset.flagged(f)[i])


def row_values(dataset, i: int) -> dict:
    """The values present in row ``i``, by variable name, read column by
    column (NaN and None are missing)."""
    out = {}
    for spec in dataset.schema:
        text = spec.kind == "text"
        v = (dataset.text_column(spec.name) if text else dataset.column(spec.name))[i]
        if v is not None and v == v:
            out[spec.name] = v if text else float(v)
    return out


def write_and_read_processed(dataset, path: Path):
    """``dataset`` written by ``write_processed_csv`` to ``path`` and read
    back by ``load_ship_csv`` with the dataset's schema: the dataset read,
    and the trip id and flag set of each row, from the ``trip_id`` and
    ``flag_*`` columns."""
    from shipdataprep.ingest import load_ship_csv
    from shipdataprep.pipeline import write_processed_csv

    write_processed_csv(dataset, path, timestamp_header=False)
    back = load_ship_csv(path, schema=list(dataset.schema))
    trips = np.nan_to_num(back.column("trip_id"), nan=-1).astype(np.int64)
    marks = {f: back.column(f"flag_{f.value}") == 1 for f in QualityFlag}
    flags = [frozenset(f for f, m in marks.items() if m[i]) for i in range(len(back))]
    return back, trips, flags


def expand_runs(checks, timestamps) -> list:
    """``checks`` with each run row (a ``CheckDetail`` with ``samples``) as
    one row per sample stamp of ``timestamps`` from its first stamp to its
    last, in order; the stamps must number ``samples``."""
    from shipdataprep.model import CheckDetail

    out = []
    for c in checks:
        if c.samples is None:
            out.append(c)
            continue
        inside = timestamps[(timestamps >= c.timestamp) & (timestamps <= c.last)].tolist()
        assert len(inside) == c.samples, (c, inside)
        out += [CheckDetail(t, c.variable, c.expected, c.observed, c.verdict) for t in inside]
    return out


def flagged_rows(dataset, flag) -> list[int]:
    """Indices of the rows carrying ``flag``."""
    return np.flatnonzero(dataset.flagged(flag)).tolist()


def bits_of(value):
    """``value`` with each float (in lists, tuples and dicts too) replaced by
    its hex text, so that ``==`` compares bits, NaN and -0.0 included."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value)(map(bits_of, value))
    if isinstance(value, dict):
        return {k: bits_of(v) for k, v in value.items()}
    return value


def stage_outcome(dataset, report, names):
    """What a stage left: its schema, the bits of the named numeric columns,
    the flags, and everything in its one report entry, floats as bits."""
    (entry,) = report.stage_entries
    columns = {
        n: dataset.column(n).view(np.uint64).tolist() for n in names if dataset.declares(n)
    }
    checks = [(c.timestamp, c.variable, c.expected, c.observed, c.verdict) for c in entry.checks]
    return (
        dataset.schema, columns, dataset.flag_bits.tolist(), entry.stage, entry.flag_counts,
        entry.corrections, entry.notes, bits_of(entry.summary), bits_of(checks),
    )


def simple_schema(*names: str) -> list[VariableSpec]:
    out = []
    for n in names:
        if n in ("state", "port"):
            kind = "text"
        elif n in ("heading", "rel_wind_dir", "rel_wave_dir"):
            kind = "angular"
        else:
            kind = "linear"
        out.append(VariableSpec(n, kind=kind))
    return out


def series_dataset(values_by_name: dict[str, list[float | None]], interval=INTERVAL,
                   t0=T0, source_kind="in_service"):
    """Quick dataset from aligned per-variable value lists (None = missing)."""
    n = max(len(v) for v in values_by_name.values())
    columns = {name: list(col) + [None] * (n - len(col)) for name, col in values_by_name.items()}
    return new_dataset(simple_schema(*values_by_name), [t0 + i * interval for i in range(n)], columns)


def rows_dataset(schema, samples, sampling_interval=None, source_kind="in_service"):
    """A dataset of :class:`Sample` rows, built by the positional constructor,
    which transposes them into a ``new_dataset`` call."""
    return VoyageDataset(tuple(schema), samples, sampling_interval, source_kind)


class VoyageBuilder:
    """Writes a deterministic multi-trip synthetic voyage with consistent
    physics (power identity, hindcast wind/current agreeing with onboard
    measurements) plus matching grid/particulars/config files."""

    def __init__(self, root: Path, n_trips: int = 3, trip_len: int = 40,
                 berth_len: int = 10, seed: int = 7, with_gps: bool = True,
                 drop_rows: tuple[int, ...] = (), wind: str = "beam_north",
                 wind_dir_fault: bool = False, resistance: bool = False):
        self.root = Path(root)
        self.n_trips = n_trips
        self.trip_len = trip_len
        self.berth_len = berth_len
        self.rng = np.random.default_rng(seed)
        self.with_gps = with_gps
        self.drop_rows = set(drop_rows)
        self.wind = wind  # 'beam_north' | 'head_east'
        self.wind_dir_fault = wind_dir_fault
        self.resistance = resistance

    def build(self) -> dict[str, Path]:
        rows = []
        lat, lon = 10.0, -1.0
        berth_drafts = [(9.0, 9.4), (8.8, 9.2), (9.0, 9.4), (8.8, 9.2), (9.0, 9.4)]
        heading = 90.0
        t = T0
        plan = []
        for k in range(self.n_trips):
            plan.append(("berth", k))
            plan.append(("trip", k))
        plan.append(("berth", self.n_trips))

        for segment, k in plan:
            length = self.berth_len if segment == "berth" else self.trip_len
            for _ in range(length):
                at_sea = segment == "trip"
                sog = 5.0 + (self.rng.normal(0, 0.05) if at_sea else 0.0)
                if not at_sea:
                    sog = 0.0
                stw = sog - 0.3 if at_sea else 0.0
                rpm = 80.0 + self.rng.normal(0, 0.3) if at_sea else 0.0
                power = 800.0 * max(stw, 0.0) ** 3 * (1 + self.rng.normal(0, 0.01)) if at_sea else 0.0
                torque = power / (2 * math.pi * rpm / 60.0) if rpm > 0 else 0.0
                fore, aft = berth_drafts[k if segment == "berth" else k]
                if at_sea:
                    pre_f, pre_a = berth_drafts[k]
                    post_f, post_a = berth_drafts[k + 1]
                    # sensor under-reads while moving, on top of the true trend
                    fore = (pre_f + post_f) / 2.0 - 0.4
                    aft = (pre_a + post_a) / 2.0 - 0.4
                # onboard wind consistent with the hindcast field
                if self.wind == "head_east":  # wind vector (-8, 0), ship east
                    rel_long = sog + 8.0
                    rel_trans = 0.0
                else:  # beam wind from north: vector (0, -8)
                    rel_long = sog
                    rel_trans = -8.0
                rel_speed = math.hypot(rel_long, rel_trans)
                rel_dir = math.degrees(math.atan2(rel_trans, rel_long)) % 360.0
                if self.wind_dir_fault and at_sea:
                    rel_dir = 180.0  # the 0/360 naive-averaging fault
                rel_speed_measured = rel_speed / (10.0 / 30.0) ** (1.0 / 9.0)
                row = {
                    "sog": sog,
                    "stw": stw,
                    "shaft_rpm": rpm,
                    "shaft_torque": torque,
                    "shaft_power": power,
                    "draft_fore": fore,
                    "draft_aft": aft,
                    "rel_wind_speed": rel_speed_measured,
                    "rel_wind_dir": rel_dir,
                    "heading": heading,
                    "state": "Sea Passage" if at_sea else "At Berth",
                }
                if self.with_gps:
                    row["lat"] = lat
                    row["lon"] = lon
                rows.append((t, row))
                if at_sea:
                    lon += sog * INTERVAL / (111_320.0 * math.cos(math.radians(lat)))
                t += INTERVAL

        paths = {}
        paths["ship_csv"] = self._write_ship(rows)
        paths["hindcast"] = self._write_grid(T0 - 3600, t + 3600)
        paths["particulars"] = self._write_particulars()
        if self.resistance:
            paths["res_wind"] = self._write_resistance_table()
        paths["config"] = self._write_config(paths)
        return paths

    def _write_resistance_table(self) -> Path:
        p = self.root / "wind_coefficients.csv"
        p.write_text(
            "#kind wind\n#area 1100\nangle_deg,coefficient\n"
            "0,0.85\n45,0.65\n90,0.3\n135,0.1\n180,0.05\n"
        )
        return p

    def _write_ship(self, rows) -> Path:
        cols = [
            "lat", "lon", "sog", "stw", "shaft_rpm", "shaft_torque", "shaft_power",
            "draft_fore", "draft_aft", "rel_wind_speed", "rel_wind_dir",
            "heading", "state",
        ]
        if not self.with_gps:
            cols = cols[2:]
        p = self.root / "ship.csv"
        lines = ["timestamp," + ",".join(cols)]
        for i, (ts, row) in enumerate(rows):
            if i in self.drop_rows:
                continue
            cells = [iso(ts)]
            for c in cols:
                v = row.get(c)
                cells.append("" if v is None else (v if isinstance(v, str) else repr(float(v))))
            lines.append(",".join(cells))
        p.write_text("\n".join(lines) + "\n")
        return p

    def _write_grid(self, start: int, end: int) -> Path:
        lats = [6.0, 8.0, 10.0, 12.0, 14.0]
        lons = [-4.0 + 2.0 * i for i in range(10)]
        times = list(range(start, end + 21600, 21600))
        wind_u, wind_v = (-8.0, 0.0) if self.wind == "head_east" else (0.0, -8.0)
        fields = {
            "wind_u": ("m/s", lambda la, lo, ti: wind_u),
            "wind_v": ("m/s", lambda la, lo, ti: wind_v),
            "current_u": ("m/s", lambda la, lo, ti: 0.3),
            "current_v": ("m/s", lambda la, lo, ti: 0.0),
            "mean_wave_dir": ("deg", lambda la, lo, ti: 120.0),
            "sig_wave_height": ("m", lambda la, lo, ti: 1.5),
        }
        p = self.root / "grid.txt"
        lines = []
        for name, (unit, _) in fields.items():
            lines.append(f"#var {name} {unit}")
        lines.append("#conv mean_wave_dir from")
        lines.append("#lat " + ",".join(repr(v) for v in lats))
        lines.append("#lon " + ",".join(repr(v) for v in lons))
        lines.append("#time " + ",".join(iso(t) for t in times))
        for name, (unit, fn) in fields.items():
            for ti in times:
                for la in lats:
                    lines.append(",".join(repr(float(fn(la, lo, ti))) for lo in lons))
        p.write_text("\n".join(lines) + "\n")
        return p

    def _write_particulars(self) -> Path:
        p = self.root / "particulars.txt"
        curve = ", ".join(f"{v}:{800.0 * v ** 3}" for v in (1.0, 2.0, 4.0, 6.0, 8.0))
        p.write_text(
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
        return p

    def _write_config(self, paths: dict[str, Path]) -> Path:
        p = self.root / "config.txt"
        text = (
            f"ship_csv = {paths['ship_csv'].name}\n"
            f"particulars = {paths['particulars'].name}\n"
            f"hindcast = {paths['hindcast'].name}\n"
            "sampling_interval = 900\n"
            "trip_method = thresholds\n"
        )
        if "res_wind" in paths:
            text += f"resistance_tables = {paths['res_wind'].name}\n"
        p.write_text(text)
        return p


def load_generate():
    """The benchmark's input generator, ``perfbench/generate.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", Path(__file__).resolve().parent.parent / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def voyage(tmp_path):
    return VoyageBuilder(tmp_path).build()

"""Pipeline driver: wires the stages together in processing order, runs the
error-detection loop around interpolation and feature derivation, and writes
the processed dataset, reports and plot-data files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import cleaning, corrections, features, timeline, validation
from .hindcast import SteadyFilterParams, clean_gps, interpolate
from .ingest import (
    DEFAULT_GRADIENT_TOLERANCE,
    CsvFile,
    HindcastGrid,
    IngestError,
    PipelineConfig,
    load_hindcast,
    load_particulars,
    load_ship_csv,
    write_csv_files,
)
from .model import (
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    generated_header,
)
from .timeline import SegmentationError, runs

SOG_RELAX_ALPHA = 0.1  # relaxed pass rejects less: alpha scaled down
SOG_RELAX_TOLERANCE = 4.0  # and retains more: tolerance scaled up


@dataclass
class PipelineResult:
    dataset: VoyageDataset
    report: ProcessingReport
    particulars: ShipParticulars | None
    exit_code: int
    stage_failures: list[str] = field(default_factory=list)


def _steady_params(config: PipelineConfig, variable: str) -> SteadyFilterParams:
    tol = config.gradient_tolerance.get(
        variable,
        config.gradient_tolerance.get("default", DEFAULT_GRADIENT_TOLERANCE[variable]),
    )
    return SteadyFilterParams(config.steady_window, config.steady_alpha, tol)


def _copy_flags(base: VoyageDataset, flagged: VoyageDataset) -> VoyageDataset:
    """The flags of ``flagged`` (derived from ``base``, same rows) on ``base``."""
    for flag in QualityFlag:
        base = base.adding_flags(flag, flagged.flagged(flag))
    return base


def _carry_fixed(base: VoyageDataset, work: VoyageDataset) -> VoyageDataset:
    """Attach fixed_* substitution columns produced by validation onto the
    pre-derivation snapshot so the next iteration derives from them."""
    for spec in work.schema:
        if not spec.name.startswith("fixed_") or base.declares(spec.name):
            continue
        base = base.adding_variable(spec, work.column(spec.name))
    return base


def _derive(
    work: VoyageDataset,
    config: PipelineConfig,
    particulars: ShipParticulars,
    report: ProcessingReport,
) -> VoyageDataset:
    work = features.add_gps_heading(work)
    work = features.add_leg_distance(work)
    work = features.add_reference_height_wind(work, particulars)
    work = features.resolve_ship_frame(work, report)
    if work.source_kind == "ais":
        work = features.ais_speed_consistency(
            work,
            tolerance_fraction=config.ais_tolerance,
            window=config.ais_window,
            particulars=particulars,
            report=report,
        )
    if work.has_data("nav_status"):
        work = features.ais_status_check(
            work, port_speed_threshold=config.port_speed_threshold, report=report
        )
    return work


def _validate(
    work: VoyageDataset,
    config: PipelineConfig,
    particulars: ShipParticulars,
    report: ProcessingReport,
    use_fixed: bool,
    signals: dict,
) -> VoyageDataset:
    """The validation checks; ``signals`` gets the error loop's two signals."""
    work = validation.check_power_identity(work, config.power_tolerance, report)
    work = validation.check_speed_power(work, particulars, report)
    pre_fault = int(work.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
    references = {"heading": work.coalesce("gps_heading"),
                  "rel_wind_dir": validation.hindcast_relative_wind_direction(work)}
    for variable, reference in references.items():
        if work.has_data(variable):
            work = validation.detect_angular_fault(work, variable, reference, report)
    post_fault = int(work.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
    validation.check_stw(work, config.stw_tolerance, report)
    # first pass validates the data as recorded, exposing any fault cluster;
    # loop iterations validate with the substituted values applied
    wind = validation.check_longitudinal_wind(
        work, config.wind_tolerance, report, use_fixed=use_fixed
    )
    signals["new_angular_faults"] = post_fault - pre_fault
    signals["wind_cross_referenced"] = wind.get("cross_referenced", 0)
    return work


def _trips(
    dataset: VoyageDataset, config: PipelineConfig, report: ProcessingReport
) -> VoyageDataset:
    entry = report.stage("trips")
    try:
        if config.trip_method == "port_names":
            # port grouping reports no berth legs
            dataset, legs = timeline.segment_by_ports(dataset), 0
        else:
            if config.trip_method == "state_variable":
                dataset = timeline.segment_by_state(dataset)
            else:
                dataset = timeline.segment_by_thresholds(
                    dataset,
                    rpm_threshold=config.rpm_threshold,
                    sog_threshold=config.sog_threshold,
                    pad_samples=config.pad_samples,
                )
            # a berth leg is a run of rows outside every trip
            legs = len(runs(dataset.trip_ids < 0)[0])
        entry.summary.update(method=config.trip_method, trips=len(dataset.trips()),
                             berth_legs=legs)
    except SegmentationError as exc:
        entry.notes.append(f"segmentation skipped: {exc}")
    return dataset


def _draft_fix(
    dataset: VoyageDataset, config: PipelineConfig, report: ProcessingReport
) -> VoyageDataset:
    for trip_id in dataset.trips():
        events = corrections.detect_draft_events(
            dataset, trip_id, _steady_params(config, "draft_fore")
        )
        dataset = corrections.fix_draft_ramp(
            dataset, trip_id, events, n_avg=config.n_avg, report=report
        )
    return dataset


def _clean(
    dataset: VoyageDataset,
    measured: VoyageDataset,
    config: PipelineConfig,
    report: ProcessingReport,
) -> VoyageDataset:
    dataset = cleaning.contextual_filter(
        dataset, measured, repeat_run=config.repeat_run,
        dropout_max=config.dropout_max, spike_scales=config.spike_scales, report=report,
    )
    rpm_params = _steady_params(config, "shaft_rpm")
    sog = _steady_params(config, "sog")
    sog_params = SteadyFilterParams(
        sog.window, sog.alpha * SOG_RELAX_ALPHA, sog.gradient_tolerance * SOG_RELAX_TOLERANCE
    )
    dataset = cleaning.quasi_steady_filter(dataset, rpm_params, sog_params, report)
    return _pca_stage(dataset, config, report)


def load_inputs(config: PipelineConfig, report: ProcessingReport) -> tuple[
    VoyageDataset, ShipParticulars | None, HindcastGrid | None,
    corrections.HydroTable | None, list[corrections.TableDrivenModel],
]:
    """The ship data, particulars, hindcast grid, hydrostatic table and
    resistance models the config names, read and checked in ``run``'s order
    (particulars first). An input that cannot be used at all is fatal."""
    if not config.ship_csv:
        raise IngestError("config does not name a ship_csv input")
    particulars = load_particulars(config.particulars, report) if config.particulars else None
    dataset = load_ship_csv(
        config.ship_csv, unit_map=config.unit_map, source_kind=config.source_kind, report=report
    )
    if len(dataset) == 0:
        raise IngestError(f"{config.ship_csv}: no row with a parseable timestamp")
    return (
        dataset, particulars,
        load_hindcast(config.hindcast, report) if config.hindcast else None,
        corrections.HydroTable.from_csv(config.hydro_table) if config.hydro_table else None,
        [corrections.TableDrivenModel.from_csv(p) for p in config.resistance_tables],
    )


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute the configured stages in processing order.

    Fatal input problems raise :class:`IngestError`/:class:`ConfigError`;
    anything recoverable lands in the report and processing continues.
    Every stage runs through ``stage``, all or nothing: an unexpected
    failure leaves the dataset and the report as they were before the
    stage, plus a ``<stage>:failure`` entry; the later stages still run,
    and the exit code is 2.
    """
    report = ProcessingReport()
    failures: list[str] = []

    def stage(
        name: str, work: VoyageDataset, run: Callable[[VoyageDataset], VoyageDataset],
        skipped: str | None = None, note: bool = True,
    ) -> tuple[VoyageDataset, bool]:
        """``(run(work), True)``; ``(work, True)`` when the config leaves the
        stage out or ``skipped`` says why it has nothing to run on (noted when
        ``note``). If ``run`` raises, the report entries written since the
        stage began are dropped, the failure ``"<name>: <exc>"`` and a
        ``<name>:failure`` entry are recorded, and ``(work, False)`` returned."""
        if name not in config.stages:
            return work, True
        if skipped:
            if note:
                report.stage(name).notes.append(f"{skipped}; stage skipped")
            return work, True
        start = len(report.stage_entries)
        try:
            return run(work), True
        except Exception as exc:
            del report.stage_entries[start:]
            failures.append(f"{name}: {exc}")
            report.stage(f"{name}:failure").notes.append(str(exc))
            return work, False

    dataset, particulars, grid, hydro_table, models = load_inputs(config, report)
    no_particulars = "no ship particulars configured" if particulars is None else None

    # -- uniform time steps, then trips --------------------------------------------
    dataset, _ = stage("regularize", dataset, lambda d: timeline.regularize(
        timeline.resample(d, config.sampling_interval, report) if d.source_kind == "ais" else d,
        config.sampling_interval, report,
    ))
    dataset, _ = stage("trips", dataset, lambda d: _trips(d, config, report))
    # the logged columns on their final rows, for the contextual rules; no
    # later stage changes rows, and their datasets share these arrays
    measured = dataset

    # -- GPS cleaning ------------------------------------------------------------
    positions = dataset.has_data("lat") and dataset.has_data("lon")
    dataset, _ = stage(
        "gps_clean", dataset, lambda d: clean_gps(d, _steady_params(config, "lat"), report),
        None if positions else "lat/lon absent",
    )

    # -- interpolate + derive + validate, with the error loop --------------------
    # an iteration is all or nothing: a failing stage ends the loop with the
    # dataset and report entries of the last complete iteration (or of the loop
    # input), plus the stage's failure entry
    base = final = dataset
    no_grid = (None if grid is not None and positions
               else "hindcast grid or GPS positions unavailable")
    loop_entry = report.stage("error_loop")
    for iteration in range(1, config.max_iterations + 1):
        first = iteration == 1
        signals = {"new_angular_faults": 0, "wind_cross_referenced": 0}
        start = len(report.stage_entries)
        work, ok = stage("interpolate", base, lambda d: interpolate(
            grid, d, order=config.interpolation_order, mask_policy=config.mask_policy,
            report=report,
        ), no_grid, first)
        if ok:
            work, ok = stage("derive", work, lambda d: _derive(
                d, config, particulars, report), no_particulars, first)
        if ok:
            work, ok = stage("validate", work, lambda d: _validate(
                d, config, particulars, report, not first, signals), no_particulars, first)
        if not ok:
            del report.stage_entries[start:-1]  # all but the failure entry
            break
        final = work
        faults, crossed = signals["new_angular_faults"], signals["wind_cross_referenced"]
        loop_entry.notes.append(
            f"iteration {iteration}: new_angular_faults={faults} wind_cross_referenced={crossed}"
        )
        if not (faults > 0 or crossed > 0):
            break
        if iteration == config.max_iterations:
            loop_entry.notes.append("processing errors persist after max_iterations; continuing")
            break
        base = _carry_fixed(_copy_flags(base, final), final)
    loop_entry.summary["iterations"] = iteration
    dataset = final

    # -- draft corrections, hydrostatics, resistance, cleaning ---------------------
    drafts = dataset.has_data("draft_fore") or dataset.has_data("draft_aft")
    dataset, _ = stage(
        "draft_fix", dataset, lambda d: _draft_fix(d, config, report),
        None if drafts and dataset.trips() else "no trips or no draft sensors",
    )
    pair = dataset.has_data("draft_fore") and dataset.has_data("draft_aft")
    dataset, _ = stage("hydrostatics", dataset, lambda d: _hydrostatics_stage(
        d, particulars, hydro_table, config, report),
        no_particulars or (None if pair else "draft sensors absent"))
    dataset, _ = stage(
        "resistance", dataset, lambda d: corrections.resistance_components(d, models, report),
        None if models else "no resistance coefficient tables configured",
    )
    dataset, _ = stage("clean", dataset, lambda d: _clean(d, measured, config, report))

    exit_code = 2 if failures else 0
    return PipelineResult(dataset, report, particulars, exit_code, failures)


def _hydrostatics_stage(
    dataset: VoyageDataset,
    particulars: ShipParticulars,
    hydro_table,
    config: PipelineConfig,
    report: ProcessingReport,
) -> VoyageDataset:
    entry = report.stage("hydrostatics")
    fore = dataset.column("draft_fore")
    aft = dataset.column("draft_aft")
    rows = dataset.in_trip_or_all() & ~np.isnan(fore) & ~np.isnan(aft)
    with np.errstate(over="ignore"):  # huge drafts: an inf mean draft or trim, which fails
        t, tt = (fore + aft) / 2.0, aft - fore
    usable = (t > 0) & np.isfinite(t) & np.isfinite(tt)
    failed = int((rows & ~usable).sum())
    rows &= usable
    mean_draft, trim, disp, wsa = (np.full(len(dataset), np.nan) for _ in range(4))
    mean_draft[rows] = t[rows]
    trim[rows] = tt[rows]
    computed = 0
    if rows.any():
        try:
            volume, area, consistent = corrections.hydrostatics(
                mean_draft[rows], trim[rows], particulars, hydro_table
            )
        except corrections.CorrectionError:
            consistent = np.zeros(int(rows.sum()), dtype=bool)
        else:
            disp[rows] = np.where(consistent, volume, np.nan)
            wsa[rows] = np.where(consistent, area, np.nan)
        computed = int(consistent.sum())
        failed += len(consistent) - computed
    for name, unit, col in (
        ("mean_draft", "m", mean_draft),
        ("trim", "m", trim),
        ("displacement", "m3", disp),
        ("wsa", "m2", wsa),
    ):
        if not dataset.declares(name):
            dataset = dataset.adding_variable(VariableSpec(name, unit, "linear"), col)
    entry.summary["computed"] = computed
    entry.summary["failed"] = failed
    limit = corrections.EXTRAPOLATION_LIMIT * particulars.design_draft
    got = mean_draft[rows]
    beyond = got[got > limit]
    if len(beyond):
        entry.notes.append(
            f"{len(beyond)} sample(s) with mean draft above {corrections.EXTRAPOLATION_LIMIT}"
            f" x design draft {particulars.design_draft:.2f} m, largest {beyond.max():.2f} m;"
            " extrapolating"
        )
    if len(got):
        with np.errstate(over="ignore"):  # huge drafts: an inf mean
            mean = float(np.mean(got))
        verdict = corrections.check_draft_ratio(mean, particulars, config.voyage_kind)
        entry.summary["draft_ratio"] = {
            "ratio": verdict.ratio,
            "reference": verdict.reference,
            "verdict": verdict.verdict,
        }
        if verdict.replacement is not None:
            entry.notes.append(
                f"draft ratio deviates excessively; replacement candidate "
                f"{verdict.replacement:.2f} m"
            )
    return dataset


def _pca_stage(
    dataset: VoyageDataset, config: PipelineConfig, report: ProcessingReport
) -> VoyageDataset:
    candidates = config.pca_features or ("shaft_rpm", "shaft_power", "sog", "stw")
    text = [f for f in candidates if dataset.declares(f) and dataset.spec(f).kind == "text"]
    present = [f for f in candidates if f not in text and dataset.has_data(f)]
    notes = [f"text feature {f!r} left out" for f in text]
    if len(present) < 2:
        notes.append("fewer than two PCA features have data; detector skipped")
        report.stage("clean:pca").notes += notes
        return dataset
    try:
        detector = cleaning.pca_fit(dataset, present, k=config.pca_components,
                                    quantile=config.pca_quantile)
    except cleaning.CleaningError as exc:
        report.stage("clean:pca").notes += [*notes, f"detector skipped: {exc}"]
        return dataset
    dataset = cleaning.pca_score(detector, dataset, report)
    report.stage_entries[-1].notes += notes  # pca_score's entry
    return dataset


# -- output artifacts -----------------------------------------------------------


def _processed_header(dataset: VoyageDataset) -> list[str]:
    """The header of processed.csv, in this order: the timestamp, every
    variable of the schema, the trip id and one 0/1 column per quality flag."""
    names = [s.name for s in dataset.schema]
    return ["timestamp"] + names + ["trip_id"] + [f"flag_{f.value}" for f in QualityFlag]


def write_processed_csv(
    dataset: VoyageDataset,
    path: str | Path,
    timestamp_header: bool,
    plots: Sequence[CsvFile],
) -> None:
    """Processed data: original + derived columns, trip ids and one 0/1
    column per quality flag, after a ``# generated`` line unless
    ``timestamp_header`` is off. Floats use repr for lossless round-trips.

    The ``plots`` files (from ``emit_plotdata``) are written in the same
    pass over the dataset, from the same formatted cells."""
    columns = [dataset.timestamps.astype("datetime64[s]")]
    columns += [dataset.text_column(s.name) if s.kind == "text" else dataset.column(s.name)
                for s in dataset.schema]
    columns += [dataset.trip_ids, *map(dataset.flagged, QualityFlag)]
    header = _processed_header(dataset)
    preamble = generated_header() + "\n" if timestamp_header else ""
    rows = np.arange(len(dataset))
    processed = CsvFile(Path(path), header, rows, list(range(len(header))), preamble)
    write_csv_files(columns, len(dataset), [processed, *plots])


def _strict_json(value: object) -> object:
    """``value`` with each non-finite float as the text "inf", "-inf" or "nan",
    which strict JSON can hold."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def write_report_files(
    report: ProcessingReport, out_dir: str | Path, timestamp_header: bool
) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    txt = out_dir / "report.txt"
    js = out_dir / "report.json"
    txt.write_text(report.to_text(timestamp_header=timestamp_header))
    report_json = _strict_json(report.to_dict())
    js.write_text(json.dumps(report_json, sort_keys=True, indent=2, allow_nan=False) + "\n")
    return txt, js


PLOT_VARIABLES = (
    "sog",
    "stw",
    "shaft_rpm",
    "shaft_power",
    "draft_fore",
    "draft_aft",
    "heading",
    "lat",
    "lon",
)


def emit_plotdata(
    dataset: VoyageDataset,
    out_dir: str | Path,
    particulars: ShipParticulars | None,
    timestamp_header: bool,
) -> list[Path]:
    """Write ``out_dir/processed.csv`` (by ``write_processed_csv``, with
    ``timestamp_header``) and the plain-CSV plot inputs: one time-series file
    per trip, a speed-power scatter with curve overlays, the longitudinal
    wind comparison, and the draft correction before/after series. Returns
    the paths of the plot files.

    Every file is written in one pass over the dataset, a block of rows at
    a time, and the plot files take their timestamps, variables, trip ids
    and fault marks from processed.csv's formatted cells
    (``write_csv_files``); only the curve power and the two wind columns
    are formatted for the file."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files: list[CsvFile] = []
    # processed.csv's column of each variable, of the trip id and of each flag
    at = {name: k for k, name in enumerate(_processed_header(dataset))}
    fault = f"flag_{QualityFlag.ANGULAR_AVERAGING_FAULT.value}"
    none = np.zeros(0, dtype=np.intp)

    def add(name: str, header: list[str], rows: np.ndarray, columns: list) -> None:
        files.append(CsvFile(out_dir / name, header, rows, columns))

    present_vars = [v for v in PLOT_VARIABLES if dataset.has_data(v)]
    for trip_id, rows in dataset.trips().items():
        add(
            f"trip_{trip_id:03d}.csv",
            ["timestamp"] + present_vars,
            rows,
            [0] + [at[v] for v in present_vars],
        )

    # speed-power scatter with the calm-water curve value at the same speed
    header = ["timestamp", "stw", "shaft_power", "curve_power"]
    curve = particulars.curve() if particulars is not None else None
    if dataset.declares("stw") and dataset.declares("shaft_power"):
        stw = dataset.column("stw")
        use = np.nonzero(~np.isnan(stw) & ~np.isnan(dataset.column("shaft_power")))[0]
        curve_power = (
            curve.powers_at(stw[use]) if curve is not None else np.full(len(use), np.nan)
        )
        add("speed_power.csv", header, use, [0, at["stw"], at["shaft_power"], curve_power])
    else:
        add("speed_power.csv", header, none, [])

    # longitudinal wind comparison: ship-derived vs hindcast (head positive)
    header = ["timestamp", "ship_long_wind", "hindcast_long_wind", "angular_fault"]
    ship, hc = validation.longitudinal_winds(dataset)
    use = np.flatnonzero(~np.isnan(ship) & ~np.isnan(hc))
    add("wind_comparison.csv", header, use, [0, ship[use], hc[use], at[fault]])

    # draft correction before/after, for samples with any draft value
    draft_cols = [
        c
        for c in ("raw_draft_fore", "draft_fore", "raw_draft_aft", "draft_aft")
        if dataset.declares(c)
    ]
    has_draft = np.zeros(len(dataset), dtype=bool)
    for c in draft_cols:
        has_draft |= ~np.isnan(dataset.column(c))
    add(
        "draft_correction.csv",
        ["timestamp", "trip_id"] + draft_cols,
        np.nonzero(has_draft)[0],
        [0, at["trip_id"]] + [at[c] for c in draft_cols],
    )

    write_processed_csv(dataset, out_dir / "processed.csv", timestamp_header, plots=files)
    return [f.path for f in files]

"""Pipeline driver: wires the stages together in processing order, runs the
error-detection loop around interpolation and feature derivation, and writes
the processed dataset, reports and plot-data files.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import cleaning, corrections, features, timeline, validation
from .hindcast import SteadyFilterParams, clean_gps, interpolate
from .ingest import (
    CsvFile,
    HindcastGrid,
    IngestError,
    PipelineConfig,
    SharedColumn,
    flag_cells,
    load_hindcast,
    load_particulars,
    load_ship_csv,
    trip_cells,
    write_csv_files,
    written_cells,
)
from .model import (
    RPM_THRESHOLD,
    SOG_THRESHOLD,
    ProcessingReport,
    QualityFlag,
    ShipParticulars,
    VariableSpec,
    VoyageDataset,
    generated_header,
    timestamp_cells,
)
from .timeline import SegmentationError, runs

# stage-2 retention limits (unit/s) when the config does not override them
DEFAULT_GRADIENT_TOLERANCE = {
    "lat": 5.0e-4,
    "lon": 5.0e-4,
    "draft_fore": 2.0e-3,
    "draft_aft": 2.0e-3,
    "shaft_rpm": 0.05,
    "sog": 0.02,
}

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
        config.gradient_tolerance.get("default", DEFAULT_GRADIENT_TOLERANCE.get(variable)),
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
            report=report,
            particulars=particulars,
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
) -> tuple[VoyageDataset, dict]:
    work = validation.check_power_identity(work, config.power_tolerance, report)
    work = validation.check_speed_power(work, particulars, report)
    pre_fault = int(work.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
    for variable in ("heading", "rel_wind_dir"):
        if work.has_data(variable):
            work = validation.detect_angular_fault(work, variable, report=report)
    post_fault = int(work.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
    validation.check_stw(work, config.stw_tolerance, report)
    # first pass validates the data as recorded, exposing any fault cluster;
    # loop iterations validate with the substituted values applied
    wind = validation.check_longitudinal_wind(
        work, config.wind_tolerance, report, use_fixed=use_fixed
    )
    signals = {
        "new_angular_faults": post_fault - pre_fault,
        "wind_cross_referenced": wind.get("cross_referenced", 0),
    }
    return work, signals


def load_inputs(config: PipelineConfig, report: ProcessingReport | None = None) -> tuple[
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


def run_pipeline(
    config: PipelineConfig, report: ProcessingReport | None = None
) -> PipelineResult:
    """Execute the configured stages in processing order.

    Fatal input problems raise :class:`IngestError`/:class:`ConfigError`;
    anything recoverable lands in the report and processing continues.
    Every stage runs inside ``guard``: an unexpected failure is recorded,
    the later stages still run, and the exit code is 2.
    """
    report = report if report is not None else ProcessingReport()
    failures: list[str] = []
    enabled = set(config.stages)

    @contextmanager
    def guard(stage: str) -> Iterator[list[Exception]]:
        """Run the block as ``stage``: an exception it raises becomes the
        failure ``"<stage>: <exc>"`` and a ``<stage>:failure`` entry, and the
        run goes on after the block. The yielded list then holds the
        exception, so the caller can tell that the stage did not finish."""
        failed: list[Exception] = []
        try:
            yield failed
        except Exception as exc:
            failures.append(f"{stage}: {exc}")
            report.stage(f"{stage}:failure").notes.append(str(exc))
            failed.append(exc)

    def skip(stage: str, reason: str) -> None:
        """The entry of a stage that has nothing to run on, and why."""
        report.stage(stage).notes.append(f"{reason}; stage skipped")

    dataset, particulars, grid, hydro_table, models = load_inputs(config, report)
    no_particulars = "no ship particulars configured"

    # -- uniform time steps ---------------------------------------------------
    if "regularize" in enabled:
        with guard("regularize"):
            if dataset.source_kind == "ais":
                dataset = timeline.resample(dataset, config.sampling_interval, report)
            dataset = timeline.regularize(dataset, config.sampling_interval, report)

    # -- trips ------------------------------------------------------------------
    if "trips" in enabled:
        with guard("trips"):
            entry = report.stage("trips")
            try:
                if config.trip_method == "port_names":
                    # port grouping reports no berth legs
                    dataset, legs = timeline.segment_by_ports(dataset), 0
                else:
                    if config.trip_method == "state_variable":
                        dataset = timeline.segment_by_state(dataset)
                    else:
                        # the config overrides the particulars, which override the defaults
                        rpm_thr, sog_thr = config.rpm_threshold, config.sog_threshold
                        if rpm_thr is None:
                            rpm_thr = particulars.rpm_threshold if particulars else RPM_THRESHOLD
                        if sog_thr is None:
                            sog_thr = particulars.sog_threshold if particulars else SOG_THRESHOLD
                        dataset = timeline.segment_by_thresholds(
                            dataset,
                            rpm_threshold=rpm_thr,
                            sog_threshold=sog_thr,
                            pad_samples=config.pad_samples,
                        )
                    # a berth leg is a run of rows outside every trip
                    legs = len(runs(dataset.trip_ids < 0)[0])
                entry.summary.update(method=config.trip_method, trips=len(dataset.trips()),
                                     berth_legs=legs)
            except SegmentationError as exc:
                entry.notes.append(f"segmentation skipped: {exc}")
    # the logged columns on their final rows, for the contextual rules; no
    # later stage changes rows, and their datasets share these arrays
    measured = dataset

    # -- GPS cleaning ------------------------------------------------------------
    if "gps_clean" in enabled:
        with guard("gps_clean"):
            dataset = clean_gps(dataset, _steady_params(config, "lat"), report)

    # -- interpolate + derive + validate, with the error loop --------------------
    # a failing stage ends the loop with the dataset of the last iteration that
    # completed, or with the derived one when validation fails
    base = final = dataset
    have_positions = dataset.has_data("lat") and dataset.has_data("lon")
    loop_entry = report.stage("error_loop")
    iterations = 0
    for iteration in range(1, config.max_iterations + 1):
        iterations = iteration
        work = base
        signals = {"new_angular_faults": 0, "wind_cross_referenced": 0}
        if "interpolate" in enabled:
            with guard("interpolate") as failed:
                if grid is not None and have_positions:
                    work = interpolate(
                        grid, work, order=config.interpolation_order,
                        mask_policy=config.mask_policy, report=report,
                    )
                elif iteration == 1:
                    skip("interpolate", "hindcast grid or GPS positions unavailable")
            if failed:
                break
        if "derive" in enabled:
            with guard("derive") as failed:
                if particulars is not None:
                    work = _derive(work, config, particulars, report)
                elif iteration == 1:
                    skip("derive", no_particulars)
            if failed:
                break
        if "validate" in enabled:
            with guard("validate") as failed:
                if particulars is not None:
                    work, signals = _validate(
                        work, config, particulars, report, use_fixed=iteration > 1
                    )
                elif iteration == 1:
                    skip("validate", no_particulars)
            if failed:
                final = work
                break
        final = work
        errors = signals["new_angular_faults"] > 0 or signals["wind_cross_referenced"] > 0
        loop_entry.notes.append(
            f"iteration {iteration}: new_angular_faults="
            f"{signals['new_angular_faults']} wind_cross_referenced="
            f"{signals['wind_cross_referenced']}"
        )
        if not errors:
            break
        if iteration == config.max_iterations:
            loop_entry.notes.append(
                "processing errors persist after max_iterations; continuing"
            )
            break
        base = _carry_fixed(_copy_flags(base, work), work)
    loop_entry.summary["iterations"] = iterations
    dataset = final

    # -- draft corrections ---------------------------------------------------------
    if "draft_fix" in enabled:
        with guard("draft_fix"):
            drafts = dataset.has_data("draft_fore") or dataset.has_data("draft_aft")
            trips = list(dataset.trips()) if drafts else []
            if not trips:
                skip("draft_fix", "no trips or no draft sensors")
            for trip_id in trips:
                events = corrections.detect_draft_events(
                    dataset, trip_id, _steady_params(config, "draft_fore")
                )
                dataset = corrections.fix_draft_ramp(
                    dataset, trip_id, events, n_avg=config.n_avg, report=report
                )

    # -- hydrostatics ------------------------------------------------------------------
    if "hydrostatics" in enabled:
        with guard("hydrostatics"):
            if particulars is None:
                skip("hydrostatics", no_particulars)
            else:
                dataset = _hydrostatics_stage(dataset, particulars, hydro_table, config, report)

    # -- resistance ----------------------------------------------------------------------
    if "resistance" in enabled:
        with guard("resistance"):
            if not models:
                skip("resistance", "no resistance coefficient tables configured")
            else:
                dataset = corrections.resistance_components(dataset, models, report)

    # -- cleaning ---------------------------------------------------------------------------
    if "clean" in enabled:
        with guard("clean"):
            dataset = cleaning.contextual_filter(
                dataset, measured, repeat_run=config.repeat_run,
                dropout_max=config.dropout_max, spike_scales=config.spike_scales, report=report,
            )
            rpm_params = _steady_params(config, "shaft_rpm")
            sog = _steady_params(config, "sog")
            tol = sog.gradient_tolerance
            sog_params = SteadyFilterParams(
                sog.window, sog.alpha * SOG_RELAX_ALPHA,
                None if tol is None else tol * SOG_RELAX_TOLERANCE,
            )
            dataset = cleaning.quasi_steady_filter(dataset, rpm_params, sog_params, report)
            dataset = _pca_stage(dataset, config, report)

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
    if not (dataset.has_data("draft_fore") and dataset.has_data("draft_aft")):
        entry.notes.append("draft sensors absent; stage skipped")
        return dataset
    fore = dataset.column("draft_fore")
    aft = dataset.column("draft_aft")
    rows = dataset.in_trip_or_all() & ~np.isnan(fore) & ~np.isnan(aft)
    t = (fore + aft) / 2.0
    failed = int((rows & (t <= 0)).sum())
    rows &= t > 0
    mean_draft, trim, disp, wsa = (np.full(len(dataset), np.nan) for _ in range(4))
    mean_draft[rows] = t[rows]
    trim[rows] = aft[rows] - fore[rows]
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
    if particulars.design_draft and len(got):
        verdict = corrections.check_draft_ratio(
            float(np.mean(got)), particulars, config.voyage_kind
        )
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
    present = [f for f in candidates if dataset.has_data(f)]
    if len(present) < 2:
        report.stage("clean:pca").notes.append(
            "fewer than two PCA features have data; detector skipped"
        )
        return dataset
    try:
        detector = cleaning.pca_fit(
            dataset,
            present,
            k=config.pca_components or None,
            quantile=config.pca_quantile,
        )
    except cleaning.CleaningError as exc:
        report.stage("clean:pca").notes.append(f"detector skipped: {exc}")
        return dataset
    return cleaning.pca_score(detector, dataset, report)


# -- output artifacts -----------------------------------------------------------


def _processed_header(dataset: VoyageDataset) -> list[str]:
    """The header of processed.csv, in this order: the timestamp, every
    variable of the schema, the trip id and one 0/1 column per quality flag."""
    names = [s.name for s in dataset.schema]
    return ["timestamp"] + names + ["trip_id"] + [f"flag_{f.value}" for f in QualityFlag]


def _processed_columns(dataset: VoyageDataset) -> tuple[list[str], list[SharedColumn]]:
    """The header and the columns of processed.csv. The plot files take
    their shared cells from these columns."""
    columns: list[SharedColumn] = [(dataset.timestamps, timestamp_cells)]
    for spec in dataset.schema:
        text = spec.kind == "text"
        values = dataset.text_column(spec.name) if text else dataset.column(spec.name)
        columns.append((values, written_cells))
    columns.append((dataset.trip_ids, trip_cells))
    columns += [(dataset.flagged(f), flag_cells) for f in QualityFlag]
    return _processed_header(dataset), columns


def write_processed_csv(
    dataset: VoyageDataset,
    path: str | Path,
    timestamp_header: bool = True,
    plots: Sequence[CsvFile] = (),
) -> None:
    """Processed data: original + derived columns, trip ids and one 0/1
    column per quality flag, after a ``# generated`` line unless
    ``timestamp_header`` is off. Floats use repr for lossless round-trips.

    The ``plots`` files (from ``emit_plotdata``) are written in the same
    pass over the dataset, from the same formatted cells."""
    header, columns = _processed_columns(dataset)
    preamble = generated_header() + "\n" if timestamp_header else ""
    rows = np.arange(len(dataset))
    processed = CsvFile(Path(path), header, rows, list(range(len(header))), preamble)
    write_csv_files(columns, len(dataset), [processed, *plots])


def write_report_files(
    report: ProcessingReport, out_dir: str | Path, timestamp_header: bool = True
) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    txt = out_dir / "report.txt"
    js = out_dir / "report.json"
    txt.write_text(report.to_text(timestamp_header=timestamp_header))
    js.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
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
    particulars: ShipParticulars | None = None,
    processed: str | Path | None = None,
    timestamp_header: bool = True,
) -> list[Path]:
    """Write plain-CSV plot inputs: one time-series file per trip, a
    speed-power scatter with curve overlays, the longitudinal wind
    comparison, and the draft correction before/after series.

    Every plot file is written in one pass over the dataset, a block of
    rows at a time, and takes its timestamps, variables, trip ids and fault
    marks from processed.csv's formatted cells (``write_csv_files``); only
    the curve power and the two wind columns are formatted for the file.
    With ``processed``, ``write_processed_csv`` writes that file (with
    ``timestamp_header``) in the same pass."""
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

    if processed is None:
        write_csv_files(_processed_columns(dataset)[1], len(dataset), files)
    else:
        write_processed_csv(dataset, processed, timestamp_header, plots=files)
    return [f.path for f in files]

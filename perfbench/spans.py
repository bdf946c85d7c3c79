"""Span tracing from outside the program.

A :class:`Tracer` replaces each public function of the program's modules by
a wrapper that records a span (name, start, end, parent span). Modules that
bind a function with ``from ... import`` hold their own reference, so the
wrapper is installed under every name that refers to the original object,
in every module of the package, and on the class for dataset methods.

:func:`layer_metrics` turns the spans into per-layer self times: a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

PACKAGE = "shipdataprep"
MODULES = (
    "model", "ingest", "timeline", "hindcast", "features", "validation",
    "corrections", "cleaning", "pipeline", "cli",
)

# self-time metric -> spans whose self time it sums
SELF_TIME = {
    "ingest.load_ship_csv_s": ("ingest.load_ship_csv",),
    "ingest.load_hindcast_s": ("ingest.load_hindcast",),
    "timeline.resample_s": ("timeline.resample",),
    "timeline.regularize_s": ("timeline.regularize",),
    "timeline.segment_s": (
        "timeline.segment_by_state", "timeline.segment_by_thresholds",
        "timeline.segment_by_ports",
    ),
    "hindcast.interpolate_s": ("hindcast.interpolate",),
    "hindcast.clean_gps_s": ("hindcast.clean_gps",),
    "features.derive_s": (
        "features.add_gps_heading", "features.add_leg_distance",
        "features.add_reference_height_wind", "features.resolve_ship_frame",
    ),
    "features.ais_checks_s": ("features.ais_speed_consistency", "features.ais_status_check"),
    "validation.checks_s": (
        "validation.check_power_identity", "validation.check_speed_power",
        "validation.detect_angular_fault", "validation.check_stw",
        "validation.check_longitudinal_wind",
    ),
    "corrections.draft_fix_s": (
        "corrections.detect_draft_events", "corrections.fix_draft_simple",
        "corrections.fix_draft_ramp",
    ),
    # the per-sample hydrostatics loop lives in the pipeline's stage function
    "corrections.hydrostatics_s": ("pipeline._hydrostatics_stage",),
    "corrections.resistance_s": ("corrections.resistance_components",),
    "cleaning.contextual_s": ("cleaning.contextual_filter",),
    "cleaning.quasi_steady_s": ("cleaning.quasi_steady_filter",),
    "cleaning.pca_s": ("cleaning.pca_fit", "cleaning.pca_score"),
    "model.rebuild_s": (
        "model.new_dataset", "model.VoyageDataset.adding_flags",
        "model.VoyageDataset.adding_variable", "model.VoyageDataset.with_values",
        "model.VoyageDataset.with_trip_ids", "model.VoyageDataset.with_interval",
    ),
    "model.column_s": ("model.VoyageDataset.column",),
    "pipeline.orchestration_self_s": ("pipeline.run_pipeline",),
    "pipeline.write_processed_csv_s": ("pipeline.write_processed_csv",),
    "pipeline.emit_plotdata_s": ("pipeline.emit_plotdata",),
    "pipeline.write_report_files_s": ("pipeline.write_report_files",),
}

CALL_COUNTS = {
    "hindcast.interpolate_calls": SELF_TIME["hindcast.interpolate_s"],
    "model.rebuilds": SELF_TIME["model.rebuild_s"],
    "model.column_calls": SELF_TIME["model.column_s"],
}

ROOT = "cli.main"


class Tracer:
    """Holds the spans of one process; ``install`` wraps the targets."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][1] = start
                spans[idx][2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the names that could not be found."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        targets = {n for names in SELF_TIME.values() for n in names}
        missing = []
        for target in sorted(targets):
            module_name, _, attr = target.partition(".")
            owner = modules[module_name]
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                missing.append(target)
                continue
            wrapper = self.wrap(target, original)
            if owner_path:  # a method: the class is the one place it is looked up
                setattr(owner, leaf, wrapper)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus the durations of its children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self-time and call-count metrics of one traced operation."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, *_), s in zip(spans, own):
        by_name[name] = by_name.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(by_name.get(n, 0.0) for n in names)
    for metric, names in CALL_COUNTS.items():
        metrics[metric] = sum(calls.get(n, 0) for n in names)
    metrics["cli.self_s"] = by_name.get(ROOT, 0.0)
    return metrics


def fired(spans: list[list]) -> set[str]:
    return {name for name, *_ in spans}

"""Command-line entry point.

Subcommands: ``ingest-check`` (parse and summarise the inputs), ``run``
(full pipeline, writes processed.csv + reports + plot data), ``report``
(re-run, write only the report files) and ``plotdata`` (re-run, write only
plot-data files). The pipeline is deterministic, so re-running for a subset
of artifacts reproduces the same results.

Exit codes: 0 success, 1 fatal ingest/config problem, 2 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .ingest import (
    ConfigError,
    IngestError,
    load_config,
    load_hindcast,
    load_particulars,
    load_ship_csv,
)
from .model import DatasetError, SchemaError
from .pipeline import emit_plotdata, run_pipeline, write_report_files

FATAL = (IngestError, ConfigError, SchemaError, DatasetError, FileNotFoundError, OSError)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shipdataprep",
        description="Process raw ship operational time-series for performance analysis",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("ingest-check", "parse all configured inputs and print a summary"),
        ("run", "run the full pipeline and write all artifacts"),
        ("report", "run the pipeline and write only report.txt/report.json"),
        ("plotdata", "run the pipeline and write only plot-data files"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="pipeline config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--stages",
            default=None,
            help="comma-separated stage subset overriding the config",
        )
        sp.add_argument(
            "--no-timestamp-header",
            action="store_true",
            help="omit the generated-at header line for byte-reproducible output",
        )
    return p


def _ingest_check(config) -> int:
    dataset = load_ship_csv(
        config.ship_csv, unit_map=config.unit_map, source_kind=config.source_kind
    )
    print(f"ship data: {len(dataset)} samples, {len(dataset.schema)} variables")
    if config.particulars:
        particulars = load_particulars(config.particulars)
        print(
            f"particulars: {particulars.ship_type.value}, "
            f"L={particulars.length} m, B={particulars.beam} m, "
            f"Td={particulars.design_draft} m"
        )
    if config.hindcast:
        grid = load_hindcast(config.hindcast)
        print(
            f"hindcast: {len(grid.variables)} variable(s) on "
            f"{len(grid.timestamps)}x{len(grid.latitudes)}x{len(grid.longitudes)} grid"
        )
    print("ingest check passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.stages:
            config = replace(
                config,
                stages=tuple(s.strip() for s in args.stages.split(",") if s.strip()),
            )
        if args.command == "ingest-check":
            return _ingest_check(config)

        result = run_pipeline(config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        header = not args.no_timestamp_header
        if args.command in ("run", "report"):
            write_report_files(result.report, out_dir, timestamp_header=header)
        if args.command in ("run", "plotdata"):
            # run writes processed.csv in the pass that writes the plot files
            processed = out_dir / "processed.csv" if args.command == "run" else None
            emit_plotdata(
                result.dataset, out_dir, result.particulars,
                processed=processed, timestamp_header=header,
            )
        for failure in result.stage_failures:
            print(f"stage failure: {failure}", file=sys.stderr)
        return result.exit_code
    except FATAL as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``ingest-check`` (read and check the inputs as ``run`` does,
and summarise them) and ``run`` (full pipeline, writes processed.csv,
the reports and the plot data). The config file alone chooses the stages.

Exit codes: 0 success, 1 fatal ingest/config problem, 2 stage failure.
"""

from __future__ import annotations

import argparse
import sys

from .ingest import ConfigError, IngestError, load_config
from .model import DatasetError, SchemaError
from .pipeline import emit_plotdata, load_inputs, run_pipeline, write_report_files

FATAL = (IngestError, ConfigError, SchemaError, DatasetError, OSError)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="shipdataprep",
        description="Process raw ship operational time-series for performance analysis",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("ingest-check", "parse all configured inputs and print a summary"),
        ("run", "run the full pipeline and write all artifacts"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", required=True, help="pipeline config file")
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument(
            "--no-timestamp-header",
            action="store_true",
            help="omit the generated-at header line for byte-reproducible output",
        )
    return p


def _ingest_check(config) -> int:
    dataset, particulars, grid, _, _ = load_inputs(config)
    print(f"ship data: {len(dataset)} samples, {len(dataset.schema)} variables")
    if particulars is not None:
        print(
            f"particulars: {particulars.ship_type.value}, "
            f"L={particulars.length} m, B={particulars.beam} m, "
            f"Td={particulars.design_draft} m"
        )
    if grid is not None:
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
        if args.command == "ingest-check":
            return _ingest_check(config)

        result = run_pipeline(config)
        header = not args.no_timestamp_header
        write_report_files(result.report, args.out, timestamp_header=header)
        emit_plotdata(result.dataset, args.out, result.particulars, timestamp_header=header)
        for failure in result.stage_failures:
            print(f"stage failure: {failure}", file=sys.stderr)
        return result.exit_code
    except FATAL as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

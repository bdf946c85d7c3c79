"""shipdataprep benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload hindcast_loop --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates the workload's inputs
from the seed, then launches one child interpreter per operation, each
running ``shipdataprep run --no-timestamp-header`` on those inputs. Children
run one at a time: at least two operations, then more while they still
end within ``--seconds``. The outputs are checked, and every operation must
write the same processed.csv.

``--trace 0`` reports the end-to-end metrics (medians over the run). Each
operation's times are corrected for the host's speed at that moment: scaled
by ``NOMINAL_REFERENCE_S`` over the time the child took for a fixed reference
kernel just before and after the operation (see child.py).
``--trace 1`` makes each round one plain and one traced operation and
reports per-layer self times from the traced ones, plus the tracing
overhead (traced wall time minus the plain median, both corrected).

The last line of standard output is the result object; diagnostics go to
standard error. Exit code 1 means no operation could be checked.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import generate
from spans import SELF_TIME, fired, layer_metrics

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # every child is killed before the run's 180 s limit
SUM_TOLERANCE = 0.03  # layer self times must cover the traced wall time this well
# the reference kernel's time on a 2-vCPU Xeon, between its quiet and busy
# periods; operation times are reported as if the host ran at that speed
NOMINAL_REFERENCE_S = 0.045

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {name: "s" for name in SELF_TIME}
LAYER_UNITS.update({
    "hindcast.interpolate_calls": "count",
    "hindcast.interpolate_us_per_sample_var": "us",
    "model.rebuilds": "count",
    "model.column_calls": "count",
    "pipeline.report_checks": "count",
    "pipeline.report_txt_bytes": "bytes",
    "pipeline.report_flag_mismatch": "count",
    "trace.overhead_s": "s",
})

# spans that must fire on each workload, or the traced run fails
COMMON_SPANS = {
    "ingest.load_ship_csv", "timeline.regularize", "timeline.segment_by_thresholds",
    "hindcast.clean_gps", "features.add_gps_heading", "features.add_leg_distance",
    "validation.check_power_identity", "validation.check_speed_power",
    "validation.detect_angular_fault", "validation.check_stw",
    "validation.check_longitudinal_wind", "cleaning.contextual_filter",
    "cleaning.quasi_steady_filter", "pipeline.run_pipeline",
    "pipeline.write_processed_csv", "pipeline.emit_plotdata",
    "pipeline.write_report_files", "model.new_dataset", "model.VoyageDataset.column",
}
REQUIRED_SPANS = {
    "hindcast_loop": COMMON_SPANS | {
        "ingest.load_hindcast", "hindcast.interpolate", "features.resolve_ship_frame",
        "features.add_reference_height_wind", "corrections.fix_draft_simple",
        "pipeline._hydrostatics_stage", "cleaning.pca_fit", "cleaning.pca_score",
    },
    "long_voyage": COMMON_SPANS | {
        "features.add_reference_height_wind", "corrections.detect_draft_events",
        "corrections.fix_draft_simple", "corrections.fix_draft_ramp",
        "pipeline._hydrostatics_stage", "corrections.resistance_components",
        "cleaning.pca_fit", "cleaning.pca_score",
    },
    "ais_feed": COMMON_SPANS | {
        "timeline.resample", "features.ais_speed_consistency", "features.ais_status_check",
    },
}
EXPECTED_INTERPOLATE_CALLS = {"hindcast_loop": 2, "long_voyage": 0, "ais_feed": 0}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Children:
    """Launches child interpreters one at a time, each within the deadline."""

    def __init__(self, src: Path, work: Path, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.work = work
        self.deadline = deadline
        self.count = 0

    def launch(self, mode: str, *args: str) -> dict | None:
        self.count += 1
        result_path = self.work / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path), *args]
        launched = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - launched), text=True,
            )
        except subprocess.TimeoutExpired:
            log(f"child {mode} timed out")
            return None
        if proc.returncode != 0 or not result_path.exists():
            log(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - launched
        return result


def corrected(res: dict, key: str) -> float:
    """An operation's time as if the host ran at its nominal speed."""
    return res[key] * NOMINAL_REFERENCE_S / res["reference_s"]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(args, root: Path, work: Path) -> dict | None:
    src = root / "src"
    sys.path.insert(0, str(src))
    model = importlib.import_module("shipdataprep.model")  # for report.covers

    t_begin = time.monotonic()
    plan = generate.build(args.workload, args.seed, work / "inputs")
    children = Children(src, work, t_begin + DEADLINE_S)

    # the first import compiles the package; users pay that once, not per run
    if children.launch("probe") is None:
        return None

    # a round is one plain operation, or a plain and a traced one; at least
    # two operations, so that every run compares two outputs, and then another
    # round only while a typical round still ends within --seconds
    modes = ("run", "trace") if args.trace else ("run",)
    ops: list[tuple[str, dict | None, Path]] = []
    digests: set[str] = set()
    rounds: list[float] = []
    start = time.monotonic()
    while len(ops) < 2 or time.monotonic() - start + statistics.median(rounds) <= args.seconds:
        began = time.monotonic()
        for mode in modes:
            out = work / f"out-{len(ops) + 1}"
            res = children.launch(mode, str(plan.config), str(out))
            if res is not None and (
                res["exit_code"] != 0
                or not Path(res["module"]).resolve().is_relative_to(src.resolve())
            ):
                log(f"operation {len(ops) + 1}: exit code {res['exit_code']}, module {res['module']}")
                res = None
            if res is not None:
                digests.add(digest(out / "processed.csv"))
                if mode == "run" and any(r is not None for _, r, _ in ops):
                    shutil.rmtree(out)  # checked by its digest; keeps the disk footprint flat
            ops.append((mode, res, out))
        rounds.append(time.monotonic() - began)

    good = [(mode, res, out) for mode, res, out in ops if res is not None]
    if not good:
        return None
    problems = checks.check_outputs(plan, good[0][2], model)
    if len(digests) != 1:
        problems.append(f"processed.csv differs between operations ({len(digests)} versions)")

    plain = [res for mode, res, _ in good if mode == "run"]
    traced = [(res, out) for mode, res, out in good if mode == "trace"]
    log("operation wall_s: " + " ".join(
        f"{mode}={res['wall_s']:.3f}/{res['reference_s'] * 1e3:.1f}ms" for mode, res, _ in good
    ))
    if args.trace:
        if not plain or not traced:
            return None
        metrics = layer_report(args.workload, plan, plain, traced, problems)
    else:
        metrics = {
            "setup_s": statistics.median(corrected(r, "setup_s") for r in plain),
            "wall_s": statistics.median(corrected(r, "wall_s") for r in plain),
            "rows_per_s": statistics.median(plan.csv_rows / corrected(r, "wall_s") for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        log(f"raw medians: setup_s={statistics.median(r['setup_s'] for r in plain):.4f} "
            f"wall_s={statistics.median(r['wall_s'] for r in plain):.4f} "
            f"reference_s={statistics.median(r['reference_s'] for r in plain):.5f}")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    for p in problems:
        log(f"check failed: {p}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": metrics,
    }


def layer_report(workload, plan, plain, traced, problems) -> dict:
    per_op = []
    for res, out in traced:
        missing = REQUIRED_SPANS[workload] - fired(res["spans"])
        if res["unwrapped"] or missing:
            problems.append(f"spans never fired: {sorted(missing | set(res['unwrapped']))}")
        m = layer_metrics(res["spans"])
        covered = sum(m[k] for k in SELF_TIME) + m.pop("cli.self_s")
        if abs(covered - res["wall_s"]) > SUM_TOLERANCE * res["wall_s"]:
            problems.append(f"self times sum to {covered:.3f} s of {res['wall_s']:.3f} s traced")
        if m["hindcast.interpolate_calls"] != EXPECTED_INTERPOLATE_CALLS[workload]:
            problems.append(f"interpolate ran {m['hindcast.interpolate_calls']} time(s)")

        report = json.loads((out / "report.json").read_text())
        pairs = sum(
            sum(v for k, v in e["summary"].items() if k.startswith("samples_"))
            for e in report["stages"] if e["stage"] == "interpolate"
        )
        m["hindcast.interpolate_us_per_sample_var"] = (
            1e6 * m["hindcast.interpolate_s"] / pairs if pairs else 0.0
        )
        m["pipeline.report_checks"] = sum(len(e["checks"]) for e in report["stages"])
        m["pipeline.report_txt_bytes"] = (out / "report.txt").stat().st_size
        data = checks.Processed(out / "processed.csv")
        m["pipeline.report_flag_mismatch"] = abs(
            checks.report_flag_total(report) - data.flag_pairs()
        )
        m["trace.overhead_s"] = corrected(res, "wall_s") - statistics.median(
            corrected(r, "wall_s") for r in plain
        )
        per_op.append(m)
    return {
        name: {"value": statistics.median(m[name] for m in per_op), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shipdataprep" / "cli.py").is_file():
        log(f"{root}: no src/shipdataprep/cli.py; run from the root of a checkout")
        return 1
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        log("no operation completed; no result")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness of the end-to-end metrics over seeds.

    python3 perfbench/steady.py --seeds 1-10 [--workloads a,b] [--save set1.json]
    python3 perfbench/steady.py --compare set1.json set2.json

The first form runs the benchmark once per seed and workload, one run at a
time, with the run length of BENCHMARK.json, and prints for each metric the
median, the quartiles and the quartile spread as a share of the median,
next to a third of the metric's bound. The second form prints, per metric,
how far the second set's median is from the first's, against the bound, and
the share of failed operations of each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = json.loads(Path("BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCH["end_to_end"]}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads: list[str], seed_list: list[int], trace: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for w in workloads:
        for s in seed_list:
            cmd = [*BENCH["command"], "--workload", w, "--seed", str(s),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
            began = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            elapsed = time.monotonic() - began
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {proc.returncode}, no result", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            result["seed"] = s
            result["elapsed_s"] = elapsed
            runs[w].append(result)
            print(f"{w} seed {s}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} elapsed={elapsed:.1f}s", file=sys.stderr)
    return runs


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and quartile spread as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs: dict) -> None:
    for w, results in runs.items():
        if len(results) < 2:
            print(f"{w}: {len(results)} result(s), nothing to summarize")
            continue
        failed = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        print(f"{w}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
              f"failed share {failed:.4f}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(vals)
            bound = BOUNDS.get(name, {}).get("bound")
            limit = f"  bound/3 {bound / 3:.4f}{'  OVER' if rel > bound / 3 else ''}" if bound else ""
            print(f"  {name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.4f}{limit}")


def compare(first: dict, second: dict) -> None:
    for w in first:
        a, b = first[w], second.get(w, [])
        if not a or not b:
            continue
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print(f"{w}: failed share {fa:.4f} vs {fb:.4f}")
        for name, spec in BOUNDS.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in a)
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            flag = "  WORSE THAN BOUND" if worse > spec["bound"] else ""
            print(f"  {name:14s} {ma:.6g} -> {mb:.6g}  worse by {worse:+.4f} (bound {spec['bound']}){flag}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second)
        return 0
    runs = collect(args.workloads.split(","), seeds(args.seeds), args.trace)
    if args.save:
        Path(args.save).write_text(json.dumps(runs))
    summarize(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())

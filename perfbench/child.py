"""One benchmark operation, run in its own interpreter.

    python3 child.py probe RESULT_JSON
    python3 child.py run   RESULT_JSON CONFIG OUT_DIR
    python3 child.py trace RESULT_JSON CONFIG OUT_DIR

Every mode imports ``shipdataprep.cli`` (found through PYTHONPATH) and
records the monotonic clock once it is ready, so the parent can subtract its
launch time. ``run`` then times one ``shipdataprep run --no-timestamp-header``
and reads the process's peak resident memory; ``trace`` does the same with
span wrappers installed and also writes the spans.

``run`` and ``trace`` also time a fixed reference kernel, which does not
touch the program, twice right after the import and twice right after the
operation. The host's speed drifts by up to half within a minute; the
parent divides the operation's times by this kernel's time to take that
drift out.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import numpy as np

REFERENCE_PASSES = 2  # kernel passes before and after the operation


def reference_kernel() -> float:
    """Seconds for a fixed mix of the kinds of work the program does.

    Numpy passes over a 4 MB array (more than one core's L2 cache, so the
    kernel feels contention for the shared cache as the program does),
    number formatting and parsing as in the CSV writers and readers, and a
    plain interpreter loop.
    """
    began = time.perf_counter()
    v = np.full(500_000, 1.5)
    for _ in range(8):
        np.sqrt(v, out=v)
        np.multiply(v, 1.5, out=v)
    for _ in range(3):
        text = ",".join(f"{x:.6g}" for x in v[:15_000].tolist())
        cells = {i: float(t) for i, t in enumerate(text.split(","))}
    x = len(cells)
    for i in range(60_000):
        x += i * i % 7
    return time.perf_counter() - began


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], argv[1]
    import shipdataprep.cli as cli

    ready = time.monotonic()
    result: dict = {"ready": ready, "module": cli.__file__}
    if mode != "probe":
        config, out_dir = argv[2], argv[3]
        entry = cli.main
        tracer = None
        if mode == "trace":
            from spans import ROOT, Tracer

            tracer = Tracer()
            result["unwrapped"] = tracer.install()
            entry = tracer.wrap(ROOT, cli.main)
        reference = [reference_kernel() for _ in range(REFERENCE_PASSES)]
        start = time.perf_counter()
        code = entry(["run", "--config", config, "--out", out_dir, "--no-timestamp-header"])
        result["wall_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference += [reference_kernel() for _ in range(REFERENCE_PASSES)]
        result["reference_s"] = sum(reference) / len(reference)
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

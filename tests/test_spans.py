"""The benchmark's span targets (``perfbench/spans.py``) name functions and
methods that exist in the package, so a rename cannot silently drop a layer
from the traced metrics; one traced CLI run fires every span that the
traced benchmark requires on each workload (``COMMON_SPANS`` in
``perfbench/run.py``); and a traced run on the inputs that
``perfbench/generate.py`` builds for each workload fires that workload's
``REQUIRED_SPANS``. A refactor that stops calling one (the draft fixes, the
hydrostatics stage, ...) fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import VoyageBuilder

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"
WORKLOADS = ("hindcast_loop", "long_voyage", "ais_feed")

# run in a child interpreter, so that the wrappers stay out of this process;
# with a workload name, the config argument is the directory to build its
# seed-1 inputs in
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import COMMON_SPANS, REQUIRED_SPANS
from spans import Tracer, fired
config, out, workload = sys.argv[2], sys.argv[3], sys.argv[4:]
if workload:
    import generate
    config = generate.build(workload[0], 1, config).config
tracer = Tracer()
unwrapped = tracer.install()
import shipdataprep.cli as cli
code = cli.main(["run", "--config", str(config), "--out", out, "--no-timestamp-header"])
required = REQUIRED_SPANS[workload[0]] if workload else COMMON_SPANS
print(json.dumps({"code": code, "unwrapped": unwrapped, "workloads": sorted(REQUIRED_SPANS),
                  "missing": sorted(required - fired(tracer.spans))}))
"""


def traced_run(tmp_path, config, *workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(config),
         str(tmp_path / "out"), *workload],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    missing = []
    for target in sorted({n for names in spans.SELF_TIME.values() for n in names}):
        module_name, _, attr = target.partition(".")
        owner = importlib.import_module(f"{spans.PACKAGE}.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) or hasattr(owner, "__wrapped__"):
            missing.append(target)
    assert missing == []


def test_common_spans_fire_on_a_traced_run(tmp_path):
    paths = VoyageBuilder(tmp_path).build()
    result = traced_run(tmp_path, paths["config"])
    assert result == {"code": 0, "unwrapped": [], "workloads": sorted(WORKLOADS),
                      "missing": []}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_required_spans_fire_on_each_workload(tmp_path, workload):
    result = traced_run(tmp_path, tmp_path / "inputs", workload)
    assert result == {"code": 0, "unwrapped": [], "workloads": sorted(WORKLOADS),
                      "missing": []}

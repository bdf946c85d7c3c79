"""The benchmark's span targets (``perfbench/spans.py``) name functions and
methods that exist in the package, so a rename cannot silently drop a layer
from the traced metrics; and one traced CLI run fires every span that the
traced benchmark requires on each workload (``COMMON_SPANS`` in
``perfbench/run.py``), so a refactor that stops calling one fails here and
not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import VoyageBuilder

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"

# run in a child interpreter, so that the wrappers stay out of this process
TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from run import COMMON_SPANS
from spans import Tracer, fired
tracer = Tracer()
unwrapped = tracer.install()
import shipdataprep.cli as cli
code = cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3], "--no-timestamp-header"])
print(json.dumps({"code": code, "unwrapped": unwrapped,
                  "missing": sorted(COMMON_SPANS - fired(tracer.spans))}))
"""


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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(paths["config"]),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "unwrapped": [], "missing": []}

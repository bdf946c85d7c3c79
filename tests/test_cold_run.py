"""A run imports nothing beyond the package: the modules a fresh interpreter
loads during ``cli.main`` (after ``import shipdataprep.cli``) are at most
argparse's ``locale``. Each such import is a fixed cost of every run, and
the CLI runs once per voyage file. numpy loads ``numpy.ma`` lazily on the
first ``np.median``, ``np.quantile`` or plain ``np.unique`` call (about
20 ms), so one of those calls put back into a stage fails this test.

The inputs are built in this process, since ``perfbench/generate.py`` itself
calls ``np.unique``; only the run happens in the child interpreter."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import VoyageBuilder

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hindcast_loop", "long_voyage", "ais_feed")
ALLOWED = {"locale", "_locale"}  # argparse imports it to format its messages

COLD_RUN = """
import json, sys
import shipdataprep.cli as cli
before = set(sys.modules)
code = cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--no-timestamp-header"])
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""


def cold_run(config, out) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_RUN, str(config), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def load_generate():
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_run_loads_no_new_module(tmp_path, workload):
    plan = load_generate().build(workload, 1, tmp_path / "inputs")
    result = cold_run(plan.config, tmp_path / "out")
    assert result["code"] == 0
    assert set(result["loaded"]) <= ALLOWED, result["loaded"]


def test_golden_voyage_run_loads_no_new_module(tmp_path):
    paths = VoyageBuilder(tmp_path, wind="head_east", wind_dir_fault=True,
                          resistance=True, drop_rows=(53,)).build()
    result = cold_run(paths["config"], tmp_path / "out")
    assert result["code"] == 0
    assert set(result["loaded"]) <= ALLOWED, result["loaded"]

"""The benchmark's span targets (``perfbench/spans.py``) name functions and
methods that exist in the package, so a rename cannot silently drop a layer
from the traced metrics. Names are only resolved; no wrapper is installed."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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

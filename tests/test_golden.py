"""End-to-end golden outputs: every file ``shipdataprep run`` writes for a
small VoyageBuilder voyage (3 trips x 40 rows, head-east wind, the
wind-direction fault, a wind resistance table and one dropped row) must
match the files in ``tests/golden/``.

Timestamps, text, trip ids, flag columns, verdicts and counts match exactly.
Tokens written as floats (with a ``.``, an exponent, ``inf`` or ``nan``)
match to ``math.isclose(rel_tol=1e-9, abs_tol=1e-12)``, because numpy's SIMD
sin/cos may differ in the last bit between CPUs.

Regenerate the golden files (only for an intended output change, listed in
CHANGES.md) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import math
import re
import sys
import tempfile
from pathlib import Path

from conftest import VoyageBuilder
from shipdataprep.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9
ABS_TOL = 1e-12

# a number token: an integer, a float, inf or nan
_NUMBER = re.compile(
    r"[-+]?(?:inf|nan|(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)"
)


def run_voyage(root: Path) -> Path:
    (root / "in").mkdir()
    paths = VoyageBuilder(
        root / "in", wind="head_east", wind_dir_fault=True, resistance=True,
        drop_rows=(53,),
    ).build()
    out = root / "out"
    code = main(["run", "--config", str(paths["config"]), "--out", str(out),
                 "--no-timestamp-header"])
    assert code == 0
    return out


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eEin")  # inf and nan contain 'n'


def _same_token(got: str, want: str) -> bool:
    if got == want:
        return True
    if not (_is_float(got) and _is_float(want)):
        return False
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_lines(name: str, got: str, want: str) -> list[str]:
    """Differences between two files, line by line: the text between number
    tokens must be equal, and each pair of numbers must match."""
    problems = []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        problems.append(f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}")
    for k, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g == w:
            continue
        g_tokens, w_tokens = _NUMBER.findall(g), _NUMBER.findall(w)
        same = (
            _NUMBER.split(g) == _NUMBER.split(w)
            and len(g_tokens) == len(w_tokens)
            and all(_same_token(a, b) for a, b in zip(g_tokens, w_tokens))
        )
        if not same:
            problems.append(f"{name}:{k}: {g!r} != golden {w!r}")
    return problems


def test_outputs_match_golden(tmp_path):
    out = run_voyage(tmp_path)
    got_files = sorted(p.name for p in out.iterdir())
    want_files = sorted(p.name for p in GOLDEN.iterdir())
    assert got_files == want_files
    problems = []
    for name in want_files:
        problems += compare_lines(
            name, (out / name).read_text(), (GOLDEN / name).read_text()
        )
    assert not problems, "\n".join(problems[:20])


def test_comparison_rejects_changed_cells():
    line = "2020-09-13T14:56:40Z,8.0,-18.00012301533575,1,At Berth"
    assert not compare_lines("f", line, line)
    close = "2020-09-13T14:56:40Z,8.0,-18.000123015335752,1,At Berth"
    assert not compare_lines("f", close, line)
    for changed in (
        "2020-09-13T15:11:40Z,8.0,-18.00012301533575,1,At Berth",  # timestamp
        "2020-09-13T14:56:40Z,8.0,-18.00013,1,At Berth",  # beyond tolerance
        "2020-09-13T14:56:40Z,8.0,-18.00012301533575,0,At Berth",  # flag
        "2020-09-13T14:56:40Z,8.0,-18.00012301533575,1,At Sea",  # text
        "2020-09-13T14:56:40Z,8.0,,1,At Berth",  # missing cell
        "2020-09-13T14:56:40Z,8,-18.00012301533575,1,At Berth",  # int vs float
    ):
        assert compare_lines("f", changed, line), changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        written = run_voyage(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.iterdir():
            old.unlink()
        for path in sorted(written.iterdir()):
            (GOLDEN / path.name).write_bytes(path.read_bytes())
            print(path.name, file=sys.stderr)

"""README.md names what the program accepts: the command-line block lists the
parser's subcommands, and every config field, steady-filter tolerance key and
particulars key appears."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from shipdataprep.cli import _parser
from shipdataprep.ingest import DEFAULT_GRADIENT_TOLERANCE, PARTICULARS_KEYS, PipelineConfig

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_command_line_block_lists_the_subcommands():
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("shipdataprep ")]
    (sub,) = [a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(sub.choices)


def test_every_config_field_and_particulars_key_is_named():
    names = [f.name for f in fields(PipelineConfig)] + list(PARTICULARS_KEYS)
    assert [n for n in names if not re.search(rf"`{n}\b|^{n} ", README, re.M)] == []


def test_every_gradient_tolerance_key_is_named():
    names = [*DEFAULT_GRADIENT_TOLERANCE, "default"]
    assert [n for n in names if f"`gradient_tolerance.{n}`" not in README] == []

"""Every name a module of the package imports is used in that module, and
every function, method and class the package defines is used by the program
(``src/`` and ``perfbench/``).

Reads the source with ``ast`` only, so it needs nothing but the standard
library. ``__init__.py`` is left out of the import check: its imports are
the package's exports.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "shipdataprep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> its line; ``__future__`` imports are
    compiler directives and bind nothing that code uses."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [
        a for n in ast.walk(tree)
        for a in (getattr(n, "annotation", None), getattr(n, "returns", None))
        if a is not None
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {n: line for n, line in imported_names(tree).items() if n not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from x import a, b as c\n"
        "def f(v: 'a') -> None:\n"
        "    return os\n"
    )
    assert set(imported_names(tree)) - used_names(tree) == {"c"}



# -- reach: every definition of the package is used by the program -----------

PERFBENCH = PACKAGE.parent.parent / "perfbench"
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

# definitions that no module of src/ or perfbench/ refers to, kept on purpose
REACH_ALLOWLIST = {
    "power_at": "the scalar test reference of CalmWaterCurve.powers_at",
}


def definitions(tree: ast.Module) -> dict[str, tuple[int, bool]]:
    """Each function, method and class defined in ``tree`` -> (its line,
    whether it is a method). Dunder methods are left out: Python calls them."""
    methods = {
        child for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return {
        node.name: (node.lineno, node in methods)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def references(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names ``tree`` reads (quoted annotations included) and the
    attributes it reads. A string that is a dotted name, as a span name
    (``"model.VoyageDataset.column"``), reads each of its parts as both."""
    plain = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    names = {n.id for n in plain if isinstance(n.ctx, ast.Load)}
    names |= used_names(tree) - {n.id for n in plain}  # the quoted annotations
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if "." in node.value and DOTTED.fullmatch(node.value):
                names |= set(node.value.split("."))
                attributes |= set(node.value.split("."))
    return names, attributes


def unreached(defining: dict[str, str], reading: dict[str, str]) -> dict[str, str]:
    """``name -> module:line`` of each definition in the ``defining`` modules
    (file name -> source) that none of the ``reading`` modules refers to: a
    function or a class by name or attribute, a method by attribute."""
    names, attributes = set(), set()
    for source in reading.values():
        got = references(ast.parse(source))
        names |= got[0]
        attributes |= got[1]
    return {
        name: f"{module}:{line}"
        for module, source in defining.items()
        for name, (line, method) in definitions(ast.parse(source)).items()
        if name not in attributes and (method or name not in names)
        and name not in REACH_ALLOWLIST
    }


def test_every_definition_is_reached_by_the_program():
    src = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    program = {**src, **{f"perfbench/{p.name}": p.read_text() for p in PERFBENCH.glob("*.py")}}
    missing = unreached(src, program)
    assert not missing, f"defined in src/, used by no module of src/ or perfbench/: {missing}"


def test_the_reach_check_sees_an_unused_definition():
    a = (
        "class C:\n"
        "    def used(self): pass\n"
        "    def unused_method(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "def helper(): return C().used()\n"
        "def orphan(): pass\n"
        "def spanned(): pass\n"
    )
    b = "import a\nSPAN = 'a.spanned'\norphan = 1\nunused_method()\na.helper()\n"
    assert unreached({"a.py": a}, {"a.py": a, "b.py": b}) == {
        "unused_method": "a.py:3", "orphan": "a.py:6",
    }

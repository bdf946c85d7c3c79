"""Every name a module of the package imports is used in that module,
every function, method and class the package defines is used by the program
(``src/`` and ``perfbench/``), every field of a package dataclass is read by
it, a parameter that the pipeline passes a config value keeps no default
of its own, and every default of a package function or method is omitted by
at least one call of the program (a default that only tests rely on is not
one the program has).

All but the config check read the source with ``ast`` only; the config
check also imports ``pipeline`` to read its callees' signatures with
``inspect``.
``__init__.py`` is left out of the import check: its imports are the
package's exports.
"""

import ast
import inspect
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
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
# generic annotations whose one argument is the type of their items
SEQUENCES = {"list", "set", "frozenset", "Sequence", "Iterable", "Iterator"}

# definitions that no module of src/ or perfbench/ refers to, kept on purpose
REACH_ALLOWLIST = {
    "power_at": "the scalar test reference of CalmWaterCurve.powers_at",
}

# methods that also count as reached when a module reads an attribute of
# their name through a receiver whose type the gate cannot tell -> why
NAME_MATCHED = {
    "check": "StageEntry.check, called by perfbench/checks.check_covers on an entry of "
             "a report built from the model module it is passed as an argument",
    "covers": "ProcessingReport.covers, called by perfbench/checks.check_covers on a "
              "report built from the model module it is passed as an argument",
}

Type = tuple[str, str]  # ("inst" | "class" | "seq", class) or ("module", module stem)


def scope_nodes(node: ast.AST):
    """The nodes of ``node``'s own scope in source order; a nested function,
    class or lambda is yielded, but its insides are a scope of its own."""
    todo = list(ast.iter_child_nodes(node))[::-1]
    while todo:
        child = todo.pop()
        yield child
        if not isinstance(child, SCOPES):
            todo.extend(list(ast.iter_child_nodes(child))[::-1])


class Package:
    """The modules, classes and functions that the ``defining`` sources
    define, and the types of expressions as their annotations tell them."""

    def __init__(self, defining: dict[str, str]):
        self.modules = {Path(m).stem for m in defining}
        trees = [ast.parse(source) for source in defining.values()]
        self.classes = {n.name: n for t in trees for n in t.body if isinstance(n, ast.ClassDef)}
        self.functions = {
            n.name: n for t in trees for n in t.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def member(self, cls: str, name: str) -> tuple[str, ast.AST] | None:
        """The definition of ``name`` in class ``cls``: a method, or an
        attribute's annotation."""
        node = self.classes[cls]
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == name:
                return cls, child
            if isinstance(child, ast.AnnAssign) and getattr(child.target, "id", None) == name:
                return cls, child.annotation
        for child in ast.walk(node):  # self.<name>: <annotation> in a method
            target = getattr(child, "target", None)
            if (isinstance(child, ast.AnnAssign) and isinstance(target, ast.Attribute)
                    and getattr(target.value, "id", None) == "self" and target.attr == name):
                return cls, child.annotation
        return None

    def annotated(self, node: ast.AST | None) -> Type | None:
        """The type an annotation names: a package class, or a sequence of one."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotated(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.BinOp):  # X | None
            return self.annotated(node.left) or self.annotated(node.right)
        if isinstance(node, ast.Subscript):
            generic = getattr(node.value, "id", getattr(node.value, "attr", None))
            inner = self.annotated(node.slice)
            sequence = generic in SEQUENCES and inner and inner[0] == "inst"
            return ("seq", inner[1]) if sequence else None
        name = getattr(node, "id", getattr(node, "attr", None))
        return ("inst", name) if name in self.classes else None

    def type_of(self, node: ast.AST, env: dict[str, Type | None]) -> Type | None:
        """The type of expression ``node`` in a scope whose names have the
        types ``env``, or None where the gate cannot tell."""
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.classes:
                return "class", node.id
            return ("module", node.id) if node.id in self.modules else None
        if isinstance(node, ast.Attribute):
            owner = self.type_of(node.value, env)
            if owner and owner[0] == "module":
                return self.type_of(ast.Name(node.attr), {})
            found = owner and owner[0] != "seq" and self.member(owner[1], node.attr)
            if not found or isinstance(found[1], ast.FunctionDef):
                return None  # a method, or no member of the package
            return self.annotated(found[1])
        if isinstance(node, ast.Call):
            called = self.type_of(node.func, env)
            if called and called[0] == "class":
                return "inst", called[1]
            defn = self.callee(node.func, env)
            return self.annotated(defn.returns) if defn else None
        return None

    def callee(self, func: ast.AST, env: dict[str, Type | None]) -> ast.FunctionDef | None:
        if isinstance(func, ast.Name):
            return None if func.id in env else self.functions.get(func.id)
        if not isinstance(func, ast.Attribute):
            return None
        owner = self.type_of(func.value, env)
        found = owner and owner[0] not in ("module", "seq") and self.member(owner[1], func.attr)
        return found[1] if found and isinstance(found[1], ast.FunctionDef) else None

    @staticmethod
    def item(of: Type | None) -> Type | None:
        return ("inst", of[1]) if of and of[0] == "seq" else None

    def bind(self, scope: ast.AST, env: dict[str, Type | None]) -> None:
        """Add to ``env`` the type of each name that ``scope`` binds, None
        where its bindings disagree or are unknown."""
        found: dict[str, set] = {}
        for node in scope_nodes(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, typ = node.targets[0], self.type_of(node.value, env)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                target, typ = node.target, self.item(self.type_of(node.iter, env))
            else:
                continue
            if isinstance(target, ast.Name):
                found.setdefault(target.id, set()).add(typ)
        for name, types in found.items():
            known = types - {None}
            env[name] = known.pop() if len(known) == 1 else None


class Reads:
    """What the reading modules refer to: the ``(owner, name)`` pairs that
    resolve, the owner a class or a module stem; the names read plainly
    (quoted annotations included); and the attribute names read through a
    receiver of unknown type."""

    def __init__(self, package: Package):
        self.package = package
        self.resolved: set[tuple[str, str]] = set()
        self.names: set[str] = set()
        self.untyped: set[str] = set()

    def module(self, tree: ast.Module) -> None:
        plain = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
        self.names |= {n.id for n in plain if isinstance(n.ctx, ast.Load)}
        self.names |= used_names(tree) - {n.id for n in plain}  # the quoted annotations
        self.scope(tree, {})

    def scope(self, node: ast.AST, outer: dict[str, Type | None], cls: str | None = None) -> None:
        """Read ``node``'s scope; ``cls`` is the class whose method it is."""
        env = dict(outer)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, [a.vararg, a.kwarg])]
            env |= {p.arg: self.package.annotated(p.annotation) for p in params}
            if cls in self.package.classes and params:
                env[params[0].arg] = ("inst", cls)  # self, or a classmethod's cls
        self.package.bind(node, env)
        package = self.package
        for child in scope_nodes(node):
            if isinstance(child, SCOPES):
                self.scope(child, env, node.name if isinstance(node, ast.ClassDef) else None)
            elif isinstance(child, ast.Attribute):
                owner = package.type_of(child.value, env)
                if owner is None:
                    self.untyped.add(child.attr)
                elif owner[0] == "module":
                    self.resolved.add((owner[1], child.attr))
                elif owner[0] != "seq" and (found := package.member(owner[1], child.attr)):
                    self.resolved.add((found[0], child.attr))
            elif isinstance(child, ast.Constant) and isinstance(child.value, str) \
                    and "." in child.value and DOTTED.fullmatch(child.value):
                # a span name: "module.function" or "module.Class.method"
                module, name, *rest = child.value.split(".")
                if module in package.modules:
                    self.resolved.add((module, name))
                    if name in package.classes and rest:
                        found = package.member(name, rest[0])
                        self.resolved |= {(found[0], rest[0])} if found else set()


def definitions(tree: ast.Module) -> list[tuple[str, int, str | None]]:
    """Each function, method and class defined in ``tree``: its name, line
    and, for a method, its class. Dunder methods are left out: Python calls
    them."""
    owner = {
        child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for child in node.body if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return [
        (node.name, node.lineno, owner.get(node))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def unreached(
    defining: dict[str, str], reading: dict[str, str], name_matched=NAME_MATCHED
) -> dict[str, str]:
    """``name -> module:line`` of each definition in the ``defining`` modules
    (file name -> source) that none of the ``reading`` modules refers to.

    A function or a class is reached by its name, or as an attribute of its
    module. A method is reached as an attribute of a receiver typed as its
    class: ``self``, the class itself, or a name whose annotation, constructor
    call or annotated source says so. A name in ``name_matched`` is reached
    by an attribute of that name on a receiver of unknown type too."""
    package = Package(defining)
    reads = Reads(package)
    for source in reading.values():
        reads.module(ast.parse(source))
    missing = {}
    for module, source in defining.items():
        stem = Path(module).stem
        for name, line, cls in definitions(ast.parse(source)):
            if cls:
                reached = (cls, name) in reads.resolved or (
                    name in name_matched and name in reads.untyped
                )
            else:
                reached = name in reads.names or (stem, name) in reads.resolved
            if not reached and name not in REACH_ALLOWLIST:
                missing[name] = f"{module}:{line}"
    return missing


def dataclass_fields(tree: ast.Module) -> list[tuple[str, int, str]]:
    """Each annotated field of a dataclass defined in ``tree``: its name,
    line and class."""
    def is_dataclass(decorator: ast.AST) -> bool:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        return getattr(f, "id", getattr(f, "attr", None)) == "dataclass"

    return [
        (child.target.id, child.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))
        for child in node.body
        if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name)
    ]


def unread_fields(defining: dict[str, str], reading: dict[str, str]) -> dict[str, str]:
    """``Class.field -> module:line`` of each dataclass field in the
    ``defining`` modules whose name none of the ``reading`` modules reads as
    an attribute, on any receiver (matched by name, like ``NAME_MATCHED``)."""
    read = {
        n.attr for source in reading.values() for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return {
        f"{cls}.{name}": f"{module}:{line}"
        for module, source in defining.items()
        for name, line, cls in dataclass_fields(ast.parse(source)) if name not in read
    }


def program_sources() -> tuple[dict[str, str], dict[str, str]]:
    """The package's sources, and those of the whole program."""
    src = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    return src, {**src, **{f"perfbench/{p.name}": p.read_text() for p in PERFBENCH.glob("*.py")}}


def test_every_definition_is_reached_by_the_program():
    missing = unreached(*program_sources())
    assert not missing, f"defined in src/, used by no module of src/ or perfbench/: {missing}"


def test_every_dataclass_field_is_read_by_the_program():
    unread = unread_fields(*program_sources())
    assert not unread, f"dataclass fields no module of src/ or perfbench/ reads: {unread}"


def test_the_field_check_sees_an_unread_field():
    a = (
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    read: int\n"
        "    written: int\n"
        "    unread: int = 0\n"
        "@dataclasses.dataclass\n"
        "class Q:\n"
        "    other: int\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    b = "p.read\np.written = 1\nother = 2\n"
    assert unread_fields({"a.py": a}, {"a.py": a, "b.py": b}) == {
        "P.written": "a.py:6", "P.unread": "a.py:7", "Q.other": "a.py:10",
    }


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


def test_the_reach_check_resolves_methods_through_their_receiver():
    a = (
        "class Grid:\n"
        "    def variable(self): pass\n"
        "class Check:\n"
        "    variable: str\n"
        "    def to_dict(self): pass\n"
        "class Entry:\n"
        "    checks: list[Check]\n"
        "    def to_dict(self): return [c.variable for c in self.checks]\n"
        "    @classmethod\n"
        "    def parse(cls) -> 'Entry': return cls()\n"
        "def report(e: Entry | None) -> Grid: return e.to_dict()\n"
    )
    # a field, and attributes of untyped receivers, reach no method of their name
    b = "import a\nargs.variable\nargs.to_dict()\na.report(a.Entry.parse())\n"
    assert unreached({"a.py": a}, {"a.py": a, "b.py": b}) == {
        "variable": "a.py:2", "to_dict": "a.py:5",
    }
    assert unreached({"a.py": a}, {"a.py": a, "b.py": b}, name_matched={"variable": ""}) == {
        "to_dict": "a.py:5",
    }


@pytest.mark.parametrize("name", sorted(NAME_MATCHED))
def test_each_name_matched_method_needs_it(name):
    src, program = program_sources()
    fewer = {k: v for k, v in NAME_MATCHED.items() if k != name}
    assert name in unreached(src, program, name_matched=fewer)


# -- config: every tunable has one default, the one of PipelineConfig ---------


def reads_config(node: ast.AST) -> bool:
    """Whether expression ``node`` reads a ``config.<field>``; a call or a
    lambda inside it is a call of its own."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config":
        return True
    return not isinstance(node, (ast.Call, ast.Lambda)) and any(
        map(reads_config, ast.iter_child_nodes(node))
    )


def resolve(node: ast.AST, namespace: dict):
    """The object a dotted name denotes in ``namespace``, or None."""
    if isinstance(node, ast.Name):
        return namespace.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = resolve(node.value, namespace)
        return None if owner is None else getattr(owner, node.attr, None)
    return None


def defaulted_config_parameters(source: str, namespace: dict) -> list[str]:
    """``callee.parameter`` for each argument of a call in ``source`` that
    reads ``config.<field>`` and lands on a parameter with a default of its
    own. The callee is resolved in ``namespace``, a module's globals, and
    its parameters are read with ``inspect``; a callee that does not resolve
    there (a local, a builtin name, a method of a value), or that has no
    signature (a builtin type), is left out."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        positions = [k for k, a in enumerate(call.args) if reads_config(a)]
        keywords = [kw.arg for kw in call.keywords if kw.arg and reads_config(kw.value)]
        callee = resolve(call.func, namespace)
        if callee is None or not (positions or keywords):
            continue
        try:
            params = inspect.signature(callee).parameters
        except ValueError:  # a builtin, such as an exception class: no parameters to read
            continue
        received = [list(params)[k] for k in positions] + keywords
        found += [f"{callee.__qualname__}.{name}" for name in received
                  if params[name].default is not inspect.Parameter.empty]
    return sorted(found)


def test_every_config_value_has_its_one_default_in_the_config():
    from shipdataprep import pipeline

    source = Path(pipeline.__file__).read_text()
    defaulted = defaulted_config_parameters(source, vars(pipeline))
    assert not defaulted, f"parameters passed config.<field> that keep a default: {defaulted}"


def test_the_config_default_check_sees_a_second_default():
    namespace = {}
    exec(
        "import types\n"
        "class Refused(ValueError): pass\n"
        "def own(a, tol=0.5, *, window=3, report=None): pass\n"
        "def plain(a, tol, *, window): pass\n"
        "stage = types.SimpleNamespace(own=own)\n",
        namespace,
    )
    source = (
        "def run(config, d, report):\n"
        "    own(d, config.tol, window=config.window or None, report=report)\n"
        "    stage.own(config.a, tol=config.tol)\n"
        "    plain(d, config.tol, window=config.window)\n"
        "    own(d, report=plain(config.a, 1, window=2))\n"
        "    local = own\n"
        "    local(d, config.tol)\n"
        "    range(config.max_iterations + 1)\n"
        "    raise Refused(f'{config.path}: bad')\n"
    )
    assert defaulted_config_parameters(source, namespace) == [
        "own.tol", "own.tol", "own.window",
    ]


# -- defaults: every default of the package is one a program call relies on ---


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether ``call`` passes parameter ``name``, the ``index``-th of the
    positional ones after the receiver (None: keyword-only); a call with
    ``*args`` or ``**kwargs`` passes every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return True
    return (index is not None and index < len(call.args)) or name in {
        kw.arg for kw in call.keywords
    }


def unused_defaults(defining: dict[str, str], reading: dict[str, str]) -> dict[str, str]:
    """``function.parameter -> module:line`` of each default of a module-level
    function or method in the ``defining`` modules that every call in the
    ``reading`` modules passes a value for, so that no call relies on it.

    A call is matched to its callee by name, or by attribute name
    (``x.name(...)``); a class's ``__init__`` is called by the class's name,
    and a method but a static one gets its first parameter from the receiver.
    Dataclass fields are not parameters of a ``def``, so their defaults are
    out of scope."""
    calls: dict[str, list[ast.Call]] = {}
    for source in reading.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unused = {}
    for module, source in defining.items():
        tree = ast.parse(source)
        functions = [(f, None) for f in tree.body if isinstance(f, ast.FunctionDef)]
        functions += [
            (f, c) for c in tree.body if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)
        ]
        for fn, cls in functions:
            a = fn.args
            positional = [*a.posonlyargs, *a.args]
            if cls and "staticmethod" not in {getattr(d, "id", None) for d in fn.decorator_list}:
                positional = positional[1:]
            defaulted = list(enumerate(positional))[len(positional) - len(a.defaults):]
            defaulted += [(None, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name = cls.name if cls and fn.name == "__init__" else fn.name
            owner = f"{cls.name}." if cls else ""
            for index, param in defaulted:
                if all(passes(call, param.arg, index) for call in calls.get(name, [])):
                    unused[f"{owner}{fn.name}.{param.arg}"] = f"{module}:{param.lineno}"
    return unused


def test_every_default_is_omitted_by_a_program_call():
    unused = unused_defaults(*program_sources())
    assert not unused, f"defaults that every call in src/ and perfbench/ overrides: {unused}"


def test_the_default_check_sees_a_default_only_a_test_omits():
    a = (
        "def stage(d, tol=0.5, *, report=None): pass\n"
        "def used(d, tol=0.5): pass\n"
        "def spread(d, tol=0.5, *, window=3): pass\n"
        "class Entry:\n"
        "    def __init__(self, name, n=1): pass\n"
        "    def count(self, flag, n=1): pass\n"
        "    @staticmethod\n"
        "    def make(n=1): pass\n"
        "    def note(self, text=''): pass\n"
    )
    program = (
        "import a\n"
        "a.stage(d, 0.1, report=r)\n"
        "used(d)\n"
        "spread(*args)\n"
        "spread(d, **options)\n"
        "Entry('x', 2)\n"
        "entry.count(flag, 2)\n"
        "Entry.make(2)\n"
        "entry.note()\n"
    )
    test = "stage(d)\nEntry('x')\nentry.count(flag)\nspread(d)\n"
    assert unused_defaults({"a.py": a}, {"a.py": a, "b.py": program}) == {
        "stage.tol": "a.py:1", "stage.report": "a.py:1",
        "spread.tol": "a.py:3", "spread.window": "a.py:3",
        "Entry.__init__.n": "a.py:5", "Entry.count.n": "a.py:6", "Entry.make.n": "a.py:8",
    }
    # a test's call that omits a default would keep it: the gate reads none
    assert unused_defaults({"a.py": a}, {"a.py": a, "b.py": program, "t.py": test}) == {
        "Entry.make.n": "a.py:8",
    }

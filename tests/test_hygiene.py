"""Source checks that need no linter: every module under src/comic,
scripts/ and tests/ uses each name it imports, every def under src/comic
and scripts/ reads each of its parameters, no package code is there only
for the tests, and every function perfbench's TRACED table names exists.
Test parameters are not checked, since test callbacks keep fixed
signatures; perfbench/tests belongs to the benchmark and is not checked
either.

Package __init__ modules are exempt (their imports are re-exports), as is
`from __future__ import ...`, which binds no name. `self` and `cls` are
exempt from the parameter check, and lambdas are not checked: a callback
that ignores its argument is written as one on purpose.

A module-level def, class or assigned name of src/comic counts as used when
the package names it outside its own definition or assignment, when scripts/ or perfbench/ (outside
its tests) names it, or when comic.__all__ exports it. Identifiers,
attribute names and string constants all count as naming it, except the
strings of a module-level TRACED table: the perfbench tracer wraps the
functions that table names, and a span is not a use.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/comic", "scripts")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")
IMPORTERS = MODULES + sorted((ROOT / "tests").glob("*.py"))
PACKAGE = [path for path in MODULES if path.parent.name == "comic"]
USERS = sorted(path for folder in ("scripts", "perfbench") for path in (ROOT / folder).glob("*.py"))
# Package code that only perfbench/tracing.py's TRACED table names. ROADMAP item 3
# deletes each of them, together with its span, in the benchmark PR.
TRACED_ONLY = {"model_forward", "pack_grads", "unpack_params"}
TESTS = sorted(path for path in (ROOT / "tests").rglob("*.py") if path != Path(__file__).resolve())


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded, with their line."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def unused_parameters(source: str) -> list[str]:
    """Parameters of a def that its body never reads, with their line."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, [args.vararg, args.kwarg])]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        unused += [(param.lineno, f"line {param.lineno}: {node.name}({param.arg})")
                   for param in params if param.arg not in read | {"self", "cls"}]
    return [entry for _, entry in sorted(unused)]


def named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers, attribute names and string constants in tree, outside the subtree skip."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def's or class's name, or
    the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def names_outside_traced(source: str) -> set[str]:
    """named() of a module, skipping the strings of its module-level TRACED table."""
    tree = ast.parse(source)
    table = next((node for node in tree.body if "TRACED" in defined_names(node)), None)
    return named(tree, skip=table)


def unreferenced_definitions(source: str, elsewhere: set[str]) -> list[str]:
    """Module-level defs, classes and assigned names that neither elsewhere nor
    source, outside their own definition or assignment, names, with their line."""
    tree = ast.parse(source)
    return [f"line {node.lineno}: {name}" for node in tree.body for name in defined_names(node)
            if name not in elsewhere | named(tree, skip=node)]


def test_modules_to_check_were_found():
    names = {path.name for path in MODULES}
    assert {"optim.py", "codelength.py", "cli.py", "ab_pairs.py"} <= names
    assert {"run.py", "tracing.py", "ab_pairs.py"} <= {path.name for path in USERS}
    assert {"test_cli.py", "test_hygiene.py"} <= {path.name for path in IMPORTERS}


@pytest.mark.parametrize("path", IMPORTERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_a_planted_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "x = np.zeros(field)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: dataclass"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text(encoding="utf-8")) == []


def test_unused_parameter_check_flags_a_planted_parameter():
    source = ("class A:\n"
              "    def method(self, used, unused):\n"
              "        return used\n"
              "    @classmethod\n"
              "    def make(cls, *args, scale=1.0, **kwargs):\n"
              "        def inner(a, b):\n"
              "            return a + scale\n"
              "        return inner(*args)\n"
              "def written_only(x, y):\n"
              "    x = y\n"
              "callback = lambda msg: None\n")
    assert unused_parameters(source) == [
        "line 2: method(unused)", "line 5: make(kwargs)", "line 6: inner(b)",
        "line 9: written_only(x)"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_package_code_that_only_tests_use(path):
    import comic

    elsewhere = set(comic.__all__).union(
        TRACED_ONLY, *(names_outside_traced(other.read_text(encoding="utf-8"))
                       for other in PACKAGE + USERS if other != path))
    assert unreferenced_definitions(path.read_text(encoding="utf-8"), elsewhere) == []


def test_traced_only_names_are_traced_and_named_nowhere_else():
    # the list exempts its names from the check above, so it must neither
    # hide a live use nor outlive the definitions it excuses
    import comic

    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    traced = named(next(node for node in tracing.body if "TRACED" in defined_names(node)))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    for name in sorted(TRACED_ONLY):
        assert name in traced, name
        assert [path.name for path in PACKAGE
                if any(name in defined_names(node) for node in trees[path].body)] == ["bnn.py"]
        assert [path.name for path, tree in trees.items()
                if any(name in named(node) for node in tree.body
                       if name not in defined_names(node))] == [], name
        assert name not in comic.__all__
        # word by word, so a script a test runs in a subprocess counts too
        pattern = re.compile(rf"\b{name}\b")
        assert [path.name for path in TESTS
                if pattern.search(path.read_text(encoding="utf-8"))] == [], name


def unresolved(entries) -> list[str]:
    """The "module.attribute" of each (module, attribute) entry that names no
    callable in comic; a "Class.method" attribute resolves through its class."""
    missing = []
    for module, attr in entries:
        owner = importlib.import_module(f"comic.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    return missing


def test_every_traced_entry_resolves_in_the_package():
    # a renamed function used to show only as an AttributeError inside
    # perfbench's traced smoke test
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    entries = ast.literal_eval(next(node for node in tracing.body
                                    if "TRACED" in defined_names(node)).value)
    assert ("rng", "RngStream.generator") in entries
    assert unresolved(entries) == []


def test_unresolved_check_flags_a_planted_entry():
    assert unresolved([("bnn", "ConditionalModel.sampler"), ("bnn", "sampler"),
                       ("bnn", "ConditionalModel.blocks"), ("rng", "RngStream.nope")]) == [
        "bnn.sampler", "bnn.ConditionalModel.blocks", "rng.RngStream.nope"]


def test_unreferenced_definition_check_flags_a_planted_name():
    source = ("def entry():\n"
              "    return helper()\n"
              "def helper():\n"
              "    return helper\n"
              "class Exported:\n"
              "    def method(self):\n"
              "        return orphan\n"
              "def orphan():\n"
              "    return orphan()\n"
              "def recursive():\n"
              "    return recursive()\n"
              "TABLE = ('traced',)\n"
              "def traced():\n"
              "    pass\n"
              "LIMIT: int = 3\n"
              "WIDTH, _GUARD = 2, 1\n"
              "def uses_width():\n"
              "    return WIDTH\n")
    assert unreferenced_definitions(source, {"Exported", "uses_width"}) == [
        "line 1: entry", "line 10: recursive", "line 12: TABLE", "line 15: LIMIT",
        "line 16: _GUARD"]


def test_a_traced_table_entry_is_not_a_use():
    package = ("def traced_only():\n"
               "    pass\n"
               "def traced_and_called():\n"
               "    pass\n")
    user = ("TRACED = (('mod', 'traced_only'), ('mod', 'traced_and_called'))\n"
            "SPANS = tuple(f'{m}.{a}' for m, a in TRACED)\n"
            "mod.traced_and_called()\n")
    assert unreferenced_definitions(package, names_outside_traced(user)) == [
        "line 1: traced_only"]

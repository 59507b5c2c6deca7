"""Source checks that need no linter: every module under src/comic,
scripts/ and tests/ uses each name it imports, every def under src/comic
and scripts/ reads each of its parameters, no package code is there only
for the tests, and every function perfbench's TRACED table names exists
and, outside TRACED_ONLY, is called by a tiny traced run.
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
functions that table names, and a span is not a use. A method or property
of a module-level class counts as used in the same way, by its name outside
its own def; dunder methods are exempt, since Python calls them.
"""

import ast
import importlib
import importlib.util
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


def unreferenced_members(source: str, elsewhere: set[str]) -> list[str]:
    """Methods and properties of module-level classes, dunders aside, that
    neither elsewhere nor source, outside their own def, names, with their line."""
    tree = ast.parse(source)
    return [f"line {member.lineno}: {node.name}.{member.name}"
            for node in tree.body if isinstance(node, ast.ClassDef)
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (member.name.startswith("__") and member.name.endswith("__"))
            and member.name not in elsewhere | named(tree, skip=member)]


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
    source = path.read_text(encoding="utf-8")
    assert unreferenced_definitions(source, elsewhere) == []
    assert unreferenced_members(source, elsewhere) == []


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


def test_a_tiny_run_calls_every_traced_function_but_the_traced_only_ones(tmp_path):
    # perfbench's per-layer metrics come from these spans: a refactor that
    # routed a run around a traced name would read 0 for it and still pass
    from comic import data, evaluation
    from comic.codelength import TrainConfig

    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cfg = TrainConfig(hidden_width=2, map_epochs=2, vi_epochs=2, warmup_epochs=1,
                      mc_eval_samples=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        data.write_dataset(tmp_path, data.generate_dataset(data.GeneratorSpec("AN", 1, 20)))
        result = evaluation.run_benchmark(data.load_tuebingen(tmp_path), cfg, parallelism=1)
    assert [row.error for row in result.rows] == [None]
    calls = {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}
    assert sorted(name for name, count in calls.items() if count == 0) == sorted(
        f"bnn.{name}" for name in TRACED_ONLY)


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


def test_unreferenced_member_check_flags_a_planted_member():
    source = ("class Layer:\n"
              "    def __init__(self, w):\n"
              "        self.w = w\n"
              "    @property\n"
              "    def width(self):\n"
              "        return self.w.shape[-1]\n"
              "    def used_here(self):\n"
              "        return self.w\n"
              "    def recursive(self):\n"
              "        return self.recursive()\n"
              "    @classmethod\n"
              "    def build(cls):\n"
              "        return cls(0).used_here()\n"
              "    @staticmethod\n"
              "    def called_elsewhere():\n"
              "        pass\n"
              "def width():\n"
              "    pass\n")
    assert unreferenced_members(source, {"called_elsewhere"}) == [
        "line 5: Layer.width", "line 9: Layer.recursive", "line 12: Layer.build"]


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

"""Source checks that need no linter: every module under src/comic and
scripts/ uses each name it imports.

Package __init__ modules are exempt (their imports are re-exports), as is
`from __future__ import ...`, which binds no name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for folder in ("src/comic", "scripts")
                 for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py")


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


def test_modules_to_check_were_found():
    names = {path.name for path in MODULES}
    assert {"optim.py", "codelength.py", "cli.py", "ab_pairs.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_a_planted_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import dataclass, field\n"
              "x = np.zeros(field)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: dataclass"]

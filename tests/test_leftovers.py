"""Leftovers of a removal in src/decaylab, found with the stdlib ast module.

Two kinds are caught: an import that its scope never reads (a module-level
import its module, a function-local one its function, nested functions
included), and a private (`_`-prefixed) top-level function or class that
nothing else in the package references.  `from __future__` imports and
import statements marked `# noqa` are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "decaylab"
MODULES = sorted(SRC.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def _exported(tree) -> set:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _own_imports(scope) -> list:
    """The import statements of a module or function, less those of the functions inside it."""
    imports, stack = [], list(scope.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))
    return imports


def _read_names(scope) -> set:
    return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}


def unused_imports(path: Path) -> list:
    text = path.read_text()
    lines, tree = text.splitlines(), ast.parse(text, filename=str(path))
    scopes = [(tree, _read_names(tree) | _exported(tree))]
    scopes += [(f, _read_names(f)) for f in ast.walk(tree) if isinstance(f, FUNCTIONS)]
    unused = []
    for scope, read in scopes:
        for node in _own_imports(scope):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append((node.lineno, f"{path.name}:{node.lineno}: {name}"))
    return [entry for _, entry in sorted(unused)]


def _references(node) -> set:
    """Every name a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreferenced_private(paths) -> list:
    """Private top-level definitions that no other top-level statement references."""
    statements = [
        (path, stmt, _references(stmt))
        for path in paths
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]
    return [
        f"{path.name}:{stmt.lineno}: {stmt.name}"
        for path, stmt, _ in statements
        if isinstance(stmt, DEFINITIONS) and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    # function-local imports too, each against the names its own function reads
    assert unused_imports(path) == []


def test_every_private_definition_is_referenced():
    assert unreferenced_private(MODULES) == []


def test_the_checks_find_leftovers(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from dataclasses import dataclass, field as dc_field\n"
        "\n"
        "@dataclass\n"
        "class _Used:\n"
        "    x: float = math.pi\n"
        "\n"
        "def _dead():\n"
        "    return _dead()\n"
        "\n"
        "def public():\n"
        "    return _Used()\n"
    )
    assert unused_imports(module) == ["mod.py:4: dc_field"]
    assert unreferenced_private([module]) == ["mod.py:10: _dead"]


def test_the_checks_find_unused_function_local_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import math\n"
        "\n"
        "def solve(x):\n"
        "    from os import path, sep\n"
        "    try:\n"
        "        import json\n"
        "    except ImportError:\n"
        "        return None\n"
        "\n"
        "    def inner():\n"
        "        import csv\n"
        "        return sep\n"
        "\n"
        "    return inner() + str(math.pi)\n"
        "\n"
        "def uses_json():\n"
        "    return json.dumps(1)\n"
    )
    # a name read only in another function does not count; a closure's read does
    assert unused_imports(module) == ["mod.py:4: path", "mod.py:6: json", "mod.py:11: csv"]

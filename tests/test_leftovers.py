"""Leftovers of a removal in src/decaylab, found with the stdlib ast module.

Three kinds are caught: an import that its scope never reads (a module-level
import its module, a function-local one its function, nested functions
included); a private (`_`-prefixed) top-level function or class that
nothing else in the package references; and a name in `decaylab.__all__`
whose only caller is its own unit test, that is, one that neither the package
(beyond its definition and re-export), the benchmark, the tools, the README
nor the acceptance and CLI tests refer to.  `from __future__` imports and
import statements marked `# noqa` are exempt.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "decaylab"
MODULES = sorted(SRC.glob("*.py"))
EXPORT_USERS = [
    *sorted((ROOT / "perfbench").glob("*.py")),
    *sorted((ROOT / "tools").glob("*.py")),
    ROOT / "README.md",
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_cli.py",
]
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


def _defines(stmt) -> set:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, DEFINITIONS):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def unreferenced_exports(package: Path, users) -> list:
    """The names in the package's __all__, less __version__, that nothing else refers to.

    The package's own modules count, except __init__ (which only re-exports)
    and the statement that defines the name; each user counts whole, a Python
    file by the names its code reads and any other file by its words.
    """
    exported = _exported(ast.parse((package / "__init__.py").read_text())) - {"__version__"}
    used = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "__init__.py":
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                used |= _references(stmt) - _defines(stmt)
    for path in users:
        text = path.read_text()
        used |= _references(ast.parse(text, filename=str(path))) if path.suffix == ".py" else set(
            re.findall(r"\w+", text)
        )
    return sorted(exported - used)


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


def test_every_export_has_a_caller_besides_its_unit_test():
    assert unreferenced_exports(SRC, EXPORT_USERS) == []


def test_the_export_check_finds_a_name_only_its_unit_test_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .mod import LIMIT, dead, helper, used\n"
        "__version__ = '1'\n"
        "__all__ = ['LIMIT', 'dead', 'helper', 'used', '__version__']\n"
    )
    (package / "mod.py").write_text(
        "LIMIT = 3\n"
        "\n"
        "def dead(n):\n"
        "    return dead(n - 1) if n else LIMIT\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def used():\n"
        "    return helper()\n"
    )
    (tmp_path / "user.py").write_text("import pkg\n\nprint(pkg.used())\n")
    (tmp_path / "test_mod.py").write_text("from pkg import dead\n\nassert dead(2) == 3\n")
    # a recursive call is part of the definition; a unit test is not a user
    assert unreferenced_exports(package, [tmp_path / "user.py"]) == ["dead"]
    (tmp_path / "NOTES.md").write_text("`dead(n)` counts down to LIMIT.\n")
    assert unreferenced_exports(package, [tmp_path / "user.py", tmp_path / "NOTES.md"]) == []


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

"""Import hygiene, checked by reading each file with the stdlib ast module.

Every module under src/irec and tests uses each name it imports. A name
counts as used when it appears as a name anywhere in the module;
`from __future__` imports and names listed in the module's `__all__` are
exempt.

Every module under src/irec imports only the stdlib, numpy or irec itself,
so numpy stays the package's only runtime dependency.

Every top-level `_`-prefixed function under src/irec is referenced by some
module under src/irec outside its own definition, so a private function
that only tests call cannot linger.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/irec/*.py"))
MODULES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])
RUNTIME_ALLOWED = sys.stdlib_module_names | {"numpy", "irec"}


def unused_imports(source: str) -> list[str]:
    """Names imported by the module in `source` that it never uses."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_an_injected_import():
    source = (ROOT / "src" / "irec" / "codec.py").read_text()
    assert unused_imports(source) == []
    injected = source + "import zlib\n"
    assert unused_imports(injected) == [f"line {source.count(chr(10)) + 1}: zlib"]


def test_future_and_reexported_names_are_exempt():
    source = (
        "from __future__ import annotations\n"
        "from os import path, sep\n"
        "__all__ = ['sep']\n"
    )
    assert unused_imports(source) == ["line 2: path"]


def foreign_imports(source: str) -> list[str]:
    """Absolute imports in `source` outside the stdlib, numpy and irec."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}"
            for name in names
            if name.split(".")[0] not in RUNTIME_ALLOWED
        ]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_runtime_imports_are_stdlib_or_numpy(path):
    assert foreign_imports(path.read_text()) == []


def test_runtime_check_flags_an_injected_import():
    source = (ROOT / "src" / "irec" / "cli.py").read_text()
    assert foreign_imports(source) == []
    injected = source + "import hypothesis\nfrom scipy.stats import norm\n"
    lines = source.count(chr(10))
    assert foreign_imports(injected) == [
        f"line {lines + 1}: hypothesis",
        f"line {lines + 2}: scipy.stats",
    ]


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Top-level `_`-prefixed functions of the modules in `sources` (name to
    source) that no statement of theirs references outside the function's
    own definition, as a name, an attribute or an imported name."""
    defined, referenced = [], {}  # referenced: name -> the statements naming it
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                defined.append((module, stmt))
            for node in ast.walk(stmt):
                names = (
                    [node.id] if isinstance(node, ast.Name)
                    else [node.attr] if isinstance(node, ast.Attribute)
                    else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                    else []
                )
                for name in names:
                    referenced.setdefault(name, set()).add((module, stmt.lineno))
    return [
        f"{module}: {stmt.name}"
        for module, stmt in defined
        if not referenced.get(stmt.name, set()) - {(module, stmt.lineno)}
    ]


def test_private_functions_are_referenced():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_private_functions(sources) == []


def test_private_check_flags_a_function_only_tests_call():
    sources = {path.name: path.read_text() for path in SOURCES}
    # Calling itself is no reference; an import from another module is one.
    sources["stream.py"] += (
        "\n\ndef _unused(n):\n    return _unused(n - 1) if n else 0\n"
        "\n\ndef _imported():\n    return 0\n"
    )
    sources["extra.py"] = "from .stream import _imported\n"
    assert unreferenced_private_functions(sources) == ["stream.py: _unused"]

"""Import hygiene, checked by reading each file with the stdlib ast module.

Every module under src/irec and tests uses each name it imports. A name
counts as used when it appears as a name anywhere in the module;
`from __future__` imports and names listed in the module's `__all__` are
exempt.

Every module under src/irec imports only the stdlib, numpy or irec itself,
so numpy stays the package's only runtime dependency.
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

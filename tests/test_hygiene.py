"""Source hygiene: every imported name is used, and the package exports what it imports.

An AST pass over the package modules (not `__init__.py`, whose imports are
re-exports) and every test file.  A name counts as used when it appears as a
name anywhere in the module, which covers attribute bases (`np` in `np.array`);
a mention inside a string does not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import spectral_torsion

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "spectral_torsion"
FILES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py") + \
    sorted(TESTS.rglob("*.py"))


def unused_imports(source: str) -> list:
    """(line, bound name) for each import whose bound name is never read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_the_scan_sees_names_and_attribute_bases_but_not_strings():
    source = ("import os.path\nimport json as js\nfrom a import b, c\n"
              "from __future__ import annotations\n"
              "os.path.join(js.dumps(b))\nx = 'c'\n")
    assert unused_imports(source) == [(3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(TESTS.parent)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_exports_are_the_imported_names():
    """__all__ lists exactly the public names __init__.py imports: a deleted entry
    point leaves no dangling export, and a new import does not go unexported."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    public = sorted(name for name in imported if not name.startswith("_"))
    assert sorted(spectral_torsion.__all__) == public

"""Source hygiene: every imported name is used, the package exports what it imports,
and every private module-level function of the package has a caller in the package.

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


def uncalled_private_functions(sources: dict) -> list:
    """(module, name) for each `_`-prefixed module-level function that no code in
    `sources` (module name -> source) names outside the function's own body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}

    def names(nodes) -> set:
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
    out = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_"):
                used = names(node for other, t in trees.items() for node in t.body
                             if node is not fn)
                if fn.name not in used:
                    out.append((mod, fn.name))
    return out


def test_the_caller_scan_ignores_self_calls_and_strings():
    sources = {"a": "def _used(): pass\ndef _rec(): _rec()\ndef _named(): pass\nx = '_named'\n",
               "b": "import a\na._used()\n"}
    assert uncalled_private_functions(sources) == [("a", "_rec"), ("a", "_named")]


def test_every_private_function_has_a_caller():
    """A private helper whose last caller is deleted goes with it."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert uncalled_private_functions(sources) == []

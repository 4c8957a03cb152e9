"""Source hygiene: every imported name is used, the package exports what it imports,
every module-level function or class of the package has a caller in the package
or is a listed library entry point, and the package imports nothing from tests/.

An AST pass over the package modules (not `__init__.py`, whose imports are
re-exports) and every test file.  A name counts as used when it appears as a
name anywhere in the module, which covers attribute bases (`np` in `np.array`);
a mention inside a string does not count.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import spectral_torsion

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "spectral_torsion"
README = TESTS.parent / "README.md"
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


def uncalled_definitions(sources: dict) -> list:
    """(module, name) for each module-level function or class that no code in
    `sources` (module name -> source) names outside its own body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}

    def names(nodes) -> set:
        return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
    out = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)):
                used = names(node for other, t in trees.items() for node in t.body
                             if node is not fn)
                if fn.name not in used:
                    out.append((mod, fn.name))
    return out


def package_sources() -> dict:
    return {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}


def library_entry_points() -> set:
    """The names in the first column of README's "Library entry points" table."""
    section = README.read_text().split("\n## Library entry points\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))


def test_the_caller_scan_ignores_self_calls_and_strings():
    sources = {"a": "def _used(): pass\ndef _rec(): _rec()\ndef _named(): pass\nx = '_named'\n"
                    "class Base: pass\nclass Leaf(Base): pass\n",
               "b": "import a\na._used()\n"}
    assert uncalled_definitions(sources) == [("a", "_rec"), ("a", "_named"), ("a", "Leaf")]


def test_every_private_function_has_a_caller():
    """A private helper whose last caller is deleted goes with it."""
    assert [(mod, name) for mod, name in uncalled_definitions(package_sources())
            if name.startswith("_")] == []


def test_every_public_definition_has_a_caller_or_is_a_library_entry_point():
    """A public function or class of the package has a caller in the package, or
    README's "Library entry points" table lists it.  Every listed name is
    exported and has no caller in the package, so the table is exactly the
    surface that only library users reach; a construction that only the tests
    use belongs in tests/oracle.py."""
    listed = library_entry_points()
    assert listed and listed <= set(spectral_torsion.__all__)
    assert {name for _, name in uncalled_definitions(package_sources())} == listed


def test_the_package_imports_nothing_from_tests():
    """The package runs with only src/ on the path: no module of it imports the
    oracle, a test module or the tests package."""
    test_modules = {p.stem for p in TESTS.rglob("*.py")} | {"tests"}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & test_modules, (path.name, modules)

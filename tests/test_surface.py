"""Every public top-level function in src/fracext has a caller outside tests.

A function counts as called when its name is referenced outside its own
definition somewhere in src/fracext, demos/ or perfbench/: as an attribute
(`module.name`), or as a plain name in its own module or in a module that
imports it by name.  The re-exports in fracext/__init__.py do not count, and
neither do the tests: a function only they call belongs in tests/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracext"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    """(name, enclosing top-level def or None) for every name reference,
    plus the names the module imports with `from ... import name`."""
    refs = []
    imported = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.append((node.id, owner, False))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, owner, True))
            elif isinstance(node, ast.ImportFrom):
                imported.update(alias.name for alias in node.names)
    return refs, imported


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path, node.name


def test_every_public_function_has_a_caller():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    scanned = {path: _references(_parse(path)) for path in sources}
    functions = list(_public_functions())
    uncalled = []
    for home, name in functions:
        called = False
        for path, (refs, imported) in scanned.items():
            for ref, owner, is_attr in refs:
                if ref != name or (path == home and owner == name):
                    continue
                if is_attr or path == home or name in imported:
                    called = True
                    break
            if called:
                break
        if not called:
            uncalled.append(f"{home.name}:{name}")
    print(f"[surface] {len(functions)} public functions checked, "
          f"{len(uncalled)} without a caller")
    assert functions
    assert not uncalled, uncalled

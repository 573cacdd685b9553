"""Every public top-level function, and every public method of a public
class, in src/fracext has a caller outside tests.

A function counts as called when its name is referenced outside its own
definition somewhere in src/fracext, demos/ or perfbench/: as an attribute
(`module.name`), or as a plain name in its own module or in a module that
imports it by name.  A method (properties and classmethods included) counts
as called when its name is referenced as an attribute (`obj.name`) there,
outside its own body.  The re-exports in fracext/__init__.py do not count,
and neither do the tests: code only they call belongs in tests/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fracext"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree):
    """(name, owner, is attribute) for every name reference, where owner is
    (enclosing top-level def or None, enclosing method of that class or
    None), plus the names the module imports with `from ... import name`."""
    refs = []
    imported = set()

    def walk(node, owner):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.append((sub.id, owner, False))
            elif isinstance(sub, ast.Attribute):
                refs.append((sub.attr, owner, True))
            elif isinstance(sub, ast.ImportFrom):
                imported.update(alias.name for alias in sub.names)

    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for member in top.body:
                walk(member, (top.name, member.name if isinstance(member, _DEFS) else None))
            for node in top.decorator_list + top.bases + top.keywords:
                walk(node, (top.name, None))
        else:
            walk(top, (top.name if isinstance(top, _DEFS) else None, None))
    return refs, imported


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path, node.name


def _public_methods():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, _DEFS) and not member.name.startswith("_"):
                        yield path, node.name, member.name


def _scanned():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    return {path: _references(_parse(path)) for path in sources}


def test_every_public_function_has_a_caller():
    scanned = _scanned()
    functions = list(_public_functions())
    uncalled = []
    for home, name in functions:
        called = False
        for path, (refs, imported) in scanned.items():
            for ref, owner, is_attr in refs:
                if ref != name or (path == home and owner[0] == name):
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


def test_every_public_method_has_a_caller():
    scanned = _scanned()
    methods = list(_public_methods())
    uncalled = [f"{home.name}:{cls}.{name}" for home, cls, name in methods
                if not any(is_attr and ref == name and not (path == home and owner == (cls, name))
                           for path, (refs, _) in scanned.items()
                           for ref, owner, is_attr in refs)]
    print(f"[surface] {len(methods)} public methods checked, {len(uncalled)} without a caller")
    assert methods
    assert not uncalled, uncalled

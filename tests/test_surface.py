"""Every public top-level function, and every public method of a public
class, in src/fracext has a caller outside tests.

A function counts as called when its name is referenced outside its own
definition somewhere in src/fracext, demos/ or perfbench/: as an attribute
(`module.name`), or as a plain name in its own module or in a module that
imports it by name.  A method (properties and classmethods included) counts
as called when its name is referenced as an attribute (`obj.name`) there,
outside its own body.  The re-exports in fracext/__init__.py do not count,
and neither do the tests: code only they call belongs in tests/.

The command line's option strings are pinned per subcommand, so that a new
option needs a deliberate edit here, and each removed option is rejected by
every subcommand.
"""
import argparse
import ast
from pathlib import Path

import pytest

from fracext.cli import build_parser, main

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


# Every option string of every subcommand.  A new knob fails this table
# until it is added here on purpose.
OPTIONS = {
    "check": {"-h", "--help", "-k", "--format", "--output", "-o"},
    "extremal": {"-h", "--help", "-n", "-s", "--delta", "-k", "--format", "--output", "-o"},
    "sweep": {"-h", "--help", "--theorem", "-k", "--format", "--output", "-o"},
    "grid": {"-h", "--help", "--lemma", "-n", "--delta", "-k", "--format", "--output", "-o"},
    "polys": {"-h", "--help", "-n", "-s", "--delta", "-k", "--format", "--output", "-o"},
    "report": {"-h", "--help", "--full", "--seed", "-k", "--format", "--output", "-o"},
}

# the least argument list each subcommand accepts
MINIMAL_ARGS = {
    "check": ["check", "Bw"],
    "extremal": ["extremal", "-n", "11"],
    "sweep": ["sweep", "--theorem", "q_1", "connected:4"],
    "grid": ["grid", "--lemma", "q1q2", "-n", "7"],
    "polys": ["polys", "f2"],
    "report": ["report"],
}


def _subparsers():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_option_surface_is_pinned():
    found = {name: {opt for a in sub._actions for opt in a.option_strings}
             for name, sub in _subparsers().items()}
    assert found == OPTIONS


@pytest.mark.parametrize("option", [["--tol", "1e-9"], ["--deterministic"], ["--jobs", "2"]],
                         ids=["tol", "deterministic", "jobs"])
def test_removed_options_are_rejected(option, capsys):
    assert set(MINIMAL_ARGS) == set(_subparsers())
    for argv in MINIMAL_ARGS.values():
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit) as exc:
            main(argv + option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

"""Every name the package exports, every public method or property of an
exported class, and every public function or class a library module
defines, is used outside the tests.

A public name that only the tests call is surface to maintain with nothing
behind it; these tests fail on it, naming it.
"""

import ast
import inspect

import datareach
from conftest import PACKAGE, ROOT, exported

# public members that only the tests read, and why they stay
ALLOWED_MEMBERS = {
    # the test reference `_ref_queries` reads it, and references stay as written
    "Box.contains",
}

# public module-level functions and classes that only the tests read, and why they stay
ALLOWED_MODULE_NAMES = {}


def _referenced(paths, strings=False):
    """The identifiers the files use as code: every `Name` and the attribute
    of every `Attribute` (imports and definitions do not count), and with
    `strings` every string constant."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def _library():
    return [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]


def test_every_export_is_used_outside_the_tests():
    used = _referenced(_library() + sorted((ROOT / "demos").glob("*.py")))
    assert sorted(exported() - used) == []


def _public_members():
    """Each public method or property an exported class defines itself, as
    "Class.member"."""
    for name in exported():
        cls = getattr(datareach, name)
        if not isinstance(cls, type):
            continue
        for member, value in vars(cls).items():
            if not member.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, (property, classmethod, staticmethod))):
                yield f"{name}.{member}"


def test_every_public_member_is_used_outside_the_tests():
    """String constants count as uses: `RunReport.to_dict` and the benchmark's
    tracer read attributes by name."""
    dirs = [ROOT / "demos", ROOT / "perfbench"]
    used = _referenced(_library() + [p for d in dirs for p in sorted(d.glob("*.py"))],
                       strings=True)
    unused = {m for m in _public_members() if m.split(".")[1] not in used}
    assert sorted(unused - ALLOWED_MEMBERS) == []
    assert ALLOWED_MEMBERS <= unused  # an allowance that a use made stale goes


def _module_names():
    """Each public function or class a library module defines at its top
    level, as "module.name"."""
    for path in _library():
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}"


def test_every_public_module_name_is_used_outside_the_tests():
    """A use in the library, the demos or the benchmark counts, as a string
    constant too: the benchmark looks functions up by name."""
    dirs = [ROOT / "demos", ROOT / "perfbench"]
    used = _referenced(_library() + [p for d in dirs for p in sorted(d.glob("*.py"))],
                       strings=True)
    unused = {name for name in _module_names() if name.split(".")[1] not in used}
    assert sorted(unused - set(ALLOWED_MODULE_NAMES)) == []
    assert set(ALLOWED_MODULE_NAMES) <= unused  # an allowance that a use made stale goes

"""Every name the package exports, and every public method or property of an
exported class, is used outside the tests.

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

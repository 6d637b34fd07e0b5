"""Every name the package exports is used by the library or a demo.

A public name that only the tests call is surface to maintain with nothing
behind it; this test fails on it, naming it.
"""

import ast

from conftest import PACKAGE, ROOT, exported


def _referenced(paths):
    """The identifiers the files use as code: every `Name` and the attribute
    of every `Attribute` (imports and definitions do not count)."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    used = _referenced(sources + sorted((ROOT / "demos").glob("*.py")))
    assert sorted(exported() - used) == []

"""The README's library quick tour runs as written, and its command list,
configuration example and module table name what the library has."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest
import yaml

import datareach
from datareach import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    """Exec the ```python block of "Library quick tour": a public name the
    tour uses but the library no longer has fails here, not in a reader's
    session."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library quick tour", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_commands_list_matches_cli(capsys):
    """The ``Commands:`` list names exactly the subcommands `cli.main`
    accepts, so a deleted command cannot linger in the docs."""
    section = README.read_text().split("\nCommands:\n", 1)[1].split("\nExit codes:", 1)[0]
    documented = re.findall(r"^- `(\w+)`", section, flags=re.M)
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    usage = capsys.readouterr().out
    accepted = re.search(r"positional arguments:\s*\{([\w,]+)\}", usage).group(1).split(",")
    assert sorted(documented) == sorted(accepted) and len(documented) == len(set(documented))


def test_config_example_keys_match_cli():
    """The ``reach``, ``control`` and ``benchmark`` keys of the configuration
    example (and its ``const_cos`` family) are exactly the keys the CLI
    accepts, so a removed or added key cannot drift from the docs."""
    section = README.read_text().split("### Configuration file", 1)[1]
    example = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    assert set(example["reach"]) == cli._REACH_KEYS
    assert set(example["control"]) == cli._CONTROL_KEYS
    assert set(example["benchmark"]) == cli._BENCH_KEYS
    assert set(example["reach"]["control"]) == cli._FAMILY_KEYS["const_cos"]


def test_module_table_names_exist():
    """Every backticked identifier in a row of the "Modules" table is an
    attribute of that row's module, so a deleted name cannot linger there."""
    section = README.read_text().split("\nModules:\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(datareach\.\w+)` *\| (.*) \|$", section, flags=re.M)
    assert len(rows) == 8
    for module, contents in rows:
        mod = importlib.import_module(module)
        for name in re.findall(r"`([A-Za-z_]\w*)`", contents):
            assert hasattr(mod, name), f"{module} has no {name}"


def test_record_names_resolve():
    """Every backticked `Name.attr` whose capitalized `Name` stands for a
    class names a class of a `datareach` module, and `attr` is a dataclass
    field, property or attribute of it, so a retired record or field cannot
    linger in the docs."""
    classes = {}
    for info in pkgutil.iter_modules(datareach.__path__):
        if info.name.startswith("_"):  # __main__ runs the command line
            continue
        for name, obj in vars(importlib.import_module(f"datareach.{info.name}")).items():
            if inspect.isclass(obj) and obj.__module__.startswith("datareach."):
                classes[name] = obj
    refs = re.findall(r"`([A-Z]\w*)\.(\w+)", README.read_text())
    assert refs
    for name, attr in refs:
        assert name in classes, f"README names {name}.{attr}, but no datareach class {name}"
        cls = classes[name]
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        assert attr in fields or hasattr(cls, attr), f"{name} has no {attr}"

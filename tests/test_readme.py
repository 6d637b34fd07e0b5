"""The README's library quick tour runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs(capsys):
    """Exec the ```python block of "Library quick tour": a public name the
    tour uses but the library no longer has fails here, not in a reader's
    session."""
    section = README.read_text().split("## Library quick tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, f"{README}: Library quick tour", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()

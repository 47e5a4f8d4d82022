"""Two contracts on the library source: correctness checks raise rather than
``assert`` (which ``python -O`` strips), and only the CLI prints."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "mpsmat").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_and_no_print_outside_the_cli(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    prints = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print"]
    assert not asserts, f"assert statements at lines {asserts}"
    assert path.name == "cli.py" or not prints, f"print calls at lines {prints}"


def test_the_sources_are_found():
    assert {"cli.py", "classify.py", "search.py"} <= {p.name for p in SOURCES}

"""Contracts on the source: correctness checks raise rather than ``assert``
(which ``python -O`` strips), only the CLI prints, and no code uses a numpy
name that the oldest supported numpy lacks."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "mpsmat").glob("*.py"))


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


#: Names of numpy and numpy.linalg (prefixed "linalg.") added after numpy
#: 1.24, the floor that pyproject.toml declares; every "unique_*" as well.
_NEWER_THAN_THE_FLOOR = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "cumulative_prod", "cumulative_sum", "dtypes", "exceptions", "isdtype",
    "matrix_transpose", "matvec", "permute_dims", "pow", "strings", "trapezoid",
    "unstack", "vecdot", "vecmat",
    "linalg.cross", "linalg.diagonal", "linalg.matmul", "linalg.matrix_norm",
    "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals", "linalg.tensordot",
    "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
}


def _is_numpy(node) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _numpy_names(tree):
    """(line, name) for each np.X, np.linalg.X and name imported from numpy
    or numpy.linalg; a method such as ``a.astype`` is no numpy name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_numpy(node.value):
            yield node.lineno, node.attr
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and node.value.attr == "linalg" and _is_numpy(node.value.value)):
            yield node.lineno, f"linalg.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            prefix = "linalg." if node.module == "numpy.linalg" else ""
            for alias in node.names:
                yield node.lineno, prefix + alias.name


def _newer_than_the_floor(source: str) -> list[str]:
    return [f"{line}: {name}" for line, name in sorted(_numpy_names(ast.parse(source)))
            if name in _NEWER_THAN_THE_FLOOR or name.startswith("unique_")]


def test_no_numpy_name_newer_than_the_floor():
    # The numpy-floor CI job installs numpy 1.24; this scan holds the code to
    # it without that install.
    paths = [p for folder in ("src", "tests", "perfbench", "demos")
             for p in sorted((ROOT / folder).rglob("*.py"))]
    assert len(paths) > len(SOURCES)
    found = {str(p.relative_to(ROOT)): names for p in paths
             if (names := _newer_than_the_floor(p.read_text(encoding="utf-8")))}
    assert not found


def test_the_numpy_scan_sees_each_form():
    source = ("import numpy as np\nfrom numpy.linalg import vector_norm\n"
              "from numpy import unique_counts, unique\n"
              "np.linalg.vector_norm(a) + np.concat(b) + a.astype(int) + np.abs(a)\n"
              "np.exceptions.AxisError, numpy.linalg.svdvals(a), np.linalg.norm(a)\n")
    assert _newer_than_the_floor(source) == [
        "2: linalg.vector_norm", "3: unique_counts", "4: concat",
        "4: linalg.vector_norm", "5: exceptions", "5: linalg.svdvals"]

"""Fuzz of every CLI subcommand: whatever the documents and flag values, a run
ends with a documented exit code (0, 1, 2, 64, 74), never with another
exception, and a successful JSON run prints strict JSON (no NaN or Infinity).

``cli.main`` runs in process.  Documents are valid ones, valid ones with a
field or a cell replaced by junk, and text that is not JSON.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mpsmat import designs, exact, families, serialize
from mpsmat.cli import main
from mpsmat.parametrize import decompose_hermitian_unitary, decompose_unitary

EXIT_CODES = {0, 1, 2, 64, 74}

_FOURIER_4 = serialize.matrix_to_obj(designs.fourier_complex_hadamard(4))
_FULL_J_6 = serialize.matrix_to_obj(exact.full_j_mps(6))
_VALID_DOCS = [
    serialize.matrix_to_obj(exact.full_j_mps(4)),
    serialize.matrix_to_obj(exact.full_j_mps(9)),
    serialize.matrix_to_obj(exact.two_by_two_mps(3)),
    serialize.matrix_to_obj(exact.upper_interval_mps(6, 0)),
    serialize.matrix_to_obj(exact.design_mps(designs.identity_design(5), 10, 2)),
    serialize.matrix_to_obj(designs.sylvester_hadamard(4)),
    serialize.matrix_to_obj(designs.paley_conference(6)),
    _FOURIER_4,
    serialize.matrix_to_obj(families.complex_core_matrix(6)),
    serialize.design_to_obj(designs.identity_design(2)),
    serialize.design_to_obj(designs.hadamard_to_design(designs.sylvester_hadamard(8))),
    serialize.param_to_obj(decompose_hermitian_unitary(exact.full_j_mps(4).matrix())),
    serialize.param_to_obj(decompose_unitary(designs.fourier_complex_hadamard(3) / np.sqrt(3))),
]

_NUMBER_TEXT = ["0", "1", "2", "3/2", "0.5", "63", "64", "-1", "1e30", "1e400",
                "inf", "-inf", "nan", "1/0", "x", ""]

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_NUMBER_TEXT) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "d", "kind", "v", "re"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def documents(draw):
    """Text of an input file: a document, a mutated one, or not JSON."""
    kind = draw(st.sampled_from(["valid", "valid", "field", "cell", "junk", "text"]))
    if kind == "text":
        return draw(st.sampled_from(["", "{", "null", "[]", "NaN", "\x00"]))
    if kind == "junk":
        return json.dumps(draw(junk))
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID_DOCS))))
    if kind == "field":
        key = draw(st.sampled_from(sorted(doc) + ["n", "d", "kind", "entries"]))
        doc[key] = draw(junk)
    elif kind == "cell":
        rows = next((doc[k] for k in ("q_entries", "entries", "incidence", "T")
                     if isinstance(doc.get(k), list) and doc[k]), None)
        if rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if row:
                row[draw(st.integers(0, len(row) - 1))] = draw(junk)
    return json.dumps(doc)


numbers = st.sampled_from(_NUMBER_TEXT) | st.integers(-3, 12).map(str)
files = st.integers(0, 7).flatmap(
    lambda i: documents().map(lambda text: ("file", text)) if i else st.just(("missing",)))


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def commands(draw):
    """One argv; input files appear as ("file", text) or ("missing",)."""
    cmd = draw(st.sampled_from(["construct", "verify", "classify", "search", "canon",
                                "equiv", "param", "designs", "extract-design",
                                "bridge", "scatter"]))
    argv = [cmd]
    if cmd == "construct":
        argv += ["--family", draw(st.sampled_from(families.FAMILY_NAMES)),
                 "--n", draw(st.integers(-2, 16).map(str))]
        argv += draw(_flag("--d", numbers)) + draw(_flag("--alpha", numbers))
        argv += draw(_flag("--aux", files))
    elif cmd == "classify":
        argv += ["--n", draw(numbers), "--d", draw(numbers)]
    elif cmd == "search":
        argv += ["--n", draw(st.integers(-1, 7).map(str))] + draw(_flag("--d", numbers))
        argv += draw(st.sampled_from([[], ["--canonical"], ["--count-only"]]))
        argv += draw(_flag("--max-results", numbers)) + draw(_flag("--budget", numbers))
    elif cmd == "equiv":
        argv += [draw(files), draw(files)]
    elif cmd == "param":
        argv += [draw(st.sampled_from(["encode", "decode"])), draw(files)]
        argv += draw(st.sampled_from([[], ["--general"]]))
    elif cmd == "designs":
        action = draw(st.sampled_from(["make", "verify", "from-hadamard"]))
        argv.append(action)
        if action == "make":
            for flag in draw(st.lists(st.sampled_from(["--hadamard", "--conference",
                                                       "--fourier"]), max_size=2)):
                argv += [flag, draw(numbers)]
        else:
            argv.append(draw(files))
    else:
        argv.append(draw(files))
        if cmd == "scatter":
            argv += ["--edge", draw(numbers)]
    argv += draw(_flag("--tol", numbers))
    argv += draw(_flag("--format", st.sampled_from(["json", "csv"])))
    return argv


def _run(argv, tmp):
    paths = []
    for i, arg in enumerate(argv):
        if isinstance(arg, tuple):
            path = tmp / f"arg{i}.json"
            if arg[0] == "file":
                path.write_text(arg[1], encoding="utf-8")
            else:
                path = tmp / "missing" / "none.json"
            arg = str(path)
        paths.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(paths)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


_BIG_EXACT = {"n": 2, "kind": "real-exact", "d": "1e30",
              "q_entries": [["1e30", "1"], ["1", "-1e30"]]}


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=commands())
@example(argv=["classify", "--n", "4", "--d", "inf"])
@example(argv=["designs", "from-hadamard", ("file", json.dumps(_FOURIER_4))])
@example(argv=["verify", ("file", json.dumps(_BIG_EXACT))])
@example(argv=["construct", "--family", "n2", "--n", "2", "--d", "1e30"])
@example(argv=["construct", "--family", "design_complex", "--n", "6", "--alpha", "nan"])
@example(argv=["search", "--n", "4", "--d", "40000"])
@example(argv=["construct", "--family", "conference_block", "--n", "12", "--d", "1",
               "--aux", ("file", json.dumps(_FULL_J_6))])
@example(argv=["verify", ("file", '{"n": 1, "kind": "complex", "entries": []}')])
@example(argv=["verify", ("file", '{"n": 1, "kind": "complex", "entries": [[]]}')])
def test_cli_never_raises(tmp_path_factory, argv):
    code, out = _run(argv, tmp_path_factory.mktemp("fuzz"))
    assert code in EXIT_CODES
    if code == 0 and out and "csv" not in argv:
        json.loads(out, parse_constant=_reject_constant)

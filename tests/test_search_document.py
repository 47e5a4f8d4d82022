"""The streamed ``search`` document against the json.dumps assembly it replaced."""

import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsmat import search, serialize
from mpsmat.cli import main

#: sha256 of ``search --n 8 --d 3 --out FILE``, pinned since the format was defined.
EXPORT_SHA256 = "d950ed34f25af5cccab4a43af1e713d9bda2284e1ea0f888418bc7f0bc5ca306"


def oracle_document(n, d=None, canonical=False, count_only=False, max_results=None):
    """(exit code, text) of the search document built as one object and dumped
    with ``json.dumps(..., indent=2)``, each matrix through ``matrix_to_obj``."""
    ratios = [Fraction(d)] if d is not None else search.candidate_ratios(n)
    mode = "up_to_equivalence" if canonical else "all"
    blocks = []
    complete = True
    for ratio in ratios:
        res = search.exhaustive_search(n, ratio, mode=mode, max_results=max_results)
        complete &= res.complete
        block = {
            "d": f"{res.d.numerator}/{res.d.denominator}",
            "count": res.count,
            "complete": res.complete,
        }
        if not count_only:
            block["matrices"] = [serialize.matrix_to_obj(m) for m in res.matrices()]
        blocks.append(block)
    text = json.dumps({"n": n, "mode": mode, "results": blocks}, indent=2)
    return (0 if complete else 2), text


def search_argv(n, d=None, canonical=False, count_only=False, max_results=None):
    argv = ["search", "--n", str(n)]
    if d is not None:
        argv += ["--d", str(d)]
    if canonical:
        argv.append("--canonical")
    if count_only:
        argv.append("--count-only")
    if max_results is not None:
        argv += ["--max-results", str(max_results)]
    return argv


def assert_matches_oracle(capsys, tmp_path, **kw):
    code, text = oracle_document(**kw)
    out = tmp_path / "doc.json"
    assert main(search_argv(**kw) + ["--out", str(out)]) == code
    assert out.read_bytes() == text.encode()
    assert main(search_argv(**kw)) == code
    assert capsys.readouterr().out == text + "\n"
    return text


@pytest.mark.parametrize("count_only", [False, True], ids=["matrices", "count-only"])
@pytest.mark.parametrize("canonical", [False, True], ids=["all", "canonical"])
@pytest.mark.parametrize("n", range(2, 8))
def test_every_ratio_up_to_order_7(capsys, tmp_path, n, canonical, count_only):
    assert_matches_oracle(capsys, tmp_path, n=n, canonical=canonical,
                          count_only=count_only)


def test_incomplete_run(capsys, tmp_path):
    text = assert_matches_oracle(capsys, tmp_path, n=6, d=2, max_results=3)
    assert '"complete": false' in text


@pytest.mark.parametrize("d", ["0", "1/3"])
def test_empty_block(capsys, tmp_path, d):
    text = assert_matches_oracle(capsys, tmp_path, n=5, d=d)
    assert '"matrices": []' in text


def test_no_results():
    fh = io.StringIO()
    serialize.write_search_document(fh, 4, "all", [], True)
    assert fh.getvalue() == json.dumps({"n": 4, "mode": "all", "results": []}, indent=2)


def test_export_digest(tmp_path):
    out = tmp_path / "export.json"
    assert main(["search", "--n", "8", "--d", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXPORT_SHA256


@pytest.mark.parametrize("argv, code, digest", [
    (["--n", "7"], 0, "4be4405652c9aa263796925a85ffc8c23f5f2860ba0eee2465634db9793b9fbb"),
    (["--n", "8", "--d", "1", "--max-results", "5000"], 2,
     "3e7ebe17a7a9a83840cdd0d96f75f63f2b24b1e2bcfc71395f1c2914e0d28512"),
])
def test_stdout_digest(capsys, argv, code, digest):
    # Pinned before all-mode hits were written out as sign-flip orbits.
    assert main(["search"] + argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_one_trailing_newline_on_stdout_and_none_in_the_file(capsys, tmp_path):
    out = tmp_path / "doc.json"
    assert main(["search", "--n", "4", "--d", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().endswith("}")
    assert main(["search", "--n", "4", "--d", "1"]) == 0
    assert capsys.readouterr().out == out.read_text() + "\n"


def test_unwritable_out_exits_74(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "4", "--out", str(tmp_path / "no-dir" / "x.json")])
    assert exc.value.code == 74
    assert capsys.readouterr().err.startswith("i/o error")


def test_too_large_ratio_writes_no_file(tmp_path):
    out = tmp_path / "doc.json"
    assert main(["search", "--n", "4", "--d", "40000", "--out", str(out)]) == 2
    assert not out.exists()


# --- The exact writer against json.dumps of matrix_to_obj ----------------------

def exact_obj(q, d):
    """``matrix_to_obj`` of IntegerMps(d, q), for any integer matrix q: the
    cells are the "num/den" strings of q/2."""
    return {"n": len(q), "kind": "real-exact", "d": f"{d.numerator}/{d.denominator}",
            "q_entries": [[f"{f.numerator}/{f.denominator}" for f in
                           (Fraction(int(x), 2) for x in row)] for row in q]}


def block_document(n, blocks):
    """write_search_document's text for blocks of (d, stack), and the
    json.dumps text of the same document."""
    results = [SimpleNamespace(d=d, count=len(stack), complete=True, two_q_stack=stack)
               for d, stack in blocks]
    fh = io.StringIO()
    serialize.write_search_document(fh, n, "all", results, True)
    obj = {"n": n, "mode": "all", "results": [
        {"d": f"{d.numerator}/{d.denominator}", "count": len(stack), "complete": True,
         "matrices": [exact_obj(q, d) for q in stack]} for d, stack in blocks]}
    return fh.getvalue(), json.dumps(obj, indent=2)


def test_exact_obj_is_matrix_to_obj():
    for d in search.candidate_ratios(6):
        res = search.exhaustive_search(6, d)
        for m in res.matrices():
            assert exact_obj(m.two_q, d) == serialize.matrix_to_obj(m)


_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64, np.dtype(">i8")]


def _extremes(dtype):
    info = np.iinfo(dtype)
    lo, hi = int(info.min), int(info.max)
    return sorted({lo, lo + 1, hi - 1, hi, 0, 1, 2, max(lo, -1), max(lo, -2),
                   max(lo, -129), min(hi, 128), min(hi, 10**18), max(lo, -10**18)})


@st.composite
def _stacks(draw):
    """(n, stack): k symmetric n x n matrices, each one of up to three bases,
    so rows repeat within and across matrices; cells from the extremes of
    the dtype; sometimes a non-contiguous view."""
    n = draw(st.integers(1, 20))
    dtype = draw(st.sampled_from(_DTYPES))
    pool = _extremes(dtype)
    bases = []
    for _ in range(draw(st.integers(1, 3))):
        cells = draw(st.lists(st.sampled_from(pool), min_size=n * n, max_size=n * n))
        if draw(st.booleans()):  # one row repeated n times
            cells = cells[:n] * n
        a = np.array(cells, dtype=object).reshape(n, n)
        bases.append(np.triu(a) + np.triu(a, 1).T)
    picks = draw(st.lists(st.integers(0, len(bases) - 1), max_size=7))
    stack = np.array([bases[i] for i in picks], dtype=object).reshape(-1, n, n).astype(dtype)
    view = draw(st.sampled_from(["contiguous", "transposed", "strided", "reversed"]))
    if view == "transposed":
        stack = stack.transpose(0, 2, 1)
    elif view == "strided":
        stack = np.repeat(stack, 2, axis=0)[::2]
    elif view == "reversed":
        stack = stack[::-1, ::-1, ::-1]
    return n, stack


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_stacks(), d=st.integers(0, 80).map(lambda j: Fraction(j, 2)))
def test_writer_matches_json_dumps(case, d):
    n, stack = case
    for q in stack:
        assert serialize.dumps_matrix(q) == json.dumps(serialize.matrix_to_obj(q), indent=2)
    text, want = block_document(n, [(d, stack), (d + 1, stack[::-1])])
    assert text == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_stacks(), chunk=st.integers(1, 4))
def test_chunk_boundaries_match_json_dumps(case, chunk):
    n, stack = case
    with mock.patch.object(serialize, "_WRITE_CHUNK", chunk):
        text, want = block_document(n, [(Fraction(1), stack)])
    assert text == want


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_a_chunk_and_one_more_or_less(rng, extra):
    k = serialize._WRITE_CHUNK + extra
    stack = rng.integers(-3, 4, size=(k, 3, 3)).astype(np.int8)
    stack[1::2, 0] = stack[0, 0]
    text, want = block_document(3, [(Fraction(3, 2), stack)])
    assert text == want


def test_no_numpy_ma_after_search_or_exact_construct(subprocess_env):
    # numpy >= 2.3's np.unique without return_index/return_inverse imports
    # numpy.ma; numpy 1.24 imports it with numpy itself.
    bare = subprocess.run([sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
                          capture_output=True, text=True, env=subprocess_env, timeout=120)
    if bare.stdout.strip() == "True":
        pytest.skip("a bare import of numpy loads numpy.ma")
    child = ("import contextlib, io, sys\n"
             "from mpsmat import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['search', '--n', '8', '--canonical']) == 0\n"
             "    assert cli.main(['construct', '--family', 'full_j', '--n', '6']) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=subprocess_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

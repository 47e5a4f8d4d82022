"""The streamed ``search`` document against the json.dumps assembly it replaced."""

import hashlib
import io
import json
from fractions import Fraction

import pytest

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


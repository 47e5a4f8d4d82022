import hashlib
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_unitary
from mpsmat.classify import necessary_conditions
from mpsmat.cli import _verdict_text, main
from mpsmat.designs import sylvester_hadamard
from mpsmat.families import n2_matrix
from mpsmat.serialize import dumps_matrix, loads_matrix, matrix_to_obj


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestConstructVerify:
    def test_full_j_real_exact(self, capsys):
        code, obj = run_json(capsys, "construct", "--family", "full_j", "--n", "6")
        assert code == 0
        assert obj["kind"] == "real-exact" and obj["d"] == "2/1"

    def test_construct_pipes_into_verify(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        for family, extra in [
            ("full_j", ["--n", "6"]),
            ("n2", ["--n", "2", "--d", "3/2"]),
            ("upper_interval", ["--n", "8", "--d", "2.2"]),
            ("hadamard_core", ["--n", "14", "--d", "4"]),
            ("conference_core", ["--n", "10", "--d", "2"]),
            ("complex_core", ["--n", "12"]),
            ("conference_block", ["--n", "12", "--d", "1/2"]),
            ("design_complex", ["--n", "14", "--d", "3"]),
            ("design_real", ["--n", "14", "--d", "2"]),
        ]:
            code = main(["construct", "--family", family, *extra,
                         "--out", str(path)])
            assert code == 0, family
            code, report = run_json(capsys, "verify", str(path))
            assert code == 0, family
            for key in ("hermitian", "unitary", "mps", "d_bound",
                        "trace_identity"):
                assert report[key], (family, key)

    @pytest.mark.parametrize("argv", [
        ["--family", "n2", "--n", "9", "--d", "1"],
        ["--family", "full_j", "--n", "5", "--d", "7"],
        ["--family", "complex_core", "--n", "8", "--d", "3"],
        ["--family", "design_complex", "--n", "10", "--d", "1/2", "--aux", "{design}"],
        ["--family", "design_complex", "--n", "10", "--alpha", "0.3", "--aux", "{design}"],
    ])
    def test_member_of_another_order_or_ratio_fails(self, capsys, tmp_path, argv):
        # A (2, 1, 0)-design builds a member of order 4, not 10.
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"v": 2, "k": 1, "lambda": 0,
                                      "incidence": [[1, 0], [0, 1]]}))
        argv = [str(design) if a == "{design}" else a for a in argv]
        code, out = run(capsys, "construct", *argv)
        assert code == 1 and out == ""

    def test_nan_alpha_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--family", "design_complex", "--n", "6", "--alpha", "nan"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("d", ["10000000000", "1e30"])
    def test_ratio_beyond_int64_writes_the_float_member(self, capsys, d):
        # 4d^2 + 4 leaves the int64 range of the exact checks, so the 2 x 2
        # family's float member stands in for the exact one.
        code, out = run(capsys, "construct", "--family", "n2", "--n", "2", "--d", d)
        assert code == 0
        m = loads_matrix(out)
        assert isinstance(m, np.ndarray)
        assert np.array_equal(m, n2_matrix(float(Fraction(d))))

    def test_hadamard_core_rejects_a_complex_hadamard(self, capsys, tmp_path):
        f4 = tmp_path / "F4.json"
        assert main(["designs", "make", "--fourier", "4", "--out", str(f4)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["construct", "--family", "hadamard_core", "--n", "6",
                         "--d", "1", "--aux", str(f4)])
        assert code == 1
        assert "NotHadamardError" in capsys.readouterr().err

    def test_hadamard_core_takes_a_real_hadamard_of_complex_kind(self, capsys, tmp_path):
        # The format of `designs make --fourier 4`, holding a real Hadamard matrix.
        f4 = tmp_path / "F4.json"
        assert main(["designs", "make", "--fourier", "4", "--out", str(f4)]) == 0
        doc = json.loads(f4.read_text())
        doc["entries"] = [[[float(x), 0.0] for x in row] for row in sylvester_hadamard(4)]
        f4.write_text(json.dumps(doc))
        h4 = tmp_path / "H4.json"
        assert main(["designs", "make", "--hadamard", "4", "--out", str(h4)]) == 0
        outputs = []
        for aux in (f4, h4):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["construct", "--family", "hadamard_core", "--n", "6",
                             "--d", "1", "--aux", str(aux)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_hadamard_core_rejects_an_aux_matrix_with_d(self, capsys, tmp_path):
        # A real-exact document carrying d is an MPS matrix, not a Hadamard matrix.
        fj = tmp_path / "FJ.json"
        assert main(["construct", "--family", "full_j", "--n", "6", "--out", str(fj)]) == 0
        code = main(["construct", "--family", "hadamard_core", "--n", "10",
                     "--d", "1", "--aux", str(fj)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: bad input")

    def test_verify_fails_on_non_unitary(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 2, "kind": "complex",
            "entries": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
        }))
        code, report = run_json(capsys, "verify", str(path))
        assert code == 1 and not report["unitary"]

    def test_csv_output(self, capsys):
        code, out = run(capsys, "construct", "--family", "full_j", "--n", "4",
                        "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "1/1,-1/1,-1/1,-1/1"

    @pytest.mark.parametrize("argv", [
        ["--family", "hadamard_core", "--n", "10", "--d", "2"],
        ["--family", "conference_core", "--n", "14", "--d", "3"],
        ["--family", "conference_block", "--n", "8", "--d", "0.5"],
    ])
    def test_missing_provider_is_one_message(self, capsys, argv):
        code = main(["construct", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: no built-in matrix for {argv[1]} here; "
                                "pass --aux FILE\n")


def _points(lo, hi, count=12):
    return [lo] if hi <= lo else [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _construct_grid():
    """(family, n, d) at every point of the acceptance criterion-1 grid that
    the built-in providers build, then three points where none does."""
    items = [("full_j", n, None) for n in range(4, 31, 2)]
    items += [("n2", 2, d) for d in _points(0.0, 5.0)]
    for n in range(4, 31, 2):
        items += [("upper_interval", n, d) for d in _points(max(0.0, n / 2 - 3), n / 2 - 1)]
    for n in (6, 14, 30):
        items += [("hadamard_core", n, d) for d in _points(n / 4 - 1.5, n / 2 - 1)]
    for n in (10, 26):
        items += [("conference_core", n, d)
                  for d in _points(n / 4 - 1.5 - 1 / (n - 2), n / 2 - 1)]
    items += [("complex_core", n, None) for n in range(6, 31, 2)]
    for n in (12, 28):
        items += [("conference_block", n, d) for d in _points(0.0, 1.0)]
    # The designs the provider covers these intervals with: the Sylvester
    # designs (7, 3, 1) and (15, 7, 3) and the identity design (5, 1, 0).
    for n, k_minus_lam in ((14, 2), (30, 4), (10, 1)):
        items += [("design_complex", n, d)
                  for d in _points(n / 2 - 1 - 2 * k_minus_lam, n / 2 - 1)]
    items += [("design_real", n, float(d)) for n, d in ((14, 2), (30, 6), (10, 2), (8, 1), (6, 0))]
    items += [("hadamard_core", 10, 2.0), ("conference_core", 14, 3.0),
              ("conference_block", 8, 0.5)]
    return items


class TestConstructPinned:
    # sha256 of each family's construct stdout and exit status over the grid.
    DIGESTS = {
        "full_j": "eaa637b016c66a410222d2f219105fbbd063c643273212395fc9a945c5fbc6d8",
        "n2": "440e82c62cfec294b2d954db99921de42d771f976f9f924548bd285f03be0472",
        "upper_interval": "a4e371963016a225a6f11b3b53730bba754cd393a6d58cbe975a478d53e5ae6c",
        "hadamard_core": "3dbc911648c2cd75dea042a1fdf3fe7d521492c071ab8866cf5c06fcf7bcec51",
        "conference_core": "b447b46f507c11818eda8f202a62b0ba5d6de615622fe27e1a6fda942242d529",
        "complex_core": "dde005eb4b15e66a8c6caaf05cc44921bbb6da5fd5f6a86b8d448fd14a76727e",
        "conference_block": "72cd37bcdd6527b1dee2e908fc8f6a2230d93013573110628dfa87e88ec741ee",
        "design_complex": "2054d327a1d6a2d1a3c89fe56681664de4ed05281c4e638d51b50fd8a313085a",
        "design_real": "d2081ce8604e41c85c780f865ab9e40f2b191bfba3e333457808e57af65332d6",
    }

    def test_every_grid_output_is_pinned(self, capsys):
        digests = {}
        for family, n, d in _construct_grid():
            argv = ["construct", "--family", family, "--n", str(n)]
            if d is not None:
                argv += ["--d", repr(d)]
            code = main(argv)
            out = capsys.readouterr().out
            digests.setdefault(family, hashlib.sha256()).update(f"{out}\n{code}\n".encode())
        assert {k: v.hexdigest() for k, v in digests.items()} == self.DIGESTS


class TestClassify:
    def test_design_gap(self, capsys):
        code, obj = run_json(capsys, "classify", "--n", "26", "--d", "4")
        assert code == 1
        assert obj["status"] == "impossible" and obj["rule"] == "design-gap"

    def test_exists_witness_verifies(self, capsys, tmp_path):
        code, obj = run_json(capsys, "classify", "--n", "14", "--d", "2")
        assert code == 0 and obj["status"] == "exists_with_witness"
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps(obj["witness"]))
        code, report = run_json(capsys, "verify", str(witness))
        assert code == 0

    @pytest.mark.parametrize("d, exact", [("3037000499/2", True), ("1518500250", False),
                                          ("10000000000", False)])
    def test_two_by_two_beyond_int64_has_a_null_witness(self, capsys, d, exact):
        # 4d^2 + 4 <= 2^63 - 1 holds up to 2d = 3,037,000,499; past it the
        # exact witness cannot be checked in int64 and the verdict carries none.
        code, obj = run_json(capsys, "classify", "--n", "2", "--d", d)
        assert code == 0
        assert obj["status"] == "exists_with_witness" and obj["rule"] == "two-by-two"
        assert (obj["witness"] is not None) == exact

    def test_open_exit_code(self, capsys):
        code, obj = run_json(capsys, "classify", "--n", "22", "--d", "4")
        assert code == 2 and obj["status"] == "open"

    def test_verdict_text_is_the_json_dumps_layout(self):
        # Over every half-integer pair with n <= 200, 332 of them with a
        # witness: the earlier assembly, the witness through matrix_to_obj
        # and the whole verdict through json.dumps(..., indent=2).
        def reference(v):
            obj = {"n": v.n, "d": f"{v.d.numerator}/{v.d.denominator}",
                   "status": v.status, "rule": v.rule}
            if v.detail:
                obj["detail"] = v.detail
            obj["witness"] = matrix_to_obj(v.witness) if v.witness else None
            return json.dumps(obj, indent=2)

        witnesses = 0
        for n in range(2, 201):
            for j in range(n - 1):
                v = necessary_conditions(n, Fraction(j, 2))
                witnesses += v.witness is not None
                assert _verdict_text(v) == reference(v), (n, j)
        assert witnesses == 332

    def test_every_sweep_verdict_is_pinned(self):
        # The verdict document and exit status of every half-integer pair with
        # n <= 200, by sha256: the classifier's output, byte for byte.
        exits = {"exists_with_witness": 0, "impossible": 1, "open": 2}
        digest = hashlib.sha256()
        for n in range(2, 201):
            for j in range(n - 1):
                v = necessary_conditions(n, Fraction(j, 2))
                digest.update(f"{_verdict_text(v)}\n{exits[v.status]}\n".encode())
        assert digest.hexdigest() == \
            "442d2fe38a27e64076cfda67ff5092760d801e2964611a222d8990f364694808"


class TestSearch:
    def test_grid_counts(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "5")
        assert code == 0
        counts = {blk["d"]: blk["count"] for blk in obj["results"]}
        assert counts == {"0/1": 0, "1/2": 0, "1/1": 0, "3/2": 32}

    def test_canonical_two_classes(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "6", "--d", "2",
                             "--canonical")
        assert code == 0
        assert obj["results"][0]["count"] == 2

    def test_max_results_marks_incomplete(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "6", "--d", "2",
                             "--max-results", "3")
        assert code == 2
        blk = obj["results"][0]
        assert blk["count"] == 3 and not blk["complete"]
        # The first three matrices of the complete output.
        _, full = run_json(capsys, "search", "--n", "6", "--d", "2")
        assert blk["matrices"] == full["results"][0]["matrices"][:3]

    def test_too_large_exit(self, capsys):
        code = main(["search", "--n", "21"])
        assert code == 2

    def test_order_nine_needs_no_option(self, capsys):
        # Order 9 holds its sign words in uint16: 512 matrices at d = 7/2,
        # written out by the orbit expansion.
        code, obj = run_json(capsys, "search", "--n", "9", "--d", "7/2")
        assert code == 0
        blk = obj["results"][0]
        assert blk["count"] == len(blk["matrices"]) == 512 and blk["complete"]

    @pytest.mark.parametrize("argv", [
        ["--n", "40", "--d", "19", "--count-only", "--budget", "1"],
        ["--n", "64", "--d", "31", "--budget", "2"],
        ["--n", "3000000"],
    ])
    def test_order_past_the_search_kernel_exit(self, argv, subprocess_env):
        # The kernel's order limit is checked before the ratio grid or any
        # search table is built, so even n = 3,000,000 (a 3-million-entry
        # grid) exits at start-up cost.  The child runs under a small parent
        # that reports its exit code and peak RSS, since Linux carries the
        # spawning process's RSS high-water mark into the child's ru_maxrss.
        parent = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                  "_, status, usage = os.wait4(p.pid, 0); "
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        proc = subprocess.run([sys.executable, "-c", parent,
                               sys.executable, "-m", "mpsmat.cli", "search", *argv],
                              capture_output=True, text=True, env=subprocess_env, timeout=120)
        code, peak_kib = map(int, proc.stdout.split())  # the child itself writes no stdout
        assert code == 2
        assert proc.stderr == f"error: order {argv[1]} exceeds the search maximum 20\n"
        assert peak_kib < 60 * 1024

    def test_ratio_beyond_the_int8_stack_exit(self, capsys):
        assert main(["search", "--n", "4", "--d", "40000"]) == 2

    def test_count_only_omits_matrices(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "5", "--count-only")
        assert code == 0
        assert all("matrices" not in blk for blk in obj["results"])
        counts = {blk["d"]: blk["count"] for blk in obj["results"]}
        assert counts["3/2"] == 32

    def test_count_only_zero_budget(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "4", "--budget", "0", "--count-only")
        assert code == 2
        assert [(blk["count"], blk["complete"]) for blk in obj["results"]] == [(0, False)] * 3


class TestCanonEquiv:
    def test_canon_idempotent(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "full_j", "--n", "6",
              "--out", str(m_path)])
        c_path = tmp_path / "c.json"
        assert main(["canon", str(m_path), "--out", str(c_path)]) == 0
        c2_path = tmp_path / "c2.json"
        assert main(["canon", str(c_path), "--out", str(c2_path)]) == 0
        assert json.loads(c_path.read_text()) == json.loads(c2_path.read_text())

    def test_canon_has_no_order_cap(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "full_j", "--n", "9", "--out", str(m_path)])
        code, obj = run_json(capsys, "canon", str(m_path))
        assert code == 0 and obj["n"] == 9 and obj["d"] == "7/2"

    def test_equiv_negative(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["construct", "--family", "full_j", "--n", "6", "--out", str(a)])
        main(["construct", "--family", "upper_interval", "--n", "6",
              "--d", "2", "--out", str(b)])
        code, obj = run_json(capsys, "equiv", str(a), str(b))
        assert code == 1 and obj == {"equivalent": False}

    def test_equiv_positive_witness(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        main(["construct", "--family", "full_j", "--n", "6", "--out", str(a)])
        code, obj = run_json(capsys, "equiv", str(a), str(a))
        assert code == 0 and obj["equivalent"]
        assert sorted(obj["witness"]["P"]) == [1, 2, 3, 4, 5, 6]


class TestParamCommands:
    def test_encode_decode_round_trip(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "complex_core", "--n", "8",
              "--out", str(m_path)])
        p_path = tmp_path / "p.json"
        assert main(["param", "encode", str(m_path), "--out", str(p_path)]) == 0
        obj = json.loads(p_path.read_text())
        assert obj["S_h"] is None  # Hermitian input
        code, out = run(capsys, "param", "decode", str(p_path))
        assert code == 0
        rebuilt = loads_matrix(out)
        original = loads_matrix(m_path.read_text())
        assert np.linalg.norm(rebuilt - original) < 1e-9

    def test_general_encoding(self, capsys, tmp_path):
        m_path = tmp_path / "u.json"
        main(["construct", "--family", "complex_core", "--n", "6",
              "--out", str(m_path)])
        p_path = tmp_path / "p.json"
        assert main(["param", "encode", str(m_path), "--general",
                     "--out", str(p_path)]) == 0
        assert json.loads(p_path.read_text())["S_h"] is not None

    # sha256 of the ``param encode`` stdout for a seeded Haar unitary (m = n,
    # identity P) and for a complex_core member encoded with --general (m = 3
    # of n = 6, pivoted P), pinned from the decomposer that took m, P and
    # ||M^{-1}||_2 from full SVDs.
    ENCODE_DIGESTS = {
        "haar": "b375a1ab6b3b75f93b03b02cdb287c5ca960cd3fce61a3c1f3847a3c0720b366",
        "general": "e5fa704c8158cc5290b5eefd3dede83e6c99d5e4a7733c71c1d2f48736b22e13",
    }

    def test_encode_output_pinned(self, capsys, tmp_path):
        haar = tmp_path / "haar.json"
        haar.write_text(dumps_matrix(random_unitary(6, np.random.default_rng(2011))))
        herm = tmp_path / "herm.json"
        assert main(["construct", "--family", "complex_core", "--n", "6",
                     "--out", str(herm)]) == 0
        digests = {}
        for name, argv in [("haar", [str(haar)]), ("general", [str(herm), "--general"])]:
            assert main(["param", "encode", *argv]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == self.ENCODE_DIGESTS


class TestDesignsCommands:
    def test_make_and_from_hadamard(self, capsys, tmp_path):
        h_path = tmp_path / "h.json"
        assert main(["designs", "make", "--hadamard", "8",
                     "--out", str(h_path)]) == 0
        d_path = tmp_path / "d.json"
        assert main(["designs", "from-hadamard", str(h_path),
                     "--out", str(d_path)]) == 0
        obj = json.loads(d_path.read_text())
        assert (obj["v"], obj["k"], obj["lambda"]) == (7, 3, 1)
        code, rep = run_json(capsys, "designs", "verify", str(d_path))
        assert code == 0 and rep["valid"]

    def test_conference_provider(self, capsys):
        code, obj = run_json(capsys, "designs", "make", "--conference", "6")
        assert code == 0 and obj["kind"] == "real-exact" and "d" not in obj

    def test_verify_rejects_bad_design(self, capsys, tmp_path):
        d_path = tmp_path / "bad.json"
        d_path.write_text(json.dumps({
            "v": 3, "k": 2, "lambda": 1, "incidence": [[1, 1, 0]] * 3}))
        code, rep = run_json(capsys, "designs", "verify", str(d_path))
        assert code == 1 and not rep["valid"]

    @pytest.mark.parametrize("field,value", [("v", 3.9), ("k", "1"), ("lambda", False)])
    def test_verify_rejects_non_integer_fields(self, capsys, tmp_path, field, value):
        doc = {"v": 3, "k": 1, "lambda": 0, "incidence": np.eye(3, dtype=int).tolist()}
        doc[field] = value
        d_path = tmp_path / "d.json"
        d_path.write_text(json.dumps(doc))
        code, rep = run_json(capsys, "designs", "verify", str(d_path))
        assert code == 1 and not rep["valid"]


class TestBridgeExtractScatter:
    def test_bridge_round_trip(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "design_real", "--n", "14", "--d", "2",
              "--out", str(m_path)])
        h_path = tmp_path / "h.json"
        assert main(["bridge", str(m_path), "--out", str(h_path)]) == 0
        h_obj = json.loads(h_path.read_text())
        assert h_obj["n"] == 8 and "d" not in h_obj
        back_path = tmp_path / "back.json"
        assert main(["bridge", str(h_path), "--out", str(back_path)]) == 0
        back = json.loads(back_path.read_text())
        assert back["n"] == 14 and back["d"] == "2/1"

    def test_extract_design(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "design_real", "--n", "10", "--d", "2",
              "--out", str(m_path)])
        code, obj = run_json(capsys, "extract-design", str(m_path))
        assert code == 0
        assert (obj["v"], obj["k"], obj["lambda"]) == (5, 1, 0)
        assert obj["degenerate"]

    def test_scatter(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "full_j", "--n", "4",
              "--out", str(m_path)])
        code, obj = run_json(capsys, "scatter", str(m_path), "--edge", "1")
        assert code == 0
        assert obj["probabilities"] == pytest.approx([0.25] * 4)
        assert obj["ratio_d_squared"] == pytest.approx(1.0, abs=1e-8)

    def test_scatter_bad_edge(self, capsys, tmp_path):
        m_path = tmp_path / "m.json"
        main(["construct", "--family", "full_j", "--n", "4",
              "--out", str(m_path)])
        assert main(["scatter", str(m_path), "--edge", "5"]) == 1


class TestUsageErrors:
    @pytest.mark.parametrize("ratio", ["inf", "-inf", "nan", "1e400", "1/0"])
    def test_unusable_ratio_exit_64(self, ratio):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "4", "--d", ratio])
        assert exc.value.code == 64

    def test_unknown_flag_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--n", "6", "--d", "1", "--bogus"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "4", "--format", "csv"],
        ["classify", "--n", "6", "--d", "1", "--tol", "1e-3"],
        ["search", "--n", "8", "--max-order", "8"],  # no order option: 20 is the limit
    ])
    def test_option_the_command_does_not_read_exit_64(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64

    @pytest.mark.parametrize("argv", [
        ["designs", "verify", "{design}", "--hadamard", "8"],
        ["designs", "from-hadamard", "{hadamard}", "--fourier", "3"],
        ["param", "decode", "{param}", "--general"],
        ["construct", "--family", "full_j", "--n", "6", "--alpha", "0.3"],
        ["construct", "--family", "full_j", "--n", "6", "--aux", "{hadamard}"],
        ["designs", "make"],
    ])
    def test_option_the_action_or_family_does_not_read_exit_64(self, capsys, tmp_path,
                                                                argv):
        files = {"{design}": tmp_path / "d.json", "{hadamard}": tmp_path / "h.json",
                 "{param}": tmp_path / "p.json"}
        files["{design}"].write_text(json.dumps({"v": 2, "k": 1, "lambda": 0,
                                                 "incidence": [[1, 0], [0, 1]]}))
        assert main(["designs", "make", "--hadamard", "4",
                     "--out", str(files["{hadamard}"])]) == 0
        matrix = tmp_path / "m.json"
        assert main(["construct", "--family", "full_j", "--n", "4", "--out", str(matrix)]) == 0
        assert main(["param", "encode", str(matrix), "--out", str(files["{param}"])]) == 0
        argv = [str(files[a]) if a in files else a for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["search", "--n", "1"],
        ["search", "--n", "0"],
        ["search", "--n", "-3"],
        ["search", "--n", "1", "--d", "0"],
        ["search", "--n", "4", "--max-results", "0"],
        ["search", "--n", "4", "--max-results", "-1"],
    ])
    def test_search_bad_order_or_max_results_exit_1(self, capsys, tmp_path, argv):
        out = tmp_path / "s.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert main(argv) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
    def test_search_non_finite_budget_exit_64(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "4", f"--budget={budget}"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    @pytest.mark.parametrize("command", [["verify", "{file}"], ["param", "encode", "{file}"],
                                         ["scatter", "{file}", "--edge", "1"]])
    def test_tolerance_not_positive_finite_exit_64(self, capsys, tmp_path, command, tol):
        # Under --tol inf the non-unitary diag(5, 7) would pass as Hermitian and unitary.
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"n": 2, "kind": "real-exact",
                                    "q_entries": [["5/1", "0/1"], ["0/1", "7/1"]]}))
        argv = [str(path) if a == "{file}" else a for a in command]
        assert main([*argv, "--tol=1e-9"]) == 1  # the file itself is read and rejected
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_bad_json_input(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert main(["verify", str(p)]) == 1

    @pytest.mark.parametrize("argv", [
        ["classify", "--n", "1000000000", "--d", "499999999"],
        ["construct", "--family", "full_j", "--n", "1000000000"],
        ["designs", "make", "--fourier", "100000000"],
    ])
    def test_out_of_memory_exit_2(self, capsys, argv):
        # The full-j matrix of order 10^9 needs 6.94 EiB at once, and the
        # Fourier matrix of order 10^8 142 PiB, which numpy refuses before
        # touching any memory: one line and the "too large" code.
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1



class TestParserReuse:
    """main reuses one parser tree; each call must behave as a fresh run."""

    # Different subcommands, --out given then omitted, and a usage error (64)
    # followed by valid calls.
    SEQUENCE = [
        ["search", "--n", "4", "--d", "1", "--out", "{out}"],
        ["search", "--n", "4", "--d", "1", "--count-only"],
        ["construct", "--family", "full_j", "--n", "4", "--format", "csv", "--out", "{out}"],
        ["search", "--n", "4", "--format", "csv"],
        ["construct", "--family", "full_j", "--n", "4"],
        ["classify", "--n", "6", "--d", "2"],
        ["designs", "make", "--hadamard", "4"],
    ]

    def test_consecutive_calls_match_fresh_runs(self, capsys, tmp_path, subprocess_env):
        for k, template in enumerate(self.SEQUENCE):
            outputs = []
            for runner in ("main", "fresh"):
                out = tmp_path / f"{runner}-{k}.out"
                argv = [a.replace("{out}", str(out)) for a in template]
                if runner == "main":
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    stdout, stderr = capsys.readouterr()
                else:
                    proc = subprocess.run([sys.executable, "-m", "mpsmat.cli", *argv],
                                          capture_output=True, text=True,
                                          env=subprocess_env, timeout=120)
                    code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
                written = out.read_text() if out.exists() else None
                outputs.append((code, stdout, stderr, written))
            assert outputs[0] == outputs[1], template


_BAD_CELL_DOCS = [
    (["verify"], {"n": 1, "kind": "complex", "entries": [[1]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[1, 0, 0]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[["1", "0"]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[True, False]]]}),
    (["verify"], {"n": 2, "kind": "complex", "entries": [[[1, 0]], [[1, 0], [0, 0]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": 5}),
    (["param", "decode"], {"n": 2, "m": 1, "T": [[1]], "S_h": None, "P": [1, 2]}),
    (["param", "decode"], {"n": 2, "m": 1, "T": [[[1, 0]]], "S_h": [[None]], "P": [1, 2]}),
    (["verify"], {"n": 1, "kind": "real-exact", "q_entries": 5}),
    (["verify"], {"n": 1, "kind": "real-exact", "q_entries": [["1", "1"], 3]}),
    (["verify"], {"n": 2, "kind": "real-exact", "d": "1e30",
                  "q_entries": [["1e30", "1"], ["1", "-1e30"]]}),
    (["verify"], {"n": True, "kind": "complex", "entries": [[[1, 0]]]}),
    (["param", "decode"], {"n": 2, "m": 1, "T": [[[1, 0]]], "S_h": None, "P": [1.9, 2]}),
    (["param", "decode"], {"n": 2, "m": 1, "T": [[[1, 0]]], "S_h": None, "P": [True, 2]}),
    (["param", "decode"], {"n": 2.7, "m": 1.2, "T": [[[1, 0]]], "S_h": None, "P": [1, 2]}),
    (["param", "decode"], {"n": "2", "m": 1, "T": [[[1, 0]]], "S_h": None, "P": [1, 2]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": []}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[1]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[["1.5", 0]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[1, True]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[10**400, 0]]]}),
    (["verify"], {"n": 1, "kind": "complex", "entries": [[[[1, 0], [0, 0]]]]}),
    (["verify"], {"n": 2, "kind": "real-exact", "q_entries": [[10**400, 1], [1, 1]]}),
]


@pytest.mark.parametrize("argv,doc", _BAD_CELL_DOCS)
def test_malformed_complex_cells_fail_without_traceback(argv, doc, subprocess_env):
    proc = subprocess.run([sys.executable, "-m", "mpsmat.cli", *argv],
                          input=json.dumps(doc), capture_output=True, text=True,
                          env=subprocess_env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad input")
    assert "Traceback" not in proc.stderr

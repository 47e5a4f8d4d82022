import argparse
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
from mpsmat.cli import _parser, _verdict_text, main
from mpsmat.designs import fourier_complex_hadamard, sylvester_hadamard
from mpsmat.families import n2_matrix
from mpsmat.parametrize import HermitianUnitaryParam, UnitaryParam, build_unitary
from mpsmat.serialize import (
    dumps_matrix,
    loads_matrix,
    matrix_to_obj,
    param_from_obj,
    param_to_obj,
)


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


class TestVerifyPinned:
    # sha256 of verify's stdout and exit status on each construct output of
    # the grid, and on four inputs that fail one check each.
    DIGESTS = {
        "full_j": "1f0bc16167b9b19a3c7cf1a1efc10554169a377bbfa7f124e167162c7376180e",
        "n2": "82cc5674cbe81619c3c36c8a53744db1dac795a2f6b1b8ed15d23ecd8c603723",
        "upper_interval": "f5911e3dff567d6dfe9feaa2846b6dc16a92a5abe85eed41fa3c39f7e9061fb7",
        "hadamard_core": "726044572754f4df1132a8331cffb4d82b66c924ea67ca84537d81a64ab304b3",
        "conference_core": "818239331644a834227c117fcdecec14c5eca8adf8522d2c54ec2ebb3c64cb9e",
        "complex_core": "4cb5ebbf36ef6b2046965e2316a605cf7e1fab301c022cd921624cbf9c349313",
        "conference_block": "8e89a1eab1c5c1ecfc465a493a1257175c58170f2ccd47e256308e86770e20a4",
        "design_complex": "5766de4aa71dfa6e82a050729b25bc8084bbc622c4892b01c22b526027926134",
        "design_real": "75bf8126da8d76375381c01e6941f7e78d366f68f8087762692049b1fb987f0f",
        "failing": "4ac7df5cb0e36618217f446aa9ca6cf1d981787c0bcde2c37a6129e22a93d11b",
    }

    @staticmethod
    def _verify(capsys, path, digest):
        code = main(["verify", str(path)])
        out = capsys.readouterr().out
        digest.update(f"{out}\n{code}\n".encode())

    def test_every_grid_report_is_pinned(self, capsys, tmp_path):
        digests = {}
        path = tmp_path / "m.json"
        for family, n, d in _construct_grid():
            argv = ["construct", "--family", family, "--n", str(n), "--out", str(path)]
            if d is not None:
                argv += ["--d", repr(d)]
            if main(argv) == 0:
                self._verify(capsys, path, digests.setdefault(family, hashlib.sha256()))
            capsys.readouterr()
        s = n2_matrix(0.7)
        failing = [np.array([[0.0, -1.0], [1.0, 0.0]]),  # unitary, not Hermitian
                   1.1 * s,                               # Hermitian, not unitary
                   np.diag([1.0, -1.0, 1.0]),             # Hermitian unitary, not MPS
                   np.array([[-1.0]])]                    # order 1
        for m in failing:
            path.write_text(dumps_matrix(m))
            self._verify(capsys, path, digests.setdefault("failing", hashlib.sha256()))
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

    @pytest.mark.parametrize("source", ["complex_core", "haar"])
    def test_decode_general_parameters(self, capsys, tmp_path, source):
        # complex_core n = 6 has the eigenvalue -1, so m < n; the Haar draw has
        # m = n and "T": null.
        m_path = tmp_path / "u.json"
        if source == "haar":
            m_path.write_text(dumps_matrix(random_unitary(6, np.random.default_rng(2011))))
        else:
            assert main(["construct", "--family", "complex_core", "--n", "6",
                         "--out", str(m_path)]) == 0
        p_path = tmp_path / "p.json"
        assert main(["param", "encode", str(m_path), "--general", "--out", str(p_path)]) == 0
        param = param_from_obj(json.loads(p_path.read_text()))
        assert isinstance(param, UnitaryParam)
        assert (param.m < param.n, param.t is None) == (source == "complex_core", source == "haar")
        code, out = run(capsys, "param", "decode", str(p_path))
        assert code == 0
        rebuilt = loads_matrix(out)
        assert np.array_equal(rebuilt, build_unitary(param))
        assert np.max(np.abs(rebuilt - loads_matrix(m_path.read_text()))) < 1e-9

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

    # sha256 of the ``param decode`` stdout for seeded parameter files: a
    # Hermitian set (m = 2 of n = 5), a general set with T (m = 3 of n = 6)
    # and one without (m = n = 4), each with a non-identity P.
    DECODE_DIGESTS = {
        "hermitian": "d360999a8f247da488d6c7ca63253542ed74dc3fd15d77c55fb7d339ae0dd11d",
        "general": "d4e508a7e4fede7c38ad1a21ea87f4f09740d12e8937f369e875c31f27d1e7d4",
        "general-no-t": "46ee6b448024e0e3091c8a881f3f707375eb208ef53d27067854c77f4b13ee3f",
    }

    def test_decode_output_pinned(self, capsys, tmp_path):
        rng = np.random.default_rng(2011)

        def gaussian(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        def hermitian(m):
            a = gaussian(m, m)
            return (a + a.conj().T) / 2

        params = {
            "hermitian": HermitianUnitaryParam(n=5, m=2, t=gaussian(2, 3), perm=(3, 0, 4, 1, 2)),
            "general": UnitaryParam(n=6, m=3, t=gaussian(3, 3), s_h=hermitian(3),
                                    perm=(5, 2, 0, 3, 1, 4)),
            "general-no-t": UnitaryParam(n=4, m=4, t=None, s_h=hermitian(4), perm=(1, 3, 0, 2)),
        }
        digests = {}
        for name, param in params.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(param_to_obj(param)))
            assert main(["param", "decode", str(path)]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == self.DECODE_DIGESTS


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

    def test_bridge_refuses_a_complex_matrix(self, capsys, tmp_path):
        f_path = tmp_path / "f.json"
        f_path.write_text(dumps_matrix(fourier_complex_hadamard(4)))
        assert main(["bridge", str(f_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bridge takes a real-exact MPS matrix or a Hadamard matrix\n"

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


# One option as (flags, nargs, default, required, choices, type, action class, help).
_OUT = (("--out",), None, None, False, None, None, "_StoreAction", "output path (default stdout)")
_FILE = ((), "?", None, False, None, None, "_StoreAction", None)
_FORMAT = (("--format",), None, "json", False, ("json", "csv"), None, "_StoreAction", None)
_TOL = (("--tol",), None, 1e-09, False, None, "_tolerance", "_StoreAction", None)
_N = (("--n",), None, None, True, None, "int", "_StoreAction", None)
_RATIO = (("--d",), None, None, False, None, "_parse_ratio", "_StoreAction", None)
_INT = (None, None, None, False, None, "int", "_StoreAction", None)
_FLAG = (None, 0, False, False, None, None, "_StoreTrueAction", None)
_FAMILIES = ("full_j", "n2", "upper_interval", "hadamard_core", "conference_core",
             "complex_core", "conference_block", "design_complex", "design_real")


def _option(base, flag, **fields):
    names = ("flags", "nargs", "default", "required", "choices", "type", "action", "help")
    row = dict(zip(names, base), **fields)
    if flag is not None:
        row["flags"] = (flag,)
    return tuple(row[k] for k in names)


#: Every leaf subcommand: its handler, its options by dest and its mutually
#: exclusive groups as (required, dests).
_SURFACE = {
    "construct": ("_cmd_construct", {
        "family": _option(_N, "--family", type=None, choices=_FAMILIES),
        "n": _N,
        "d": _RATIO,
        "alpha": _option(_RATIO, "--alpha", type="_finite_float"),
        "aux": _option(_RATIO, "--aux", type=None, help="auxiliary matrix/design file"),
        "out": _OUT, "format": _FORMAT}, []),
    "verify": ("_cmd_verify", {"file": _FILE, "out": _OUT, "tol": _TOL}, []),
    "classify": ("_cmd_classify", {
        "n": _N, "d": _option(_RATIO, None, required=True), "out": _OUT}, []),
    "search": ("_cmd_search", {
        "n": _N,
        "d": _RATIO,
        "canonical": _option(_FLAG, "--canonical",
                             help="one representative per equivalence class"),
        "max_results": _option(_INT, "--max-results", help=(
            "stop after this many hits per ratio; without --canonical, "
            "the first hits of the complete output")),
        "budget": _option(_RATIO, "--budget", type="_finite_float", help="seconds"),
        "count_only": _option(_FLAG, "--count-only",
                              help="report counts without serializing the matrices"),
        "out": _OUT}, []),
    "canon": ("_cmd_canon", {"file": _FILE, "out": _OUT, "format": _FORMAT}, []),
    "equiv": ("_cmd_equiv", {
        "file1": _option(_FILE, None, nargs=None, required=True),
        "file2": _option(_FILE, None, nargs=None, required=True),
        "out": _OUT}, []),
    "param encode": ("_cmd_param_encode", {
        "file": _FILE,
        "general": _option(_FLAG, "--general",
                           help="force the general-unitary parametrization"),
        "out": _OUT, "tol": _TOL}, []),
    "param decode": ("_cmd_param_decode", {"file": _FILE, "out": _OUT, "format": _FORMAT}, []),
    "designs make": ("_cmd_designs_make", {
        "hadamard": _option(_INT, "--hadamard"),
        "conference": _option(_INT, "--conference"),
        "fourier": _option(_INT, "--fourier"),
        "out": _OUT, "format": _FORMAT}, [(True, ("hadamard", "conference", "fourier"))]),
    "designs verify": ("_cmd_designs_verify", {"file": _FILE, "out": _OUT}, []),
    "designs from-hadamard": ("_cmd_designs_from_hadamard", {"file": _FILE, "out": _OUT}, []),
    "extract-design": ("_cmd_extract_design", {"file": _FILE, "out": _OUT}, []),
    "bridge": ("_cmd_bridge", {"file": _FILE, "out": _OUT, "format": _FORMAT}, []),
    "scatter": ("_cmd_scatter", {
        "file": _FILE,
        "edge": _option(_N, "--edge", help="1-based edge index"),
        "out": _OUT, "tol": _TOL}, []),
}


def _leaves(parser, path=()):
    """(command path, parser) for every leaf subcommand of the tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _leaves(child, (*path, name))
            return
    yield " ".join(path), parser


def _surface(parser):
    options = {
        a.dest: (tuple(a.option_strings), a.nargs, a.default, a.required,
                 None if a.choices is None else tuple(a.choices),
                 getattr(a.type, "__name__", a.type), type(a).__name__, a.help)
        for a in parser._actions if not isinstance(a, argparse._HelpAction)}
    groups = [(g.required, tuple(a.dest for a in g._group_actions))
              for g in parser._mutually_exclusive_groups]
    return parser.get_default("func").__name__, options, groups


def test_option_surface_of_every_leaf_subcommand():
    """Each leaf subcommand accepts exactly the options of the table, each with
    its flags, arity, default, choices, type, action and help, and runs its
    handler; the order in which --help lists them is free."""
    tree = dict(_leaves(_parser()))
    assert list(tree) == list(_SURFACE)
    for path, parser in tree.items():
        assert _surface(parser) == _SURFACE[path], path


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


_HERMITIAN_PARAMS = {"n": 2, "m": 1, "T": [[[1, 0]]], "S_h": None, "P": [1, 2]}

#: Documents that each command refuses with one line: (argv, document,
#: stdout, stderr).
_REFUSED_DOCS = [
    (["verify"], {"n": 2, "kind": "complex"},
     "", "error: bad input: complex documents need an entries field\n"),
    (["verify"], {"n": 2, "kind": "real-exact", "d": "1/1"},
     "", "error: bad input: real-exact documents need a q_entries field\n"),
    (["verify"], {"n": 1, "kind": "real-exact", "d": "1/1", "q_entries": [["1/1"]]},
     "", "error: ValueError: order must be at least 2\n"),
    (["param", "decode"], {**_HERMITIAN_PARAMS, "T": None},
     "", "error: bad input: Hermitian parameters need T\n"),
    (["param", "decode"], {**_HERMITIAN_PARAMS, "n": 3, "P": [1, 2, 3]},
     "", "error: bad input: block must have shape (1, 2)\n"),
    (["param", "decode"], {**_HERMITIAN_PARAMS, "S_h": [[[0, 1]]]},
     "", "error: ValueError: S_h must be Hermitian exactly as stored\n"),
    (["param", "decode"], {**_HERMITIAN_PARAMS, "n": 3, "T": [[[1, 0], [0, 0]]],
                           "P": [1, 1, 3]},
     "", "error: ValueError: perm must be a permutation of 0..2\n"),
    (["param", "decode"], [],
     "", "error: bad input: parameter document must be a JSON object\n"),
    (["designs", "verify"], [],
     '{"valid": false, "error": "design document must be a JSON object"}\n', ""),
]


@pytest.mark.parametrize("argv,doc,out,err", _REFUSED_DOCS)
def test_refused_documents_exit_1_with_one_line(argv, doc, out, err, capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)
    assert "Traceback" not in captured.err

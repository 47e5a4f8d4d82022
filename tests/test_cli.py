import json
import subprocess
import sys

import numpy as np
import pytest

from mpsmat.cli import main
from mpsmat.serialize import loads_matrix


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

    def test_ratio_too_large_for_int64_fails(self, capsys):
        code, out = run(capsys, "construct", "--family", "n2", "--n", "2", "--d", "1e30")
        assert code == 1 and out == ""

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

    def test_open_exit_code(self, capsys):
        code, obj = run_json(capsys, "classify", "--n", "22", "--d", "4")
        assert code == 2 and obj["status"] == "open"


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

    def test_too_large_exit(self, capsys):
        code = main(["search", "--n", "9"])
        assert code == 2

    def test_ratio_beyond_the_int8_stack_exit(self, capsys):
        assert main(["search", "--n", "4", "--d", "40000"]) == 2

    def test_count_only_omits_matrices(self, capsys):
        code, obj = run_json(capsys, "search", "--n", "5", "--count-only")
        assert code == 0
        assert all("matrices" not in blk for blk in obj["results"])
        counts = {blk["d"]: blk["count"] for blk in obj["results"]}
        assert counts["3/2"] == 32


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
    ])
    def test_option_the_command_does_not_read_exit_64(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_bad_json_input(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        assert main(["verify", str(p)]) == 1


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
]


@pytest.mark.parametrize("argv,doc", _BAD_CELL_DOCS)
def test_malformed_complex_cells_fail_without_traceback(argv, doc, subprocess_env):
    proc = subprocess.run([sys.executable, "-m", "mpsmat.cli", *argv],
                          input=json.dumps(doc), capture_output=True, text=True,
                          env=subprocess_env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad input")
    assert "Traceback" not in proc.stderr

import json

import numpy as np
import pytest

from mpsmat.designs import identity_design, paley_conference, sylvester_hadamard
from mpsmat.exact import IntegerMps, Transform, full_j_mps
from mpsmat.families import complex_core_matrix
from mpsmat.parametrize import (
    HermitianUnitaryParam,
    UnitaryParam,
    build_hermitian_unitary,
    build_unitary,
)
from mpsmat.serialize import (
    FormatError,
    design_from_obj,
    design_to_obj,
    dumps_matrix,
    loads_matrix,
    matrix_from_obj,
    matrix_to_csv,
    matrix_to_obj,
    param_from_obj,
    param_to_obj,
    transform_to_obj,
)


class TestMatrixRoundTrip:
    def test_real_exact_bit_exact(self):
        m = full_j_mps(5)  # half-integer diagonal entries
        text = dumps_matrix(m)
        back = loads_matrix(text)
        assert isinstance(back, IntegerMps)
        assert back == m
        assert dumps_matrix(back) == text

    def test_real_exact_fields(self):
        obj = matrix_to_obj(full_j_mps(6))
        assert obj["kind"] == "real-exact"
        assert obj["d"] == "2/1"
        assert obj["q_entries"][0][0] == "2/1"
        assert obj["q_entries"][0][1] == "-1/1"

    def test_complex_round_trip(self):
        s = complex_core_matrix(8)
        back = loads_matrix(dumps_matrix(s))
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, s)  # float repr round-trips exactly

    def test_plain_exact_matrix_without_d(self):
        h = sylvester_hadamard(4)
        obj = matrix_to_obj(h)
        assert obj["kind"] == "real-exact" and "d" not in obj
        back = matrix_from_obj(obj)
        assert isinstance(back, np.ndarray) and back.dtype == np.int64
        assert np.array_equal(back, h)

    def test_exactly_one_kind_enforced(self):
        obj = matrix_to_obj(full_j_mps(4))
        obj["entries"] = [[0.0, 0.0]]
        with pytest.raises(FormatError):
            matrix_from_obj(obj)
        with pytest.raises(FormatError):
            matrix_from_obj({"n": 2, "kind": "both"})

    def test_complex_must_not_carry_exact_fields(self):
        obj = matrix_to_obj(complex_core_matrix(6))
        obj["d"] = "0/1"
        with pytest.raises(FormatError):
            matrix_from_obj(obj)

    def test_shape_mismatch_rejected(self):
        obj = matrix_to_obj(full_j_mps(4))
        obj["n"] = 5
        with pytest.raises(FormatError):
            matrix_from_obj(obj)

    @pytest.mark.parametrize("n", [True, 1.0, "1", None])
    def test_non_integer_order_rejected(self, n):
        obj = {"n": n, "kind": "complex", "entries": [[[1.0, 0.0]]]}
        with pytest.raises(FormatError):
            matrix_from_obj(obj)

    def test_invalid_rational_rejected(self):
        obj = matrix_to_obj(full_j_mps(4))
        obj["d"] = "2/0"
        with pytest.raises(FormatError):
            matrix_from_obj(obj)


class TestCsv:
    def test_exact_rationals(self):
        text = matrix_to_csv(full_j_mps(3))
        assert text.splitlines()[0] == "1/2,-1/1,-1/1"

    def test_complex_entries(self):
        text = matrix_to_csv(np.array([[0.5 + 0.25j]]))
        assert text.strip() == "0.5+0.25i"
        text = matrix_to_csv(np.array([[1.0 - 2.0j]]))
        assert text.strip() == "1.0-2.0i"

    def test_integer_matrix(self):
        text = matrix_to_csv(paley_conference(6))
        assert text.splitlines()[0] == "0,1,1,1,1,1"


class TestParams:
    def test_hermitian_round_trip(self, rng):
        t = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        param = HermitianUnitaryParam(n=5, m=2, t=t, perm=(3, 0, 1, 4, 2))
        back = param_from_obj(json.loads(json.dumps(param_to_obj(param))))
        assert isinstance(back, HermitianUnitaryParam)
        assert back.perm == param.perm and back.m == param.m
        assert np.allclose(
            build_hermitian_unitary(back), build_hermitian_unitary(param))

    def test_one_based_permutation(self):
        param = HermitianUnitaryParam.of([[1.0]], perm=(1, 0))
        obj = param_to_obj(param)
        assert obj["P"] == [2, 1]
        assert obj["S_h"] is None

    def test_unitary_round_trip(self, rng):
        h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s_h = (h + h.conj().T) / 2
        t = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        param = UnitaryParam(n=4, m=2, t=t, s_h=s_h, perm=(0, 2, 1, 3))
        back = param_from_obj(json.loads(json.dumps(param_to_obj(param))))
        assert isinstance(back, UnitaryParam)
        assert np.allclose(build_unitary(back), build_unitary(param))

    def test_full_m_unitary(self):
        param = UnitaryParam(n=2, m=2, t=None, s_h=np.zeros((2, 2)),
                             perm=(0, 1))
        obj = param_to_obj(param)
        assert obj["T"] is None
        back = param_from_obj(obj)
        assert back.t is None

    @pytest.mark.parametrize("changes", [
        {"P": [1.9, 2]}, {"P": [True, 2]}, {"n": 2.7, "m": 1.2}, {"n": "2"},
        {"m": False}, {"P": "12"},
    ])
    def test_integer_fields_must_be_json_integers(self, changes):
        obj = param_to_obj(HermitianUnitaryParam.of([[1.0]]))
        obj.update(changes)
        with pytest.raises(FormatError):
            param_from_obj(obj)


class TestDesigns:
    def test_round_trip(self):
        from mpsmat.designs import hadamard_to_design

        d = hadamard_to_design(sylvester_hadamard(8))
        back = design_from_obj(json.loads(json.dumps(design_to_obj(d))))
        assert (back.v, back.k, back.lam) == (7, 3, 1)
        assert np.array_equal(back.incidence, d.incidence)

    def test_invalid_rejected(self):
        with pytest.raises((FormatError, Exception)):
            design_from_obj({"v": 3, "k": 2, "lambda": 1,
                             "incidence": [[1, 1, 1]] * 3})

    @pytest.mark.parametrize("field,value", [
        ("v", 3.9), ("k", "1"), ("lambda", False),
        ("incidence", [[1.7, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("incidence", [[True, 0, 0], [0, 1, 0], [0, 0, 1]]),
        ("incidence", [[10**30, 0, 0], [0, 1, 0], [0, 0, 1]]),
    ])
    def test_integer_fields_must_be_json_integers(self, field, value):
        obj = design_to_obj(identity_design(3))
        obj[field] = value
        with pytest.raises(FormatError):
            design_from_obj(obj)


def test_transform_obj():
    t = Transform(perm=(1, 0, 2), signs=(1, -1, 1), global_sign=-1)
    obj = transform_to_obj(t)
    assert obj == {"P": [2, 1, 3], "signs": [1, -1, 1], "global": -1}

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsmat.designs import (
    _gram_equals,
    hadamard_to_design,
    identity_design,
    paley_conference,
    sylvester_hadamard,
    verify_conference,
    verify_design,
    verify_hadamard,
)
from mpsmat.exact import (
    IntegerMps,
    Transform,
    design_mps,
    full_j_mps,
    two_by_two_mps,
    validate,
)
from mpsmat.families import FAMILIES, complex_core_matrix
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

    @pytest.mark.parametrize("matrix", [np.ones((2, 3), dtype=np.int64), np.ones((2, 3)),
                                        np.ones(3, dtype=complex)],
                             ids=["integer", "float", "one-dimensional"])
    def test_non_square_refused_like_the_json_writers(self, matrix):
        for write in (matrix_to_csv, matrix_to_obj, dumps_matrix):
            with pytest.raises(FormatError, match="square"):
                write(matrix)

    @pytest.mark.parametrize("dtype", [float, np.int64])
    def test_order_zero_refused_like_the_reader(self, dtype):
        # loads_matrix refuses "n": 0, so no writer may emit it.
        for write in (matrix_to_csv, matrix_to_obj, dumps_matrix):
            with pytest.raises(FormatError, match="order at least 1"):
                write(np.zeros((0, 0), dtype=dtype))


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

    @pytest.mark.parametrize("m, t, s_h", [
        (3, [[[1, 0]]] * 3, None), (0, [], None), (3, None, [[[0, 0]] * 3] * 3),
        (-1, [[[1, 0]]], None),
    ], ids=["past-n", "zero", "past-n-unitary", "negative"])
    def test_m_outside_one_to_n_named(self, m, t, s_h):
        obj = {"n": 2, "m": m, "T": t, "S_h": s_h, "P": [1, 2]}
        with pytest.raises(FormatError, match=rf"^m must lie in 1\.\.2, got {m}$"):
            param_from_obj(obj)

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


# --- The direct writer and the bulk reader against the json.dumps path --------

def _points(lo: float, hi: float, count: int = 12) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _criterion_1_grid() -> list[tuple[str, int, float]]:
    """(family, n, d) of the acceptance criterion-1 grid where ``construct``
    builds the member from its default provider."""
    items = [("full_j", n, n / 2 - 1) for n in range(4, 31, 2)]
    items += [("n2", 2, d) for d in _points(0.0, 5.0)]
    for n in range(4, 31, 2):
        items += [("upper_interval", n, d) for d in _points(max(0.0, n / 2 - 3), n / 2 - 1)]
    for n in (6, 14, 30):
        items += [("hadamard_core", n, d) for d in _points(n / 4 - 1.5, n / 2 - 1)]
    for n in (10, 26):
        items += [("conference_core", n, d)
                  for d in _points(n / 4 - 1.5 - 1 / (n - 2), n / 2 - 1)]
    items += [("complex_core", n, n / 4 - 1.5) for n in range(6, 31, 2)]
    for n in (12, 28):
        items += [("conference_block", n, d) for d in _points(0.0, 1.0)]
    for n, k_minus_lam in ((14, 2), (30, 4), (10, 1)):
        items += [("design_complex", n, d)
                  for d in _points(n / 2 - 1 - 2 * k_minus_lam, n / 2 - 1)]
    items += [("design_real", n, float(d)) for n, d in ((14, 2), (30, 6), (10, 2), (8, 1), (6, 0))]
    return items


def _member(name: str, n: int, d: float):
    """The member ``construct --family name --n n --d repr(d)`` writes."""
    family = FAMILIES[name]
    ratio = family.ratio(n) if family.ratio is not None else Fraction(repr(d))
    member = family.exact(n, ratio)
    if member is None:
        member = family.float(n, ratio, family.provider(n, ratio), None)
    return member


def _grid_members() -> list:
    return [_member(*item) for item in _criterion_1_grid()]


def _other_matrices() -> list:
    rng = np.random.default_rng(11)
    parts = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.25])
    odd = rng.choice(parts, size=(6, 6, 2))
    return [
        sylvester_hadamard(1), sylvester_hadamard(2), sylvester_hadamard(16),
        paley_conference(6), paley_conference(14), paley_conference(18),
        design_mps(identity_design(5), 10, 2),
        design_mps(hadamard_to_design(sylvester_hadamard(8)), 14, 2),
        design_mps(hadamard_to_design(sylvester_hadamard(16)), 30, 6),
        full_j_mps(9), two_by_two_mps(Fraction(7, 2)),
        np.array([[3]], dtype=np.int64),
        rng.integers(-10**18, 10**18, size=(5, 5)), rng.integers(-9, 9, size=(4, 4)).astype(np.int8),
        odd.view(complex)[..., 0], np.array([[np.nan, -np.inf], [np.inf, -0.0]]),
        np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)], [0j, complex(-0.0, 0.0)]]),
        rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7)),
        np.asfortranarray(rng.normal(size=(5, 5))), rng.normal(size=(4, 4)).astype(np.float32),
        np.eye(3, dtype=bool),
    ]


def test_grid_has_the_sweep_points():
    members = _grid_members()
    assert len(members) == 332
    assert sum(isinstance(m, IntegerMps) for m in members) == 50


@pytest.mark.parametrize("group", ["grid", "other"])
def test_dumps_matrix_equals_json_dumps(group):
    matrices = _grid_members() if group == "grid" else _other_matrices()
    for m in matrices:
        assert dumps_matrix(m) == json.dumps(matrix_to_obj(m), indent=2)


def _oracle_parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def _oracle_complex_cell(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("booleans are not numbers")
    return complex(re, im)


def _oracle_matrix_from_obj(obj):
    """The cell-by-cell parser that the bulk one replaced."""
    if not isinstance(obj, dict):
        raise FormatError("matrix document must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("complex", "real-exact"):
        raise FormatError(f"unknown matrix kind {kind!r}")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise FormatError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise FormatError("field n must be a positive integer")
    if kind == "complex":
        if "q_entries" in obj or "d" in obj:
            raise FormatError("complex documents must not carry exact fields")
        entries = obj.get("entries")
        if entries is None:
            raise FormatError("complex documents need an entries field")
        try:
            cells = [[_oracle_complex_cell(*cell) for cell in row] for row in entries]
        except (TypeError, OverflowError) as exc:
            raise FormatError("complex cells must be [re, im] pairs of numbers") from exc
        try:
            a = np.array(cells, dtype=complex)
        except ValueError as exc:
            raise FormatError("complex rows must all have the same length") from exc
        if a.shape != (n, n):
            raise FormatError(f"entries must be {n} x {n}")
        return a
    if "entries" in obj:
        raise FormatError("real-exact documents must not carry complex entries")
    rows = obj.get("q_entries")
    if rows is None:
        raise FormatError("real-exact documents need a q_entries field")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("q_entries must be a list of rows")
    fracs = [[_oracle_parse_frac(x) for x in row] for row in rows]
    if len(fracs) != n or any(len(r) != n for r in fracs):
        raise FormatError(f"q_entries must be {n} x {n}")
    scale = 2 if "d" in obj else 1
    if any((scale * f).denominator != 1 for row in fracs for f in row):
        raise FormatError("exact entries must have denominator 1 or 2" if scale == 2
                          else "plain exact matrices must have integer entries")
    try:
        out = np.array([[int(scale * f) for f in row] for row in fracs], dtype=np.int64)
    except OverflowError as exc:
        raise FormatError("exact entries must fit in 64-bit integers") from exc
    return IntegerMps(d=_oracle_parse_frac(obj["d"]), two_q=out) if scale == 2 else out


def _parse_outcome(parse, obj):
    """What ``parse`` makes of ``obj``: the exception's type and text, or the
    value's type, dtype, shape and bytes (so -0.0 and NaN compare exactly)."""
    try:
        value = parse(obj)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, IntegerMps):
        return "IntegerMps", value.d, value.two_q.dtype, value.two_q.tobytes()
    return "ndarray", value.dtype, value.shape, value.tobytes()


@pytest.mark.parametrize("group", ["grid", "other"])
def test_reader_equals_the_cell_by_cell_oracle(group):
    matrices = _grid_members() if group == "grid" else _other_matrices()
    for m in matrices:
        obj = json.loads(dumps_matrix(m))
        outcome = _parse_outcome(matrix_from_obj, obj)
        assert outcome == _parse_outcome(_oracle_matrix_from_obj, obj)
        assert outcome[0] in ("IntegerMps", "ndarray")


_MALFORMED = [
    {"n": 1, "kind": "complex", "entries": []},
    {"n": 1, "kind": "complex", "entries": [[]]},
    {"n": 1, "kind": "complex", "entries": [[[1]]]},
    {"n": 1, "kind": "complex", "entries": [[[1, 0, 0]]]},
    {"n": 1, "kind": "complex", "entries": [[["1.5", 0]]]},
    {"n": 1, "kind": "complex", "entries": [[[1, True]]]},
    {"n": 1, "kind": "complex", "entries": [[[None, 0]]]},
    {"n": 1, "kind": "complex", "entries": [[[10**400, 0]]]},
    {"n": 1, "kind": "complex", "entries": [[[[1, 0], [0, 0]]]]},
    {"n": 1, "kind": "complex", "entries": [[{"a": 1, "b": 2}]]},
    {"n": 1, "kind": "complex", "entries": [["12"]]},
    {"n": 1, "kind": "complex", "entries": ["1"]},
    {"n": 1, "kind": "complex", "entries": 5},
    {"n": 1, "kind": "complex", "entries": {"ab": 1}},
    {"n": 2, "kind": "complex", "entries": [[[1, 0]], [[1, 0], [0, 0]]]},
    {"n": 2, "kind": "complex", "entries": [[[1, 0], [0, 0]], 7]},
    {"n": 0, "kind": "complex", "entries": []},
    {"n": 2, "kind": "real-exact", "q_entries": [[10**400, 1], [1, 1]]},
    {"n": 2, "kind": "real-exact", "q_entries": [["x", "1/0"], ["1", "1"]]},
    {"n": 2, "kind": "real-exact", "q_entries": [["1", "1"], ["1"]]},
    {"n": 2, "kind": "real-exact", "q_entries": [["1/2", "1"], ["1", "1"]]},
    {"n": 2, "kind": "real-exact", "d": "1", "q_entries": [["1/4", "1"], ["1", "1"]]},
    {"n": 2, "kind": "real-exact", "d": "1", "q_entries": [[True, "1"], ["1", "1"]]},
    {"n": 2, "kind": "real-exact", "d": "1", "q_entries": [["1", "1"], ["1", "1"]]},
    {"n": 2, "kind": "real-exact", "d": "1e30", "q_entries": [["1e30", "1"], ["1", "-1e30"]]},
    {"n": 2, "kind": "real-exact", "d": "x", "q_entries": [["1", "1"], ["1", "-1"]]},
    {"n": 1, "kind": "real-exact", "q_entries": [[[1]]]},
    {"n": 1, "kind": "real-exact", "q_entries": [1]},
    {"n": 1, "kind": "real-exact", "q_entries": []},
]


@pytest.mark.parametrize("obj", _MALFORMED)
def test_reader_rejects_as_the_oracle_does(obj):
    outcome = _parse_outcome(matrix_from_obj, obj)
    assert outcome == _parse_outcome(_oracle_matrix_from_obj, obj)
    # A document that parses but breaks a 2Q invariant fails the one exact
    # check, whose StructureViolationError is a ValueError.
    assert outcome[0] in ("FormatError", "ValueError", "StructureViolationError")


_CELLS = (st.none() | st.booleans() | st.integers(-10**30, 10**30)
          | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from(["1", "1/2", "-3/2", "1.5", "1e30", "x", "1/0", ""])
          | st.lists(st.integers(-3, 3) | st.floats(-3, 3), max_size=3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from([full_j_mps(4), full_j_mps(5), sylvester_hadamard(2),
                             complex_core_matrix(6), np.array([[0.5 - 0.5j]])]),
       data=st.data())
def test_reader_matches_the_oracle_on_mutated_cells(base, data):
    obj = json.loads(dumps_matrix(base))
    rows = obj["q_entries" if "q_entries" in obj else "entries"]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = data.draw(_CELLS)
    assert _parse_outcome(matrix_from_obj, obj) == _parse_outcome(_oracle_matrix_from_obj, obj)


# --- The exact Gram comparison ------------------------------------------------

def _wrap(x: int) -> int:
    """x reduced to int64, as numpy's integer arithmetic wraps."""
    return (x + 2**63) % 2**64 - 2**63


def _gram_oracle(a):
    """A A^T in Python ints, reduced to int64 (the reduction changes nothing
    while the true entries fit)."""
    rows = [[int(x) for x in r] for r in np.asarray(a)]
    return [[_wrap(sum(x * y for x, y in zip(r, s))) for s in rows] for r in rows]


def _is_pattern(gram, diag: int, off: int) -> bool:
    """Whether a Gram matrix of Python ints is (diag - off) I + off J."""
    return all(x == (diag if i == j else off)
               for i, row in enumerate(gram) for j, x in enumerate(row))


def _check_gram(a):
    """_gram_equals agrees with the oracle's Gram matrix on the pair (diag,
    off) read from it and on each pair one step away: the first holds when
    the Gram matrix is (diag - off) I + off J, and the others fail."""
    a = np.asarray(a)
    exact = _gram_oracle(a)
    diag = exact[0][0] if exact else 0
    off = exact[0][1] if len(exact) > 1 else 0
    for dd, oo in [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]:
        pair = _wrap(diag + dd), _wrap(off + oo)
        assert _gram_equals(a, *pair) == _is_pattern(exact, *pair), pair


@pytest.mark.parametrize("n", [1, 2, 7, 30, 61])
def test_gram_equals_matmul(n):
    rng = np.random.default_rng(n)
    signs = rng.choice([-1, 1], size=(n, n))
    two_q = 2 * signs
    np.fill_diagonal(two_q, rng.choice([-2, 2], size=n) * rng.integers(0, 40))
    for a in (signs, two_q, signs.astype(np.int8), rng.choice([0, 1], size=(n, n)),
              sylvester_hadamard(16)[:n, :16], full_j_mps(n + 1).two_q[:n]):
        gram = (a.astype(np.int64) @ a.astype(np.int64).T).tolist()
        for diag, off in [(gram[0][0], gram[0][-1]), (gram[-1][-1], gram[-1][0])]:
            assert _gram_equals(a, diag, off) == _is_pattern(gram, diag, off)
    _check_gram(two_q)


def test_gram_equals_on_a_stack():
    # The two scalars hold for the whole stack; one bad matrix fails it.
    h = sylvester_hadamard(4)
    stack = np.array([2 * h, -2 * h, 2 * h[::-1, ::-1]], dtype=np.int8)
    assert _gram_equals(stack, 16, 0)
    stack[2, 0, 0] = -stack[2, 0, 0]
    assert not _gram_equals(stack, 16, 0)
    # Rows [x, y] and [-y, x] with x^2 + y^2 = 25: Gram 25 I each.
    a = np.array([[[x, y], [-y, x]] for x, y in [(3, 4), (4, -3), (5, 0), (0, -5)]])
    assert _gram_equals(a, 25, 0)
    for diag, off in [(24, 0), (26, 0), (25, 1), (25, -1)]:
        assert not _gram_equals(a, diag, off)
    a[1, 1] = [4, 4]
    assert not _gram_equals(a, 25, 0)
    rng = np.random.default_rng(3)
    a = rng.integers(-9, 10, size=(5, 4, 3))
    grams = [_gram_oracle(x) for x in a]
    for gram in grams:
        pair = gram[0][0], gram[0][1]
        assert _gram_equals(a, *pair) == all(_is_pattern(g, *pair) for g in grams)
    assert _gram_equals(np.ones((3, 4, 2), dtype=np.int8), 2, 2)


def test_gram_is_exact_near_the_int64_limit():
    # Entries of 2 * 10^9: each product is 4e18, beyond float64's exact integers.
    _check_gram(np.array([[2 * 10**9, 2], [2, -2 * 10**9 + 1]], dtype=np.int64))
    # Orthogonal rows of one norm, 4 * 10^18 + 4: float64 would round it.
    _check_gram(np.array([[2 * 10**9, 2], [-2, 2 * 10**9]], dtype=np.int64))


def test_gram_at_the_float64_bound():
    # n M^2 = 2 * (2^26)^2 = 2^53 exactly: the float64 product, which is exact.
    m = 2**26
    _check_gram([[m, m - 1], [-m, 3]])
    _check_gram([[m, m - 1], [1 - m, m]])  # Gram (2^53 - 2^27 + 1) I
    _check_gram([[-m, -m], [m, -m]])
    # The Gram entry of [m, m] is 2^53, and float64 rounds a target of
    # 2^53 + 1 to it: the target needs its own bound.
    _check_gram([[m, m]])
    assert float(2**53 + 1) == 2**53
    assert not _gram_equals(np.array([[m, m]]), 2**53 + 1, 0)


def test_gram_just_above_the_float64_bound():
    # n M^2 = 2^53 + 2^28 + 2; the diagonal entry 2^53 + 2^27 + 1 is odd and
    # above 2^53, so a float64 product would round it.
    m = 2**26 + 1
    a = [[m, m - 1], [1, -m]]
    assert float(m * m + (m - 1) ** 2) != m * m + (m - 1) ** 2
    _check_gram(a)
    _check_gram([[m, m - 1], [1 - m, m]])  # Gram (2^53 + 2^27 + 1) I


def test_gram_bound_holds_for_an_int64_min_entry():
    # np.abs(INT64_MIN) is INT64_MIN, so a bound taken from np.abs would
    # send these matrices to float64.  The int64 path wraps, like the oracle.
    lo = np.iinfo(np.int64).min
    assert np.abs(np.array([lo]))[0] < 0
    _check_gram([[lo, 1], [1, 1]])
    _check_gram([[1, 0], [0, lo]])
    _check_gram([[lo, 1], [-1, lo]])  # Gram (2^126 + 1) I, which wraps to I


def test_gram_bound_uses_the_row_length():
    # One row of length 3: 1 * M^2 <= 2^53 but 3 * M^2 > 2^53.  The entry
    # 2 M^2 + 1 of the first row is odd and above 2^53; that of the second is
    # 2^53 + 1, which float64 rounds to the target 2^53 that is one below it.
    m = 2**26 + 2
    assert m * m <= 2**53 < 2 * m * m + 1
    _check_gram([[m, m, 1]])
    _check_gram([[2**26, 2**26, 1]])
    _check_gram([[m, -m, 1], [0, 1, 0]])
    _check_gram(np.arange(-3, 3).reshape(6, 1))


def test_gram_of_an_empty_matrix():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        _check_gram(np.zeros(shape, dtype=np.int64))
    assert _gram_equals(np.zeros((0, 4, 4), dtype=np.int8), 16, 0)


def test_gram_of_an_odd_sum_above_two_to_the_53():
    # x even with x^2 > 2^53: x^2 + 1 is odd and above 2^53, so float64
    # cannot hold it.
    x = 94_906_266
    assert x % 2 == 0 and x * x > 2**53 and float(x * x + 1) != x * x + 1
    _check_gram([[x, 1]])
    _check_gram([[x, 1], [1, -x]])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_gram_matches_the_oracle_around_the_bound(rows, cols, data):
    # Entries drawn up to a little above and below sqrt(2^53 / cols).
    edge = int((2**53 // cols) ** 0.5)
    top = data.draw(st.sampled_from([1, 2, edge - 1, edge, edge + 1, edge + 2, 2 * edge]))
    cells = st.integers(-top, top)
    _check_gram([[data.draw(cells) for _ in range(cols)] for _ in range(rows)])


def _flip(a: np.ndarray, i: int, j: int, symmetric: bool = False) -> np.ndarray:
    b = np.array(a, dtype=np.int64)
    b[i, j] = -b[i, j]
    if symmetric:
        b[j, i] = -b[j, i]
    return b


def test_one_flipped_sign_fails_every_exact_gram_check():
    h = sylvester_hadamard(16)
    assert verify_hadamard(h) and not verify_hadamard(_flip(h, 3, 5))
    c = paley_conference(18)
    assert verify_conference(c) and not verify_conference(_flip(c, 3, 5))
    q = design_mps(hadamard_to_design(sylvester_hadamard(16)), 30, 6).two_q
    validate(IntegerMps(d=6, two_q=q))
    # Symmetric, with the right diagonal and off-diagonal moduli: only the Gram
    # identity can fail.
    with pytest.raises(ValueError, match="orthogonality"):
        IntegerMps(d=6, two_q=_flip(q, 3, 5, symmetric=True))
    design = hadamard_to_design(sylvester_hadamard(8))
    a = design.incidence
    assert verify_design(a, 7, 3, 1)
    b = np.array(a)
    b[0, np.flatnonzero(a[0])[0]], b[0, np.flatnonzero(a[0] == 0)[0]] = 0, 1  # same row sum
    assert not verify_design(b, 7, 3, 1)

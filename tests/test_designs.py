import tracemalloc
import warnings

import numpy as np
import pytest

from mpsmat import designs
from mpsmat.core import as_square_matrix
from mpsmat.designs import (
    BadOrderError,
    DesignInvalidError,
    NotInRangeError,
    NotNormalizableError,
    SymmetricDesign,
    design_params_for,
    fourier_complex_hadamard,
    hadamard_to_design,
    identity_design,
    normalize_to_standard,
    paley_conference,
    provider_conference,
    provider_design,
    provider_hadamard,
    sylvester_hadamard,
    verify_conference,
    verify_design,
    verify_hadamard,
)

FANO = np.array([
    [1, 1, 0, 1, 0, 0, 0],
    [0, 1, 1, 0, 1, 0, 0],
    [0, 0, 1, 1, 0, 1, 0],
    [0, 0, 0, 1, 1, 0, 1],
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 0, 1, 1],
    [1, 0, 1, 0, 0, 0, 1],
], dtype=np.int64)


class TestVerifyDesign:
    def test_fano(self):
        assert verify_design(FANO, 7, 3, 1)

    def test_identity_degenerate(self):
        assert verify_design(np.eye(5, dtype=int), 5, 1, 0, allow_degenerate=True)
        assert not verify_design(np.eye(5, dtype=int), 5, 1, 0)

    def test_all_ones_rejected(self):
        assert not verify_design(np.ones((4, 4), dtype=int), 4, 4, 4)

    def test_wrong_row_sum_rejected(self):
        bad = FANO.copy()
        bad[0, 0] = 0
        assert not verify_design(bad, 7, 3, 1)

    @pytest.mark.parametrize("entry, dtype", [
        (0.5, float), (1e30, float), (1, complex), (1j, complex), (2**63, np.uint64),
    ], ids=["half", "beyond-int64-float", "complex-integral", "complex", "beyond-int64"])
    def test_entries_that_are_no_int64_integers_give_false(self, entry, dtype):
        # As verify_hadamard and verify_conference answer, not a TypeError.
        a = FANO.astype(dtype)
        assert verify_design(a, 7, 3, 1) == (dtype is not complex)
        a[0, 0] = entry
        assert verify_design(a, 7, 3, 1) is False

    def test_design_type_infers_parameters(self):
        d = SymmetricDesign(v=7, k=3, lam=1, incidence=FANO)
        assert (d.v, d.k, d.lam) == (7, 3, 1)
        assert not d.degenerate

    def test_design_type_rejects_invalid(self):
        with pytest.raises(DesignInvalidError):
            SymmetricDesign(v=7, k=3, lam=2, incidence=FANO)


class TestSylvester:
    def test_order_one(self):
        assert np.array_equal(sylvester_hadamard(1), [[1]])

    def test_order_two(self):
        assert np.array_equal(sylvester_hadamard(2), [[1, 1], [1, -1]])

    def test_order_eight_exact(self):
        h = sylvester_hadamard(8)
        assert np.array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))
        assert np.array_equal(h, h.T)
        assert np.all(h[0] == 1) and np.all(h[:, 0] == 1)

    def test_bad_order(self):
        with pytest.raises(BadOrderError):
            sylvester_hadamard(12)


class TestPaley:
    def test_order_six(self):
        c = paley_conference(6)
        assert np.array_equal(c @ c.T, 5 * np.eye(6, dtype=np.int64))
        assert np.array_equal(c, c.T)
        assert np.all(np.diagonal(c) == 0)

    def test_order_fourteen(self):
        c = paley_conference(14)
        assert np.array_equal(c @ c.T, 13 * np.eye(14, dtype=np.int64))

    def test_bad_order(self):
        with pytest.raises(BadOrderError):
            paley_conference(4)  # q = 3 is 3 mod 4


class TestFourier:
    def test_order_one(self):
        assert np.allclose(fourier_complex_hadamard(1), [[1.0]])

    def test_order_two_is_real(self):
        h = fourier_complex_hadamard(2)
        assert np.allclose(h, [[1, 1], [1, -1]], atol=1e-12)

    def test_order_three_cube_roots(self):
        h = fourier_complex_hadamard(3)
        omega = np.exp(2j * np.pi / 3)
        assert np.allclose(sorted(np.angle(h.ravel())), sorted(
            np.angle(np.array([1, 1, 1, 1, omega, omega**2, 1, omega**2,
                               omega**4]))), atol=1e-9)
        assert np.linalg.norm(h @ h.conj().T - 3 * np.eye(3)) < 1e-9

    def test_verify_complex_kind(self):
        assert verify_hadamard(fourier_complex_hadamard(5))

    def test_order_too_large_refused_before_allocation(self):
        # The order x order result is asked for before np.arange(order) (800 MB
        # at this order) or any other intermediate is built.  numpy keeps a
        # trace of the refused request itself, so the peak is taken above what
        # is still traced after the call: the intermediates built and dropped
        # before the refusal.
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError):
                fourier_complex_hadamard(10**8)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < 10 * 2**20, (peak, held)


def _with_diagonal(a, value):
    b = np.array(a, dtype=complex)
    np.fill_diagonal(b, value)
    return b


class TestVerifyUnimodular:
    """verify_hadamard and verify_conference share one check: the moduli (a zero
    diagonal for conference matrices) and the Gram identity, exact for the real
    kind and within tol for the complex kind."""

    @pytest.mark.parametrize("matrix, hadamard, conference", [
        (np.array([[0]]), False, True),
        (np.array([[0j]]), False, True),
        (np.array([[1]]), True, False),
        (np.array([[1j]]), True, False),
        (sylvester_hadamard(4), True, False),
        (fourier_complex_hadamard(3), True, False),
        (1.001 * fourier_complex_hadamard(3), False, False),
        (paley_conference(6), False, True),
        (paley_conference(6).astype(complex), False, True),
        (_with_diagonal(paley_conference(6), 1e-12), False, True),
        (_with_diagonal(paley_conference(6), 1e-6), False, False),
        (2 * paley_conference(6), False, False),
        (paley_conference(6) + 0.5, False, False),
    ], ids=["zero", "zero-complex", "one", "one-complex", "sylvester-4", "fourier-3",
            "fourier-3-scaled", "paley-6", "paley-6-complex", "paley-6-diagonal-in-tol",
            "paley-6-diagonal-past-tol", "paley-6-doubled", "paley-6-non-integer"])
    def test_kinds(self, matrix, hadamard, conference):
        assert verify_hadamard(matrix) is hadamard
        assert verify_conference(matrix) is conference


def _reference_as_int_matrix(matrix):
    """_as_int_matrix as it was, with every dtype on the rounding path."""
    a = as_square_matrix(matrix)
    if np.iscomplexobj(a):
        raise TypeError("expected a real integer matrix")
    b = np.asarray(np.rint(a), dtype=np.int64)
    if np.max(np.abs(np.asarray(a, dtype=float) - b)) != 0:
        raise TypeError("expected a matrix with exact integer entries")
    return b


def _int_outcome(convert, matrix, action):
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        try:
            b = convert(matrix)
        except Exception as exc:
            return type(exc), str(exc)
    return b.dtype, b.tolist()


_PALEY_ORDERS = [q + 1 for q in range(5, 198, 4) if all(q % f for f in range(2, q))]


def _one_entry_changed(a):
    """Copies of a with one entry negated, zeroed or doubled."""
    n = a.shape[0]
    i, j = n // 3, (2 * n) // 3
    copies = []
    for value in (-a[i, j], 0, 2 * a[i, j]):
        b = a.copy()
        b[i, j] = value
        copies.append(b)
    return copies


class TestAsIntMatrix:
    """Integer dtypes skip the rounding pass; every other input keeps the
    outcome of the rounding path, the warnings it gives included, except
    uint64 values that float64 does not hold."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8, np.bool_])
    def test_integer_dtypes_as_the_rounding_path(self, dtype, rng):
        info = np.iinfo(dtype) if dtype is not np.bool_ else np.iinfo(np.uint8)
        lo, hi = max(int(info.min), -2**53), min(int(info.max), 2**53)
        for n in (1, 2, 7, 30):
            values = rng.integers(lo, hi, size=(n, n), endpoint=True)
            a = values.astype(dtype)
            want = _reference_as_int_matrix(a)
            got = designs._as_int_matrix(a)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert not np.shares_memory(got, a)

    def test_extreme_values_of_each_width(self):
        for dtype in (np.int8, np.int16, np.int32, np.uint8):
            info = np.iinfo(dtype)
            a = np.array([[info.min, info.max], [0, 1]], dtype=dtype)
            assert np.array_equal(designs._as_int_matrix(a), _reference_as_int_matrix(a))

    def test_int64_past_float_precision_kept_exactly(self):
        # The rounding path passed these through float64 and lost the low bit.
        a = np.array([[2**62 + 1, -(2**53) - 1], [0, 1]], dtype=np.int64)
        assert designs._as_int_matrix(a).tolist() == a.tolist()

    @pytest.mark.parametrize("matrix, expected", [
        (np.full((2, 2), 2**63 + 5, dtype=np.uint64),
         (NotInRangeError, "entries beyond the int64 range")),
        (np.full((2, 2), 2**63 - 1, dtype=np.uint64), (np.int64, [[2**63 - 1] * 2] * 2)),
        (np.full((2, 2), 2**53 + 1, dtype=np.uint64), (np.int64, [[2**53 + 1] * 2] * 2)),
        (np.array([[1, 2], [3, 4]], dtype=np.uint64), None),
        (np.array([[1.5, 0.0], [0.0, 1.0]]), None),
        (np.array([[1.0, -2.0], [0.0, 1.0]]), None),
        (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-12]]), None),
        (np.array([[1 + 0j, 0], [0, 1]]), None),
        (np.array([[1 + 1j, 0], [0, 1]]), None),
        (np.array([[1, 0], [0, 1]], dtype=np.float32), None),
    ], ids=["uint64-past-int64", "uint64-int64-max", "uint64-past-float", "uint64-small",
            "half", "integral-float", "near-integer", "complex-integral", "complex", "float32"])
    @pytest.mark.parametrize("action", ["ignore", "error"])
    def test_other_inputs_keep_their_outcome(self, matrix, expected, action):
        # The rounding path read uint64 through float64: it took 2^53 + 1
        # for 2^53 silently, and 2^63 - 1 for 2^63 with a warning, as it
        # warned on 2^63 + 5.  The exact pass keeps the first two and refuses
        # the third, with no warning under either action.
        if expected is None:
            expected = _int_outcome(_reference_as_int_matrix, matrix, action)
        assert _int_outcome(designs._as_int_matrix, matrix, action) == expected

    @pytest.mark.parametrize("matrix", [
        *(sylvester_hadamard(2**t) for t in range(7)),
        *(paley_conference(order) for order in _PALEY_ORDERS),
    ], ids=[*(f"sylvester-{2**t}" for t in range(7)),
            *(f"paley-{order}" for order in _PALEY_ORDERS)])
    def test_verifiers_give_the_same_booleans(self, matrix, monkeypatch):
        inputs = [matrix, *_one_entry_changed(matrix)]
        inputs += [x.astype(dtype) for x in inputs for dtype in (np.int8, np.float64)]
        got = [(verify_hadamard(x), verify_conference(x)) for x in inputs]
        monkeypatch.setattr(designs, "_as_int_matrix", _reference_as_int_matrix)
        want = [(verify_hadamard(x), verify_conference(x)) for x in inputs]
        assert got == want
        assert any(got[0])
        if len(matrix) > 1:
            assert got[1:4] == [(False, False)] * 3


class TestNormalize:
    def test_sylvester_core(self):
        std, core = normalize_to_standard(sylvester_hadamard(4))
        assert np.all(std[0] == 1) and np.all(std[:, 0] == 1)
        assert np.array_equal(core, std[1:, 1:])
        assert verify_hadamard(std)

    def test_idempotent(self):
        h = sylvester_hadamard(8)
        std1, _ = normalize_to_standard(h)
        std2, _ = normalize_to_standard(std1)
        assert np.array_equal(std1, std2)

    def test_scrambled_hadamard(self, rng):
        h = sylvester_hadamard(8)
        signs_r = rng.choice([-1, 1], size=8)
        signs_c = rng.choice([-1, 1], size=8)
        scrambled = signs_r[:, None] * h * signs_c[None, :]
        std, core = normalize_to_standard(scrambled)
        assert verify_hadamard(std)
        assert np.all(std[0] == 1) and np.all(std[:, 0] == 1)

    def test_conference_core_is_circulant_signs(self):
        c = paley_conference(6)
        std, core = normalize_to_standard(c)
        assert np.array_equal(std, c)  # already standard
        assert core.shape == (5, 5)
        assert np.all(np.diagonal(core) == 0)
        # quadratic-residue circulant: row i+1 is row i shifted by one
        assert np.array_equal(np.roll(core[0], 1), core[1])

    def test_conference_sign_scramble(self, rng):
        c = paley_conference(6)
        signs = rng.choice([-1, 1], size=6)
        scrambled = signs[:, None] * c * signs[None, :]
        std, _ = normalize_to_standard(scrambled)
        assert verify_conference(std)
        row0 = std[0].copy()
        row0[0] = 1
        assert np.all(row0 == 1) and np.all(std[:, 0][1:] == 1)

    def test_complex_hadamard_dephasing(self, rng):
        h = fourier_complex_hadamard(5)
        phases_r = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        phases_c = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        scrambled = phases_r[:, None] * h * phases_c[None, :]
        std, core = normalize_to_standard(scrambled)
        assert np.allclose(std[0], 1, atol=1e-9)
        assert np.allclose(std[:, 0], 1, atol=1e-9)
        assert verify_hadamard(std)

    def test_gram_identity_preserved(self, hadamard12):
        std, _ = normalize_to_standard(hadamard12)
        assert np.array_equal(std @ std.T, 12 * np.eye(12, dtype=np.int64))

    @pytest.mark.parametrize("matrix", [
        # Zeros off the diagonal, repaired by a row permutation.
        paley_conference(6)[[1, 0, 2, 3, 4, 5]],
        # Skew: dephased by rows and columns, past the zero corner.
        [[0, 1, 1, 1], [-1, 0, 1, -1], [-1, -1, 0, 1], [-1, 1, -1, 0]],
    ], ids=["swapped-paley", "skew"])
    def test_conference_to_bordered_form(self, matrix):
        std, core = normalize_to_standard(np.array(matrix))
        order = std.shape[0]
        assert np.all(np.diagonal(std) == 0)
        assert np.all(std[0, 1:] == 1) and np.all(std[1:, 0] == 1)
        assert np.array_equal(core, std[1:, 1:])
        assert np.array_equal(std @ std.T, (order - 1) * np.eye(order, dtype=np.int64))

    @pytest.mark.parametrize("matrix", [
        [[0, 0, 1], [1, 0, 1], [1, 1, 0]],
        [[0, 0, 1j], [1, 0, 1], [1, 1, 0]],
    ], ids=["real", "complex"])
    def test_zero_diagonal_with_further_zeros_rejected(self, matrix):
        with pytest.raises(NotNormalizableError):
            normalize_to_standard(np.array(matrix))


class TestDesignParams:
    def test_fano_parameters(self):
        assert design_params_for(14, 2) == (1, 3, 1)

    def test_degenerate_parameters(self):
        assert design_params_for(10, 2) == (3, 1, 0)

    def test_negative_discriminant(self):
        assert design_params_for(12, 1) is None

    def test_reconstruction_identities(self):
        for n in range(6, 42, 2):
            for d in range(0, n // 2 - 1):
                params = design_params_for(n, d)
                if params is not None:
                    q, k, lam = params
                    assert d == 2 * lam + q - 1
                    assert n == 4 * k + 2 * q


class TestHadamardToDesign:
    def test_order_four_degenerate(self):
        d = hadamard_to_design(sylvester_hadamard(4))
        assert (d.v, d.k, d.lam) == (3, 1, 0)
        assert d.degenerate

    def test_order_eight_fano_parameters(self):
        d = hadamard_to_design(sylvester_hadamard(8))
        assert (d.v, d.k, d.lam) == (7, 3, 1)
        assert verify_design(d.incidence, 7, 3, 1)

    def test_order_twelve(self, hadamard12):
        d = hadamard_to_design(hadamard12)
        assert (d.v, d.k, d.lam) == (11, 5, 2)
        assert verify_design(d.incidence, 11, 5, 2)

    def test_bad_order(self):
        with pytest.raises(BadOrderError):
            hadamard_to_design(sylvester_hadamard(2))

    def test_provider_chain(self):
        # Every Sylvester order >= 4 must yield a verified design.
        for order in (4, 8, 16, 32):
            d = hadamard_to_design(sylvester_hadamard(order))
            assert verify_design(d.incidence, d.v, d.k, d.lam,
                                 allow_degenerate=True)


def test_identity_design():
    d = identity_design(6)
    assert d.degenerate and (d.v, d.k, d.lam) == (6, 1, 0)


def test_providers_return_none_where_nothing_is_built_in():
    assert np.array_equal(provider_hadamard(8), sylvester_hadamard(8))
    assert np.array_equal(provider_conference(6), paley_conference(6))
    for order in (0, 3, 6, 12):
        assert provider_hadamard(order) is None
    assert provider_conference(8) is None
    # The Hadamard design at order 16, then none at order 12 or on one point.
    assert provider_design(15, 7, 3).incidence.shape == (15, 15)
    assert provider_design(11, 5, 2) is None
    assert provider_design(1, 1, 0) is None

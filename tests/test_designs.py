import tracemalloc

import numpy as np
import pytest

from mpsmat.designs import (
    BadOrderError,
    DesignInvalidError,
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

    def test_design_type_infers_parameters(self):
        d = SymmetricDesign.from_incidence(FANO)
        assert (d.v, d.k, d.lam) == (7, 3, 1)
        assert not d.degenerate

    def test_design_type_rejects_invalid(self):
        with pytest.raises(DesignInvalidError):
            SymmetricDesign(v=7, k=3, lam=2, incidence=FANO)

    def test_complement(self):
        c = SymmetricDesign.from_incidence(FANO).complement()
        assert (c.v, c.k, c.lam) == (7, 4, 2)


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

import math

import numpy as np
import pytest

from conftest import raises_exactly
from mpsmat.core import (
    BALANCED,
    IMPOSSIBLE,
    NotHermitianUnitaryError,
    NotMpsError,
    _profile,
    check_d_bound,
    check_trace_identity,
    d_from_mp,
    is_hermitian,
    is_unitary,
    mps_profile,
    scattering_probabilities,
)


def full_j(n):
    return np.eye(n) - 2.0 / n * np.ones((n, n))


class TestIsHermitian:
    def test_identity(self):
        assert is_hermitian(np.eye(5))

    def test_skew_offdiagonal(self):
        assert not is_hermitian(np.array([[0, 1j], [1j, 0]]))

    def test_full_j(self):
        assert is_hermitian(full_j(6))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            is_hermitian(np.ones((2, 3)))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_full_j(self):
        assert is_unitary(full_j(6))

    def test_scaled_identity_fails(self):
        assert not is_unitary(2 * np.eye(3))


class TestMpsProfile:
    def test_full_j4(self):
        prof = mps_profile(full_j(4))
        # trace = 2 so m = 3; diagonal 1/2, off-diagonal -1/2 so d = 1 = n/2 - 1
        assert prof.m == 3 and prof.p == 4
        assert prof.d == pytest.approx(1.0, abs=1e-12)

    def test_hadamard4(self):
        h = np.array([
            [1, 1, 1, 1],
            [1, 1, -1, -1],
            [1, -1, 1, -1],
            [1, -1, -1, 1],
        ]) / 2.0
        assert np.allclose(h @ h.T, np.eye(4))
        prof = mps_profile(h)
        assert (prof.d, prof.p, prof.m) == (pytest.approx(1.0), 4, 3)

    def test_diagonal_matrix_rejected(self):
        with pytest.raises(NotMpsError):
            mps_profile(np.diag([1.0, -1.0]))

    def test_non_unitary_rejected(self):
        with pytest.raises(NotHermitianUnitaryError):
            mps_profile(np.ones((3, 3)))

    def test_non_constant_moduli_rejected(self):
        # Hermitian unitary but not MPS: block diagonal of two different 2x2s.
        a = np.array([[0, 1], [1, 0]])
        b = np.array([[0.6, 0.8], [0.8, -0.6]])
        m = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        with pytest.raises(NotMpsError):
            mps_profile(m)

    def test_m_matches_eigensolver_oracle(self):
        # m from the trace must agree with a dense eigensolver count,
        # across every family with order up to 12.
        from mpsmat.designs import paley_conference, sylvester_hadamard
        from mpsmat.families import (
            complex_core_matrix,
            conference_block_family,
            conference_core_family,
            hadamard_core_family,
            upper_interval,
        )

        cases = [full_j(n) for n in range(2, 13)]
        cases += [upper_interval(8, d) for d in (1.0, 2.2, 3.0)]
        cases += [hadamard_core_family(6, d, sylvester_hadamard(4))
                  for d in (0.0, 1.1, 2.0)]
        cases += [conference_core_family(10, d, paley_conference(6))
                  for d in (0.875, 3.0)]
        cases += [complex_core_matrix(n) for n in (6, 8, 10, 12)]
        cases += [conference_block_family(12, d, paley_conference(6))
                  for d in (0.0, 0.6)]
        for s in cases:
            prof = mps_profile(s)
            eigs = np.linalg.eigvalsh(s)
            assert prof.m == int(np.sum(eigs > 0))


class TestProfileEquivalenceInvariance:
    def test_profile_invariant_under_phase_conjugation(self, rng):
        # d, p and m are equivalence invariants: conjugating by a unitary
        # diagonal and a simultaneous permutation leaves them unchanged.
        s = full_j(6)
        perm = rng.permutation(6)
        p_mat = np.eye(6)[perm]
        d_mat = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        s2 = d_mat @ p_mat @ s @ p_mat.T @ d_mat.conj().T
        prof1, prof2 = mps_profile(s), mps_profile(s2)
        assert prof2.d == pytest.approx(prof1.d, abs=1e-9)
        assert (prof2.p, prof2.m) == (prof1.p, prof1.m)

    def test_global_negation_swaps_p_and_m(self):
        s = full_j(6)
        prof1, prof2 = mps_profile(s), mps_profile(-s)
        assert prof2.p == 6 - prof1.p
        assert prof2.m == 6 - prof1.m


class TestCheckDBound:
    def test_order_two_unbounded(self):
        assert check_d_bound(2, 100.0)

    def test_boundary(self):
        assert check_d_bound(6, 2.0)

    def test_just_above(self):
        assert not check_d_bound(6, 2.01)


class TestTraceIdentity:
    def test_hadamard_profile(self):
        prof = mps_profile(full_j(4))
        assert check_trace_identity(prof)

    def test_conference_profile(self):
        # d = 0 forces m = n/2 regardless of p.
        from mpsmat.designs import paley_conference

        s = paley_conference(6) / math.sqrt(5)
        prof = mps_profile(s)
        assert prof.m == 3
        assert check_trace_identity(prof)

    def test_manual_case(self):
        # (n, d, p, m) = (6, 2, 0, 1): -4 = -6 * (2/3)
        from mpsmat.core import MpsProfile

        prof = MpsProfile(n=6, r=2 / 3, t=1 / 3, d=2.0, diag_signs=(-1,) * 6,
                          p=0, m=1)
        assert check_trace_identity(prof)


class TestDFromMp:
    def test_hadamard_case(self):
        assert d_from_mp(4, 3, 4) == pytest.approx(1.0)

    def test_balanced(self):
        assert d_from_mp(6, 3, 3) == BALANCED

    def test_impossible(self):
        assert d_from_mp(6, 3, 4) == IMPOSSIBLE

    def test_returned_values_satisfy_bound(self):
        for n in range(3, 16):
            for m in range(n + 1):
                for p in range(n + 1):
                    d = d_from_mp(n, m, p)
                    if isinstance(d, float):
                        assert check_d_bound(n, max(0.0, d - 1e-9))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            d_from_mp(4, 5, 0)


class TestScattering:
    def test_full_j4_uniform(self):
        probs = scattering_probabilities(full_j(4), 0)
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_reflection_ratio(self):
        # The diagonal probability is d^2 times any off-diagonal one.
        s = full_j(6)
        probs = scattering_probabilities(s, 2)
        d = mps_profile(s).d
        assert probs[2] / probs[0] == pytest.approx(d * d, abs=1e-9)

    def test_swap_matrix(self):
        probs = scattering_probabilities(np.array([[0.0, 1.0], [1.0, 0.0]]), 0)
        assert np.allclose(probs, [0.0, 1.0])

    def test_sums_to_one(self):
        for n in (3, 5, 8):
            probs = scattering_probabilities(full_j(n), n - 1)
            assert abs(probs.sum() - 1.0) <= 1e-9

    def test_sum_held_to_the_unitarity_bound(self):
        # (1 + 1e-9) S is unitary within tol * n = 1e-8 at n = 10, and each
        # column sum is 1 + 2e-9: past tol, inside tol * n.
        s = (1 + 1e-9) * full_j(10)
        assert is_unitary(s)
        probs = scattering_probabilities(s, 0)
        assert probs.sum() == pytest.approx(1 + 2e-9, abs=1e-15)
        with pytest.raises(NotHermitianUnitaryError,
                           match="^matrix is not Hermitian unitary within tolerance$"):
            scattering_probabilities((1 + 2e-9) * full_j(10), 0)

    def test_edge_out_of_range(self):
        with pytest.raises(IndexError):
            scattering_probabilities(full_j(4), 4)

    def test_invariant_under_equivalence(self, rng):
        # Probabilities permute with P and are unchanged by phases and sign.
        s = full_j(5)
        perm = rng.permutation(5)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=5))
        p_mat = np.eye(5)[perm]
        d_mat = np.diag(phases)
        s2 = d_mat @ p_mat @ s @ p_mat.T @ d_mat.conj().T
        s2 = -(s2)
        for j in range(5):
            probs2 = scattering_probabilities(s2, j)
            probs1 = scattering_probabilities(s, int(perm[j]))
            assert np.allclose(np.sort(probs1), np.sort(probs2), atol=1e-9)
            assert probs2[j] == pytest.approx(probs1[int(perm[j])], abs=1e-9)


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_d_bound(0, 1), ValueError, "order must be positive"),
    (lambda: check_d_bound(4, -1), ValueError, "ratio d must be non-negative"),
    (lambda: mps_profile(np.array([[0, 1j], [1j, 0]])), NotHermitianUnitaryError,
     "matrix is not Hermitian within tolerance"),
    # Hermitian within tol bounds an imaginary diagonal part by tol / 2, so
    # only a caller of _profile itself meets this one.
    (lambda: _profile(np.array([[0.6j, 0.8], [0.8, -0.6j]]), 1e-9), NotHermitianUnitaryError,
     "diagonal entries are not real"),
    # Two 2 x 2 swaps: a zero diagonal, off-diagonal moduli 1 and 0.
    (lambda: mps_profile(np.kron(np.eye(2), _SWAP)), NotMpsError,
     "off-diagonal moduli are not constant"),
    # Zero diagonal and trace at odd n: m = n / 2 is no integer.  The matrix
    # is not unitary, so mps_profile refuses it first.
    (lambda: _profile(0.5 * (np.ones((3, 3)) - np.eye(3)), 1e-9), NotHermitianUnitaryError,
     "trace is not consistent with a {-1,+1} spectrum"),
], ids=["d-bound-order", "d-bound-ratio", "profile-not-hermitian", "profile-complex-diagonal",
        "profile-off-diagonal-moduli", "profile-trace"])
def test_input_checks_raise(call, error, message):
    raises_exactly(error, message, call)

import numpy as np
import pytest

from conftest import raises_exactly, random_hermitian_unitary, random_unitary
from mpsmat.core import DEFAULT_TOL, as_square_matrix, is_hermitian, is_unitary
from mpsmat.exact import full_j_mps
from mpsmat.families import complex_core_matrix
from mpsmat.parametrize import (
    DegenerateSpecError,
    HermitianUnitaryParam,
    QuadraticSpec,
    TrivialMatrixError,
    UnitaryParam,
    _pivot_rows,
    _split,
    build_hermitian_unitary,
    build_quadratic_solution,
    build_unitary,
    decompose_hermitian_unitary,
    decompose_unitary,
    eigenbasis_from_param,
)


def _ill_leading_block(n, m, rng, delta=1e-4):
    """S = 2BB* - I with B = orth([X; Y]), where the m x m top X has one
    singular value delta, so the leading m x m block of S + I has a
    condition number near delta^-2."""
    def gauss(rows, cols):
        return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))

    u, _, vh = np.linalg.svd(gauss(m, m))
    x = (u * np.r_[np.ones(m - 1), delta]) @ vh
    b, _ = np.linalg.qr(np.vstack([x, gauss(n - m, m)]))
    s = 2 * b @ b.conj().T - np.eye(n)
    return (s + s.conj().T) / 2


def _near_minus_one(n, delta, exact, rng):
    """Unitary with one eigenvalue at distance delta from -1, ``exact``
    eigenvalues equal to -1 and the rest uniform on the circle."""
    v = random_unitary(n, rng)
    phases = rng.uniform(-np.pi, np.pi, size=n)
    phases[0] = np.pi - 2 * np.arcsin(delta / 2)
    phases[1:1 + exact] = np.pi
    return (v * np.exp(1j * phases)) @ v.conj().T


def _minus_one_unitary(n, k, rng):
    """V diag(w) V* with V Haar-ish, the eigenvalue -1 at multiplicity k and
    the other n - k eigenvalues uniform on the circle."""
    v = random_unitary(n, rng)
    phases = rng.uniform(-np.pi, np.pi, size=n)
    phases[:k] = np.pi
    return (v * np.exp(1j * phases)) @ v.conj().T


def _reference_decompose_unitary(matrix, tol=DEFAULT_TOL):
    """decompose_unitary as it was with one full SVD of U + I, whose vectors
    fix P and whose values fix m, and ||M^{-1}||_2 from a second SVD of the
    inverted block: the oracle of the values-only path."""
    u = np.asarray(matrix).astype(complex)
    n = u.shape[0]
    if not is_unitary(u, tol):
        raise ValueError("matrix is not unitary within tolerance")
    eye = np.eye(n)
    if np.max(np.abs(u + eye)) <= tol:
        raise TrivialMatrixError("matrix is -I; the parametrization excludes it")
    uplus = u + eye
    left, sv, _ = np.linalg.svd(uplus)
    m = int(np.sum(sv > tol))
    basis = left[:, :m]
    rows = list(range(n)) if m == n else _pivot_rows(basis @ basis.conj().T, m)
    mblock, t, perm = _split(uplus, rows, m)
    minv = np.linalg.inv(mblock)
    r = 2.0 * minv - np.eye(m) - t @ t.conj().T
    herm_resid = (r + r.conj().T) / 2
    if np.linalg.norm(herm_resid) > tol * n * np.linalg.norm(minv, 2) ** 2:
        raise ValueError("inconsistent decomposition: S_h is not Hermitian")
    s_h = (r - r.conj().T) / 2j
    s_h = (s_h + s_h.conj().T) / 2
    return UnitaryParam(n=n, m=m, t=None if m == n else t, s_h=s_h, perm=perm)


def _reference_decompose_hermitian_unitary(matrix, tol=DEFAULT_TOL):
    """decompose_hermitian_unitary as it was when it refused +-I by two
    entrywise passes over S -+ I: the oracle of its parameters."""
    s = as_square_matrix(matrix).astype(complex)
    n = s.shape[0]
    if not (is_hermitian(s, tol) and is_unitary(s, tol)):
        raise ValueError("matrix is not Hermitian unitary within tolerance")
    eye = np.eye(n)
    if np.max(np.abs(s - eye)) <= tol or np.max(np.abs(s + eye)) <= tol:
        raise TrivialMatrixError("matrix is +-I; the parametrization excludes it")
    m = int(round((n + np.trace(s).real) / 2))
    splus = s + eye
    _, t, perm = _split(splus, _pivot_rows(splus, m), m)
    return HermitianUnitaryParam(n=n, m=m, t=t, perm=perm)


def _outcome(decompose, u, tol=DEFAULT_TOL):
    try:
        return decompose(u, tol)
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.n, got.m, got.perm) == (want.n, want.m, want.perm)
    assert (got.t is None) == (want.t is None)
    assert want.t is None or np.array_equal(got.t, want.t)
    if isinstance(want, UnitaryParam):
        assert np.array_equal(got.s_h, want.s_h)


def _assert_matches_reference(u, tol=DEFAULT_TOL):
    _assert_same_outcome(_outcome(decompose_unitary, u, tol),
                         _outcome(_reference_decompose_unitary, u, tol))


def _assert_hermitian_matches_reference(s, tol=DEFAULT_TOL):
    _assert_same_outcome(_outcome(decompose_hermitian_unitary, s, tol),
                         _outcome(_reference_decompose_hermitian_unitary, s, tol))


def _reference_pivot_rows(gram, m):
    """_pivot_rows as it was before its per-step overhead was cut: the oracle
    of its row choice."""
    n = gram.shape[0]
    factor = np.zeros((n, m), dtype=complex)
    diag = gram.diagonal().real.copy()
    slack = n * np.finfo(float).eps * diag.max()
    rows = []
    for k in range(m):
        j = int(np.argmax(diag >= diag.max() - slack))
        rows.append(j)
        col = (gram[:, j] - factor[:, :k] @ factor[j, :k].conj()) / np.sqrt(diag[j])
        factor[:, k] = col
        diag -= col.real ** 2 + col.imag ** 2
        diag[j] = -np.inf
    return rows + [i for i in range(n) if i not in rows]


def _assert_pivots_match_reference(gram, m):
    assert _pivot_rows(gram, m) == _reference_pivot_rows(gram, m)


def _random_param(n, rng, scale=1.0):
    m = int(rng.integers(1, n))
    t = scale * (rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m)))
    perm = tuple(int(x) for x in rng.permutation(n))
    return HermitianUnitaryParam(n=n, m=m, t=t, perm=perm)


class TestBuildHermitianUnitary:
    def test_swap_from_scalar_one(self):
        param = HermitianUnitaryParam.of([[1.0]])
        s = build_hermitian_unitary(param)
        assert np.allclose(s, [[0, 1], [1, 0]], atol=1e-12)

    def test_zero_t_gives_diagonal(self):
        param = HermitianUnitaryParam.of([[0.0]])
        s = build_hermitian_unitary(param)
        assert np.allclose(s, np.diag([1.0, -1.0]), atol=1e-12)

    def test_ones_row(self):
        param = HermitianUnitaryParam.of([[1.0, 1.0]])
        s = build_hermitian_unitary(param)
        assert s[0, 0] == pytest.approx(-1 / 3)
        assert s[0, 1] == pytest.approx(2 / 3)
        assert np.linalg.norm(s @ s - np.eye(3)) < 1e-12

    def test_always_hermitian_unitary_with_trace(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            param = _random_param(n, rng, scale=2.0)
            s = build_hermitian_unitary(param)
            assert is_hermitian(s, 1e-9) and is_unitary(s, 1e-9)
            assert np.trace(s).real == pytest.approx(2 * param.m - n, abs=1e-8)
            assert np.linalg.norm(s @ s - np.eye(n)) <= 1e-9 * n


class TestDecomposeHermitianUnitary:
    def test_swap(self):
        param = decompose_hermitian_unitary(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert param.m == 1
        assert np.allclose(param.t, [[1.0]], atol=1e-12)
        assert param.perm == (0, 1)

    def test_diagonal(self):
        param = decompose_hermitian_unitary(np.diag([1.0, -1.0, -1.0]))
        assert param.m == 1
        assert np.allclose(param.t, [[0.0, 0.0]], atol=1e-12)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialMatrixError):
            decompose_hermitian_unitary(np.eye(4))
        with pytest.raises(TrivialMatrixError):
            decompose_hermitian_unitary(-np.eye(4))

    def test_near_identity_refused_by_its_trace(self):
        # Entrywise 4e-9 from I, yet Hermitian unitary within the default
        # tol: the trace gives m = n.
        with pytest.raises(TrivialMatrixError, match=r"matrix is \+-I"):
            decompose_hermitian_unitary((1 + 4e-9) * np.eye(100))

    def test_wide_tol_keeps_a_matrix_within_tol_of_identity(self):
        # I - (2/6)J is within 1/3 of I entrywise, but it has m = 5.
        s = np.eye(6) - np.ones((6, 6)) / 3
        param = decompose_hermitian_unitary(s, tol=0.5)
        assert param.m == 5
        assert np.linalg.norm(build_hermitian_unitary(param) - s) < 1e-12

    def test_round_trip_on_built_matrices(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 11))
            s = build_hermitian_unitary(_random_param(n, rng))
            rebuilt = build_hermitian_unitary(decompose_hermitian_unitary(s))
            assert np.linalg.norm(rebuilt - s) < 1e-9

    def test_round_trip_on_spectral_matrices(self, rng):
        # Matrices built by an independent spectral construction.
        for _ in range(60):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, n))
            s = random_hermitian_unitary(n, m, rng)
            param = decompose_hermitian_unitary(s)
            assert param.m == m
            rebuilt = build_hermitian_unitary(param)
            assert np.linalg.norm(rebuilt - s) < 1e-9

    def test_permutation_needed_when_leading_block_singular(self):
        # diag(-1, 1): upper-left 1x1 of S + I is zero, so P is forced.
        s = np.diag([-1.0, 1.0])
        param = decompose_hermitian_unitary(s)
        assert param.perm != (0, 1)
        assert np.linalg.norm(build_hermitian_unitary(param) - s) < 1e-12

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_pivot_block_well_conditioned_when_leading_block_is_not(self, n, rng):
        m = n // 2
        for _ in range(20):
            s = _ill_leading_block(n, m, rng)
            splus = s + np.eye(n)
            assert np.linalg.cond(splus[:m, :m]) > 1e7
            param = decompose_hermitian_unitary(s)
            rows = np.argsort(param.perm)[:m]
            assert np.linalg.cond(splus[np.ix_(rows, rows)]) < 1e3
            assert np.linalg.norm(build_hermitian_unitary(param) - s) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_ties_keep_identity_perm(self, n):
        # Every pivot of S + I ties for I - (2/n)J, so the lowest index wins.
        assert decompose_hermitian_unitary(full_j_mps(n).matrix()).perm == tuple(range(n))

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_greedy_pivots_with_ties_to_lowest_index(self, n):
        # Oracle: at step k the chosen row is the lowest index whose diagonal
        # entry of the Schur complement of the rows chosen so far, computed
        # by a solve, is within 1e-12 of the largest.  These members have
        # pivots that tie exactly but differ in rounding.
        s = complex_core_matrix(n)
        param = decompose_hermitian_unitary(s)
        order = list(np.argsort(param.perm))
        g = s + np.eye(n)
        for k in range(param.m):
            done, rest = order[:k], sorted(order[k:])
            schur = g[np.ix_(rest, rest)]
            if done:
                schur = schur - g[np.ix_(rest, done)] @ np.linalg.solve(
                    g[np.ix_(done, done)], g[np.ix_(done, rest)])
            diag = np.diagonal(schur).real
            assert order[k] == rest[int(np.argmax(diag >= diag.max() - 1e-12))]
        assert order[param.m:] == sorted(order[param.m:])


class TestDecomposeHermitianUnitaryOracle:
    """(m, T, P) bit for bit, or the same exception, as the decomposer that
    refused +-I entrywise, on the Hermitian inputs of the tests above."""

    def test_built_and_spectral(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 11))
            _assert_hermitian_matches_reference(build_hermitian_unitary(_random_param(n, rng)))
            _assert_hermitian_matches_reference(
                random_hermitian_unitary(n, int(rng.integers(1, n)), rng))

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_ill_leading_block(self, n, rng):
        for _ in range(5):
            _assert_hermitian_matches_reference(_ill_leading_block(n, n // 2, rng))

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_tie_matrices(self, n):
        _assert_hermitian_matches_reference(full_j_mps(n).matrix())

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_complex_core_matrices(self, n):
        _assert_hermitian_matches_reference(complex_core_matrix(n))

    @pytest.mark.parametrize("matrix", [np.eye(4), -np.eye(4), np.diag([1.0, -1.0, -1.0]),
                                        np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2))])
    def test_small_and_refused(self, matrix):
        _assert_hermitian_matches_reference(matrix)


class TestEigenbasis:
    def test_swap_eigenvectors(self):
        param = HermitianUnitaryParam.of([[1.0]])
        plus, minus = eigenbasis_from_param(param)
        assert np.allclose(plus.ravel(), [1, 1])
        assert np.allclose(minus.ravel(), [1, -1])

    def test_zero_t_standard_basis(self):
        param = HermitianUnitaryParam.of([[0.0, 0.0]])
        plus, minus = eigenbasis_from_param(param)
        assert np.allclose(plus, [[1], [0], [0]])
        assert np.allclose(minus, [[0, 0], [-1, 0], [0, -1]])

    def test_eigen_relations(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            param = _random_param(n, rng)
            s = build_hermitian_unitary(param)
            plus, minus = eigenbasis_from_param(param)
            assert np.linalg.norm(s @ plus - plus) < 1e-9
            assert np.linalg.norm(s @ minus + minus) < 1e-9

    def test_diagonalization_and_full_rank(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            param = _random_param(n, rng)
            s = build_hermitian_unitary(param)
            plus, minus = eigenbasis_from_param(param)
            x = np.hstack([plus, minus])
            assert np.linalg.cond(x) < 1e6
            z = np.diag(np.concatenate([np.ones(param.m), -np.ones(n - param.m)]))
            assert np.linalg.norm(x @ z @ np.linalg.inv(x) - s) < 1e-8


class TestBuildUnitary:
    def test_full_m_zero_s_is_identity(self):
        param = UnitaryParam(n=3, m=3, t=None, s_h=np.zeros((3, 3)),
                             perm=(0, 1, 2))
        assert np.allclose(build_unitary(param), np.eye(3), atol=1e-12)

    def test_scalar_cayley(self):
        s = 0.7
        param = UnitaryParam(n=1, m=1, t=None, s_h=np.array([[s]]),
                             perm=(0,))
        u = build_unitary(param)
        expected = (1 - 1j * s) / (1 + 1j * s)
        assert abs(u[0, 0] - expected) < 1e-12
        assert abs(abs(u[0, 0]) - 1) < 1e-12

    def test_reduces_to_hermitian_case(self):
        param = UnitaryParam(n=2, m=1, t=np.array([[1.0]]),
                             s_h=np.zeros((1, 1)), perm=(0, 1))
        assert np.allclose(build_unitary(param), [[0, 1], [1, 0]], atol=1e-12)

    def test_unitarity_and_minus_one_multiplicity(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            t = None
            if m < n:
                t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
            h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            s_h = (h + h.conj().T) / 2
            perm = tuple(int(x) for x in rng.permutation(n))
            u = build_unitary(UnitaryParam(n=n, m=m, t=t, s_h=s_h, perm=perm))
            assert is_unitary(u, 1e-9)
            eigs = np.linalg.eigvals(u)
            assert int(np.sum(np.abs(eigs + 1) < 1e-8)) == n - m

    def test_zero_s_h_gives_hermitian(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
            u = build_unitary(UnitaryParam(n=n, m=m, t=t,
                                           s_h=np.zeros((m, m)),
                                           perm=tuple(range(n))))
            assert is_hermitian(u, 1e-9)


class TestDecomposeUnitary:
    def test_identity(self):
        param = decompose_unitary(np.eye(3))
        assert param.m == 3 and param.t is None
        assert np.allclose(param.s_h, 0, atol=1e-9)

    def test_minus_identity_rejected(self):
        with pytest.raises(TrivialMatrixError):
            decompose_unitary(-np.eye(3))

    def test_scalar_branch_analytic(self):
        u = np.diag([np.exp(1j * np.pi / 3), -1.0])
        param = decompose_unitary(u)
        assert param.m == 1
        assert np.allclose(param.t, [[0.0]], atol=1e-9)
        assert param.s_h[0, 0].real == pytest.approx(-np.tan(np.pi / 6), abs=1e-9)
        assert np.linalg.norm(build_unitary(param) - u) < 1e-9

    def test_round_trip_random_params(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, n + 1))
            t = None
            if m < n:
                t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
            h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            s_h = (h + h.conj().T) / 2
            perm = tuple(int(x) for x in rng.permutation(n))
            u = build_unitary(UnitaryParam(n=n, m=m, t=t, s_h=s_h, perm=perm))
            rebuilt = build_unitary(decompose_unitary(u))
            assert np.linalg.norm(rebuilt - u) < 1e-9

    @pytest.mark.parametrize("delta, bound", [(1e-4, 1e-9), (1e-6, 1e-6), (1e-8, 1e-6)])
    @pytest.mark.parametrize("exact", [0, 5])
    def test_eigenvalue_near_minus_one(self, delta, bound, exact, rng):
        for _ in range(50):
            u = _near_minus_one(30, delta, exact, rng)
            param = decompose_unitary(u)
            assert param.m == 30 - exact
            assert np.linalg.norm(build_unitary(param) - u) <= bound

    def test_round_trip_haar_unitaries(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            u = random_unitary(n, rng)
            rebuilt = build_unitary(decompose_unitary(u))
            assert np.linalg.norm(rebuilt - u) < 1e-8


class TestDecomposeUnitaryOracle:
    """(m, P, T, S_h) bit for bit, or the same exception, as the full-SVD
    reference, on 541 inputs."""

    @pytest.mark.parametrize("n, draws", [*((n, 20) for n in range(1, 12)), (30, 20), (100, 10)])
    def test_haar(self, n, draws, rng):
        for _ in range(draws):
            _assert_matches_reference(random_unitary(n, rng))

    @pytest.mark.parametrize("n", range(2, 12))
    def test_eigenvalue_minus_one_each_multiplicity(self, n, rng):
        for k in range(1, n):
            for _ in range(4):
                _assert_matches_reference(_minus_one_unitary(n, k, rng))

    @pytest.mark.parametrize("n, k", [(30, 1), (30, 15), (30, 29), (100, 30)])
    def test_eigenvalue_minus_one_large(self, n, k, rng):
        for _ in range(2):
            _assert_matches_reference(_minus_one_unitary(n, k, rng))

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("exact", [0, 5])
    def test_near_minus_one(self, delta, exact, rng):
        for _ in range(10):
            _assert_matches_reference(_near_minus_one(30, delta, exact, rng))

    @pytest.mark.parametrize("matrix", [-np.eye(4), 2 * np.eye(3), np.ones((2, 2))])
    def test_same_refusal(self, matrix):
        _assert_matches_reference(matrix)


class TestDecomposeUnitaryFastPath:
    """The m = n path without an SVD, taken when tol ||(U + I)^{-1}||_F <= 1e-3
    and the Hermitian residual is below tol ||(U + I)^{-1}||_F^2 / 2, against
    the full-SVD reference on inputs on both sides of those bounds."""

    DELTAS = [1e-7, 1e-6, 1e-5, 1e-4]
    TOLS = [1e-12, 1e-9, 1e-6, 1e-3, 0.5]

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("n, draws", [(30, 4), (100, 2)])
    def test_near_minus_one_at_each_tol(self, n, draws, delta, tol, rng):
        for _ in range(draws):
            _assert_matches_reference(_near_minus_one(n, delta, 0, rng), tol)

    @pytest.mark.parametrize("n", [30, 100])
    def test_deltas_straddle_the_inverse_bound(self, n, rng):
        # At the default tol the smallest delta fails the bound and the
        # largest passes it, so the test above runs both paths.
        scaled = [DEFAULT_TOL * np.linalg.norm(np.linalg.inv(
            _near_minus_one(n, delta, 0, rng) + np.eye(n))) for delta in self.DELTAS]
        assert scaled[0] > 1e-3 >= scaled[-1]

    def test_no_svd_for_a_haar_unitary(self, monkeypatch, rng):
        inputs = [random_unitary(100, rng) for _ in range(5)]
        wants = [_reference_decompose_unitary(u) for u in inputs]

        def refuse(*args, **kwargs):
            raise AssertionError("decompose_unitary ran an SVD")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for u, want in zip(inputs, wants):
            got = decompose_unitary(u)
            assert (got.m, got.t, got.perm) == (100, None, want.perm)
            assert np.array_equal(got.s_h, want.s_h)

    @pytest.mark.parametrize("n", [30, 100])
    def test_residual_bound_failed_near_the_unitarity_limit(self, n, rng):
        # (1 + eps) W with eps near the is_unitary limit passes the inverse
        # bound and fails the residual one, so it takes the exact path.
        eps = 0.99 * DEFAULT_TOL * np.sqrt(n) / 2
        for _ in range(5):
            _assert_matches_reference((1 + eps) * random_unitary(n, rng))


class TestDecomposeUnitaryTolEdge:
    """tol at sigma_min(U + I), where a values-only SVD and a full SVD of
    U + I, which differ in the last bits, can count different m: every input
    that misses the no-SVD return takes exactly one SVD of U + I, a full one,
    and matches the full-SVD reference bit for bit.  tol four orders below
    sigma_min takes the no-SVD return."""

    def test_tol_at_the_smallest_singular_value(self, monkeypatch, rng):
        n = 30
        cases = []
        for delta in [1e-7, 1e-6]:
            for _ in range(40):
                u = _near_minus_one(n, delta, 0, rng)
                values = np.linalg.svd(u + np.eye(n), compute_uv=False)[-1]
                full = np.linalg.svd(u + np.eye(n))[1][-1]
                cases += [(u, values, True), (u, full, True), (u, 1e-4 * full, False)]
        wants = [_outcome(_reference_decompose_unitary, u, tol) for u, tol, _ in cases]

        real_svd = np.linalg.svd
        calls = []

        def counting_svd(a, *args, **kwargs):
            calls.append((np.shape(a), kwargs.get("compute_uv", True)))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for (u, tol, exact_path), want in zip(cases, wants):
            calls.clear()
            _assert_same_outcome(_outcome(decompose_unitary, u, tol), want)
            assert [uv for shape, uv in calls if shape == (n, n)] == ([True] if exact_path else [])
        assert sum(exact_path for *_, exact_path in cases) >= 100


class TestPivotRowsOracle:
    """_pivot_rows picks the rows of the reference, step for step."""

    @pytest.mark.parametrize("n, draws", [(10, 80), (30, 80), (100, 50)])
    def test_spectral_hermitian_unitaries(self, n, draws, rng):
        for _ in range(draws):
            m = int(rng.integers(1, n))
            _assert_pivots_match_reference(random_hermitian_unitary(n, m, rng) + np.eye(n), m)

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_tie_matrices(self, n):
        s = complex_core_matrix(n)
        m = int(round((n + np.trace(s).real) / 2))
        _assert_pivots_match_reference(s + np.eye(n), m)

    @pytest.mark.parametrize("n", [10, 30, 100])
    def test_ill_leading_block(self, n, rng):
        m = n // 2
        for _ in range(5):
            _assert_pivots_match_reference(_ill_leading_block(n, m, rng) + np.eye(n), m)

    @pytest.mark.parametrize("n, k", [(11, 4), (30, 15), (100, 30)])
    def test_projectors_of_unitaries_with_eigenvalue_minus_one(self, n, k, rng):
        # The Gram matrices decompose_unitary pivots on when m < n.
        for _ in range(4):
            u = _minus_one_unitary(n, k, rng)
            basis = np.linalg.svd(u + np.eye(n))[0][:, :n - k]
            _assert_pivots_match_reference(basis @ basis.conj().T, n - k)


class TestDecomposeUnitaryCheckTightness:
    """(1 + eps) W with eps below tol sqrt(n) / 2 passes is_unitary, so the
    Hermitian-residual check must accept it: sigma_min from the SVD values
    does not make the check stricter."""

    @pytest.mark.parametrize("n", [2, 5, 10, 30, 100])
    @pytest.mark.parametrize("share", [0.5, 0.9, 0.99])
    def test_scaled_unitaries_accepted(self, n, share, rng):
        eps = share * DEFAULT_TOL * np.sqrt(n) / 2
        for k in [0] * 8 + [int(x) for x in rng.integers(1, n, size=7)]:
            u = (1 + eps) * _minus_one_unitary(n, k, rng)
            assert is_unitary(u)
            param = decompose_unitary(u)
            assert param.m == n or k > 0


class TestQuadratic:
    def test_degenerate_spec_rejected(self):
        with pytest.raises(DegenerateSpecError):
            QuadraticSpec(a=-1.0, b=0.0)

    def test_reduces_to_hermitian_unitary(self, rng):
        param = _random_param(5, rng)
        h = build_quadratic_solution(QuadraticSpec(a=1.0, b=0.0), param)
        assert np.linalg.norm(h - build_hermitian_unitary(param)) < 1e-12

    def test_projection_case(self):
        # a = 0, b = 1 with T = 0 gives an orthogonal projection diag(1, 0).
        param = HermitianUnitaryParam.of([[0.0]])
        h = build_quadratic_solution(QuadraticSpec(a=0.0, b=1.0), param)
        assert np.allclose(h, np.diag([1.0, 0.0]), atol=1e-12)

    def test_spectrum_via_eigensolver(self, rng):
        # a = 2, b = 1: eigenvalues (1 +- 3)/2 = {2, -1} with multiplicities m, n-m.
        t = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
        param = HermitianUnitaryParam(n=3, m=2, t=t, perm=(0, 1, 2))
        h = build_quadratic_solution(QuadraticSpec(a=2.0, b=1.0), param)
        eigs = np.sort(np.linalg.eigvalsh(h))
        assert np.allclose(eigs, [-1.0, 2.0, 2.0], atol=1e-9)

    def test_quadratic_identity_residual(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a, b = float(rng.uniform(0.1, 3)), float(rng.uniform(-2, 2))
            param = _random_param(n, rng)
            h = build_quadratic_solution(QuadraticSpec(a=a, b=b), param)
            assert is_hermitian(h, 1e-9)
            resid = h @ h - a * np.eye(n) - b * h
            assert np.linalg.norm(resid) <= 1e-8 * n

    def test_eigenbasis_carries_over(self, rng):
        param = _random_param(6, rng)
        spec = QuadraticSpec(a=1.5, b=-0.5)
        h = build_quadratic_solution(spec, param)
        plus, minus = eigenbasis_from_param(param)
        lam_plus, lam_minus = spec.eigenvalues
        assert np.linalg.norm(h @ plus - lam_plus * plus) < 1e-9
        assert np.linalg.norm(h @ minus - lam_minus * minus) < 1e-9


@pytest.mark.parametrize("call, error, message", [
    (lambda: HermitianUnitaryParam(n=3, m=1, t=np.zeros((1, 1)), perm=(0, 1, 2)), ValueError,
     "T must be 1 x 2"),
    (lambda: HermitianUnitaryParam(n=2, m=2, t=np.zeros((2, 0)), perm=(0, 1)), ValueError,
     "m must lie in {1, ..., n-1}"),
    (lambda: UnitaryParam(n=2, m=3, t=None, s_h=np.zeros((3, 3)), perm=(0, 1)), ValueError,
     "m must lie in {1, ..., n}"),
    (lambda: UnitaryParam(n=2, m=2, t=np.zeros((2, 0)), s_h=np.zeros((2, 2)), perm=(0, 1)),
     ValueError, "T must be given exactly when m < n"),
    (lambda: UnitaryParam(n=3, m=1, t=np.zeros((1, 2)), s_h=np.zeros((2, 2)), perm=(0, 1, 2)),
     ValueError, "S_h must be 1 x 1"),
], ids=["t-shape", "hermitian-m-range", "unitary-m-range", "t-given-at-m-n", "s-h-shape"])
def test_input_checks_raise(call, error, message):
    raises_exactly(error, message, call)

"""Free-parameter descriptions of Hermitian unitary and general unitary matrices.

Every Hermitian unitary matrix S other than +-I is, up to a simultaneous
row/column permutation P, determined by the multiplicity m of its eigenvalue
+1 and an unconstrained complex m x (n-m) matrix T:

    S = -I + 2 P [I; T*] (I + T T*)^{-1} [I  T] P^{-1}.

A general unitary U != -I additionally carries a Hermitian m x m block S_h
inside the inverted factor, (I + T T* + i S_h)^{-1} (with U = -I + 2(I + i S_h)^{-1}
when the eigenvalue -1 is absent).  The same block formula with rescaled
spectrum parametrizes Hermitian solutions of H^2 = a I + b H.

All parameters are free: any (m, T, P) yields a Hermitian unitary matrix, so
the builders below never fail, and the decomposers recover parameters such
that rebuilding reproduces the input matrix to working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import DEFAULT_TOL, _is_hermitian, _is_unitary, as_square_matrix

__all__ = [
    "TrivialMatrixError",
    "DegenerateSpecError",
    "HermitianUnitaryParam",
    "UnitaryParam",
    "QuadraticSpec",
    "build_hermitian_unitary",
    "decompose_hermitian_unitary",
    "eigenbasis_from_param",
    "build_unitary",
    "decompose_unitary",
    "build_quadratic_solution",
]


class TrivialMatrixError(ValueError):
    """The matrix is a scalar multiple of the identity and has no parameters."""


class DegenerateSpecError(ValueError):
    """Quadratic spec with 4a + b^2 <= 0 (single repeated eigenvalue)."""


def _check_t(t, m: int, n: int) -> np.ndarray:
    t = np.asarray(t, dtype=complex)
    if t.shape != (m, n - m):
        raise ValueError(f"T must be {m} x {n - m}")
    t.setflags(write=False)
    return t


def _check_perm(perm, n: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm must be a permutation of 0..{n - 1}")
    return p


@dataclass(frozen=True)
class HermitianUnitaryParam:
    """(m, T, P) with 1 <= m <= n-1; T is a free complex m x (n-m) matrix.

    ``perm`` holds P as a 0-based index array: the built matrix is
    -I + 2 * core[perm[i], perm[j]] for the unpermuted block product ``core``.
    """

    n: int
    m: int
    t: np.ndarray
    perm: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= self.n - 1:
            raise ValueError("m must lie in {1, ..., n-1}")
        object.__setattr__(self, "t", _check_t(self.t, self.m, self.n))
        object.__setattr__(self, "perm", _check_perm(self.perm, self.n))

    @classmethod
    def of(cls, t, perm=None) -> "HermitianUnitaryParam":
        t = np.atleast_2d(np.asarray(t, dtype=complex))
        m, rest = t.shape
        n = m + rest
        return cls(n=n, m=m, t=t, perm=tuple(range(n)) if perm is None else perm)


@dataclass(frozen=True)
class UnitaryParam:
    """(m, T, S_h, P); T absent when m = n (no eigenvalue -1)."""

    n: int
    m: int
    t: Optional[np.ndarray]
    s_h: np.ndarray
    perm: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError("m must lie in {1, ..., n}")
        if (self.t is None) != (self.m == self.n):
            raise ValueError("T must be given exactly when m < n")
        if self.t is not None:
            object.__setattr__(self, "t", _check_t(self.t, self.m, self.n))
        s = np.asarray(self.s_h, dtype=complex)
        if s.shape != (self.m, self.m):
            raise ValueError(f"S_h must be {self.m} x {self.m}")
        if not np.array_equal(s, s.conj().T):
            raise ValueError("S_h must be Hermitian exactly as stored")
        s.setflags(write=False)
        object.__setattr__(self, "s_h", s)
        object.__setattr__(self, "perm", _check_perm(self.perm, self.n))


@dataclass(frozen=True)
class QuadraticSpec:
    """Coefficients of H^2 = a I + b H; requires 4a + b^2 > 0."""

    a: float
    b: float

    def __post_init__(self):
        if 4 * self.a + self.b * self.b <= 0:
            raise DegenerateSpecError("4a + b^2 must be positive")

    @property
    def eigenvalues(self) -> tuple[float, float]:
        """The two admissible eigenvalues (b +- sqrt(4a + b^2)) / 2."""
        s = math.sqrt(4 * self.a + self.b * self.b)
        return ((self.b + s) / 2, (self.b - s) / 2)


def _projector_core(t: np.ndarray, s_h: Optional[np.ndarray] = None) -> np.ndarray:
    """[I; T*] (I + T T* + i S_h)^{-1} [I  T]; without S_h, the rank-m
    projector onto the +1 space."""
    m = t.shape[0]
    b = np.vstack([np.eye(m, dtype=complex), t.conj().T])
    inner = np.eye(m, dtype=complex) + t @ t.conj().T
    if s_h is not None:
        inner += 1j * s_h
    return b @ np.linalg.solve(inner, b.conj().T)


def _assemble(core: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """-I + 2 P core P^{-1}, with no gather when P is the identity."""
    n = core.shape[0]
    if perm != tuple(range(n)):
        p = np.asarray(perm)
        core = core[np.ix_(p, p)]
    return -np.eye(n, dtype=complex) + 2.0 * core


def build_hermitian_unitary(param: HermitianUnitaryParam) -> np.ndarray:
    """Assemble S = -I + 2 P [I; T*](I + T T*)^{-1}[I T] P^{-1}.

    Always Hermitian unitary with trace 2m - n, by construction.
    """
    return _assemble(_projector_core(param.t), param.perm)


def eigenbasis_from_param(param: HermitianUnitaryParam) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector bases (plus, minus) = (P [I; T*], P [T; -I]).

    Columns of ``plus`` span the +1 eigenspace of the built matrix, columns of
    ``minus`` the -1 eigenspace; stacked side by side they are a full-rank
    n x n matrix.
    """
    n, m, t = param.n, param.m, param.t
    plus = np.vstack([np.eye(m, dtype=complex), t.conj().T])
    minus = np.vstack([t, -np.eye(n - m, dtype=complex)])
    p = np.asarray(param.perm)
    return plus[p, :], minus[p, :]


def _pivot_rows(gram: np.ndarray, m: int) -> list[int]:
    """Rows of the m x m block: m steps of greedy diagonal-pivoted Cholesky.

    ``gram`` is Hermitian positive semidefinite.  Each step takes the row with
    the largest diagonal entry of the remaining Schur complement, the lowest
    index among entries that agree to rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., ch. 10).  The rows not
    chosen follow in ascending order.
    """
    n = gram.shape[0]
    factor = np.zeros((n, m), dtype=complex)
    diag = gram.diagonal().real.copy()
    slack = n * np.finfo(float).eps * diag.max()
    rows: list[int] = []
    near = np.empty(n, dtype=bool)
    for k in range(m):
        j = int(np.greater_equal(diag, diag.max() - slack, out=near).argmax())
        rows.append(j)
        col = factor[:, k]
        np.subtract(gram[:, j], factor[:, :k] @ factor[j, :k].conj(), out=col)
        col /= np.sqrt(diag[j])
        diag -= col.real ** 2 + col.imag ** 2
        diag[j] = -np.inf
    chosen = set(rows)
    return rows + [i for i in range(n) if i not in chosen]


def _split(a: np.ndarray, rows: list[int], m: int):
    """Block split of a = S + I (or U + I) with ``rows`` first.

    Returns the leading m x m block M, T = M^{-1} B for the block B beside
    it, and the 0-based perm that puts the rows back.
    """
    aq = a[np.ix_(rows, rows)]
    mblock = aq[:m, :m]
    t = np.linalg.solve(mblock, aq[:m, m:])
    perm = tuple(int(x) for x in np.argsort(rows))
    return mblock, t, perm


def decompose_hermitian_unitary(
    matrix, tol: float = DEFAULT_TOL
) -> HermitianUnitaryParam:
    """Recover (m, T, P) from a Hermitian unitary matrix different from +-I.

    m comes from the trace (the spectrum is {-1, +1}), and m = 0 or m = n
    means -I or +I, which raises TrivialMatrixError.  P puts first the m
    rows that greedy diagonal-pivoted Cholesky picks on S + I, then the
    others in ascending order.  Since (S + I)^2 = 2(S + I), these are the
    rows it picks on the Gram matrix of the rows of S + I, so the solved
    block is well conditioned however ill-conditioned the leading one is.
    Ties go to the lowest index.  The contract is matrix-level:
    build_hermitian_unitary(result) reproduces the input.
    """
    s = as_square_matrix(matrix).astype(complex)
    n = s.shape[0]
    if not (_is_hermitian(s, tol) and _is_unitary(s, tol)):
        raise ValueError("matrix is not Hermitian unitary within tolerance")
    m = int(round((n + np.trace(s).real) / 2))
    if not 0 < m < n:
        raise TrivialMatrixError("matrix is +-I; the parametrization excludes it")
    splus = s + np.eye(n)
    _, t, perm = _split(splus, _pivot_rows(splus, m), m)
    return HermitianUnitaryParam(n=n, m=m, t=t, perm=perm)


def build_unitary(param: UnitaryParam) -> np.ndarray:
    """Assemble U = -I + 2 P [I; T*](I + T T* + i S_h)^{-1}[I T] P^{-1}.

    The inverted factor always exists (its Hermitian part I + T T* is positive
    definite), so every parameter choice yields a unitary matrix whose
    eigenvalue -1 has multiplicity n - m.
    """
    if param.t is None:
        core = np.linalg.inv(np.eye(param.m, dtype=complex) + 1j * param.s_h)
    else:
        core = _projector_core(param.t, param.s_h)
    return _assemble(core, param.perm)


def decompose_unitary(matrix, tol: float = DEFAULT_TOL) -> UnitaryParam:
    """Recover (m, T, S_h, P) from a unitary matrix different from -I.

    m is the number of singular values of U + I above ``tol`` (the trace is
    not usable: the eigenvalues are not restricted to +-1).  With M the
    leading m x m block of P^{-1} (U + I) P, S_h is the anti-Hermitian part
    of R = 2 M^{-1} - I - T T*, divided by i.  The Hermitian part of R
    vanishes for an exact unitary, and the unitarity defect that
    ``is_unitary`` accepts (tol * n) grows by at most ||M^{-1}||_2^2 through
    the inverse, so ||herm(R)||_F > tol * n / sigma_min(M)^2 raises.

    The inverse comes first: M^{-1} = (U + I)^{-1}, and two bounds on its
    Frobenius norm settle the case m = n (U lacks the eigenvalue -1, as
    almost every sampled unitary does) without any SVD:

    - tol * ||M^{-1}||_F <= 1e-3 (and tol >= n eps) takes m = n, P = I and
      no T.  Since sigma_min(M) = 1/||M^{-1}||_2 >= 1/||M^{-1}||_F, every
      singular value is at least 1000 tol, while the SVD's absolute rounding
      is a modest multiple of n eps ||U + I||_2 <= 2 n eps, far below 999 tol:
      the SVD would count all n values above tol;
    - ||herm(R)||_F <= tol * ||M^{-1}||_F^2 / 2 accepts the residual.  It
      implies the check above, since ||M^{-1}||_2^2 >= ||M^{-1}||_F^2 / n;
      the factor 1/2 covers the rounding of both norms.

    Every other case (a failed bound, a LinAlgError from the inverse, or a
    NaN or infinite norm) takes one full SVD of U + I.  Its values fix m.
    When m = n, P = I, sigma_min(M) is the last value and M^{-1} is reused.
    When U has the eigenvalue -1 (m < n), its m leading left singular vectors
    fix P: P puts first the m rows that greedy diagonal-pivoted Cholesky
    picks on the projector onto them, then the others in ascending order
    (pivoting on (U + I)(U + I)* instead would square a singular value of
    1e-8 below rounding), and sigma_min(M) comes from a values-only SVD of
    the m x m block.  The count needs the full SVD's values: a values-only
    SVD of U + I differs from them in the last bits, so with tol at
    sigma_min it can count another m.  Either way the parameters are the
    ones this full SVD fixes, bit for bit.
    """
    u = as_square_matrix(matrix).astype(complex)
    n = u.shape[0]
    if not _is_unitary(u, tol):
        raise ValueError("matrix is not unitary within tolerance")
    eye = np.eye(n)
    if np.max(np.abs(u + eye)) <= tol:
        raise TrivialMatrixError("matrix is -I; the parametrization excludes it")
    uplus = u + eye
    try:
        minv = np.linalg.inv(uplus)
    except np.linalg.LinAlgError:
        minv = None
    bound = np.inf if minv is None else np.linalg.norm(minv)
    if tol >= n * np.finfo(float).eps and tol * bound <= 1e-3:
        r = 2.0 * minv - eye
        if np.linalg.norm((r + r.conj().T) / 2) <= tol * bound ** 2 / 2:
            return _unitary_param(n, None, r, tuple(range(n)))
    left, sv, _ = np.linalg.svd(uplus)
    m = int(np.sum(sv > tol))
    if m == n:
        t, perm, sigma_min = None, tuple(range(n)), sv[-1]
        r = 2.0 * (np.linalg.inv(uplus) if minv is None else minv) - eye
    else:
        basis = left[:, :m]
        mblock, t, perm = _split(uplus, _pivot_rows(basis @ basis.conj().T, m), m)
        sigma_min = np.linalg.svd(mblock, compute_uv=False)[-1]
        r = 2.0 * np.linalg.inv(mblock) - np.eye(m) - t @ t.conj().T
    if np.linalg.norm((r + r.conj().T) / 2) > tol * n / sigma_min ** 2:
        raise ValueError("inconsistent decomposition: S_h is not Hermitian")
    return _unitary_param(n, t, r, perm)


def _unitary_param(n: int, t: Optional[np.ndarray], r: np.ndarray, perm) -> UnitaryParam:
    """The parameters with S_h the anti-Hermitian part of R, divided by i."""
    s_h = (r - r.conj().T) / 2j
    s_h = (s_h + s_h.conj().T) / 2
    return UnitaryParam(n=n, m=r.shape[0], t=t, s_h=s_h, perm=perm)


def build_quadratic_solution(spec: QuadraticSpec, param: HermitianUnitaryParam) -> np.ndarray:
    """Hermitian solution of H^2 = a I + b H from free parameters (m, T, P).

    H = (b - s)/2 I + s P [I; T*](I + T T*)^{-1}[I T] P^{-1} with
    s = sqrt(4a + b^2); its eigenvalues are (b + s)/2 with multiplicity m and
    (b - s)/2 with multiplicity n - m.  For a = 1, b = 0 this reduces exactly
    to build_hermitian_unitary.
    """
    s = math.sqrt(4 * spec.a + spec.b * spec.b)
    base = build_hermitian_unitary(param)
    n = param.n
    return (spec.b / 2.0) * np.eye(n, dtype=complex) + (s / 2.0) * base

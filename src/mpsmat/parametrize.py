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

from .core import DEFAULT_TOL, as_square_matrix, is_hermitian, is_unitary

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
        t = np.asarray(self.t, dtype=complex)
        if t.shape != (self.m, self.n - self.m):
            raise ValueError(f"T must be {self.m} x {self.n - self.m}")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)
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
            t = np.asarray(self.t, dtype=complex)
            if t.shape != (self.m, self.n - self.m):
                raise ValueError(f"T must be {self.m} x {self.n - self.m}")
            t.setflags(write=False)
            object.__setattr__(self, "t", t)
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


def _projector_core(m: int, n: int, t: np.ndarray) -> np.ndarray:
    """[I; T*] (I + T T*)^{-1} [I  T] -- the rank-m projector onto the +1 space."""
    b = np.vstack([np.eye(m, dtype=complex), t.conj().T])
    gram = np.eye(m, dtype=complex) + t @ t.conj().T
    return b @ np.linalg.solve(gram, b.conj().T)


def build_hermitian_unitary(param: HermitianUnitaryParam) -> np.ndarray:
    """Assemble S = -I + 2 P [I; T*](I + T T*)^{-1}[I T] P^{-1}.

    Always Hermitian unitary with trace 2m - n, by construction.
    """
    n, m = param.n, param.m
    core = _projector_core(m, n, param.t)
    p = np.asarray(param.perm)
    return -np.eye(n, dtype=complex) + 2.0 * core[np.ix_(p, p)]


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
    for k in range(m):
        j = int(np.argmax(diag >= diag.max() - slack))
        rows.append(j)
        col = (gram[:, j] - factor[:, :k] @ factor[j, :k].conj()) / np.sqrt(diag[j])
        factor[:, k] = col
        diag -= col.real ** 2 + col.imag ** 2
        diag[j] = -np.inf
    return rows + [i for i in range(n) if i not in rows]


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

    m comes from the trace (the spectrum is {-1, +1}).  P puts first the m
    rows that greedy diagonal-pivoted Cholesky picks on S + I, then the
    others in ascending order.  Since (S + I)^2 = 2(S + I), these are the
    rows it picks on the Gram matrix of the rows of S + I, so the solved
    block is well conditioned however ill-conditioned the leading one is.
    Ties go to the lowest index.  The contract is matrix-level:
    build_hermitian_unitary(result) reproduces the input.
    """
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


def build_unitary(param: UnitaryParam) -> np.ndarray:
    """Assemble U = -I + 2 P [I; T*](I + T T* + i S_h)^{-1}[I T] P^{-1}.

    The inverted factor always exists (its Hermitian part I + T T* is positive
    definite), so every parameter choice yields a unitary matrix whose
    eigenvalue -1 has multiplicity n - m.
    """
    n, m = param.n, param.m
    if param.t is None:
        inner = np.eye(m, dtype=complex) + 1j * param.s_h
        core = np.linalg.inv(inner)
    else:
        t = param.t
        b = np.vstack([np.eye(m, dtype=complex), t.conj().T])
        inner = np.eye(m, dtype=complex) + t @ t.conj().T + 1j * param.s_h
        core = b @ np.linalg.solve(inner, b.conj().T)
    p = np.asarray(param.perm)
    return -np.eye(n, dtype=complex) + 2.0 * core[np.ix_(p, p)]


def decompose_unitary(matrix, tol: float = DEFAULT_TOL) -> UnitaryParam:
    """Recover (m, T, S_h, P) from a unitary matrix different from -I.

    m is the number of singular values of U + I above ``tol`` (the trace is
    not usable: the eigenvalues are not restricted to +-1).  P is the
    identity when m = n.  Otherwise it puts first the m rows that greedy
    diagonal-pivoted Cholesky picks on the projector onto the m leading left
    singular vectors of U + I, then the others in ascending order; pivoting
    on (U + I)(U + I)* instead would square a singular value of 1e-8 below
    rounding.  S_h is the anti-Hermitian part of 2 M^{-1} - I - T T*,
    divided by i.  Its Hermitian part vanishes for an exact unitary, and the
    unitarity defect that ``is_unitary`` accepts (tol * n) grows by at most
    ||M^{-1}||_2^2 through the inverse, so a larger Hermitian part raises.
    """
    u = as_square_matrix(matrix).astype(complex)
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

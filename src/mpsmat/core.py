"""Checks and measurements for Hermitian unitary MPS matrices.

A square matrix is modularly permutation-symmetric (MPS) when all its diagonal
entries share one modulus r and all its off-diagonal entries share another
modulus t > 0.  For a Hermitian unitary MPS matrix of order n the two moduli
are locked to r = d/sqrt(d^2+n-1) and t = 1/sqrt(d^2+n-1), where d = r/t is
the ratio that classifies the matrix.

This module measures that structure (`mps_profile`), checks the global
necessary conditions tying d to the order and to the diagonal/spectral data
(`check_d_bound`, `check_trace_identity`, `d_from_mp`), and exposes the
scattering-probability reading of such a matrix (`scattering_probabilities`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "BALANCED",
    "IMPOSSIBLE",
    "MpsError",
    "NotMpsError",
    "NotHermitianUnitaryError",
    "MpsProfile",
    "as_square_matrix",
    "is_hermitian",
    "is_unitary",
    "mps_profile",
    "check_d_bound",
    "check_trace_identity",
    "d_from_mp",
    "scattering_probabilities",
]

#: Default absolute tolerance for entrywise tests; unitarity uses a Frobenius
#: norm scaled by the order.  The entries handled here are O(1), but a
#: quantity computed through an inverse is not: ``parametrize.decompose_unitary``
#: scales its consistency check by ||M^{-1}||_2^2 for the block M it solves.
DEFAULT_TOL = 1e-9

#: Sentinel results of :func:`d_from_mp`.
BALANCED = "balanced"
IMPOSSIBLE = "impossible"


class MpsError(ValueError):
    """Base class for structural errors raised by this package."""


class NotMpsError(MpsError):
    """Matrix does not have constant diagonal/off-diagonal moduli."""


class NotHermitianUnitaryError(MpsError):
    """Matrix fails the Hermitian-unitary precondition."""


def as_square_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a square 2-d ndarray."""
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def is_hermitian(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff max_jk |M_jk - conj(M_kj)| <= tol."""
    return _is_hermitian(as_square_matrix(matrix), tol)


def is_unitary(matrix, tol: float = DEFAULT_TOL) -> bool:
    """True iff ||M M* - I||_F <= tol * n."""
    return _is_unitary(as_square_matrix(matrix), tol)


# The private checks and measurement take an array that as_square_matrix has
# passed, so a caller that runs several of them scans the entries once.

def _is_hermitian(a: np.ndarray, tol: float) -> bool:
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def _is_unitary(a: np.ndarray, tol: float) -> bool:
    n = a.shape[0]
    resid = a @ a.conj().T - np.eye(n)
    return bool(np.linalg.norm(resid) <= tol * n)


@dataclass(frozen=True)
class MpsProfile:
    """Measured MPS data of a Hermitian unitary matrix.

    n, r, t, d -- order, diagonal modulus, off-diagonal modulus, ratio r/t;
    diag_signs -- sign (+1/-1) of each (real) diagonal entry;
    p -- number of non-negative diagonal entries;
    m -- multiplicity of the eigenvalue +1 (from the trace: the spectrum of a
    Hermitian unitary matrix is contained in {-1, +1}).
    """

    n: int
    r: float
    t: float
    d: float
    diag_signs: tuple[int, ...]
    p: int
    m: int


def mps_profile(matrix, tol: float = DEFAULT_TOL) -> MpsProfile:
    """Measure the MPS profile of a Hermitian unitary matrix.

    Raises NotHermitianUnitaryError if the matrix is not Hermitian unitary
    within ``tol``, and NotMpsError if the moduli are not constant or the
    off-diagonal modulus vanishes (diagonal matrices are excluded).

    For d = 0 the diagonal entries are numerical zeros with no meaningful
    sign; by convention they count as non-negative, so p = n.
    """
    a = as_square_matrix(matrix)
    if not _is_hermitian(a, tol):
        raise NotHermitianUnitaryError("matrix is not Hermitian within tolerance")
    if not _is_unitary(a, tol):
        raise NotHermitianUnitaryError("matrix is not unitary within tolerance")
    return _profile(a, tol)


def _profile(a: np.ndarray, tol: float) -> MpsProfile:
    """The measurement of mps_profile, for an array already found Hermitian
    unitary within ``tol``."""
    n = a.shape[0]
    diag = np.diagonal(a)
    if np.iscomplexobj(a) and np.max(np.abs(diag.imag)) > tol:
        raise NotHermitianUnitaryError("diagonal entries are not real")
    diag = diag.real.astype(float)

    diag_mod = np.abs(diag)
    r = float(np.mean(diag_mod))
    if np.max(np.abs(diag_mod - r)) > tol:
        raise NotMpsError("diagonal moduli are not constant")

    if n == 1:
        raise NotMpsError("order-1 matrix has no off-diagonal entries")
    # The off-diagonal entries in row-major order, with no mask: after entry
    # 0, the flat matrix is n - 1 runs of n + 1 entries, each ending on the
    # diagonal.
    off_mod = np.abs(a.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]).ravel()
    t = float(np.mean(off_mod))
    if np.max(np.abs(off_mod - t)) > tol:
        raise NotMpsError("off-diagonal moduli are not constant")
    if t <= tol:
        raise NotMpsError("off-diagonal modulus vanishes (diagonal matrix)")

    d = r / t
    trace = float(np.trace(a).real)
    m_float = (n + trace) / 2.0
    m = int(round(m_float))
    if abs(m_float - m) > tol * n:
        raise NotHermitianUnitaryError(
            "trace is not consistent with a {-1,+1} spectrum"
        )

    if r <= tol:
        signs = (1,) * n
    else:
        signs = tuple(1 if x >= 0 else -1 for x in diag)
    p = sum(1 for s in signs if s == 1)
    return MpsProfile(n=n, r=r, t=t, d=d, diag_signs=signs, p=p, m=m)


def check_d_bound(n: int, d: float) -> bool:
    """True iff the ratio d is admissible for order n: n <= 2, or d <= n/2 - 1."""
    if n < 1:
        raise ValueError("order must be positive")
    if d < 0:
        raise ValueError("ratio d must be non-negative")
    return n <= 2 or d <= n / 2 - 1


def check_trace_identity(profile: MpsProfile, tol: float = DEFAULT_TOL) -> bool:
    """Check 2m - n = (2p - n) * d / sqrt(d^2 + n - 1) within ``tol``.

    Both sides express the trace: the left from the {-1,+1} spectrum, the
    right from the signed diagonal entries.
    """
    n, d = profile.n, profile.d
    lhs = 2 * profile.m - n
    rhs = (2 * profile.p - n) * d / math.sqrt(d * d + n - 1)
    return abs(lhs - rhs) <= tol


def d_from_mp(n: int, m: int, p: int) -> float | str:
    """Solve the trace identity for d given the pair (m, p).

    Returns BALANCED when p = m = n/2 (every d is consistent), the unique
    d = |m - n/2| * sqrt((n-1) / ((p-m)(p+m-n))) when p < m < n/2 or
    p > m > n/2, and IMPOSSIBLE otherwise.
    """
    if not (0 <= m <= n and 0 <= p <= n):
        raise ValueError("m and p must lie in [0, n]")
    if 2 * p == n and 2 * m == n:
        return BALANCED
    if (p < m and 2 * m < n) or (p > m and 2 * m > n):
        denom = (p - m) * (p + m - n)
        return abs(m - n / 2) * math.sqrt((n - 1) / denom)
    return IMPOSSIBLE


def scattering_probabilities(matrix, edge: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Scattering probabilities out of ``edge`` (0-based column index).

    For a vertex of degree n whose coupling is the Hermitian unitary matrix S,
    a wave entering on edge ``edge`` leaves on edge i with probability
    |S[i, edge]|^2; the entries sum to 1 and the diagonal one (the reflection
    probability) is d^2 / (d^2 + n - 1) for an MPS matrix of ratio d.
    """
    a = as_square_matrix(matrix)
    n = a.shape[0]
    if not (0 <= edge < n):
        raise IndexError(f"edge index {edge} outside [0, {n - 1}]")
    if not (_is_hermitian(a, tol) and _is_unitary(a, tol)):
        raise NotHermitianUnitaryError("matrix is not Hermitian unitary within tolerance")
    probs = np.abs(a[:, edge]) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > tol:
        raise NotHermitianUnitaryError("probabilities do not sum to 1")
    return probs

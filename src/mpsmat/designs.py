"""Symmetric block designs, Hadamard matrices and conference matrices.

Constructions (Sylvester Hadamard matrices, Paley conference matrices, Fourier
complex Hadamard matrices), exact verification, normalization to the standard
bordered form, core extraction, and the correspondence between Hadamard
matrices of order N and symmetric (N-1, N/2-1, N/4-1)-designs.

Every built-in auxiliary input comes from a ``provider_*`` function, which
returns None where nothing is built in.

The exact integer layer that the exact module shares lives here too:
``_as_int64`` converts entries to int64 without rounding, and
``_moduli_fault`` checks the moduli and orthogonality of 2Q, Hadamard and
conference matrices alike.  So all real-kind verification is exact;
complex-kind checks use the shared numerical tolerance, ``DEFAULT_TOL``.
The three verifiers answer a bool for every input: anything that is no
square matrix of their kind gives False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .core import DEFAULT_TOL, as_square_matrix, is_hermitian

__all__ = [
    "BadOrderError",
    "NotNormalizableError",
    "DesignInvalidError",
    "NotInRangeError",
    "SymmetricDesign",
    "DesignParams",
    "verify_design",
    "verify_hadamard",
    "verify_conference",
    "sylvester_hadamard",
    "paley_conference",
    "fourier_complex_hadamard",
    "normalize_to_standard",
    "design_params_for",
    "hadamard_to_design",
    "identity_design",
    "provider_hadamard",
    "provider_design",
    "provider_conference",
]


class BadOrderError(ValueError):
    """No construction is available for the requested order."""


class NotNormalizableError(ValueError):
    """Matrix cannot be brought to the bordered standard form."""


class DesignInvalidError(ValueError):
    """Incidence matrix fails the symmetric design identities."""


class NotInRangeError(ValueError):
    """A ratio d outside an operation's validity range, or an entry beyond int64."""


def _as_int64(values) -> np.ndarray:
    """``values`` as an int64 array, converted exactly: an integer dtype that
    int64 holds costs a dtype test, anything else is read as Python ints.
    TypeError for a complex array or a non-integer entry, NotInRangeError for
    an integer beyond int64."""
    a = np.asarray(values)
    if np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64, copy=False)
    if np.iscomplexobj(a):
        raise TypeError("expected a real integer matrix")
    entries = a.ravel().tolist()
    try:
        ints = [int(x) for x in entries]
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != entries:
        raise TypeError("expected a matrix with exact integer entries")
    try:
        return np.array(ints, dtype=np.int64).reshape(a.shape)
    except OverflowError as exc:
        raise NotInRangeError("entries beyond the int64 range") from exc


def _as_int_matrix(matrix) -> np.ndarray:
    """``matrix`` as a new square int64 array, converted by ``_as_int64``
    before the square check: the check's finiteness test refuses object
    arrays, so an entry such as None or 2**70 fails as a conversion."""
    return np.array(as_square_matrix(_as_int64(matrix)))


def _gram_equals(a: np.ndarray, diag: int, off: int) -> bool:
    """Whether A A^T has every diagonal entry equal to ``diag`` and every
    other entry equal to ``off`` exactly, for an integer matrix or a stack
    (..., n, m) of them: the Gram target (diag - off) I + off J, compared
    with the two scalars and never built.

    With M = max |a_ij| and m the row length, every product a_ij a_kj and
    every partial sum of a row's products is an integer of modulus at most
    m M^2.  When m M^2 <= 2^53 and neither |diag| nor |off| exceeds 2^53,
    float64 holds all of them exactly, so the float64 BLAS product is
    compared uncast, whatever its summation order, FMA use or thread count.
    (Float64 rounds a target 2^53 + 1 to 2^53, the Gram of [2^26, 2^26].)
    M comes from Python ints: np.abs(INT64_MIN) is negative.  Otherwise the
    int64 einsum is the exact path (integer matmul has no BLAS kernel).
    """
    a = np.asarray(a)
    m = max(-int(a.min()), int(a.max())) if a.size else 0
    if a.shape[-1] * m * m <= 1 << 53 and max(abs(diag), abs(off)) <= 1 << 53:
        f = a.astype(np.float64)
        gram = f @ f.swapaxes(-1, -2)
    else:
        a = a.astype(np.int64)
        gram = np.einsum("...ij,...kj->...ik", a, a)
    # A writable view of every diagonal: checked, then set to off, so one
    # comparison covers the rest.
    diagonal = np.einsum("...ii->...i", gram)
    if not (diagonal == diag).all():
        return False
    diagonal[...] = off
    return bool((gram == off).all())


def _moduli_fault(a: np.ndarray, r: int, t: int) -> Optional[str]:
    """The first test that an integer matrix or stack (..., n, n) fails:
    "diagonal" unless every diagonal entry has modulus r, "off-diagonal"
    unless every other entry has modulus t, "orthogonality" unless A A^T =
    (r^2 + (n - 1) t^2) I; else None.  2Q has moduli (2d, 2), a Hadamard
    matrix (1, 1), a conference matrix (0, 1)."""
    # np.abs of the most negative integer is itself, which matches no modulus.
    magnitudes = np.abs(a)
    diagonal = np.diagonal(magnitudes, axis1=-2, axis2=-1)
    if (diagonal != r).any():
        return "diagonal"
    # With the diagonal right, the count of entries of modulus t settles the rest.
    if np.count_nonzero(magnitudes == t) != a.size - (r != t) * diagonal.size:
        return "off-diagonal"
    if not _gram_equals(a, r * r + (a.shape[-1] - 1) * t * t, 0):
        return "orthogonality"
    return None


def verify_design(incidence, v: int, k: int, lam: int) -> bool:
    """Exact check that ``incidence`` is a symmetric (v, k, lam)-design matrix.

    Requires A in {0,1}^{v x v} with A A^T = (k - lam) I + lam J, and
    v > k > lam >= 1; the diagonal of A A^T is then the row sums, so
    A J = k J.  The degenerate lam = 0 designs (k = 1, a permutation
    matrix) are left to ``SymmetricDesign``.  Any other input, one that is
    no square matrix of integers in the int64 range included, gives False.
    """
    return lam >= 1 and _design_incidence(incidence, v, k, lam) is not None


def _design_incidence(incidence, v: int, k: int, lam: int) -> Optional[np.ndarray]:
    """``incidence`` as a new int64 array if it is a symmetric (v, k, lam)-design
    matrix with v > k > lam >= 0, else None."""
    try:
        a = _as_int_matrix(incidence)
    except (TypeError, ValueError):
        return None
    if (v > k > lam >= 0 and a.shape == (v, v)
            and bool(np.all((a == 0) | (a == 1))) and _gram_equals(a, k, lam)):
        return a
    return None


@dataclass(frozen=True)
class SymmetricDesign:
    """A verified symmetric (v, k, lam)-design with its 0/1 incidence matrix;
    lam = 0 admits the degenerate (v, 1, 0) designs."""

    v: int
    k: int
    lam: int
    incidence: np.ndarray
    degenerate: bool = field(init=False)

    def __post_init__(self):
        a = _design_incidence(self.incidence, self.v, self.k, self.lam)
        if a is None:
            raise DesignInvalidError(
                f"not a symmetric ({self.v}, {self.k}, {self.lam})-design"
            )
        a.setflags(write=False)
        object.__setattr__(self, "incidence", a)
        object.__setattr__(self, "degenerate", self.lam == 0)


def identity_design(v: int) -> SymmetricDesign:
    """The degenerate (v, 1, 0)-design whose incidence matrix is the identity."""
    return SymmetricDesign(v=v, k=1, lam=0, incidence=np.eye(v, dtype=np.int64))


def verify_hadamard(matrix) -> bool:
    """True iff the matrix is a (real or complex) Hadamard matrix: unimodular
    entries and H H* = N I, exactly for the real kind (+-1 entries)."""
    return _verify_unimodular(matrix, DEFAULT_TOL, conference=False)


def verify_conference(matrix) -> bool:
    """True iff the matrix is a (real or complex Hermitian) conference matrix:
    zero diagonal, unimodular off-diagonal entries and C C* = (N-1) I, exactly
    for the real kind (+-1 off the diagonal)."""
    return _verify_unimodular(matrix, DEFAULT_TOL, conference=True)


def _real_unimodular(matrix, conference: bool) -> Optional[np.ndarray]:
    """``matrix`` as a new int64 array if it is a real Hadamard matrix (a
    conference matrix when ``conference``), else None."""
    try:
        a = _as_int_matrix(matrix)
    except (TypeError, ValueError):
        return None
    return a if _moduli_fault(a, 1 - conference, 1) is None else None


def _verify_unimodular(matrix, tol: float, conference: bool) -> bool:
    """Whether every entry has modulus 1, except a zero diagonal when
    ``conference``, and M M* = (N - conference) I.  The real kind is checked
    exactly; the complex kind within tol per modulus and tol * N in the
    Frobenius norm of the Gram residual.  Anything that is no
    square matrix of the kind gives False: a ragged, 1-D, 3-D or empty
    array, a non-finite entry, or a real entry that is no int64 integer
    (an object array's None or 2**70 included)."""
    try:
        a = np.asarray(matrix)
        if not np.iscomplexobj(a):
            return _real_unimodular(a, conference) is not None
        a = as_square_matrix(a)
    except ValueError:
        return False
    n = a.shape[0]
    magnitudes = np.abs(a)
    if np.max(np.abs(np.diagonal(magnitudes) - (1 - conference))) > tol:
        return False
    np.fill_diagonal(magnitudes, 1)
    if np.max(np.abs(magnitudes - 1)) > tol:
        return False
    residual = a @ a.conj().T
    residual.flat[::n + 1] -= n - conference
    return bool(np.linalg.norm(residual) <= tol * n)


def sylvester_hadamard(order: int) -> np.ndarray:
    """Symmetric real Hadamard matrix of order 2^t with all-ones first row/column."""
    if order < 1 or order & (order - 1):
        raise BadOrderError(f"Sylvester order must be a power of 2, got {order}")
    h = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while h.shape[0] < order:
        h = np.kron(h, block)
    return h


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for f in range(2, int(math.isqrt(q)) + 1):
        if q % f == 0:
            return False
    return True


def _legendre(a: int, q: int) -> int:
    a %= q
    if a == 0:
        return 0
    return 1 if pow(a, (q - 1) // 2, q) == 1 else -1


def paley_conference(order: int) -> np.ndarray:
    """Symmetric conference matrix of order q+1 (q an odd prime, q = 1 mod 4).

    Built from the quadratic-residue character on GF(q); already in the
    bordered standard form (zero diagonal, all-ones first row and column).
    """
    q = order - 1
    if not (_is_prime(q) and q % 4 == 1):
        raise BadOrderError(
            f"order {order} needs q = {q} to be a prime with q = 1 (mod 4)"
        )
    c = np.ones((order, order), dtype=np.int64)
    c[0, 0] = 0
    chi = np.array([_legendre(x, q) for x in range(q)], dtype=np.int64)
    idx = np.arange(q)
    c[1:, 1:] = chi[(idx[:, None] - idx[None, :]) % q]
    if not verify_conference(c):
        raise DesignInvalidError(f"Paley matrix of order {order} is not a conference matrix")
    return c


def fourier_complex_hadamard(order: int) -> np.ndarray:
    """Complex Hadamard matrix H_jk = exp(2*pi*i*j*k / N), 0-based indices."""
    if order < 1:
        raise BadOrderError("order must be positive")
    # The result is asked for first and filled in place, so an order too
    # large to hold is refused before anything else is allocated.
    h = np.empty((order, order), dtype=complex)
    j = np.arange(order)
    np.multiply.outer(j, j, out=h)
    h *= 2j * np.pi
    h /= order
    return np.exp(h, out=h)


def _zeros_to_diagonal(a: np.ndarray) -> np.ndarray:
    """Row-permute a conference-like matrix so its zeros sit on the diagonal."""
    near_zero = np.abs(a) <= DEFAULT_TOL
    if not np.all(near_zero.sum(axis=0) == 1) or not np.all(near_zero.sum(axis=1) == 1):
        raise NotNormalizableError("zero entries do not form a permutation pattern")
    if np.all(np.diagonal(near_zero)):
        return a
    cols = np.argmax(near_zero, axis=1)
    order = np.argsort(cols)
    return a[order]


def _unit_phase(x: np.ndarray) -> np.ndarray:
    """The entrywise scaling that takes x to ones: conj(x)/|x|, or sign(x) for
    real x.  A zero first entry, the corner of a conference matrix, counts as 1."""
    if abs(x[0]) <= DEFAULT_TOL:
        x = x.copy()
        x[0] = 1
    if np.iscomplexobj(x):
        return x.conj() / np.abs(x)
    return np.sign(x).astype(np.int64)


def normalize_to_standard(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a Hadamard or conference matrix to the bordered standard form.

    Returns ``(standardized, core)`` where the standardized matrix has an
    all-ones first row and first column (and zero diagonal for conference
    matrices) and ``core`` is its lower-right (N-1) x (N-1) block.

    Columns are dephased by the first row, then rows by the first column:
    real matrices by sign flips, complex ones by unimodular scalings.
    Hermitian conference inputs are dephased instead by a unitary diagonal
    congruence D C D*, which preserves hermiticity/symmetry; a
    conference-like matrix whose zeros are off the diagonal is first repaired
    by a row permutation (and rejected if its zeros are not a permutation
    pattern).  Zeros and hermiticity are judged within DEFAULT_TOL.  A real
    Hadamard matrix must have exact integer entries.  The operation is
    idempotent and preserves the defining Gram identity.
    """
    a = as_square_matrix(matrix)
    is_conference = bool(np.any(np.abs(a) <= DEFAULT_TOL))
    if is_conference:
        a = _zeros_to_diagonal(a)
        if is_hermitian(a):
            # D C D* with D_j = C_0j (D_0 = 1) makes row and column 0 all ones
            # at once while preserving hermiticity.
            ref = a[0].copy()
            ref[0] = 1
            if np.any(np.abs(ref) <= DEFAULT_TOL):
                raise NotNormalizableError("first row contains unexpected zeros")
            dvec = _unit_phase(ref.conj())
            std = dvec[:, None] * a * dvec.conj()[None, :]
            return std, std[1:, 1:].copy()
    elif not np.iscomplexobj(a):
        a = _as_int_matrix(a)
    std = a * _unit_phase(a[0])[None, :]
    std = _unit_phase(std[:, 0])[:, None] * std
    return std, std[1:, 1:].copy()


class DesignParams(NamedTuple):
    """Design parameters (q, k, lam) matching a real MPS target (n, d)."""

    q: int
    k: int
    lam: int


def design_params_for(n: int, d: int) -> Optional[DesignParams]:
    """Parameters of the symmetric (n/2, k, lam)-design equivalent to M_n^R(d).

    For even n >= 6 and integer 0 <= d < n/2 - 1, a real MPS matrix with
    ratio d in [n/4 - 3/2, n/2 - 1) exists iff q = sqrt(n/2 + (n/2-1)(2d+2-n/2))
    is a non-negative integer and a symmetric (n/2, n/4 - q/2, (d-q+1)/2)-design
    exists.  Returns the triple when all integrality/range constraints hold,
    else None.
    """
    if n % 2 or n < 6:
        raise ValueError("n must be even and at least 6")
    if d != int(d) or d < 0:
        raise ValueError("d must be a non-negative integer")
    d = int(d)
    v = n // 2
    q2 = v + (v - 1) * (2 * d + 2 - v)
    if q2 < 0:
        return None
    q = math.isqrt(q2)
    if q * q != q2:
        return None
    if (v - q) % 2 or (d - q + 1) % 2:
        return None
    k = (v - q) // 2
    lam = (d - q + 1) // 2
    if not (v > k >= 1 and lam >= 0):
        return None
    # Algebraic inverses of the parameter map.
    if d != 2 * lam + q - 1 or n != 4 * k + 2 * q:
        raise DesignInvalidError(f"parameters (q={q}, k={k}, lambda={lam}) miss (n={n}, d={d})")
    return DesignParams(q=q, k=k, lam=lam)


def hadamard_to_design(hadamard) -> SymmetricDesign:
    """The symmetric (N-1, N/2-1, N/4-1)-design carried by a real Hadamard matrix.

    The matrix is normalized to the bordered form and the design incidence is
    A = (J + K)/2 with K the core.  Degenerate for N = 4 (lam = 0).
    """
    h = _real_unimodular(hadamard, conference=False)
    if h is None:
        raise ValueError("input is not a real Hadamard matrix")
    n = h.shape[0]
    if n < 4 or n % 4:
        raise BadOrderError(f"Hadamard order {n} is not a multiple of 4 (>= 4)")
    # Dephased by the first row, then the first column: +-1 is its own sign.
    core = h[0, 0] * h[1:, :1] * h[1:, 1:] * h[0, 1:]
    v = n - 1
    a = (np.ones((v, v), dtype=np.int64) + core) // 2
    return SymmetricDesign(v=v, k=n // 2 - 1, lam=n // 4 - 1, incidence=a)


def provider_hadamard(order: int) -> Optional[np.ndarray]:
    """Built-in real Hadamard matrix of the given order, if any: Sylvester's."""
    try:
        return sylvester_hadamard(order)
    except BadOrderError:
        return None


def provider_design(v: int, k: int, lam: int) -> Optional[SymmetricDesign]:
    """Built-in design providers for the requested parameters, if any.

    Covers the degenerate (v, 1, 0) identity designs and the Hadamard-derived
    (N-1, N/2-1, N/4-1) designs of the built-in Hadamard matrices of order N.
    """
    if k == 1 and lam == 0 and v >= 2:
        return identity_design(v)
    order = v + 1
    hadamard_params = (k, lam) == (order // 2 - 1, order // 4 - 1) and order >= 4
    h = provider_hadamard(order) if hadamard_params else None
    return None if h is None else hadamard_to_design(h)


def provider_conference(order: int) -> Optional[np.ndarray]:
    """Built-in symmetric conference matrix of the given order, if any."""
    try:
        return paley_conference(order)
    except BadOrderError:
        return None

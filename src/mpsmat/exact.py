"""Exact integer representation of real MPS matrices and their structure theory.

A real member of M_n(d) is a scaled symmetric orthogonal matrix; multiplying
by sqrt(d^2 + n - 1) gives a symmetric matrix Q with diagonal entries +-d and
off-diagonal entries +-1 satisfying Q Q^T = (d^2 + n - 1) I.  Admissible d are
integers (plus d = n/2 - 1 with denominator 2 when n is odd, and the n = 2
family), so 2Q is an integer matrix with moduli 2d and 2, and every identity
here is checked exactly.  Entries are converted and 2Q is checked by the
designs module's ``_as_int64`` and ``_moduli_fault``, which serve Hadamard
and conference matrices too; ``NotInRangeError`` is defined there.

Contents: the IntegerMps value type, the equivalence-group transforms
(simultaneous permutation, paired row/column sign flips, global negation),
reduction to the standard form, the three-row counting argument behind the
parity constraints, the block-structure extraction valid for d > n/6 - 1,
the design extraction valid for d >= n/4 - 3/2, and the bridge between
d = n/4 - 3/2 matrices and Hadamard matrices of order n/2 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .designs import (
    NotInRangeError,
    SymmetricDesign,
    _as_int64,
    _gram_equals,
    _moduli_fault,
    design_params_for,
    hadamard_to_design,
    verify_hadamard,
)

__all__ = [
    "IntegerMps",
    "Transform",
    "StandardForm",
    "StructureReport",
    "ThreeRowCounts",
    "StructureViolationError",
    "BlockTooSmallError",
    "NotInRangeError",
    "WrongRatioError",
    "ParameterMismatchError",
    "to_standard_form",
    "three_row_counts",
    "structure_check",
    "extract_design",
    "hadamard_bridge",
    "hadamard_to_mps",
    "full_j_mps",
    "two_by_two_mps",
    "upper_interval_mps",
    "conference_mps",
    "conference_block_mps",
    "design_mps",
]


class StructureViolationError(ValueError):
    """A structural identity that must hold for every valid matrix failed."""


class BlockTooSmallError(ValueError):
    """The leading diagonal block has fewer than three rows."""


class WrongRatioError(ValueError):
    """The matrix ratio does not equal the required d = n/4 - 3/2."""


class ParameterMismatchError(ValueError):
    """Design parameters do not match the requested (n, d)."""


def _as_fraction(d) -> Fraction:
    f = Fraction(d)
    if f < 0:
        raise ValueError("ratio d must be non-negative")
    return f


@dataclass(frozen=True)
class IntegerMps:
    """Exact real MPS matrix, stored as the doubled integer matrix 2Q.

    Invariants (validated on construction): 2Q is symmetric with off-diagonal
    entries +-2 and diagonal entries +-2d (an integer), and satisfies
    (2Q)(2Q)^T = (4d^2 + 4(n-1)) I exactly.
    """

    d: Fraction
    two_q: np.ndarray

    def __post_init__(self):
        d = _as_fraction(self.d)
        q = np.array(_as_int64(self.two_q))
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("2Q must be square")
        object.__setattr__(self, "d", d)
        q.setflags(write=False)
        object.__setattr__(self, "two_q", q)
        validate(self)

    @property
    def n(self) -> int:
        return self.two_q.shape[0]

    @property
    def two_d(self) -> int:
        return int(2 * self.d)

    @property
    def scale(self) -> float:
        """sqrt(d^2 + n - 1), the factor between Q and the unitary matrix."""
        return sqrt(float(self.d) ** 2 + self.n - 1)

    def matrix(self) -> np.ndarray:
        """The Hermitian unitary matrix S = Q / sqrt(d^2 + n - 1) (float)."""
        return self.two_q / (2.0 * self.scale)

    @property
    def p(self) -> int:
        """Number of non-negative diagonal entries (n when d = 0)."""
        return int(np.sum(np.diagonal(self.two_q) >= 0))

    def encode(self) -> bytes:
        """Total-order key: row-major codes with +d < +1 < -1 < -d as 0 < 1 < 2 < 3."""
        return encode_matrix(self.two_q).tobytes()

    def __eq__(self, other):
        if not isinstance(other, IntegerMps):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.two_q, other.two_q)

    def __hash__(self):
        return hash((self.d, self.two_q.tobytes()))

    @classmethod
    def from_two_q(cls, two_q) -> "IntegerMps":
        """Infer d from the diagonal of a doubled matrix and validate."""
        q = _as_int64(two_q)
        two_d = int(np.max(np.abs(np.diagonal(q)))) if q.size else 0
        return cls(d=Fraction(two_d, 2), two_q=q)


def validate(m: IntegerMps) -> None:
    """Exact validation of all IntegerMps invariants; raises ValueError."""
    n = m.n
    if n < 2:
        raise ValueError("order must be at least 2")
    two_d = 2 * m.d
    if two_d.denominator != 1:
        raise ValueError("2d must be an integer (denominator of d divides 2)")
    two_d = int(two_d)
    if two_d * two_d + 4 * (n - 1) > np.iinfo(np.int64).max:
        raise NotInRangeError("4d^2 + 4n - 4 exceeds the int64 range of the exact checks")
    _check_two_q(m.two_q[None], two_d)


#: Matrices per chunk of _check_two_q.  Each chunk's temporaries (its
#: magnitudes and masks, the float64 copy and Gram product) grow with it:
#: at 1,024 (512 kB float64 temporaries at n = 8) glibc returned and refaulted
#: their pages each chunk, 2.5x slower.
_CHECK_CHUNK = 256


_TWO_Q_FAULTS = {"diagonal": "diagonal entries must be +-2d",
                 "off-diagonal": "off-diagonal entries must be +-2",
                 "orthogonality": "orthogonality (2Q)(2Q)^T = (4d^2 + 4n - 4) I fails"}


def _check_two_q(stack: np.ndarray, two_d: int) -> None:
    """Raise StructureViolationError unless every 2Q of a (k, n, n) stack is
    symmetric, +-2 off the diagonal and +-2d on it, with (2Q)(2Q)^T =
    (4d^2 + 4n - 4) I (in the int64 range, as the caller ensures)."""
    for lo in range(0, stack.shape[0], _CHECK_CHUNK):
        chunk = stack[lo:lo + _CHECK_CHUNK]
        if not np.array_equal(chunk, chunk.swapaxes(1, 2)):
            raise StructureViolationError("2Q must be symmetric")
        fault = _moduli_fault(chunk, two_d, 2)
        if fault is not None:
            raise StructureViolationError(_TWO_Q_FAULTS[fault])


def encode_matrix(two_q: np.ndarray) -> np.ndarray:
    """Row-major uint8 codes: diagonal +2d -> 0, -2d -> 3; off-diag +2 -> 1, -2 -> 2.

    Takes one matrix (n, n) or a stack (..., n, n) and returns codes of shape
    (..., n*n).  Zero diagonal entries (d = 0) code as 0.  The byte string of
    one matrix's codes is the total order used for sorted search output and
    canonical minimality.
    """
    n = two_q.shape[-1]
    neg = two_q < 0
    codes = neg.astype(np.uint8) + np.uint8(1)
    idx = np.arange(n)
    codes[..., idx, idx] = 3 * neg[..., idx, idx]
    return codes.reshape(*two_q.shape[:-2], n * n)


@dataclass(frozen=True)
class Transform:
    """Element of the equivalence group acting on real MPS matrices.

    Applied to a matrix M it yields M'[a, b] = g * s[a] * s[b] * M[p[a], p[b]]:
    simultaneous row/column permutation p, paired row/column sign flips s
    (indexed by target position), and global sign g.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    global_sign: int = 1

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +-1 of length n")
        if self.global_sign not in (-1, 1):
            raise ValueError("global sign must be +-1")

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        p = np.asarray(self.perm)
        s = np.asarray(self.signs, dtype=matrix.dtype)
        out = matrix[np.ix_(p, p)] * np.outer(s, s)
        return self.global_sign * out

    def apply_mps(self, m: IntegerMps) -> IntegerMps:
        return IntegerMps(d=m.d, two_q=self.apply(m.two_q))

    def compose(self, inner: "Transform") -> "Transform":
        """Transform acting as self after inner: (self . inner)(M) = self(inner(M))."""
        p_in = inner.perm
        p_out = self.perm
        perm = tuple(p_in[p_out[a]] for a in range(len(p_out)))
        signs = tuple(self.signs[a] * inner.signs[p_out[a]] for a in range(len(p_out)))
        return Transform(perm=perm, signs=signs,
                         global_sign=self.global_sign * inner.global_sign)

    def inverse(self) -> "Transform":
        inv = tuple(int(x) for x in np.argsort(self.perm))
        signs = tuple(self.signs[inv[a]] for a in range(len(inv)))
        return Transform(perm=inv, signs=signs, global_sign=self.global_sign)


@dataclass(frozen=True)
class StandardForm:
    """A standard-form representative together with the transform reaching it.

    The matrix has its +d diagonal entries first (p of them, p >= n/2), the
    first row and column of the leading p x p block are -1 off the diagonal,
    and the first row and column of the trailing block are +1 off the
    diagonal.  ``transform.apply`` maps the original matrix to ``mps.two_q``.
    For d = 0 the convention p = n is used (no trailing block).
    """

    mps: IntegerMps
    p: int
    transform: Transform

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(Q_I, Q_II, Q_III, Q_IV) of the doubled matrix, split at p."""
        q = self.mps.two_q
        p = self.p
        return q[:p, :p], q[:p, p:], q[p:, :p], q[p:, p:]


def _pin_signs(work: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Paired sign flips making row 0 of the leading p x p block -2 off the
    diagonal and row p of the trailing block +2 off it: (flipped, signs)."""
    n = work.shape[0]
    signs = np.ones(n, dtype=np.int64)
    for j in range(1, p):
        if work[0, j] != -2:
            signs[j] = -1
    for j in range(p + 1, n):
        if work[p, j] != 2:
            signs[j] = -1
    return work * np.outer(signs, signs), signs


def to_standard_form(m: IntegerMps) -> StandardForm:
    """Deterministic reduction to the standard form by equivalence operations.

    Global flip if fewer than half the diagonal entries are non-negative,
    stable sort of the diagonal (+d first), then sign flips pinning the first
    row/column of both diagonal blocks.  Standard forms are not unique across
    equivalent inputs; use canonical_form for a uniqueness contract.
    """
    q = m.two_q
    n = m.n
    two_d = m.two_d
    if two_d == 0:
        g = 1
        p = n
    else:
        pos = int(np.sum(np.diagonal(q) > 0))
        g = 1 if 2 * pos >= n else -1
        p = pos if g == 1 else n - pos
    work = g * q
    order = np.argsort(np.diagonal(work) < 0, kind="stable")
    work = work[np.ix_(order, order)]
    work, signs = _pin_signs(work, p)
    t = Transform(perm=tuple(int(x) for x in order),
                  signs=tuple(int(s) for s in signs), global_sign=g)
    out = IntegerMps(d=m.d, two_q=work)
    if not np.array_equal(t.apply(q), work):
        raise StructureViolationError("standard-form transform does not reproduce its matrix")
    return StandardForm(mps=out, p=p, transform=t)


@dataclass(frozen=True)
class ThreeRowCounts:
    """Column classification of three rearranged leading-block rows.

    ``branch`` is the sign of the chosen off-diagonal entry of the leading
    block.  ``ells`` counts the remaining n-3 columns by the sign pair of the
    two non-anchor rows: (+,+), (+,-), (-,+), (-,-).  The orthogonality of the
    three rows forces 4*ell_1 and 4*ell_4 to equal fixed linear expressions in
    n and d, which yields the parity constraint recorded in ``congruence_ok``
    and (for branch +1) the feasibility bound n - 6d - 6 >= 0.
    """

    branch: int
    ells: tuple[int, int, int, int]
    congruence_ok: bool
    slack: Fraction


def three_row_counts(sf: StandardForm, j: int, k: int) -> ThreeRowCounts:
    """Count the four column classes for rows (0, j, k) of the leading block.

    ``j`` and ``k`` are 0-based row indices with 1 <= j < k <= p-1.  Column
    signs are read after flipping every trailing column so that row 0 becomes
    all -1 there (an orthogonality-preserving column operation).
    """
    q = np.array(sf.mps.two_q)
    n = sf.mps.n
    p = sf.p
    d = sf.mps.d
    if p < 3:
        raise BlockTooSmallError("leading block needs at least 3 rows")
    if not (1 <= j < k <= p - 1):
        raise ValueError("need 1 <= j < k <= p-1 (0-based rows of the leading block)")
    for c in range(p, n):
        q[:, c] *= -np.sign(q[0, c]).astype(np.int64)
    branch = 1 if q[j, k] > 0 else -1
    r2, r3 = q[j], q[k]
    ells = [0, 0, 0, 0]
    for c in range(n):
        if c in (0, j, k):
            continue
        a, b = r2[c] > 0, r3[c] > 0
        ells[0 if (a and b) else 1 if a else 2 if b else 3] += 1
    ells_t = tuple(ells)
    if sum(ells_t) != n - 3:
        raise StructureViolationError(f"column classes {ells_t} do not sum to n - 3")
    if branch == 1:
        # 4*ell_4 = n - 2 + 2d and 4*ell_1 = n - 6 - 6d
        identities = 4 * ells_t[3] == n - 2 + 2 * d and 4 * ells_t[0] == n - 6 - 6 * d
        congruence_ok = (Fraction(n) + 2 * d - 2) % 4 == 0
        slack = Fraction(n) - 6 * d - 6
    else:
        # 4*ell_4 = n - 6 + 6d and 4*ell_1 = n - 2 - 2d
        identities = 4 * ells_t[3] == n - 6 + 6 * d and 4 * ells_t[0] == n - 2 - 2 * d
        congruence_ok = (Fraction(n) - 2 * d - 2) % 4 == 0
        slack = Fraction(0)
    if not identities:
        raise StructureViolationError(
            f"three-row counts {ells_t} break the branch {branch:+d} identities")
    return ThreeRowCounts(branch=branch, ells=ells_t, congruence_ok=congruence_ok,
                          slack=slack)


@dataclass(frozen=True)
class StructureReport:
    """The +-1 block G of a large-ratio matrix and its exact identities."""

    g: np.ndarray
    normal: bool
    commutes_with_j: bool
    gram_ok: bool
    standard: StandardForm


def _leading_block(p: int, two_d: int) -> np.ndarray:
    """2((d+1)I - J) of order p, the doubled leading block of the block form."""
    lead = np.full((p, p), -2, dtype=np.int64)
    np.fill_diagonal(lead, two_d)
    return lead


def _zero_ratio_split(m: IntegerMps) -> StandardForm:
    """Block split for the boundary case d = 0 = n/4 - 3/2 (order 6 only).

    With a zero diagonal the split into blocks is not dictated by diagonal
    signs; enumerate index subsets of size n/2 (first in lexicographic order
    wins) and sign-normalize until the diagonal blocks match (d+1)I - J and
    its negative exactly.
    """
    from itertools import combinations

    q = m.two_q
    n = m.n
    p = n // 2
    lead = _leading_block(p, 0)
    for subset in combinations(range(n), p):
        order = list(subset) + [i for i in range(n) if i not in subset]
        work = q[np.ix_(order, order)]
        cand, signs = _pin_signs(work, p)
        if np.array_equal(cand[:p, :p], lead) and np.array_equal(cand[p:, p:], -lead):
            t = Transform(perm=tuple(order), signs=tuple(int(s) for s in signs))
            return StandardForm(mps=IntegerMps(d=m.d, two_q=cand), p=p, transform=t)
    raise StructureViolationError("no block split matches the forced structure")


def structure_check(m: IntegerMps) -> StructureReport:
    """Extract the block structure forced for n/6 - 1 < d < n/2 - 1.

    Brings the matrix to standard form; in this ratio range the diagonal
    blocks are forced to (d+1)I - J and its negative with p = n/2, and the
    off-diagonal block G (+-1 entries) must be normal, commute with J, and
    satisfy G G^T = (n - 2d - 2) I + (2d + 2 - n/2) J.  A failure of any of
    these would contradict the classification and raises
    StructureViolationError.

    The boundary case d = n/4 - 3/2 = n/6 - 1 (order 6 with ratio 0, where
    the split is not determined by diagonal signs) is also accepted so the
    Hadamard bridge covers it.
    """
    n = m.n
    d = m.d
    boundary = d == 0 and n == 6
    if not (Fraction(n, 6) - 1 < d < Fraction(n, 2) - 1 or boundary):
        raise NotInRangeError("structure extraction needs n/6 - 1 < d < n/2 - 1")
    if boundary:
        sf = _zero_ratio_split(m)
    else:
        sf = to_standard_form(m)
    if 2 * sf.p != n:
        raise StructureViolationError(f"expected p = n/2, found p = {sf.p}")
    p = sf.p
    q1, q2, _, q4 = sf.blocks
    lead = _leading_block(p, m.two_d)
    if not np.array_equal(q1, lead):
        raise StructureViolationError("leading block is not (d+1)I - J")
    if not np.array_equal(q4, -lead):
        raise StructureViolationError("trailing block is not -(d+1)I + J")
    g = (q2 // 2).astype(np.int64)
    jp = np.ones((p, p), dtype=np.int64)
    ggt = g @ g.T
    normal = bool(np.array_equal(ggt, g.T @ g))
    commutes = bool(np.array_equal(g @ jp, jp @ g))
    alpha = n - 2 * d - 2
    beta = 2 * d + 2 - Fraction(n, 2)
    if alpha.denominator != 1 or beta.denominator != 1:
        raise StructureViolationError("d must be an integer in this range")
    gram_ok = _gram_equals(g, int(alpha + beta), int(beta))
    if not (normal and commutes and gram_ok):
        raise StructureViolationError(
            f"G identities failed: normal={normal}, "
            f"commutes_with_j={commutes}, gram={gram_ok}"
        )
    return StructureReport(g=g, normal=normal, commutes_with_j=commutes,
                           gram_ok=gram_ok, standard=sf)


def _block_and_row_sum(m: IntegerMps) -> tuple[np.ndarray, int]:
    """The structure block G of m and its constant row sum mu."""
    g = structure_check(m).g
    row_sums = g.sum(axis=1)
    if not np.all(row_sums == row_sums[0]):
        raise StructureViolationError("G does not have constant row sums")
    return g, int(row_sums[0])


def extract_design(m: IntegerMps) -> SymmetricDesign:
    """Recover the symmetric (n/2, k, lam)-design behind a matrix with
    n/4 - 3/2 <= d < n/2 - 1.

    The all-ones vector is an eigenvector of the structure block G with
    eigenvalue +-q; after flipping G to -G if needed (a sign equivalence on
    the trailing rows and columns), A = (G + J)/2 is the incidence matrix of a
    verified (n/2, n/4 - q/2, (d - q + 1)/2)-design (degenerate when lam = 0).
    """
    n = m.n
    d = m.d
    if not (Fraction(n, 4) - Fraction(3, 2) <= d < Fraction(n, 2) - 1):
        raise NotInRangeError("design extraction needs n/4 - 3/2 <= d < n/2 - 1")
    g, mu = _block_and_row_sum(m)
    q = abs(mu)
    v = n // 2
    params = design_params_for(n, int(d))
    if params is None or params.q != q:
        raise StructureViolationError("row-sum eigenvalue does not match q")
    if mu > 0:
        g = -g
    a = (g + 1) // 2
    return SymmetricDesign(v=v, k=params.k, lam=params.lam, incidence=a)


def hadamard_bridge(m: IntegerMps) -> np.ndarray:
    """Border the structure block of a d = n/4 - 3/2 matrix into a Hadamard
    matrix of order n/2 + 1.

    The border row/column is all ones with corner -mu, where mu = +-1 is the
    row sum of G.  Exact: the result satisfies H H^T = (n/2 + 1) I in integers.
    """
    n = m.n
    if m.d != Fraction(n, 4) - Fraction(3, 2):
        raise WrongRatioError("bridge needs d = n/4 - 3/2 exactly")
    g, mu = _block_and_row_sum(m)
    order = n // 2 + 1
    h = np.ones((order, order), dtype=np.int64)
    h[0, 0] = -mu
    h[1:, 1:] = g
    if not verify_hadamard(h):
        raise StructureViolationError("bordered matrix is not Hadamard")
    return h


def hadamard_to_mps(hadamard) -> IntegerMps:
    """Real MPS matrix of order n = 2(N-1) with d = n/4 - 3/2 from a Hadamard
    matrix of order N.

    design_mps on the matrix's design, whose structure block G = 2A - J is the
    normalized core; inverse of hadamard_bridge at the (n, d) level.
    """
    design = hadamard_to_design(hadamard)
    n = 2 * design.v
    return design_mps(design, n, Fraction(n, 4) - Fraction(3, 2))


def _block_scheme(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[A, B], [B*, -A]]: the block layout shared by every construction family."""
    p = a.shape[0]
    out = np.empty((2 * p, 2 * p), dtype=np.result_type(a, b))
    out[:p, :p] = a
    out[:p, p:] = b
    out[p:, :p] = b.conj().T
    np.negative(a, out=out[p:, p:])
    return out


def _assemble_block_form(n: int, d: Fraction, g: np.ndarray) -> IntegerMps:
    """Doubled matrix [[(d+1)I - J, G], [G^T, -(d+1)I + J]] for integer-block G."""
    return IntegerMps(d=d, two_q=_block_scheme(_leading_block(n // 2, int(2 * d)), 2 * g))


# ---------------------------------------------------------------------------
# Exact construction families (real members of M_n(d)).
# ---------------------------------------------------------------------------


def full_j_mps(n: int) -> IntegerMps:
    """I - (2/n)J scaled: Q = (n/2)I - J, a member of M_n^R(n/2 - 1), any n >= 2."""
    if n < 2:
        raise ValueError("order must be at least 2")
    return IntegerMps(d=Fraction(n, 2) - 1, two_q=_leading_block(n, n - 2))


def two_by_two_mps(d) -> IntegerMps:
    """The 2 x 2 family [[d, 1], [1, -d]] (exact when 2d is an integer)."""
    d = _as_fraction(d)
    two_d = 2 * d
    if two_d.denominator != 1:
        raise ValueError("exact 2x2 members need 2d integral")
    td = int(two_d)
    return IntegerMps(d=d, two_q=[[td, 2], [2, -td]])


def upper_interval_mps(n: int, d) -> IntegerMps:
    """The real endpoints of the interval family: d = n/2 - 1 or d = n/2 - 3.

    Both are block matrices with leading block (d+1)I - J; the off-diagonal
    block is J at the top endpoint and J - 2I at the bottom one.
    """
    if n % 2 or n < 4:
        raise ValueError("n must be even and at least 4")
    d = _as_fraction(d)
    if d not in (Fraction(n, 2) - 1, Fraction(n, 2) - 3):
        raise NotInRangeError("exact interval members exist at d = n/2 - 1 and n/2 - 3")
    g = np.ones((n // 2, n // 2), dtype=np.int64)
    if d == Fraction(n, 2) - 3:
        np.fill_diagonal(g, -1)
    return _assemble_block_form(n, d, g)


_NOT_CONFERENCE = "input is not a symmetric real conference matrix"


def _from_conference(d: Fraction, conference, doubled) -> IntegerMps:
    """``IntegerMps(d, doubled(C))`` for a symmetric real conference matrix C.

    Its validation is the conference check: for a square C of entries 0 and
    +-1, 2Q is a valid member exactly when C is a symmetric conference
    matrix, so a failure is reported as C's.  A wider entry could wrap onto
    +-2 when doubled, so it is refused first.
    """
    c = _as_int64(conference)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or not c.size or c.min() < -1 or c.max() > 1:
        raise ValueError(_NOT_CONFERENCE)
    try:
        return IntegerMps(d=d, two_q=doubled(c))
    except StructureViolationError as exc:
        raise ValueError(_NOT_CONFERENCE) from exc


def conference_mps(conference) -> IntegerMps:
    """A symmetric conference matrix of order n as a member of M_n^R(0)."""
    return _from_conference(Fraction(0), conference, lambda c: 2 * c)


def conference_block_mps(conference) -> IntegerMps:
    """Member of M_n^R(1) built from a symmetric conference matrix of order n/2.

    Blocks [[I + C, C - I], [C - I, -(I + C)]]; the real specialization
    (angle 0) of the conference-block family.
    """
    def doubled(c):
        eye = np.eye(len(c), dtype=np.int64)
        return _block_scheme(2 * (eye + c), 2 * (c - eye))

    return _from_conference(Fraction(1), conference, doubled)


def design_mps(design: SymmetricDesign, n: int, d) -> IntegerMps:
    """Member of M_n^R(d) from a symmetric (n/2, k, lam)-design.

    Requires (v, k, lam) = (n/2, n/4 - q/2, (d - q + 1)/2) for the integer
    q determined by (n, d); the structure block is G = 2A - J.
    """
    d = _as_fraction(d)
    if d.denominator != 1:
        raise ParameterMismatchError("design-built members need integer d")
    params = design_params_for(n, int(d))
    if params is None:
        raise ParameterMismatchError(f"no design parameters exist for (n, d) = ({n}, {d})")
    if (design.v, design.k, design.lam) != (n // 2, params.k, params.lam):
        raise ParameterMismatchError(
            f"design is ({design.v}, {design.k}, {design.lam}), "
            f"need ({n // 2}, {params.k}, {params.lam})"
        )
    g = 2 * design.incidence.astype(np.int64) - 1
    return _assemble_block_form(n, d, g)

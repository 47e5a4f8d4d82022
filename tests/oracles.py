"""Independent oracles the tests compare the library's fast paths against."""

import numbers
from fractions import Fraction
from itertools import chain

import numpy as np

from mpsmat.core import as_square_matrix
from mpsmat.designs import _as_int_matrix
from mpsmat.exact import _CHECK_CHUNK, IntegerMps, StructureViolationError, encode_matrix
from mpsmat.serialize import _NOT_PAIRS, FormatError
from mpsmat.search import _BLOCK, TooLargeError, _children, _decode, _row_plans, _two_d

#: Largest order naive_search enumerates; its 2^(n(n+1)/2) patterns grow fast.
_NAIVE_MAX_ORDER = 6


def naive_search(n: int, d) -> list[IntegerMps]:
    """Oracle enumeration with no pruning: try all 2^(n(n+1)/2) sign patterns.

    Independent of the backtracking path (a single vectorized filter over the
    full assignment space); practical for n <= 6.  Output sorted in the same
    fixed encoding as exhaustive_search for bit-for-bit comparison.
    """
    if n < 2 or n > _NAIVE_MAX_ORDER:
        raise TooLargeError(f"naive enumeration supports 2 <= n <= {_NAIVE_MAX_ORDER}")
    two_d = _two_d(Fraction(d))
    if two_d is None:
        return []
    iu, ju = np.triu_indices(n, k=1)
    n_off = len(iu)
    target = (two_d * two_d + 4 * (n - 1)) * np.eye(n, dtype=np.int32)
    if two_d == 0:
        diag_patterns = [np.zeros(n, dtype=np.int8)]
    else:
        diag_patterns = [
            np.where(((bits >> np.arange(n)) & 1) == 0, two_d, -two_d).astype(np.int8)
            for bits in range(1 << n)
        ]
    combos = 1 << n_off
    bits = (np.arange(combos, dtype=np.int64)[:, None] >> np.arange(n_off)[None, :]) & 1
    offs = np.where(bits == 0, 2, -2).astype(np.int8)
    hits = []
    base = np.zeros((combos, n, n), dtype=np.int8)
    base[:, iu, ju] = offs
    base[:, ju, iu] = offs
    for pat in diag_patterns:
        mats = base.copy()
        mats[:, np.arange(n), np.arange(n)] = pat
        grams = np.einsum("kij,klj->kil", mats.astype(np.int32), mats.astype(np.int32))
        good = np.all(grams == target[None, :, :], axis=(1, 2))
        for q in mats[good]:
            hits.append(q.astype(np.int64))
    hits.sort(key=lambda q: encode_matrix(q).tobytes())
    return [IntegerMps(d=d, two_q=q) for q in hits]


def standard_form_hits(n: int, d) -> np.ndarray:
    """Every standard-form matrix of order n with ratio d, as an int8 2Q stack.

    The search's own row plans and expansion kernel (which
    test_search_kernel holds to an int32 reference), walked depth first with
    no lex constraint between the rows of a diagonal block: each class
    comes back in every row ordering its blocks allow.
    """
    two_d = _two_d(Fraction(d))
    if two_d is None:
        return np.empty((0, n, n), dtype=np.int8)
    hits = []
    for plan in _row_plans(n, two_d, "up_to_equivalence"):
        stack = [(0, np.zeros((0, 1), dtype=np.int64))]
        while stack:
            r, block = stack.pop()
            if r == n:
                hits.append(block)
                continue
            row, _ = plan[r]
            step = max(1, _BLOCK // (len(row.diag) << (n - 1 - r)))
            for lo in range(0, block.shape[1], step):
                child = _children(block[:, lo:lo + step], n, row)
                if child.shape[1]:
                    stack.append((r + 1, child))
    return _decode(hits, n, two_d)


# --- The exact and float checks as they were built on n x n tables ---------
# The library's checks compare with two scalars in place of these tables; the
# tests hold them to the same return value, or the same exception class and
# message, as the versions below.

def gram_equals(a: np.ndarray, target: np.ndarray) -> bool:
    """Whether A A^T equals the n x n ``target`` exactly, for an integer
    matrix or a stack of them: float64 when every product and partial sum
    (at most m M^2) and every target entry is at most 2^53, else int64."""
    a = np.asarray(a)
    m = max(-int(a.min()), int(a.max())) if a.size else 0
    t = max(-int(target.min()), int(target.max())) if target.size else 0
    if a.shape[-1] * m * m <= 1 << 53 and t <= 1 << 53:
        f = a.astype(np.float64)
        return bool(np.all(f @ f.swapaxes(-1, -2) == target))
    a = a.astype(np.int64)
    return bool(np.all(np.einsum("...ij,...kj->...ik", a, a) == target))


def check_two_q(stack: np.ndarray, two_d: int) -> None:
    """The exact check of a 2Q stack against a target and a moduli table."""
    n = stack.shape[-1]
    target = (two_d * two_d + 4 * (n - 1)) * np.eye(n, dtype=np.int64)
    moduli = np.where(np.eye(n, dtype=bool), two_d, 2).astype(stack.dtype)
    for lo in range(0, stack.shape[0], _CHECK_CHUNK):
        chunk = stack[lo:lo + _CHECK_CHUNK]
        if not np.array_equal(chunk, chunk.swapaxes(1, 2)):
            raise StructureViolationError("2Q must be symmetric")
        bad = np.abs(chunk) != moduli
        if bad.any():
            if np.diagonal(bad, axis1=1, axis2=2).any():
                raise StructureViolationError("diagonal entries must be +-2d")
            raise StructureViolationError("off-diagonal entries must be +-2")
        if not gram_equals(chunk, target):
            raise StructureViolationError(
                "orthogonality (2Q)(2Q)^T = (4d^2 + 4n - 4) I fails")


def verify_unimodular(matrix, tol: float, conference: bool) -> bool:
    """The Hadamard (conference=False) or conference check against a moduli
    table and a Gram target."""
    a = as_square_matrix(matrix)
    n = a.shape[0]
    moduli = 1 - conference * np.eye(n, dtype=np.int64)
    target = (n - conference) * np.eye(n, dtype=np.int64)
    if not np.iscomplexobj(a):
        try:
            b = _as_int_matrix(a)
        except TypeError:
            return False
        return bool(np.array_equal(np.abs(b), moduli)) and gram_equals(b, target)
    if np.max(np.abs(np.abs(a) - moduli)) > tol:
        return False
    return bool(np.linalg.norm(a @ a.conj().T - target) <= tol * n)


def complex_array(rows) -> np.ndarray:
    """Rows of [re, im] cells as a complex array through one nested float
    conversion; FormatError for anything else."""
    try:
        cells = list(chain.from_iterable(rows))
        sizes = set(map(len, cells))
        kinds = set(map(type, chain.from_iterable(cells)))
    except TypeError as exc:
        raise FormatError(_NOT_PAIRS) from exc
    if not sizes <= {2} or not all(issubclass(k, numbers.Real) and k is not bool
                                   for k in kinds):
        raise FormatError(_NOT_PAIRS)
    try:
        a = np.array(rows, dtype=float)
    except OverflowError as exc:
        raise FormatError(_NOT_PAIRS) from exc
    except ValueError as exc:
        raise FormatError("complex rows must all have the same length") from exc
    return a.view(complex)[..., 0] if a.ndim == 3 else a.astype(complex)

"""Independent oracles the tests compare the library's fast paths against."""

from fractions import Fraction

import numpy as np

from mpsmat.exact import IntegerMps, encode_matrix
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

"""Independent oracles the tests compare the library's fast paths against."""

from fractions import Fraction

import numpy as np

from mpsmat.exact import IntegerMps, encode_matrix
from mpsmat.search import TooLargeError, _two_d

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

"""The packed sign-word search against the int32 row-product kernel it replaced.

The reference below is the earlier search layer, kept as an oracle: int16
candidate-tail tables, an int32 kernel that tests each (state, placed row,
tail) by integer matrix products, and a final encode plus lexsort.  It
searches every matrix, not one per sign-flip orbit, so it is independent of
the orbit expansion.  The sign-word search must reproduce its sorted output
bit for bit.
"""

from fractions import Fraction

import numpy as np
import pytest

from oracles import standard_form_hits
from mpsmat import search
from mpsmat.exact import encode_matrix
from mpsmat.search import (
    _decode,
    _Search,
    candidate_ratios,
    exhaustive_search,
)


def _ref_tails_for_row(n, row, diag_choices, fixed_tail):
    """All candidate (diagonal, trailing signs) tuples for one row, int16;
    ``fixed_tail`` pins trailing entries to +-2 (0 = free)."""
    width = n - row
    tail_len = width - 1
    if fixed_tail is None:
        fixed_tail = np.zeros(tail_len, dtype=np.int16)
    free_idx = np.flatnonzero(fixed_tail == 0)
    f = len(free_idx)
    combos = 1 << f
    tails = np.empty((combos, tail_len), dtype=np.int16)
    tails[:] = fixed_tail
    if f:
        bits = (np.arange(combos, dtype=np.int64)[:, None] >> np.arange(f)[None, :]) & 1
        tails[:, free_idx] = np.where(bits == 0, 2, -2).astype(np.int16)
    out = np.empty((combos * len(diag_choices), width), dtype=np.int16)
    for i, dv in enumerate(diag_choices):
        out[i * combos:(i + 1) * combos, 0] = dv
        out[i * combos:(i + 1) * combos, 1:] = tails
    return out


def _ref_row_plans(n, two_d, mode):
    if mode == "all":
        diag = (0,) if two_d == 0 else (two_d, -two_d)
        return [[_ref_tails_for_row(n, r, diag, None) for r in range(n)]]
    plans = []
    for p in (n,) if two_d == 0 else range((n + 1) // 2, n + 1):
        rows = []
        for r in range(n):
            diag = (two_d,) if r < p else (-two_d,)
            fixed = None
            if r == 0:
                fixed = np.zeros(n - 1, dtype=np.int16)
                fixed[: p - 1] = -2
            elif r == p and p < n:
                fixed = np.full(n - 1 - r, 2, dtype=np.int16)
            rows.append(_ref_tails_for_row(n, r, diag, fixed))
        plans.append(rows)
    return plans


def _ref_children(block, tails):
    """Extend each partial matrix by every tail that keeps all completed row
    pairs exactly orthogonal, by int32 row products."""
    nstates, r, n = block.shape
    prev = block.astype(np.int32)
    heads = prev[:, :, r]
    a = np.einsum("sil,sl->si", prev[:, :, :r], heads)
    b = prev[:, :, r:] @ tails.astype(np.int32).T
    si, ti = np.nonzero(np.all(a[:, :, None] + b == 0, axis=1))
    out = np.empty((len(si), r + 1, n), dtype=np.int8)
    out[:, :r, :] = block[si]
    out[:, r, :r] = heads[si].astype(np.int8)
    out[:, r, r:] = tails[ti].astype(np.int8)
    return out


def _two_ds(n):
    return [int(2 * d) for d in candidate_ratios(n)]


def _ref_hits(n, two_d, mode):
    """Every hit of the reference search, in its DFS order."""
    hits = []
    for plan in _ref_row_plans(n, two_d, mode):
        stack = [(1, plan[0].astype(np.int8)[:, None, :])]
        while stack:
            r, block = stack.pop()
            if r == n:
                hits.extend(block)
                continue
            child = _ref_children(block, plan[r])
            if child.shape[0]:
                stack.append((r + 1, child))
    return hits


def _ref_sorted(n, hits):
    """The reference's final step: encode every hit and lexsort the codes."""
    if not hits:
        return np.empty((0, n, n), dtype=np.int8)
    stack = np.stack(hits)
    return stack[np.lexsort(encode_matrix(stack).T[::-1])]


# (10, 4): rows 1 and 2 have 8 and 7 tail bits, so their spheres span
# several words and their radii exceed one word's 6 bits.
@pytest.mark.parametrize("n,two_ds", [(n, _two_ds(n)) for n in range(2, 10)] + [(10, [8])])
def test_all_mode_is_the_reference_bit_for_bit(n, two_ds):
    for two_d in two_ds:
        got = exhaustive_search(n, Fraction(two_d, 2)).two_q_stack
        want = _ref_sorted(n, _ref_hits(n, two_d, "all"))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (n, two_d)


def _ascends_in_blocks(q):
    """Whether every pair of adjacent rows r-1, r inside one diagonal block,
    r-1 not a block's first row (0 or p), has row r-1 <= row r off columns
    r-1 and r, reading each row as its negative entries in column order.
    p, the first row of the second block, counts the entries >= 0 on the
    diagonal."""
    n = len(q)
    p = int(np.sum(np.diagonal(q) >= 0))
    for r in range(2, n):
        if r not in (p, p + 1):
            cols = [c for c in range(n) if c not in (r - 1, r)]
            if list(q[r - 1, cols] < 0) > list(q[r, cols] < 0):
                return False
    return True


@pytest.mark.parametrize("n", range(2, 11))
def test_standard_form_hits_are_the_references(n):
    # The unpruned oracle is the reference's standard-form DFS, and the
    # search keeps exactly its hits whose rows ascend inside each block.
    for two_d in _two_ds(n):
        searcher = _Search(n, Fraction(two_d, 2), "up_to_equivalence", None, None)
        blocks = list(searcher.leaves())
        assert searcher.stop == "complete"
        ref = sorted(q.tobytes() for q in _ref_hits(n, two_d, "up_to_equivalence"))
        unpruned = standard_form_hits(n, Fraction(two_d, 2))
        assert sorted(q.tobytes() for q in unpruned) == ref, (n, two_d)
        got = sorted(q.tobytes() for q in _decode(blocks, n, two_d))
        want = [q.tobytes() for q in unpruned if _ascends_in_blocks(q)]
        assert got == sorted(want), (n, two_d)


@pytest.mark.parametrize("n", range(2, 8))
def test_truncated_search_is_a_prefix_of_the_complete_output(n):
    for d in candidate_ratios(n):
        full = exhaustive_search(n, d).two_q_stack
        for k in range(1, full.shape[0] + 2):
            res = exhaustive_search(n, d, max_results=k)
            assert np.array_equal(res.two_q_stack, full[:k]), (n, d, k)


def test_tables_match_their_definitions():
    assert np.array_equal(search._POPCOUNT16, [bin(v).count("1") for v in range(1 << 16)])
    big = np.array([0, 1, (1 << 40) - 1, (1 << 62) + 5], dtype=np.int64)
    assert search._popcount(big, 63).tolist() == [0, 1, 40, 3]
    pad = search._PAD
    for width, table in enumerate(search._SPHERES):
        columns = table.reshape(-1, 1 << width)
        assert columns.shape[0] == 2 * pad + width + 1
        assert not columns[:pad].any() and not columns[pad + width + 1:].any()
        for a in range(1 << width):
            for radius in range(width + 1):
                want = sum(1 << t for t in range(1 << width)
                           if bin(t ^ a).count("1") == radius)
                assert int(columns[pad + radius, a]) == want, (width, a, radius)

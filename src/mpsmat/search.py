"""Exhaustive search, canonical forms and equivalence for real MPS matrices.

The search enumerates symmetric sign assignments row by row on the doubled
integer matrix 2Q (diagonal +-2d, off-diagonal +-2), pruning every partial
assignment whose latest completed row fails the exact inner-product condition
against any earlier row.  Candidate rows are generated in vectorized blocks,
so the hot loop is a handful of integer matrix products per search level.

``up_to_equivalence`` mode restricts the enumeration to standard-form
matrices (sorted diagonal with p >= n/2, pinned first rows of both diagonal
blocks) -- every equivalence class contains such a representative -- and then
collapses the hits to canonical forms.

The canonical form is the lexicographically minimal matrix over the full
equivalence group (simultaneous permutations x paired sign flips x global
negation) in the fixed row-major encoding +d < +1 < -1 < -d.  Minimality is
found by exploiting the sign gauge: once a global sign and a leading row are
chosen, all sign flips are forced by making the leading row non-negative, so
only the orderings of the other n-1 rows remain.  They are searched by exact
partition refinement in the style of McKay, "Practical graph isomorphism"
(1981): with rows 0..k-1 placed, the row-major code orders the unplaced
vertices by their codes towards the placed rows, so a minimal ordering keeps
them in those ordered cells, and row k is fixed by the vertex picked from the
first cell.  Branches whose fixed rows exceed the best code so far are cut,
and so are branches that an automorphism of the gauge-fixed code matrix maps
onto an earlier branch.  Every cut removes only orderings that are larger
than, or equal to and lexicographically after, another ordering; so the
search returns the lexicographically first minimizing ordering, which is the
one a full scan of all (n-1)! orderings returns, and the canonical form and
its transform are the scan's exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .exact import IntegerMps, StructureViolationError, Transform, encode_matrix

__all__ = [
    "TooLargeError",
    "SearchResult",
    "candidate_ratios",
    "exhaustive_search",
    "naive_search",
    "canonical_form",
    "canonical_transform",
    "are_equivalent",
    "DEFAULT_SEARCH_MAX_ORDER",
]

DEFAULT_SEARCH_MAX_ORDER = 8

#: Largest 2d the int8 hit stacks hold.
_MAX_TWO_D = np.iinfo(np.int8).max

#: Cap on the number of rows held in one vectorized search block.
_BLOCK_ROWS = 1 << 16

#: Hits per int32 chunk of the final Gram check.
_CHECK_CHUNK = 4096


class TooLargeError(ValueError):
    """Order or ratio exceeds what the exact enumeration supports."""


def _two_d(d: Fraction) -> Optional[int]:
    """2d, or None off the half-integers; the int8 hit stacks need 2d <= 127."""
    if (2 * d).denominator != 1:
        return None
    if 2 * d > _MAX_TWO_D:
        raise TooLargeError(f"2d = {2 * d} exceeds the search maximum {_MAX_TWO_D}")
    return int(2 * d)


def candidate_ratios(n: int) -> list[Fraction]:
    """The half-integer candidate grid {j/2 : 0 <= j <= n-2} for order n.

    Any real MPS matrix has d on this grid: d <= n/2 - 1 always, and below
    that bound d must be a non-negative integer.
    """
    return [Fraction(j, 2) for j in range(0, n - 1)]


@dataclass
class SearchResult:
    """Search outcome: the hit matrices plus a completeness flag.

    ``complete`` is False when the search stopped early (budget exhausted or
    max_results reached before the tree was fully explored); the listed
    matrices are then a correct but possibly partial set.
    """

    n: int
    d: Fraction
    mode: str
    two_q_stack: np.ndarray
    complete: bool
    elapsed: float

    @property
    def count(self) -> int:
        return int(self.two_q_stack.shape[0])

    def matrices(self) -> list[IntegerMps]:
        return [IntegerMps(d=self.d, two_q=q) for q in self.two_q_stack]


def _tails_for_row(n: int, row: int, diag_choices: tuple[int, ...],
                   fixed_tail: Optional[np.ndarray]) -> np.ndarray:
    """All candidate (diagonal, trailing signs) tuples for one row, int16.

    ``fixed_tail`` pins individual trailing entries to +-2 (0 = free).
    """
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


def _row_plans(n: int, two_d: int, mode: str) -> list[list[np.ndarray]]:
    """Candidate-tail tables per row, one plan per explored diagonal layout."""
    if mode == "all":
        diag = (0,) if two_d == 0 else (two_d, -two_d)
        return [[_tails_for_row(n, r, diag, None) for r in range(n)]]
    if mode != "up_to_equivalence":
        raise ValueError(f"unknown mode {mode!r}")
    plans = []
    # d = 0 has no diagonal signs to split by: one layout, p = n (to_standard_form's).
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
            rows.append(_tails_for_row(n, r, diag, fixed))
        plans.append(rows)
    return plans


def _children(block: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Extend each partial matrix in ``block`` by every tail that keeps all
    completed row pairs exactly orthogonal."""
    nstates, r, n = block.shape
    prev = block.astype(np.int32)
    heads = prev[:, :, r]
    a = np.einsum("sil,sl->si", prev[:, :, :r], heads)
    t32 = tails.astype(np.int32)
    b = prev[:, :, r:] @ t32.T
    feasible = np.all(a[:, :, None] + b == 0, axis=1)
    si, ti = np.nonzero(feasible)
    out = np.empty((len(si), r + 1, n), dtype=np.int8)
    out[:, :r, :] = block[si]
    out[:, r, :r] = heads[si].astype(np.int8)
    out[:, r, r:] = tails[ti].astype(np.int8)
    return out


def _dfs(n: int, plan: list[np.ndarray], deadline: Optional[float],
         max_results: Optional[int]) -> tuple[list[np.ndarray], bool]:
    """Depth-first block search over one row plan."""
    results: list[np.ndarray] = []
    found = 0
    first = plan[0].astype(np.int8)[:, None, :]
    stack = [(1, first)]
    complete = True
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            complete = False
            break
        r, block = stack.pop()
        if r == n:
            if max_results is not None and found + block.shape[0] >= max_results:
                take = max_results - found
                results.append(block[:take])
                found = max_results
                complete = not stack and take == block.shape[0]
                break
            results.append(block)
            found += block.shape[0]
            continue
        tails = plan[r]
        limit = max(1, _BLOCK_ROWS // max(1, tails.shape[0]))
        pieces = []
        for lo in range(0, block.shape[0], limit):
            child = _children(block[lo:lo + limit], tails)
            if child.shape[0]:
                pieces.append(child)
        for child in reversed(pieces):
            for lo in range(0, child.shape[0], _BLOCK_ROWS):
                stack.append((r + 1, child[lo:lo + _BLOCK_ROWS]))
    return results, complete


def _sorted_stack(n: int, pieces: list[np.ndarray]) -> np.ndarray:
    if not pieces:
        return np.empty((0, n, n), dtype=np.int8)
    stack = np.concatenate(pieces, axis=0)
    codes = encode_matrix(stack)
    order = np.lexsort(codes.T[::-1])
    return stack[order]


def _check_stack(stack: np.ndarray, two_d: int) -> None:
    """Batch-verify the exact orthogonality identity over all hits.

    Works through the stack in chunks of int32 copies; a Gram entry is at
    most 4d^2 + 4n - 4 in absolute value, far inside the int32 range.
    """
    n = stack.shape[1]
    target = (two_d * two_d + 4 * (n - 1)) * np.eye(n, dtype=np.int32)
    for lo in range(0, stack.shape[0], _CHECK_CHUNK):
        chunk = stack[lo:lo + _CHECK_CHUNK].astype(np.int32)
        if not np.all(chunk @ chunk.transpose(0, 2, 1) == target):
            raise StructureViolationError(
                "a search hit fails (2Q)(2Q)^T = (4d^2 + 4n - 4) I")


def exhaustive_search(
    n: int,
    d,
    mode: str = "all",
    max_results: Optional[int] = None,
    budget_seconds: Optional[float] = None,
    max_order: int = DEFAULT_SEARCH_MAX_ORDER,
) -> SearchResult:
    """Enumerate the real MPS matrices of order n with ratio d, exactly.

    ``mode="all"`` lists every matrix; ``mode="up_to_equivalence"`` explores
    only standard-form assignments and returns one canonical representative
    per equivalence class.  Output is sorted in the fixed row-major encoding,
    so it is deterministic and independent of chunking.

    ``max_results`` stops the enumeration after that many hits,
    ``budget_seconds`` bounds the wall-clock time of the enumeration and of
    the canonicalization of its hits; both mark the result incomplete when
    they fire early.  In ``up_to_equivalence`` mode ``max_results`` caps the
    standard-form hits explored, so at most that many classes come back, and
    a budget that runs out between hits returns the classes found so far.
    """
    started = time.monotonic()
    if n < 2:
        raise ValueError("order must be at least 2")
    if n > max_order:
        raise TooLargeError(f"order {n} exceeds the search maximum {max_order}")
    d = Fraction(d)
    if d < 0:
        raise ValueError("d must be non-negative")
    two_d = _two_d(d)
    if two_d is None:
        return SearchResult(n=n, d=d, mode=mode,
                            two_q_stack=np.empty((0, n, n), dtype=np.int8),
                            complete=True, elapsed=time.monotonic() - started)
    deadline = None if budget_seconds is None else started + budget_seconds
    plans = _row_plans(n, two_d, mode)

    pieces: list[np.ndarray] = []
    complete = True
    for plan in plans:
        remaining = None if max_results is None else max_results - sum(
            p.shape[0] for p in pieces)
        if remaining is not None and remaining <= 0:
            complete = False
            break
        res, complete = _dfs(n, plan, deadline, remaining)
        pieces.extend(res)
        if not complete:
            break

    if mode == "up_to_equivalence":
        reps: dict[bytes, np.ndarray] = {}
        for q in (q for piece in pieces for q in piece):
            if deadline is not None and time.monotonic() > deadline:
                complete = False
                break
            cf, _ = canonical_transform(IntegerMps(d=d, two_q=q.astype(np.int64)))
            reps.setdefault(cf.encode(), cf.two_q.astype(np.int8))
        stack = _sorted_stack(n, [q[None, :, :] for q in reps.values()])
    else:
        stack = _sorted_stack(n, pieces)
    _check_stack(stack, two_d)
    return SearchResult(n=n, d=d, mode=mode, two_q_stack=stack,
                        complete=complete, elapsed=time.monotonic() - started)


def naive_search(n: int, d, max_order: int = 6) -> list[IntegerMps]:
    """Oracle enumeration with no pruning: try all 2^(n(n+1)/2) sign patterns.

    Independent of the backtracking path (a single vectorized filter over the
    full assignment space); practical for n <= 6.  Output sorted in the same
    fixed encoding as exhaustive_search for bit-for-bit comparison.
    """
    if n < 2 or n > max_order:
        raise TooLargeError(f"naive enumeration supports 2 <= n <= {max_order}")
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


def _least_ordering(codes: list[list[int]], first: int,
                    bound: Optional[list[int]]) -> Optional[tuple[list[int], list[int]]]:
    """Lexicographically first ordering starting at ``first`` that minimizes
    the row-major code of ``codes`` (a symmetric n x n code matrix), as
    ``(code, ordering)``; None unless that code is strictly below ``bound``.

    The search carries the ordered partition of the unplaced vertices
    described in the module docstring.  A child w is skipped when an automorphism of
    ``codes`` fixing the placed vertices maps an earlier kept child v to w,
    since every ordering through w then has an equal-code ordering through v
    that comes first: a swap of twins, or a product of the maps between
    leaves of equal code.
    """
    n = len(codes)
    best_code, best_order = bound, None
    autos: list[list[int]] = []
    tied_bound = False

    def descend(order: list[int], code: list[int], cells: list[list[int]]) -> None:
        nonlocal best_code, best_order, tied_bound
        if not cells:
            if best_code is None or code < best_code:
                best_code, best_order = code, order
            elif code == best_code:
                if best_order is None:
                    # A leaf equal to the bound maps the code matrix that
                    # set the bound onto this one, first vertex to first
                    # vertex, so both have the same least code.
                    tied_bound = True
                else:
                    gamma = [0] * n
                    for x, y in zip(best_order, order):
                        gamma[x] = y
                    autos.append(gamma)
            return
        branches = []
        for v in cells[0]:
            cv = codes[v]
            row = [cv[o] for o in order]
            row.append(cv[v])
            split = []
            for cell in cells:
                for c in (1, 2):
                    part = [x for x in cell if x != v and cv[x] == c]
                    if part:
                        row.extend([c] * len(part))
                        split.append(part)
            branches.append((row, v, split))
        least = min(row for row, _, _ in branches)
        prefix = code + least
        kept: list[int] = []
        for row, w, split in branches:
            if row != least:
                continue
            if tied_bound or (best_code is not None and prefix > best_code[:len(prefix)]):
                return
            if kept and _in_orbit(codes, w, kept, [g for g in autos
                                                   if all(g[o] == o for o in order)]):
                continue
            kept.append(w)
            descend(order + [w], prefix, split)

    rest = [x for x in range(n) if x != first]
    descend([], [], [[first], rest])
    if best_order is None:
        return None
    return best_code, best_order


def _in_orbit(codes: list[list[int]], w: int, kept: list[int],
              gens: list[list[int]]) -> bool:
    """Whether an automorphism of ``codes`` built from ``gens``, or a swap of
    twins, maps some vertex of ``kept`` to ``w``."""
    cw = codes[w]
    for v in kept:
        cv = codes[v]
        if cv[v] == cw[w] and all(cv[x] == cw[x] for x in range(len(codes))
                                  if x != v and x != w):
            return True
    orbit = {w}
    frontier = [w]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    return not orbit.isdisjoint(kept)


def canonical_transform(m: IntegerMps) -> tuple[IntegerMps, Transform]:
    """Canonical form plus a group element realizing it.

    Minimizes the row-major encoding over global sign, leading row choice and
    row ordering.  The paired sign flips are forced once the leading row is
    pinned to non-negative entries; the ordering is then found by exact
    partition refinement (``_least_ordering``).  Among equal codes the first
    global sign, then the first leading row, then the lexicographically first
    ordering wins, so the form and the transform are those of a scan over all
    2n (n-1)! candidates.  Two matrices are equivalent iff their canonical
    forms are identical.
    """
    n = m.n
    q = m.two_q
    two_d = m.two_d
    diag = np.diagonal(q)
    best_code: Optional[list[int]] = None
    best: Optional[tuple[int, list[int], np.ndarray]] = None
    for g in (1, -1):
        if two_d == 0:
            # Zero diagonal: the global sign changes the matrix but not the
            # leading diagonal code, so both branches must be searched.
            rows = range(n)
        else:
            # The (0, 0) code of a candidate is minimal iff its diagonal
            # entry is +d after the global sign, so other rows cannot win.
            rows = [i for i in range(n) if g * diag[i] > 0]
        for i1 in rows:
            sigma = np.ones(n, dtype=np.int64)
            mask = np.arange(n) != i1
            sigma[mask] = np.sign(g * q[i1, mask])
            signed = g * q * np.outer(sigma, sigma)
            found = _least_ordering(encode_matrix(signed).reshape(n, n).tolist(),
                                    i1, best_code)
            if found is not None:
                best_code, order = found
                best = (g, order, sigma)
    if best is None:
        raise StructureViolationError("no diagonal entry is +d under either global sign")
    g, order, sigma = best
    t = Transform(
        perm=tuple(int(x) for x in order),
        signs=tuple(int(sigma[x]) for x in order),
        global_sign=g,
    )
    return t.apply_mps(m), t


def canonical_form(m: IntegerMps) -> IntegerMps:
    """Lexicographically minimal equivalent matrix (see canonical_transform)."""
    cf, _ = canonical_transform(m)
    return cf


def are_equivalent(m1: IntegerMps, m2: IntegerMps) -> Optional[Transform]:
    """Equivalence witness mapping m1 to m2 exactly, or None.

    Requires matching (n, d); decided by canonical-form comparison with the
    witness reconstructed from the two canonicalizing transforms.
    """
    if m1.n != m2.n or m1.d != m2.d:
        raise ValueError("matrices must share the same (n, d)")
    c1, t1 = canonical_transform(m1)
    c2, t2 = canonical_transform(m2)
    if c1 != c2:
        return None
    witness = t2.inverse().compose(t1)
    if witness.apply_mps(m1) != m2:
        raise StructureViolationError("the equivalence witness does not map m1 to m2")
    return witness

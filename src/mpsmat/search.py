"""Exhaustive search, canonical forms and equivalence for real MPS matrices.

The search enumerates symmetric sign assignments row by row on the doubled
integer matrix 2Q (diagonal +-2d, off-diagonal +-2), pruning every partial
assignment whose latest completed row fails the exact inner-product condition
against any earlier row.  A placed row is one integer of sign bits (column c
at bit n-1-c, a set bit for a negative entry).  Every entry has modulus 2 or
2d, so two rows are orthogonal iff their signs disagree in a set number of
columns: the candidates for the next row are the AND of one precomputed
Hamming sphere per placed row, taken over blocks of states.  Candidates come
out in ascending code order.  ``all`` mode searches one matrix per orbit of
the paired sign flips S -> DSD, D = diag(+-1): the one whose row 0 is + off
the diagonal.  The orbits are written out by XOR masks on the sign words and
sorted chunk by chunk, decoded to the int8 2Q stack once, and every hit goes
through IntegerMps's exact check, _check_two_q.  count_search counts the
matrices without writing the orbits out: every orbit has exactly 2^(n-1)
members, so it checks the representatives as the DFS yields them and counts
2^(n-1) for each.

``up_to_equivalence`` mode restricts the enumeration to standard-form
matrices (sorted diagonal with p >= n/2, pinned first rows of both diagonal
blocks) -- every equivalence class contains such a representative -- and then
collapses the hits to canonical forms.  Inside each diagonal block it keeps
only row orderings whose adjacent rows ascend in their sign words off the
pair's own two columns, a lex constraint that every class's least standard
form meets (_Search.leaves proves it); so one class yields a few hits, not
up to 2 p! (n-p)! of them.

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

import functools
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .exact import IntegerMps, StructureViolationError, Transform, _check_two_q, encode_matrix

__all__ = [
    "TooLargeError",
    "SearchResult",
    "SearchCount",
    "candidate_ratios",
    "count_search",
    "exhaustive_search",
    "canonical_form",
    "canonical_transform",
    "are_equivalent",
]

_log = logging.getLogger(__name__)

#: Largest 2d the int8 hit stacks hold.
_MAX_TWO_D = np.iinfo(np.int8).max

#: Cap on states x candidate rows in one call of the expansion kernel, and so
#: on the children of one call (unless one state alone has more candidates).
_BLOCK = 1 << 16

#: Tail bits covered by one uint64 sphere word (2**6 = 64 tails).
_WORD_BITS = 6

#: Empty sphere columns on each side of the radii 0..width.  A tail split
#: over several words shifts a radius in [-1, w + 1] down by up to w - 6, so
#: the columns stay in range for n <= 64.
_PAD = 64

_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _popcount_table() -> np.ndarray:
    """Set bits of every 16-bit value, by doubling: the values with top bit
    set have one more than those without."""
    table = np.zeros(1, dtype=np.uint8)
    for _ in range(16):
        table = np.concatenate([table, table + 1])
    return table


_POPCOUNT16 = _popcount_table()

#: Hits per chunk of _orbits; _decode's temporaries, and so peak memory, grow with it.
_CHUNK = 1 << 11

#: Largest order the search tables are built for: at order 20 the last row's _radii
#: is 76 MB of int16, built through int64 temporaries, and the search peaks at 1.35 GB.
_KERNEL_MAX_ORDER = 20


class TooLargeError(ValueError):
    """Order or ratio exceeds what the exact enumeration supports."""


def _two_d(d: Fraction) -> Optional[int]:
    """2d, or None off the half-integers; the int8 hit stacks need 2d <= 127."""
    if (2 * d).denominator != 1:
        return None
    if 2 * d > _MAX_TWO_D:
        raise TooLargeError(f"2d = {2 * d} exceeds the search maximum {_MAX_TWO_D}")
    return int(2 * d)


def _check_order(n: int) -> None:
    """Raise unless 2 <= n <= _KERNEL_MAX_ORDER, the orders the search supports."""
    if n < 2:
        raise ValueError("order must be at least 2")
    if n > _KERNEL_MAX_ORDER:
        raise TooLargeError(f"order {n} exceeds the search maximum {_KERNEL_MAX_ORDER}")


def candidate_ratios(n: int) -> list[Fraction]:
    """The half-integer candidate grid {j/2 : 0 <= j <= n-2} for order n >= 2,
    checked against the search's order limit before anything is built.

    Any real MPS matrix has d on this grid: d <= n/2 - 1 always, and below
    that bound d must be a non-negative integer.
    """
    _check_order(n)
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


@dataclass
class SearchCount:
    """count_search's outcome: the number of matrices, checked through their
    sign-flip orbit representatives, and whether it is the whole total."""

    n: int
    d: Fraction
    count: int
    complete: bool
    elapsed: float


def _popcount(x: np.ndarray, bits: int) -> np.ndarray:
    """Set bits of each non-negative integer below 2**bits, by table lookup."""
    total = _POPCOUNT16[x & 0xFFFF].astype(np.int64)
    for shift in range(16, bits, 16):
        total += _POPCOUNT16[(x >> shift) & 0xFFFF]
    return total


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack the last axis (at most 64 flags, entry k to bit k) into uint64 words."""
    k = np.arange(bits.shape[-1], dtype=np.uint64)
    return np.bitwise_or.reduce(bits.astype(np.uint64) << k, axis=-1)


def _spheres(width: int) -> np.ndarray:
    """Hamming spheres in a ``width``-bit universe (width <= 6), one word each.

    Flat: entry ``(c << width) + a`` has bit t set iff t and a differ in
    exactly c - _PAD bits; the columns c outside [_PAD, _PAD + width] are
    empty, for radii no tail can meet.
    """
    t = np.arange(1 << width)
    dist = _POPCOUNT16[t[:, None] ^ t[None, :]]
    out = np.zeros((2 * _PAD + width + 1, 1 << width), dtype=np.uint64)
    out[_PAD:_PAD + width + 1] = _pack(dist[None, :, :] == np.arange(width + 1)[:, None, None])
    return out.ravel()


_SPHERES = [_spheres(width) for width in range(_WORD_BITS + 1)]


@dataclass(eq=False)
class _Row:
    """What the expansion kernel needs for row r of one diagonal layout."""

    n: int
    two_d: int
    r: int
    diag: np.ndarray     # allowed diagonal sign bits, ascending
    allowed: np.ndarray  # allowed tails, as words in the layout of _SPHERES

    @functools.cached_property
    def radii(self) -> np.ndarray:
        """Built when the search first reaches the row (see _radii)."""
        return _radii(self.n, self.two_d, self.r, self.diag)


def _allowed(w: int, pin_mask: int, pin_value: int) -> np.ndarray:
    """The tails t < 2**w with ``t & pin_mask == pin_value``, as sphere words."""
    t = np.arange(1 << w)
    return _pack(((t & pin_mask) == pin_value).reshape(-1, 1 << min(w, _WORD_BITS)))


def _radii(n: int, two_d: int, r: int, diag: np.ndarray) -> np.ndarray:
    """The sphere column, shifted left by the word's tail bits, that placed
    row i leaves open for row r's tail, for each diagonal sign bit of row r.

    Row (i << (r + 1)) + key, where key = (row i XOR row r's signs before
    column r) >> w: bit 0 is row i's sign at column r, bit r - c the
    disagreement at column c < r.  Rows i and r are orthogonal iff their
    tails differ in exactly h = (n - 2 + 2d*u)/2 - D bits, where D counts
    the disagreements before column r other than at column i, and
    u = 1 - [disagree at column i] - [disagree at column r].  An odd
    numerator or an h outside [0, w] selects an empty column.
    """
    w = n - 1 - r
    low = min(w, _WORD_BITS)
    key = np.arange(1 << (r + 1))
    x, z = key & 1, key >> 1
    e = (z[None, :] >> (r - 1 - np.arange(r))[:, None]) & 1
    d = (_popcount(z, r) - e)[..., None]
    e, x = e[..., None], x[:, None]
    twice_h = n - 2 + two_d * (1 - e - (x ^ diag)) - 2 * d
    h = np.where(twice_h % 2 == 0, np.clip(twice_h // 2, -1, w + 1), w + 1)
    return ((h + _PAD) << low).astype(np.int16).reshape(r << (r + 1), len(diag))


def _row_plans(n: int, two_d: int, mode: str) -> list[list[tuple[_Row, bool]]]:
    """The rows of every explored diagonal layout, in output order, each with
    whether the standard form's lex constraint (see _Search.leaves) binds it
    to the row before.  Equal rows of different layouts are one object, so
    they share their radii."""
    made: dict[tuple, _Row] = {}

    def row(r: int, diag: tuple[int, ...], pin_mask: int = 0, pin_value: int = 0) -> _Row:
        key = (r, diag, pin_mask, pin_value)
        if key not in made:
            made[key] = _Row(n, two_d, r, np.array(diag),
                             _allowed(n - 1 - r, pin_mask, pin_value))
        return made[key]

    if mode == "all":
        # Row 0's tail is pinned to +: one representative per sign-flip orbit.
        return [[(row(r, (0,) if two_d == 0 else (0, 1), 0 if r else (1 << (n - 1)) - 1), False)
                 for r in range(n)]]
    plans = []
    # d = 0 has no diagonal signs to split by: one layout, p = n (to_standard_form's).
    for p in (n,) if two_d == 0 else range((n + 1) // 2, n + 1):
        rows = []
        for r in range(n):
            if r == 0:
                # Standard form pins the entries (0, 1..p-1) to -1 ...
                pin = ((1 << (p - 1)) - 1) << (n - p)
                rows.append((row(r, (0,), pin, pin), False))
            elif r == p:
                # ... and the entries (p, p+1..n-1) to +1.
                rows.append((row(r, (1,), (1 << (n - 1 - r)) - 1, 0), False))
            else:
                # Row r is bound to row r-1 unless that is row 0 or p, a pinned
                # first row of a block.
                rows.append((row(r, (0 if r < p else 1,)), r >= 2 and r != p + 1))
        plans.append(rows)
    return plans


def _children(rows: np.ndarray, n: int, row: _Row) -> np.ndarray:
    """Extend each state in ``rows`` (placed rows 0..r-1 as sign words, one
    column per state) by every row r exactly orthogonal to all placed rows.

    Row r's signs before column r are fixed by symmetry; a candidate adds a
    diagonal sign bit and a tail over the w = n-1-r later columns.  Each
    placed row admits the tails on one Hamming sphere around its own tail
    (_radii), so the survivors are the AND of one sphere per placed row.
    Children come out in ascending word order when the states are sorted.
    """
    r, s = rows.shape
    w = n - 1 - r
    low = min(w, _WORD_BITS)
    high = rows >> w
    head = ((high & 1) << (n - 1 - np.arange(r))[:, None]).sum(axis=0)
    key = (high ^ (head >> w)) + (np.arange(r) << (r + 1))[:, None]
    col = np.take(row.radii, key, axis=0)[..., None]
    if w > low:
        # The tail spans 2**(w - low) words: word j holds the tails whose
        # high bits are j, so its sphere is narrower by their distance.
        far = (rows & ((1 << w) - 1)) >> low
        col = col - (_popcount(far[..., None] ^ np.arange(1 << (w - low)), w - low)
                     << low)[:, :, None, :]
    words = _SPHERES[low][col + (rows & ((1 << low) - 1))[:, :, None, None]]
    mask = np.bitwise_and.reduce(words, axis=0, initial=_ALL_BITS) & row.allowed
    # Bit t of word j of half k, in ascending (state, k, j, t) order, is
    # the candidate with diagonal bit row.diag[k] and tail j * 64 + t.
    nbytes = max(1, (1 << low) >> 3)
    raw = mask.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :nbytes]
    found = np.flatnonzero(np.unpackbits(raw.reshape(-1), bitorder="little"))
    per_half = (mask.shape[-1] * nbytes * 8).bit_length() - 1
    si, di = np.divmod(found >> per_half, len(row.diag))
    out = np.empty((r + 1, len(found)), dtype=np.int64)
    out[:r] = rows[:, si]
    out[r] = head[si] | (row.diag[di] << w) | (found & ((1 << per_half) - 1))
    return out


class _Search:
    """One search's checked arguments, its deadline and its row-plan DFS, and
    why it stopped: ``stop`` is ``complete`` unless a cause cut it short."""

    def __init__(self, n: int, d, mode: str, max_results: Optional[int],
                 budget_seconds: Optional[float]) -> None:
        self.started = time.monotonic()
        if mode not in ("all", "up_to_equivalence"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_results is not None and max_results < 1:
            raise ValueError("max_results must be at least 1")
        if budget_seconds is not None and math.isnan(budget_seconds):
            raise ValueError("budget_seconds must be a number, not NaN")
        _check_order(n)
        self.d = Fraction(d)
        if self.d < 0:
            raise ValueError("d must be non-negative")
        self.two_d = _two_d(self.d)
        self.n, self.mode, self.max_results, self.stop = n, mode, max_results, "complete"
        self.deadline = math.inf if budget_seconds is None else self.started + budget_seconds

    def expired(self) -> bool:
        """Whether the deadline has passed, which makes the budget the cause."""
        if time.monotonic() > self.deadline:
            self.stop = "budget"
        return self.stop == "budget"

    def leaves(self) -> Iterator[np.ndarray]:
        """Depth-first block search over the mode's row plans, in plan order:
        a block holds states as columns, row words (r, states).  Yields the hit
        blocks, (n, hits) ascending within each plan, in the narrowest unsigned
        type of n bits, since a full listing holds them all.  It stops when the
        deadline passes, the standard form's ``max_results`` hits are taken or
        the stack is empty; _orbits and count_search cut the all-mode hits.

        The standard form breaks the symmetry left inside its diagonal blocks
        by a lex constraint between adjacent rows, after Codish, Miller,
        Prosser and Stuckey, "Breaking symmetries in graph representation"
        (IJCAI 2013).  Where rows r-1 and r (r >= 2) lie in one block and row
        r-1 is neither 0 nor p, a child is kept only if w[r-1] <= w[r] off
        columns r-1 and r, with w the sign words.  Every class keeps a hit:

        Permuting rows and columns inside {1..p-1} and inside {p+1..n-1}
        maps standard forms to standard forms, since the diagonal and the
        pinned entries of rows 0 and p are constant on each block.  Let S be
        the least member of such an orbit, comparing the words row by row,
        and suppose S breaks the constraint at rows r-1 and r.  Their first
        difference off columns r-1 and r is at a column k where S[r-1][k] is
        - and S[r][k] is +.  Let T be S with r-1 and r swapped, an orbit
        member.  If k < r-1, rows i < k have S[i][r-1] = S[r-1][i] =
        S[r][i] = S[i][r], so T's rows before k are S's, and row k of T has
        + at column r-1 where S has -: T < S.  If k > r, T's rows before r-1
        are S's for the same reason, and T[r-1] equals S[r-1] on columns r-1
        and r (the diagonal, and the symmetric entry S[r-1][r] = S[r][r-1])
        and S[r] off them: T[r-1] < S[r-1], so T < S.  Either way S is not
        least.  So the least member of each orbit meets every constraint and
        is a hit, and every class, which holds a standard form, keeps one."""
        if self.two_d is None:
            return
        n, found = self.n, 0
        limit = None if self.mode == "all" else self.max_results
        word = np.min_scalar_type((1 << n) - 1)
        stack = [(0, plan, np.zeros((0, 1), dtype=np.int64))
                 for plan in reversed(_row_plans(n, self.two_d, self.mode))]
        while stack and not self.expired():
            r, plan, block = stack.pop()
            if r == n:
                if limit is not None and found + block.shape[1] >= limit:
                    if stack or found + block.shape[1] > limit:
                        self.stop = "max_results"
                    yield block[:, :limit - found].astype(word)
                    return
                found += block.shape[1]
                yield block.astype(word)
                continue
            row, lex = plan[r]
            step = max(1, _BLOCK // (len(row.diag) << (n - 1 - r)))
            pieces = [_children(block[:, lo:lo + step], n, row)
                      for lo in range(0, block.shape[1], step)]
            if lex:
                off = ((1 << n) - 1) ^ (3 << (n - 1 - r))  # all but columns r-1 and r
                pieces = [piece[:, (piece[r - 1] & off) <= (piece[r] & off)] for piece in pieces]
            # Pushed last to first, so the blocks pop in ascending order.
            stack.extend((r + 1, plan, child) for child in reversed(pieces) if child.shape[1])

    def log(self, label: str, found: int, count: int, phases: str, seconds) -> None:
        """The search's one DEBUG record on ``mpsmat.search``."""
        _log.debug("%s: %d representatives, %d matrices, stop %s, seconds (%s) %s", label,
                   found, count, self.stop, phases, np.round(seconds, 4).tolist())


def _orbits(reps: list[np.ndarray], search: _Search) -> list[np.ndarray]:
    """The orbits DRD, D = diag(+-1), of the ascending representative blocks
    ``reps`` in output order.  It stops at ``max_results`` hits, or between
    chunks after the deadline, and records why on ``search``.  Flip word F
    has bit n-1-c set where D_cc = -1, D_00 = +1.  Row i of DRD is row i XOR F,
    or XOR ~F where D_ii = -1, so row 0 is (diagonal bit, F): the output runs
    through F for the +d representatives, then the -d, one lexsort per chunk.
    """
    n = search.n
    reps = np.concatenate(reps or [np.empty((n, 0), np.uint8)], axis=1)
    flips, full = 1 << (n - 1), (1 << n) - 1
    total, found = reps.shape[1] * flips, 0
    cap = min(search.max_results or total, total)
    blocks: list[np.ndarray] = []
    for group in (g for g in np.split(reps, [np.count_nonzero(reps[0] == 0)], axis=1) if g.size):
        step = max(1, _CHUNK // group.shape[1])
        for lo in range(0, flips, step):
            if blocks and search.expired():
                return blocks
            f = np.arange(lo, min(lo + step, flips))
            masks = (f ^ ((f >> (n - 1 - np.arange(n))[:, None]) & 1) * full).astype(reps.dtype)
            hits = (group[:, None, :] ^ masks[:, :, None]).reshape(n, -1)
            blocks.append(hits[:, np.lexsort(hits[::-1])][:, :cap - found])
            found += blocks[-1].shape[1]
            if found == cap < total:
                if search.stop == "complete":  # a budget that cut the DFS stays the cause
                    search.stop = "max_results"
                return blocks
    return blocks


def _decode(blocks: list[np.ndarray], n: int, two_d: int) -> np.ndarray:
    """The int8 2Q stack of the hit blocks: a set sign bit means negative."""
    stack = np.empty((sum(b.shape[1] for b in blocks), n, n), dtype=np.int8)
    nbytes = (n + 7) // 8
    idx = np.arange(n)
    at = 0
    for block in blocks:
        raw = np.ascontiguousarray(block.T, dtype=">u8").view(np.uint8)
        raw = raw.reshape(-1, n, 8)[:, :, 8 - nbytes:]
        signs = np.unpackbits(raw, axis=-1)[:, :, 8 * nbytes - n:].astype(np.int8)
        diag = signs[:, idx, idx]
        signs *= -4
        signs += 2
        signs[:, idx, idx] = np.where(diag == 0, two_d, -two_d)
        stack[at:at + block.shape[1]] = signs
        at += block.shape[1]
    return stack


def exhaustive_search(
    n: int,
    d,
    mode: str = "all",
    max_results: Optional[int] = None,
    budget_seconds: Optional[float] = None,
) -> SearchResult:
    """Enumerate the real MPS matrices of order n with ratio d, exactly.

    ``mode="all"`` lists every matrix; ``mode="up_to_equivalence"`` explores
    only standard-form assignments whose rows ascend inside each diagonal
    block (the lex constraint of _Search.leaves, which every class meets)
    and returns one canonical representative per equivalence class.  Output
    is sorted in the fixed row-major encoding, so it is deterministic and
    independent of chunking.  In ``all`` mode
    ``max_results``, or a budget that runs out while the orbits are written
    out, leaves the first matrices of the complete output; a budget that runs
    out in the DFS of the orbit representatives leaves the first chunk of the
    orbits found so far, sorted and checked but not a prefix.

    ``max_results`` (at least 1) stops the enumeration after that many hits,
    ``budget_seconds`` (not NaN) bounds the wall-clock time of the enumeration
    and of the canonicalization of its hits; both mark the result incomplete
    when they fire early.  In ``up_to_equivalence`` mode ``max_results`` caps the
    standard-form hits explored, so at most that many classes come back, and
    a budget that runs out between hits returns the classes found so far.
    Each search logs one DEBUG record on ``mpsmat.search``: phase times, counts
    and the stop cause (``complete``, ``budget`` or ``max_results``).
    """
    search = _Search(n, d, mode, max_results, budget_seconds)
    blocks = list(search.leaves())
    found = sum(b.shape[1] for b in blocks)
    marks = [search.started, time.monotonic()]
    if mode == "all":
        blocks = _orbits(blocks, search)
    marks.append(time.monotonic())
    stack = _decode(blocks, n, search.two_d)
    marks.append(time.monotonic())

    if mode == "up_to_equivalence":
        reps: dict[bytes, np.ndarray] = {}
        for q in stack:
            if search.expired():
                break
            cf, _ = canonical_transform(IntegerMps(d=search.d, two_q=q.astype(np.int64)))
            reps.setdefault(cf.encode(), cf.two_q.astype(np.int8))
        # The keys are the row-major codes, so byte order is output order.
        stack = np.array([reps[key] for key in sorted(reps)], dtype=np.int8).reshape(-1, n, n)
    marks.append(time.monotonic())
    if len(stack):  # off the half-integer grid there is no 2d and no hit
        _check_two_q(stack, search.two_d)
    marks.append(time.monotonic())
    search.log(f"search n={n} d={search.d} mode={mode}", found, len(stack),
               "dfs, expand, decode, canonicalize, check", np.diff(marks))
    return SearchResult(n=n, d=search.d, mode=mode, two_q_stack=stack,
                        complete=search.stop == "complete", elapsed=marks[-1] - search.started)


def count_search(
    n: int,
    d,
    max_results: Optional[int] = None,
    budget_seconds: Optional[float] = None,
) -> SearchCount:
    """Count the real MPS matrices of order n with ratio d, exactly, without
    writing them out: ``exhaustive_search(n, d)``'s count and ``complete``.

    The all-mode DFS finds one representative per orbit of the paired sign
    flips S -> DSD, D = diag(+-1).  The off-diagonal entries are nonzero, so
    DSD = S forces D = +-I: the group {+-1}^n / +-I acts freely and every
    orbit has exactly 2^(n-1) members, of which the pinned row 0 picks one.
    Each block of representatives goes through the exact check _check_two_q
    as the DFS yields it and is then dropped, so memory follows the DFS stack,
    not the number of orbits.  The count is 2^(n-1) per checked
    representative, capped at ``max_results``.

    The arguments are validated as in exhaustive_search.  The budget is
    tested at every step of the DFS, so a budget-stopped count is 2^(n-1)
    times the representatives found, and checked, before the cut, with
    ``complete`` False.  When ``max_results`` is below the total, the DFS
    stops at the first block that takes the count past it, with ``complete``
    False.  Each count logs one DEBUG record on ``mpsmat.search``: the
    representatives found (up to that stop), the count, the stop cause (as in
    exhaustive_search) and the seconds of DFS and check.
    """
    search = _Search(n, d, "all", max_results, budget_seconds)
    flips = 1 << (n - 1)
    cap = math.inf if max_results is None else max_results
    found, check_seconds = 0, 0.0
    for block in search.leaves():
        mark = time.monotonic()
        _check_two_q(_decode([block], n, search.two_d), search.two_d)
        check_seconds += time.monotonic() - mark
        found += block.shape[1]
        # Only a representative past the cap shows that max_results, and not
        # the end of the search, cut the count; the DFS stops there.
        if found * flips > cap:
            search.stop = "max_results"
            break
    elapsed = time.monotonic() - search.started
    count = min(found * flips, cap)
    search.log(f"count n={n} d={search.d}", found, count, "dfs, check",
               [elapsed - check_seconds, check_seconds])
    return SearchCount(n=n, d=search.d, count=count, complete=search.stop == "complete",
                       elapsed=elapsed)


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
    diag = np.diagonal(q)
    best_code: Optional[list[int]] = None
    best: Optional[tuple[int, list[int], np.ndarray]] = None
    for g in (1, -1):
        # The (0, 0) code of a candidate is minimal iff its diagonal entry is
        # +d after the global sign, so other rows cannot win.  A zero diagonal
        # keeps every row under both signs: the global sign changes the
        # matrix but not the leading diagonal code.
        for i1 in (i for i in range(n) if g * diag[i] >= 0):
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

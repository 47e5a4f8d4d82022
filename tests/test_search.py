import hashlib
import itertools
import logging
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsmat import search
from mpsmat.classify import EXISTS, IMPOSSIBLE_STATUS, necessary_conditions
from mpsmat.exact import (
    IntegerMps,
    StructureViolationError,
    Transform,
    encode_matrix,
    full_j_mps,
    structure_check,
    upper_interval_mps,
)
from mpsmat.search import (
    TooLargeError,
    _decode,
    _orbits,
    _Search,
    are_equivalent,
    candidate_ratios,
    canonical_form,
    canonical_transform,
    count_search,
    exhaustive_search,
    naive_search,
)

# The admissible ratios for small orders; the search must reproduce these and
# find nothing anywhere else on the candidate grid.
SMALL_ORDER_RATIOS = {
    3: {Fraction(1, 2)},
    4: {Fraction(1)},
    5: {Fraction(3, 2)},
    6: {Fraction(0), Fraction(2)},
    7: {Fraction(5, 2)},
}


class TestCandidateRatios:
    def test_grid(self):
        assert candidate_ratios(5) == [Fraction(0), Fraction(1, 2), Fraction(1),
                                       Fraction(3, 2)]

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_order_below_two_rejected(self, n):
        with pytest.raises(ValueError):
            candidate_ratios(n)


class TestExhaustiveSearch:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_small_order_classification(self, n):
        nonempty = {d for d in candidate_ratios(n)
                    if exhaustive_search(n, d).count > 0}
        assert nonempty == SMALL_ORDER_RATIOS[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_naive_oracle_bit_for_bit(self, n):
        for d in candidate_ratios(n):
            pruned = exhaustive_search(n, d, mode="all")
            oracle = naive_search(n, d)
            got = pruned.two_q_stack.astype(np.int64)
            want = (np.stack([m.two_q for m in oracle])
                    if oracle else np.empty((0, n, n), dtype=np.int64))
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_results_are_valid_members(self):
        res = exhaustive_search(6, 2)
        assert res.complete
        for m in res.matrices():
            assert m.d == 2  # full IntegerMps validation runs on construction

    def test_max_results_stops_early(self):
        res = exhaustive_search(6, 2, max_results=5)
        assert res.count == 5
        assert not res.complete

    def test_budget_flag(self):
        res = exhaustive_search(8, 1, budget_seconds=0.0)
        assert not res.complete

    @pytest.mark.parametrize("mode", ["all", "up_to_equivalence"])
    def test_nan_budget_rejected(self, mode):
        # time.monotonic() > started + nan is never true, so NaN would mean no budget.
        with pytest.raises(ValueError, match="NaN"):
            exhaustive_search(6, 2, mode=mode, budget_seconds=float("nan"))

    def test_budget_covers_canonicalization(self, monkeypatch):
        # The clock stands still through the DFS and runs out during the
        # first canonicalization, so the loop must stop before the second.
        clock = [0.0]
        calls = []
        real = search.canonical_transform

        def expiring(*args, **kwargs):
            calls.append(1)
            clock[0] = 100.0
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "canonical_transform", expiring)
        res = exhaustive_search(8, 1, mode="up_to_equivalence", budget_seconds=1.0)
        assert len(calls) == 1
        assert res.count == 1
        assert not res.complete

    def test_max_results_caps_classes_in_equivalence_mode(self):
        # (6, 2) has two classes; one standard-form hit can only yield one.
        res = exhaustive_search(6, 2, mode="up_to_equivalence", max_results=1)
        assert res.count == 1
        assert not res.complete

    def test_non_integral_doubled_ratio_is_empty(self):
        res = exhaustive_search(6, Fraction(1, 3))
        assert res.count == 0 and res.complete

    def test_too_large(self):
        with pytest.raises(TooLargeError):
            exhaustive_search(9, 1)

    def test_largest_ratio_the_int8_stack_holds(self):
        # 2d = 126: [[d, 1], [1, -d]] up to the four sign choices.
        res = exhaustive_search(2, 63)
        assert res.complete and res.count == 4
        assert res.matrices()[0] == IntegerMps(d=63, two_q=np.array([[126, 2], [2, -126]]))

    @pytest.mark.parametrize("d", [64, 100, Fraction(255, 2)])
    def test_ratio_beyond_the_int8_stack_is_too_large(self, d):
        with pytest.raises(TooLargeError):
            exhaustive_search(2, d)
        with pytest.raises(TooLargeError):
            naive_search(2, d)

    def test_up_to_equivalence_two_classes_at_six_two(self):
        res = exhaustive_search(6, 2, mode="up_to_equivalence")
        assert res.complete
        assert res.count == 2
        reps = res.matrices()
        flags = {
            (are_equivalent(rep, full_j_mps(6)) is not None,
             are_equivalent(rep, upper_interval_mps(6, 2)) is not None)
            for rep in reps
        }
        assert flags == {(True, False), (False, True)}

    def test_up_to_equivalence_counts(self):
        assert exhaustive_search(6, 0, mode="up_to_equivalence").count == 1
        assert exhaustive_search(7, Fraction(5, 2),
                                 mode="up_to_equivalence").count == 1

    def test_canonical_mode_representatives_are_canonical(self):
        res = exhaustive_search(6, 2, mode="up_to_equivalence")
        for m in res.matrices():
            assert canonical_form(m) == m

    @pytest.mark.parametrize("n,d", [(6, 0), (6, 2), (7, Fraction(5, 2))])
    def test_up_to_equivalence_matches_full_partition(self, n, d):
        # Canonicalizing every matrix from the full enumeration must give
        # exactly the representative set the restricted search reports.
        full = exhaustive_search(n, d, mode="all")
        forms = {canonical_form(m).encode() for m in full.matrices()}
        reps = exhaustive_search(n, d, mode="up_to_equivalence")
        assert {m.encode() for m in reps.matrices()} == forms


def _plain_sort_key(q):
    """Row-major key +d -> 0, +1 -> 1, -1 -> 2, -d -> 3, written without numpy."""
    n = len(q)
    return [(0 if q[i][j] >= 0 else 3) if i == j else (1 if q[i][j] > 0 else 2)
            for i in range(n) for j in range(n)]


class TestHitOrder:
    def test_search_output_matches_plain_python_sort(self):
        hits = exhaustive_search(8, 3).two_q_stack.tolist()
        assert len(hits) == 9216
        assert hits == sorted(hits, key=_plain_sort_key)

    @pytest.mark.parametrize("n,d", [(6, 0), (6, 2), (7, Fraction(5, 2))])
    def test_stack_encoding_matches_per_matrix_encoding(self, n, d):
        stack = exhaustive_search(n, d).two_q_stack
        codes = encode_matrix(stack)
        assert codes.shape == (stack.shape[0], n * n)
        for q, row in zip(stack, codes):
            assert np.array_equal(row, encode_matrix(q))
        nested = stack.reshape(2, -1, n, n)
        assert np.array_equal(encode_matrix(nested), codes.reshape(2, -1, n * n))


def _search(n, d, mode="all", max_results=None):
    """The _Search of one search without a budget, and the leaf blocks of its DFS."""
    searcher = _Search(n, d, mode, max_results, None, n)
    return searcher, list(searcher.leaves())


def _dfs_hits(n, d, mode, max_results):
    """Raw hits of the one DFS over every row plan of the mode, in DFS order;
    in ``all`` mode the DFS finds the orbit representatives and _orbits
    writes their orbits out, cut at ``max_results``."""
    searcher, pieces = _search(n, d, mode, max_results)
    if mode == "all":
        pieces = _orbits(pieces, searcher)
    return [q.tobytes() for q in _decode(pieces, n, int(2 * d))], searcher.stop == "complete"


class TestStopConditions:
    @pytest.mark.parametrize("n, mode", [(n, mode) for n in range(2, 8)
                                         for mode in ("all", "up_to_equivalence")]
                             + [(8, "up_to_equivalence")])
    def test_max_results_truncates_the_same_hits(self, n, mode):
        for d in candidate_ratios(n):
            full, complete = _dfs_hits(n, d, mode, None)
            assert complete
            if mode == "up_to_equivalence":
                # Plans run in order, so the layout p (the +d count) never falls.
                diagonals = [np.frombuffer(q, np.int8)[::n + 1] for q in full]
                layouts = [int(np.sum(diag > 0)) for diag in diagonals]
                assert layouts == sorted(layouts)
            for k in range(1, len(full) + 2):
                hits, complete = _dfs_hits(n, d, mode, k)
                assert len(hits) == min(k, len(full))
                assert hits == full[:len(hits)]
                # All mode runs its DFS to the end.  The standard-form DFS stops
                # at the k-th hit, so at k == total it is complete only if no
                # branch is left: (8, 1) has branches past its last hit.
                assert complete == (k > len(full) or k == len(full) and (n, d) != (8, 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_truncated_search_reports_a_subset(self, n):
        for d in candidate_ratios(n):
            for mode in ("all", "up_to_equivalence"):
                full = exhaustive_search(n, d, mode=mode)
                forms = {q.tobytes() for q in full.two_q_stack}
                total = len(_dfs_hits(n, d, mode, None)[0])
                for k in range(1, total + 2):
                    res = exhaustive_search(n, d, mode=mode, max_results=k)
                    assert {q.tobytes() for q in res.two_q_stack} <= forms
                    # No standard-form DFS of order 7 or less has a branch
                    # left past its last hit.
                    assert res.complete == (k >= total)
                    if mode == "all":
                        assert res.count == min(k, total)

    @pytest.mark.parametrize("k", [0, -1])
    def test_max_results_below_one_rejected(self, k):
        with pytest.raises(ValueError):
            exhaustive_search(4, 1, max_results=k)

    @pytest.mark.parametrize("d", [1, Fraction(1, 3)])
    def test_unknown_mode_rejected_before_any_work(self, d):
        with pytest.raises(ValueError):
            exhaustive_search(4, d, mode="bogus")

    @pytest.mark.parametrize("n, d, word", [(2, 0, np.uint8), (8, 3, np.uint8),
                                            (9, Fraction(7, 2), np.uint16)])
    def test_hit_words_are_the_narrowest_unsigned_type(self, n, d, word):
        # The standard form at max_results 1 takes its hit through the cut.
        for mode, max_results in (("all", None), ("up_to_equivalence", 1)):
            _, pieces = _search(n, d, mode, max_results)
            assert pieces and all(p.dtype == word and p.shape[0] == n for p in pieces)


def _representatives(n, two_d):
    """The all-mode DFS hit blocks, one per sign-flip orbit, and their int8 2Q stack."""
    searcher, reps = _search(n, Fraction(two_d, 2))
    assert searcher.stop == "complete"
    return reps, _decode(reps, n, two_d)


def _chunk_ends(n, two_d):
    """Hit count after each chunk of the orbit expansion."""
    searcher, reps = _search(n, Fraction(two_d, 2))
    blocks = _orbits(reps, searcher)
    return np.cumsum([b.shape[1] for b in blocks]).tolist()


def _expire_after_the_dfs(monkeypatch):
    """The clock stands still through the DFS and runs out when it ends."""
    clock = [0.0]
    real = _Search.leaves

    def expiring(self):
        yield from real(self)
        clock[0] = 100.0

    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(_Search, "leaves", expiring)


def _expire_in_the_dfs(monkeypatch, clock):
    """Small blocks split the last row's states over several calls, and the
    clock runs out at the second, once some representatives are found."""
    calls = []
    real = search._children

    def expiring(rows, *args):
        calls.append(rows.shape[0])
        if calls.count(7) == 2:
            clock[0] = 100.0
        return real(rows, *args)

    monkeypatch.setattr(search, "_BLOCK", 64)
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(search, "_children", expiring)


def _record_checks(monkeypatch, expire=False):
    """The number of matrices of each _check_two_q call of the search.  With
    ``expire``, small blocks make several check blocks, and a fake clock
    runs out after the first."""
    checked = []
    clock = [0.0]
    real = search._check_two_q

    def recording(stack, two_d):
        real(stack, two_d)
        checked.append(len(stack))
        clock[0] = 100.0

    if expire:
        monkeypatch.setattr(search, "_BLOCK", 64)
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(search, "_check_two_q", recording)
    return checked


class TestOrbitExpansion:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_orbits_are_the_sign_flip_classes(self, n):
        # D M D with D_jj = sign(M_0j), D_00 = +1, maps every hit to the
        # member of its orbit whose row-0 tail is all +2.
        for d in candidate_ratios(n):
            hits = exhaustive_search(n, d).two_q_stack.astype(np.int64)
            _, reps = _representatives(n, int(2 * d))
            assert np.array_equal(reps, hits[np.all(hits[:, 0, 1:] == 2, axis=1)])
            signs = np.sign(hits[:, 0, :])
            signs[:, 0] = 1
            fixed = hits * signs[:, :, None] * signs[:, None, :]
            sizes = Counter(q.tobytes() for q in fixed)
            assert set(sizes) == {q.astype(np.int64).tobytes() for q in reps}
            assert set(sizes.values()) <= {1 << (n - 1)}
            assert len(hits) == (1 << (n - 1)) * len(reps)

    @pytest.mark.parametrize("chunk", [1, 5, search._CHUNK])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_max_results_at_every_chunk_edge(self, monkeypatch, n, chunk):
        monkeypatch.setattr(search, "_CHUNK", chunk)
        for d in candidate_ratios(n):
            full = exhaustive_search(n, d).two_q_stack
            total = len(full)
            ends = _chunk_ends(n, int(2 * d))
            assert ends[-1:] == ([total] if total else [])
            ks = {1, total - 1, total, total + 1}
            ks.update(e + delta for e in ends for delta in (-1, 0, 1))
            for k in sorted(k for k in ks if k >= 1):
                res = exhaustive_search(n, d, max_results=k)
                assert np.array_equal(res.two_q_stack, full[:k]), (n, d, k)
                assert res.complete == (k >= total), (n, d, k)

    def test_budget_fires_inside_the_expansion(self, monkeypatch):
        # The clock stands still through the DFS and runs out with it, so the
        # expansion writes its first chunk and stops at the next deadline test.
        full = exhaustive_search(8, 3).two_q_stack
        first = _chunk_ends(8, 6)[0]
        assert first < len(full)
        _expire_after_the_dfs(monkeypatch)
        res = exhaustive_search(8, 3, budget_seconds=1.0)
        assert not res.complete
        assert np.array_equal(res.two_q_stack, full[:first])

    def test_budget_fires_inside_the_representative_dfs(self, monkeypatch):
        # The result is a sorted subset of the complete output.
        full = {q.tobytes() for q in exhaustive_search(8, 3).two_q_stack}
        _expire_in_the_dfs(monkeypatch, [0.0])
        res = exhaustive_search(8, 3, budget_seconds=1.0)
        assert not res.complete and res.count
        hits = res.two_q_stack.tolist()
        assert hits == sorted(hits, key=_plain_sort_key)
        assert {q.tobytes() for q in res.two_q_stack} <= full


class TestCountSearch:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_exhaustive_search(self, n):
        for d in candidate_ratios(n):
            total = exhaustive_search(n, d).count
            for k in (None, 1, total - 1, total, total + 1):
                if k is not None and k < 1:
                    continue
                want = exhaustive_search(n, d, max_results=k)
                got = count_search(n, d, max_results=k)
                assert (got.count, got.complete) == (want.count, want.complete), (n, d, k)
                assert (got.n, got.d) == (n, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_naive_oracle(self, n):
        for d in candidate_ratios(n):
            res = count_search(n, d)
            assert res.complete and res.count == len(naive_search(n, d)), (n, d)

    @pytest.mark.parametrize("n, d, kwargs", [
        (1, 1, {}), (0, 1, {}), (9, 1, {}), (9, -1, {}), (4, -1, {}),
        (2, 64, {}), (3, Fraction(255, 2), {}), (1, -1, {"max_results": 0}),
        (4, 1, {"max_results": 0}), (4, 1, {"max_results": -1}),
        (1, 1, {"budget_seconds": float("nan")}), (4, 1, {"budget_seconds": float("nan")}),
        (11, 1, {"max_order": 10}),
    ])
    def test_bad_input_raises_as_exhaustive_search(self, n, d, kwargs):
        with pytest.raises(ValueError) as want:  # TooLargeError is a ValueError
            exhaustive_search(n, d, **kwargs)
        with pytest.raises(want.type) as got:
            count_search(n, d, **kwargs)
        assert got.type is want.type and str(got.value) == str(want.value)

    def test_off_grid_ratio_counts_nothing(self):
        res = count_search(6, Fraction(1, 3))
        assert res.count == 0 and res.complete

    @pytest.mark.parametrize("which", [0, -1])
    @pytest.mark.parametrize("row", [1, 7])
    def test_every_representative_is_checked(self, monkeypatch, which, row):
        # One sign bit of the first (which = 0) or the last (which = -1)
        # representative is flipped: at (row, 7) and not at (7, row), or the
        # diagonal sign of row 7.
        real = _Search.leaves

        def corrupted(self):
            blocks = [b.copy() for b in real(self)]
            blocks[which][row, which] ^= 1
            yield from blocks

        monkeypatch.setattr(_Search, "leaves", corrupted)
        with pytest.raises(StructureViolationError):
            count_search(8, 3)

    @pytest.mark.parametrize("n, d, k", [(10, 2, 1), (10, 0, 1_000_000)])
    def test_max_results_stops_the_dfs(self, monkeypatch, n, d, k):
        # No block is pulled from the DFS after the one that takes the count
        # past the cap.
        real, pulled = _Search.leaves, []

        def recording(self):
            for block in real(self):
                pulled.append(block.shape[1])
                yield block

        monkeypatch.setattr(_Search, "leaves", recording)
        res = count_search(n, d, max_results=k, max_order=n)
        assert (res.count, res.complete) == (k, False)
        flips = 1 << (n - 1)
        assert sum(pulled[:-1]) * flips <= k < sum(pulled) * flips

    def test_budget_fires_inside_the_dfs(self, monkeypatch):
        # The representatives found before the cut were checked, each block
        # while the DFS still ran, and counted.
        clock = [0.0]
        _expire_in_the_dfs(monkeypatch, clock)
        checked = _record_checks(monkeypatch)
        real, clocks = search._check_two_q, []

        def timed(stack, two_d):
            clocks.append(clock[0])
            real(stack, two_d)

        monkeypatch.setattr(search, "_check_two_q", timed)
        res = count_search(8, 3, budget_seconds=1.0)
        assert not res.complete
        assert checked and clocks == [0.0] * len(checked)
        assert res.count == (1 << 7) * sum(checked) > 0

    @pytest.mark.parametrize("max_results", [None, 5000])
    def test_budget_fires_between_check_blocks(self, monkeypatch, max_results):
        # A max_results above the checked count does not cap it.
        checked = _record_checks(monkeypatch, expire=True)
        reps, _ = _representatives(8, 6)
        assert len(reps) > 1
        res = count_search(8, 3, max_results=max_results, budget_seconds=1.0)
        assert checked == [reps[0].shape[1]]
        assert not res.complete
        assert res.count == (1 << 7) * checked[0] < 5000


class TestOrdersNineAndTen:
    """The all-mode classification of n = 9 and 10 through count_search."""

    COUNTS = {
        9: {Fraction(7, 2): 512},
        10: {Fraction(0): 2_580_480, Fraction(2): 15_482_880, Fraction(4): 130_048},
    }

    @pytest.mark.parametrize("n", [9, 10])
    def test_counts_and_classifier(self, n):
        counts = {}
        for d in candidate_ratios(n):
            res = count_search(n, d, max_order=n)
            assert res.complete
            counts[d] = res.count
            status = necessary_conditions(n, d).status
            if status == IMPOSSIBLE_STATUS:
                assert res.count == 0, (n, d)
            if status == EXISTS:
                assert res.count > 0, (n, d)
        assert {d: c for d, c in counts.items() if c} == self.COUNTS[n]

    def test_open_ratio_is_settled_as_nonempty(self):
        # The classifier leaves (10, 0) open; COUNTS above holds its count.
        assert necessary_conditions(10, 0).status not in (EXISTS, IMPOSSIBLE_STATUS)
        assert self.COUNTS[10][Fraction(0)] > 0

    def test_count_matches_the_listed_matrices(self):
        listed = exhaustive_search(10, 4, max_order=10).two_q_stack
        assert len(listed) == count_search(10, 4, max_order=10).count == 130_048


class TestSearchLog:
    def _record(self, caplog, *args, fn=exhaustive_search, **kwargs):
        caplog.set_level(logging.DEBUG, logger="mpsmat.search")
        res = fn(*args, **kwargs)
        records = [r for r in caplog.records if r.name == "mpsmat.search"]
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        return res, records[0].getMessage()

    @pytest.mark.parametrize("mode, counts", [
        ("all", "72 representatives, 9216 matrices"),
        ("up_to_equivalence", "3 representatives, 2 matrices"),
    ])
    def test_complete(self, caplog, mode, counts):
        res, message = self._record(caplog, 8, 3, mode=mode)
        assert res.complete
        assert f"mode={mode}: " in message and counts in message
        assert message.endswith("stop complete, seconds (dfs, expand, decode, canonicalize, "
                                "check) " + str(caplog.records[0].args[-1]))
        assert len(caplog.records[0].args[-1]) == 5
        assert all(t >= 0 for t in caplog.records[0].args[-1])

    @pytest.mark.parametrize("mode", ["all", "up_to_equivalence"])
    def test_max_results(self, caplog, mode):
        res, message = self._record(caplog, 6, 2, mode=mode, max_results=1)
        assert not res.complete and "stop max_results," in message

    @pytest.mark.parametrize("mode", ["all", "up_to_equivalence"])
    def test_budget_in_the_dfs(self, caplog, mode):
        res, message = self._record(caplog, 8, 1, mode=mode, budget_seconds=0.0)
        assert not res.complete and "stop budget," in message

    def test_budget_in_the_expansion(self, caplog, monkeypatch):
        _expire_after_the_dfs(monkeypatch)
        # max_results is not reached, so the budget is the cause.
        res, message = self._record(caplog, 8, 3, max_results=5000, budget_seconds=1.0)
        assert not res.complete and "stop budget," in message

    def test_budget_in_the_dfs_before_max_results(self, caplog, monkeypatch):
        # The budget runs out in the DFS and the first chunk then holds more
        # than max_results hits: the budget stopped the search first.
        _expire_in_the_dfs(monkeypatch, [0.0])
        res, message = self._record(caplog, 8, 3, max_results=1, budget_seconds=1.0)
        assert res.count == 1 and not res.complete and "stop budget," in message

    def test_budget_in_canonicalization(self, caplog, monkeypatch):
        clock = [0.0]
        real = search.canonical_transform

        def expiring(*args, **kwargs):
            clock[0] = 100.0
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: clock[0]))
        monkeypatch.setattr(search, "canonical_transform", expiring)
        res, message = self._record(caplog, 8, 1, mode="up_to_equivalence",
                                    max_results=5, budget_seconds=1.0)
        assert not res.complete and "stop budget," in message

    def test_count_complete(self, caplog):
        res, message = self._record(caplog, 8, 3, fn=count_search)
        assert res.complete
        assert message.startswith("count n=8 d=3: 72 representatives, 9216 matrices, "
                                  "stop complete, seconds (dfs, check) ")
        assert len(caplog.records[0].args[-1]) == 2
        assert all(t >= 0 for t in caplog.records[0].args[-1])

    def test_count_max_results(self, caplog):
        res, message = self._record(caplog, 6, 2, fn=count_search, max_results=1)
        assert not res.complete and "1 matrices, stop max_results," in message

    def test_count_budget_in_the_dfs(self, caplog):
        res, message = self._record(caplog, 8, 1, fn=count_search, budget_seconds=0.0)
        assert not res.complete and "stop budget," in message

    def test_count_budget_in_the_dfs_before_max_results(self, caplog, monkeypatch):
        # The budget runs out before the count passes 5000, which takes 40 of
        # the 72 representatives.
        _expire_in_the_dfs(monkeypatch, [0.0])
        res, message = self._record(caplog, 8, 3, fn=count_search, max_results=5000,
                                    budget_seconds=1.0)
        assert not res.complete and "stop budget," in message

    def test_count_max_results_in_the_dfs_before_the_budget(self, caplog, monkeypatch):
        # The first block of 5 representatives takes the count past 1, and the
        # DFS stops there, before the budget would run out.
        _expire_in_the_dfs(monkeypatch, [0.0])
        res, message = self._record(caplog, 8, 3, fn=count_search, max_results=1,
                                    budget_seconds=1.0)
        assert not res.complete and "5 representatives, 1 matrices, stop max_results," in message

    def test_count_budget_in_the_check(self, caplog, monkeypatch):
        _record_checks(monkeypatch, expire=True)
        res, message = self._record(caplog, 8, 3, fn=count_search, max_results=5000,
                                    budget_seconds=1.0)
        assert not res.complete and "stop budget," in message

    def test_silent_by_default(self, caplog, capsys):
        exhaustive_search(6, 2)
        exhaustive_search(6, 2, mode="up_to_equivalence", max_results=1)
        count_search(6, 2)
        count_search(6, 2, max_results=1)
        assert not caplog.records
        assert capsys.readouterr() == ("", "")


def test_check_stack_raises_under_python_O(subprocess_env):
    # Search hits and IntegerMps go through the one exact check, _check_two_q.
    script = textwrap.dedent("""
        import numpy as np
        from mpsmat.exact import IntegerMps, StructureViolationError, _check_two_q
        assert False, "assert statements still run: -O did not take effect"
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        # The zero matrix breaks the Gram identity (2Q)(2Q)^T = 16 I of
        # n = 4, d = 1.  2H with two rows swapped (not symmetric) and 4I
        # (off-diagonal entries 0) satisfy it.
        accepted_by_gram = [2 * h[[1, 0, 2, 3]], 4 * np.eye(4, dtype=int)]
        if not all(np.array_equal(q @ q.T, 16 * np.eye(4)) for q in accepted_by_gram):
            raise SystemExit("a case does not satisfy the Gram identity")
        for q in [np.zeros((4, 4), dtype=int)] + accepted_by_gram:
            for check in (lambda: _check_two_q(q.astype(np.int8)[None], 2),
                          lambda: IntegerMps(d=1, two_q=q)):
                try:
                    check()
                except StructureViolationError:
                    continue
                raise SystemExit(f"accepted {q.tolist()}")
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=subprocess_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestCanonicalForm:
    def test_idempotent(self):
        cf = canonical_form(full_j_mps(6))
        assert canonical_form(cf) == cf

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(6)),
           st.lists(st.sampled_from([-1, 1]), min_size=6, max_size=6),
           st.sampled_from([-1, 1]))
    def test_scramble_invariance(self, perm, signs, g):
        m = upper_interval_mps(6, 2)
        t = Transform(perm=tuple(perm), signs=tuple(signs), global_sign=g)
        assert canonical_form(t.apply_mps(m)) == canonical_form(m)

    def test_transform_realizes_form(self):
        m = full_j_mps(5)
        cf, t = canonical_transform(m)
        assert t.apply_mps(m) == cf

    def test_distinguishes_inequivalent(self):
        assert canonical_form(full_j_mps(6)) != canonical_form(
            upper_interval_mps(6, 2))

    def test_zero_ratio(self):
        from mpsmat.designs import paley_conference
        from mpsmat.exact import conference_mps

        m = conference_mps(paley_conference(6))
        cf = canonical_form(m)
        assert canonical_form(cf) == cf

    def test_zero_ratio_global_negation(self):
        # With a zero diagonal the global sign is not absorbed by paired
        # flips, so the canonical scan must cover the negated branch too.
        from mpsmat.designs import paley_conference
        from mpsmat.exact import conference_mps

        m = conference_mps(paley_conference(6))
        neg = Transform(perm=tuple(range(6)), signs=(1,) * 6,
                        global_sign=-1).apply_mps(m)
        assert canonical_form(m) == canonical_form(neg)
        w = are_equivalent(m, neg)
        assert w is not None and w.apply_mps(m) == neg

    def test_no_order_cap(self):
        # Order 40, scrambled: the refinement search has no order maximum.
        rng = np.random.default_rng(40)
        m = full_j_mps(40)
        t = Transform(perm=tuple(int(x) for x in rng.permutation(40)),
                      signs=tuple(int(x) for x in rng.choice([-1, 1], 40)),
                      global_sign=-1)
        cf, back = canonical_transform(t.apply_mps(m))
        assert cf == canonical_form(m) and back.apply_mps(t.apply_mps(m)) == cf


def _scan_transform(m):
    """Brute-force canonical transform: for each global sign and admissible
    leading row, fix the sign gauge, sort the codes of all (n-1)! orderings
    (generated in lexicographic order) with a stable sort and keep the first
    minimum; a later gauge wins only with a strictly smaller code."""
    n, q = m.n, m.two_q
    diag = np.diagonal(q)
    pool = np.array(list(itertools.permutations(range(n - 1))), dtype=np.int64)
    best_key, best = None, None
    for g in (1, -1):
        rows = range(n) if m.two_d == 0 else [i for i in range(n) if g * diag[i] > 0]
        for i1 in rows:
            sigma = np.ones(n, dtype=np.int64)
            mask = np.arange(n) != i1
            sigma[mask] = np.sign(g * q[i1, mask])
            signed = g * q * np.outer(sigma, sigma)
            orders = np.concatenate(
                [np.full((len(pool), 1), i1), np.flatnonzero(mask)[pool]], axis=1)
            codes = encode_matrix(signed[orders[:, :, None], orders[:, None, :]])
            idx = int(np.lexsort(codes.T[::-1])[0])
            if best_key is None or codes[idx].tobytes() < best_key:
                best_key, best = codes[idx].tobytes(), (g, orders[idx], sigma)
    g, order, sigma = best
    t = Transform(perm=tuple(int(x) for x in order),
                  signs=tuple(int(sigma[x]) for x in order), global_sign=g)
    return t.apply_mps(m), t


def _assert_matches_scan(m):
    form, t = canonical_transform(m)
    want_form, want_t = _scan_transform(m)
    assert t == want_t
    assert form == want_form


def _standard_form_hits(n, d):
    """Every raw standard-form hit of the search, before canonicalization."""
    searcher, pieces = _search(n, d, "up_to_equivalence")
    assert searcher.stop == "complete"
    for q in _decode(pieces, n, int(2 * d)):
        yield IntegerMps(d=d, two_q=q.astype(np.int64))


class TestCanonicalOracle:
    """The refinement search returns the brute-force scan's exact
    (form, transform) pair."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_all_mode_hit(self, n):
        for d in candidate_ratios(n):
            for m in exhaustive_search(n, d).matrices():
                _assert_matches_scan(m)

    @pytest.mark.parametrize("n", [7, 8])
    def test_every_standard_form_hit(self, n):
        seen = 0
        for d in candidate_ratios(n):
            if (2 * d).denominator == 1:
                for m in _standard_form_hits(n, d):
                    _assert_matches_scan(m)
                    seen += 1
        assert seen > 0

    @pytest.mark.parametrize("d", [1, 3])
    def test_scrambled_order_eight_classes(self, d):
        rng = np.random.default_rng(20111)
        reps = exhaustive_search(8, d, mode="up_to_equivalence").matrices()
        assert reps
        for rep in reps:
            for _ in range(20):
                t = Transform(perm=tuple(int(x) for x in rng.permutation(8)),
                              signs=tuple(int(x) for x in rng.choice([-1, 1], 8)),
                              global_sign=int(rng.choice([-1, 1])))
                _assert_matches_scan(t.apply_mps(rep))

    def test_full_j_order_nine(self):
        _assert_matches_scan(full_j_mps(9))

    def test_order_nine_and_ten_classes(self):
        # Representatives checked against the scan once; the scan costs
        # about 33 s at n = 10, so only their digest is pinned here.
        nine = exhaustive_search(9, Fraction(7, 2), mode="up_to_equivalence", max_order=10)
        ten = exhaustive_search(10, 4, mode="up_to_equivalence", max_order=10)
        assert nine.complete and nine.count == 1
        assert ten.complete and ten.count == 2
        digest = hashlib.sha256(nine.two_q_stack.tobytes() + ten.two_q_stack.tobytes())
        assert digest.hexdigest() == (
            "093b20450c9605db33c3dab301fb3c6ac5e94d18e2b1b062f2282ec7d5e538cc")


class TestAreEquivalent:
    def test_self_equivalence(self):
        m = full_j_mps(6)
        w = are_equivalent(m, m)
        assert w is not None
        assert w.apply_mps(m) == m

    def test_negation_witness(self):
        m = full_j_mps(6)
        neg = Transform(perm=tuple(range(6)), signs=(1,) * 6,
                        global_sign=-1).apply_mps(m)
        w = are_equivalent(m, neg)
        assert w is not None and w.apply_mps(m) == neg

    def test_inequivalent_pair(self):
        assert are_equivalent(full_j_mps(6), upper_interval_mps(6, 2)) is None

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            are_equivalent(full_j_mps(4), full_j_mps(6))

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(6)),
           st.lists(st.sampled_from([-1, 1]), min_size=6, max_size=6),
           st.sampled_from([-1, 1]))
    def test_witness_is_exact(self, perm, signs, g):
        m = upper_interval_mps(6, 0)
        t = Transform(perm=tuple(perm), signs=tuple(signs), global_sign=g)
        other = t.apply_mps(m)
        w = are_equivalent(m, other)
        assert w is not None
        assert w.apply_mps(m) == other

    def test_canonical_equality_iff_equivalent(self):
        # Checked across all search output at order 6.
        for d in candidate_ratios(6):
            mats = exhaustive_search(6, d).matrices()
            if not mats:
                continue
            sample = mats[:: max(1, len(mats) // 12)]
            for a in sample[:6]:
                for b in sample[:6]:
                    same = canonical_form(a) == canonical_form(b)
                    assert (are_equivalent(a, b) is not None) == same

    def test_canonical_partition_of_all_order_six_hits(self):
        # Partitioning ALL (6, 2) matrices by canonical form must give the
        # two known classes, and representatives must cross-compare exactly
        # as the partition says.
        mats = exhaustive_search(6, 2).matrices()
        groups: dict[bytes, list] = {}
        for m in mats:
            groups.setdefault(canonical_form(m).encode(), []).append(m)
        assert len(groups) == 2
        assert sorted(len(g) for g in groups.values()) == [
            len(mats) - max(len(g) for g in groups.values()),
            max(len(g) for g in groups.values()),
        ]
        (g1, g2) = groups.values()
        assert are_equivalent(g1[0], g1[-1]) is not None
        assert are_equivalent(g2[0], g2[-1]) is not None
        assert are_equivalent(g1[0], g2[0]) is None


class TestSearchTheoryConsistency:
    def test_structure_on_search_hits(self):
        # Every hit with n/6 - 1 < d < n/2 - 1 must pass the exact block
        # structure checks (here: all of (8, 1)).
        res = exhaustive_search(8, 1, max_results=200)
        for m in res.matrices():
            rep = structure_check(m)
            assert rep.normal and rep.commutes_with_j and rep.gram_ok

    def test_search_agrees_with_classifier_small_orders(self):
        from mpsmat.classify import IMPOSSIBLE_STATUS, necessary_conditions

        for n in range(3, 8):
            for d in candidate_ratios(n):
                verdict = necessary_conditions(n, d)
                found = exhaustive_search(n, d, max_results=1).count > 0
                if verdict.status == IMPOSSIBLE_STATUS:
                    assert not found, (n, d)
                if found:
                    assert verdict.status != IMPOSSIBLE_STATUS, (n, d)

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import raises_exactly
from mpsmat.designs import (
    SymmetricDesign,
    design_params_for,
    hadamard_to_design,
    identity_design,
    paley_conference,
    sylvester_hadamard,
    verify_conference,
    verify_hadamard,
)
from mpsmat.exact import (
    _CHECK_CHUNK,
    BlockTooSmallError,
    IntegerMps,
    NotInRangeError,
    ParameterMismatchError,
    StructureViolationError,
    Transform,
    WrongRatioError,
    _check_two_q,
    conference_block_mps,
    conference_mps,
    design_mps,
    extract_design,
    full_j_mps,
    hadamard_bridge,
    hadamard_to_mps,
    structure_check,
    three_row_counts,
    to_standard_form,
    two_by_two_mps,
    upper_interval_mps,
)
from mpsmat.search import are_equivalent, exhaustive_search


def fano_design():
    return hadamard_to_design(sylvester_hadamard(8))


class TestIntegerMps:
    def test_full_j_entries(self):
        m = full_j_mps(6)
        assert m.d == 2 and m.two_d == 4
        assert np.all(np.diagonal(m.two_q) == 4)
        assert m.p == 6

    def test_validation_rejects_broken_orthogonality(self):
        q = full_j_mps(6).two_q.copy()
        q[0, 1] = q[1, 0] = 2
        with pytest.raises(ValueError):
            IntegerMps(d=Fraction(2), two_q=q)

    def test_validation_rejects_asymmetric(self):
        q = full_j_mps(4).two_q.copy()
        q[0, 1] = -q[0, 1]
        with pytest.raises(ValueError):
            IntegerMps(d=Fraction(1), two_q=q)

    def test_matrix_is_unitary(self):
        from mpsmat.core import is_hermitian, is_unitary

        s = full_j_mps(7).matrix()
        assert is_hermitian(s, 1e-9) and is_unitary(s, 1e-9)

    def test_from_two_q_infers_d(self):
        m = IntegerMps.from_two_q(full_j_mps(5).two_q)
        assert m.d == Fraction(3, 2)

    @pytest.mark.parametrize("build", [lambda q: IntegerMps(d=1, two_q=q),
                                       IntegerMps.from_two_q], ids=["init", "from_two_q"])
    def test_entries_converted_exactly(self, build):
        # Non-integers are refused, not truncated to the member [[2, 2], [2, -2]].
        for q in ([[2.9, 2.5], [2.2, -2.7]], [[2, 2], [2, -2 + 1e-9]], [[2, 2j], [-2j, -2]],
                  [[2, 2], [2, float("nan")]], [[2, 2], [2, Fraction(-5, 2)]]):
            with pytest.raises(TypeError):
                build(q)
        for q in ([[2, 2], [2, -10**20]], [[2, 2], [2, -1e20]]):
            with pytest.raises(NotInRangeError):
                build(q)
        exact_floats = build(np.array([[2.0, 2.0], [2.0, -2.0]]))
        assert exact_floats == build(np.array([[2, 2], [2, -2]], dtype=np.int8))
        assert exact_floats.two_q.dtype == np.int64

    def test_half_integer_ratio_odd_order(self):
        m = full_j_mps(3)
        assert m.d == Fraction(1, 2)
        assert np.all(np.diagonal(m.two_q) == 1)

    def test_two_by_two(self):
        m = two_by_two_mps(Fraction(1, 2))
        assert np.array_equal(m.two_q, [[1, 2], [2, -1]])


def _hits(k: int, dtype=np.int8) -> np.ndarray:
    """k copies of 2H, H the symmetric Sylvester matrix of order 4: members
    at n = 4, d = 1, as a search returns them."""
    return np.repeat(2 * sylvester_hadamard(4).astype(dtype)[None], k, axis=0)


def _broken(q: np.ndarray, kind: str) -> np.ndarray:
    q = q.copy()
    if kind == "symmetric":
        q[0, 1] = -q[0, 1]
    elif kind == "diagonal":
        q[1, 1] = 0
    elif kind == "off-diagonal":
        q[0, 1] = q[1, 0] = 0
    else:  # symmetric with the right moduli: only the Gram identity fails
        q[0, 1] = q[1, 0] = -q[0, 1]
    return q


_MESSAGES = [("symmetric", "must be symmetric"), ("diagonal", "^diagonal entries"),
             ("off-diagonal", "^off-diagonal entries"), ("orthogonality", "^orthogonality")]


class TestCheckTwoQ:
    """_check_two_q, the one exact check of every IntegerMps and search hit."""

    @pytest.mark.parametrize("kind, message", _MESSAGES)
    def test_a_bad_matrix_in_a_later_chunk_raises(self, kind, message):
        stack = _hits(_CHECK_CHUNK + 5)
        _check_two_q(stack, 2)
        _check_two_q(stack[:0], 2)
        stack[_CHECK_CHUNK + 3] = _broken(stack[0], kind)
        with pytest.raises(StructureViolationError, match=message):
            _check_two_q(stack, 2)
        with pytest.raises(StructureViolationError, match=message):
            IntegerMps(d=1, two_q=stack[_CHECK_CHUNK + 3])

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_the_most_negative_integer_matches_no_modulus(self, dtype):
        # np.abs of the most negative integer is itself, a negative number.
        lo = np.iinfo(dtype).min
        assert np.abs(np.array([lo], dtype=dtype))[0] < 0
        diag, off = _hits(1, dtype), _hits(1, dtype)
        diag[0, 1, 1] = lo
        off[0, 0, 1] = off[0, 1, 0] = lo
        with pytest.raises(StructureViolationError, match="^diagonal entries"):
            _check_two_q(diag, 2)
        with pytest.raises(StructureViolationError, match="^off-diagonal entries"):
            _check_two_q(off, 2)
        for q in (diag[0], off[0]):
            with pytest.raises(StructureViolationError):
                IntegerMps(d=1, two_q=q)


def _transforms(n):
    return st.tuples(
        st.permutations(range(n)),
        st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n),
        st.sampled_from([-1, 1]),
    ).map(lambda t: Transform(perm=tuple(t[0]), signs=tuple(t[1]),
                              global_sign=t[2]))


class TestTransformGroup:
    @settings(max_examples=60, deadline=None)
    @given(_transforms(5), _transforms(5))
    def test_compose_matches_sequential_application(self, t1, t2):
        q = full_j_mps(5).two_q
        lhs = t1.compose(t2).apply(q)
        rhs = t1.apply(t2.apply(q))
        assert np.array_equal(lhs, rhs)

    @settings(max_examples=60, deadline=None)
    @given(_transforms(6))
    def test_inverse(self, t):
        q = upper_interval_mps(6, 0).two_q
        assert np.array_equal(t.inverse().apply(t.apply(q)), q)
        assert np.array_equal(t.apply(t.inverse().apply(q)), q)

    def test_preserves_membership(self):
        m = full_j_mps(6)
        t = Transform(perm=(2, 0, 1, 5, 4, 3), signs=(1, -1, 1, 1, -1, -1),
                      global_sign=-1)
        t.apply_mps(m)  # constructor revalidates all invariants

    def test_validation(self):
        with pytest.raises(ValueError):
            Transform(perm=(0, 0), signs=(1, 1))
        with pytest.raises(ValueError):
            Transform(perm=(0, 1), signs=(1, 2))


class TestStandardForm:
    def test_full_j_already_standard(self):
        sf = to_standard_form(full_j_mps(6))
        assert sf.p == 6
        q1 = sf.blocks[0]
        off = ~np.eye(6, dtype=bool)
        assert np.all(q1[off] == -2)

    def test_global_flip_when_p_small(self):
        m = full_j_mps(6)
        flipped = Transform(perm=tuple(range(6)), signs=(1,) * 6,
                            global_sign=-1).apply_mps(m)
        assert flipped.p == 0
        sf = to_standard_form(flipped)
        assert sf.p == 6
        assert sf.transform.global_sign == -1

    def test_invariants_hold(self):
        for m in (full_j_mps(7), upper_interval_mps(8, 1),
                  design_mps(fano_design(), 14, 2),
                  conference_block_mps(paley_conference(6))):
            sf = to_standard_form(m)
            q = sf.mps.two_q
            n, p = sf.mps.n, sf.p
            assert 2 * p >= n
            two_d = m.two_d
            assert np.all(np.diagonal(q)[:p] == two_d)
            assert np.all(np.diagonal(q)[p:] == -two_d)
            assert np.all(q[0, 1:p] == -2)
            if p < n:
                assert np.all(q[p, p + 1:] == 2)
            assert np.array_equal(sf.transform.apply(m.two_q), q)

    @settings(max_examples=40, deadline=None)
    @given(_transforms(6))
    def test_scrambled_copy_reaches_standard_form(self, t):
        m = upper_interval_mps(6, 0)
        scrambled = t.apply_mps(m)
        sf = to_standard_form(scrambled)
        q = sf.mps.two_q
        assert np.all(q[0, 1:sf.p] == -2)
        assert np.array_equal(sf.transform.apply(scrambled.two_q), q)


class TestThreeRowCounts:
    def test_full_j6_negative_branch(self):
        sf = to_standard_form(full_j_mps(6))
        counts = three_row_counts(sf, 1, 2)
        assert counts.branch == -1
        assert sum(counts.ells) == 3
        assert counts.congruence_ok  # n - 2d - 2 = 0

    def test_fano_matrix_has_no_positive_pairs(self):
        # At (14, 2) the positive branch would need n - 6d - 6 >= 0, i.e.
        # -4 >= 0; so every leading-block pair must sit on the negative branch.
        sf = to_standard_form(design_mps(fano_design(), 14, 2))
        for j in range(1, sf.p):
            for k in range(j + 1, sf.p):
                counts = three_row_counts(sf, j, k)
                assert counts.branch == -1
                assert counts.congruence_ok

    def test_conference_six(self):
        # At (6, 0) both branches are feasible (the positive-branch slack
        # n - 6d - 6 is exactly 0); every pair must satisfy its congruence.
        sf = to_standard_form(conference_mps(paley_conference(6)))
        seen = set()
        for j in range(1, sf.p):
            for k in range(j + 1, sf.p):
                counts = three_row_counts(sf, j, k)
                seen.add(counts.branch)
                assert counts.congruence_ok
                if counts.branch == 1:
                    assert counts.slack >= 0
        assert seen  # at least one pair classified

    def test_block_too_small(self):
        sf = to_standard_form(two_by_two_mps(1))
        with pytest.raises(BlockTooSmallError):
            three_row_counts(sf, 1, 1)


class TestStructure:
    def test_fano_structure(self):
        rep = structure_check(design_mps(fano_design(), 14, 2))
        assert rep.normal and rep.commutes_with_j and rep.gram_ok
        g = rep.g
        assert np.array_equal(
            g @ g.T,
            (14 - 4 - 2) * np.eye(7, dtype=np.int64)
            + (4 + 2 - 7) * np.ones((7, 7), dtype=np.int64),
        )

    def test_degenerate_ten_two(self):
        rep = structure_check(design_mps(identity_design(5), 10, 2))
        assert np.array_equal(
            rep.g @ rep.g.T,
            4 * np.eye(5, dtype=np.int64) + np.ones((5, 5), dtype=np.int64),
        )

    def test_degenerate_eight_one(self):
        rep = structure_check(design_mps(identity_design(4), 8, 1))
        assert np.array_equal(rep.g @ rep.g.T, 4 * np.eye(4, dtype=np.int64))

    def test_out_of_range(self):
        with pytest.raises(NotInRangeError):
            structure_check(full_j_mps(6))  # d = n/2 - 1 excluded


class TestExtractDesign:
    def test_fano_round_trip(self):
        m = design_mps(fano_design(), 14, 2)
        d = extract_design(m)
        assert (d.v, d.k, d.lam) == (7, 3, 1)
        rebuilt = design_mps(d, 14, 2)
        assert rebuilt.d == Fraction(2)

    def test_degenerate_extraction(self):
        d = extract_design(design_mps(identity_design(5), 10, 2))
        assert (d.v, d.k, d.lam) == (5, 1, 0)
        assert d.degenerate
        # incidence is a permutation matrix
        assert np.all(d.incidence.sum(axis=0) == 1)

    def test_boundary_exclusion(self):
        with pytest.raises(NotInRangeError):
            extract_design(full_j_mps(6))

    def test_parameters_preserved_for_providers(self):
        for design in (hadamard_to_design(sylvester_hadamard(8)),
                       hadamard_to_design(sylvester_hadamard(16)),
                       identity_design(4), identity_design(5)):
            params_n = 4 * design.k + 2 * (design.v - 2 * design.k)
            # reconstruct (n, d) from the design parameters
            q = design.v - 2 * design.k
            n = 2 * design.v
            d = 2 * design.lam + q - 1
            m = design_mps(design, n, d)
            back = extract_design(m)
            assert (back.v, back.k, back.lam) == (design.v, design.k, design.lam)

    @pytest.mark.parametrize("n, d, max_results", [(6, 0, None), (8, 1, 300), (10, 2, 300)])
    def test_search_hits_of_either_row_sum_sign(self, n, d, max_results):
        # The structure block's row sum mu is -q or +q; a +q block is negated
        # before the incidence is read off.  Half the (6, 0) hits have mu = +1.
        params = design_params_for(n, d)
        hits = exhaustive_search(n, d, max_results=max_results).matrices()
        signs = set()
        for m in hits:
            mu = int(structure_check(m).g.sum(axis=1)[0])
            signs.add(mu)
            design = extract_design(m)
            # SymmetricDesign checks the incidence: the (n/2, 1, 0)-designs
            # of these ratios are degenerate, which verify_design refuses.
            SymmetricDesign(v=n // 2, k=params.k, lam=params.lam, incidence=design.incidence)
            assert are_equivalent(m, design_mps(design, n, d)) is not None
            if (n, d) == (6, 0):
                h = hadamard_bridge(m)
                assert h.shape == (4, 4) and verify_hadamard(h) and h[0, 0] == -mu
        assert signs == {-params.q, params.q}


class TestHadamardBridge:
    def test_conference_six_to_order_four(self):
        h = hadamard_bridge(conference_mps(paley_conference(6)))
        assert h.shape == (4, 4)
        assert verify_hadamard(h)
        back = hadamard_to_mps(h)
        assert (back.n, back.d) == (6, Fraction(0))

    def test_fano_to_order_eight(self):
        h = hadamard_bridge(design_mps(fano_design(), 14, 2))
        assert h.shape == (8, 8)
        assert verify_hadamard(h)
        back = hadamard_to_mps(h)
        assert (back.n, back.d) == (14, Fraction(2))

    def test_order_twelve_both_ways(self, hadamard12):
        m = hadamard_to_mps(hadamard12)
        assert (m.n, m.d) == (22, Fraction(4))
        h = hadamard_bridge(m)
        assert verify_hadamard(h) and h.shape == (12, 12)

    def test_wrong_ratio(self):
        with pytest.raises(WrongRatioError):
            hadamard_bridge(full_j_mps(6))  # d = 2 != 6/4 - 3/2


class TestConferenceBuilders:
    def test_non_integer_entries_refused(self):
        # Truncated, either input was a symmetric conference matrix.
        half = np.array([[0, 1.5], [1.5, 0]])
        assert not verify_conference(half)
        with pytest.raises(TypeError):
            conference_mps(half)
        c = paley_conference(6).astype(float)
        c[0, 1] = c[1, 0] = 1.7
        assert not verify_conference(c)
        with pytest.raises(TypeError):
            conference_block_mps(c)

    def test_exact_float_input_builds_the_integer_member(self):
        c = paley_conference(6)
        assert conference_mps(c.astype(float)) == conference_mps(c)
        assert conference_block_mps(c.astype(float)) == conference_block_mps(c)


_SWAP_2Q = [[0, 2], [2, 0]]


@pytest.mark.parametrize("call, error, message", [
    (lambda: IntegerMps(d=0, two_q=np.zeros((2, 3), dtype=int)), ValueError, "2Q must be square"),
    (lambda: IntegerMps(d=Fraction(1, 3), two_q=_SWAP_2Q), ValueError,
     "2d must be an integer (denominator of d divides 2)"),
    (lambda: IntegerMps(d=-1, two_q=_SWAP_2Q), ValueError, "ratio d must be non-negative"),
    (lambda: Transform(perm=(0, 1), signs=(1, 1), global_sign=2), ValueError,
     "global sign must be +-1"),
    (lambda: three_row_counts(to_standard_form(full_j_mps(6)), 2, 2), ValueError,
     "need 1 <= j < k <= p-1 (0-based rows of the leading block)"),
    (lambda: two_by_two_mps(Fraction(1, 3)), ValueError, "exact 2x2 members need 2d integral"),
    (lambda: upper_interval_mps(7, Fraction(5, 2)), ValueError, "n must be even and at least 4"),
    (lambda: upper_interval_mps(8, 2), NotInRangeError,
     "exact interval members exist at d = n/2 - 1 and n/2 - 3"),
    (lambda: design_mps(fano_design(), 14, Fraction(5, 2)), ParameterMismatchError,
     "design-built members need integer d"),
    (lambda: design_mps(fano_design(), 12, 1), ParameterMismatchError,
     "no design parameters exist for (n, d) = (12, 1)"),
], ids=["not-square", "d-in-thirds", "negative-d", "global-sign", "rows-not-increasing",
        "two-by-two-in-thirds", "interval-odd-n", "interval-off-endpoints",
        "design-fractional-d", "design-no-parameters"])
def test_input_checks_raise(call, error, message):
    raises_exactly(error, message, call)

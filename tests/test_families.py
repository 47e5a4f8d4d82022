import math
from fractions import Fraction

import numpy as np
import pytest

from mpsmat import designs, exact, families
from mpsmat.core import (
    check_trace_identity,
    is_hermitian,
    is_unitary,
    mps_profile,
)
from mpsmat.designs import (
    hadamard_to_design,
    identity_design,
    paley_conference,
    sylvester_hadamard,
)
from mpsmat.families import (
    FAMILIES,
    FAMILY_NAMES,
    NotConferenceError,
    NotHadamardError,
    OutOfRangeError,
    complex_core_matrix,
    conference_block_family,
    conference_core_family,
    design_alpha_for_ratio,
    design_family,
    design_family_ratio,
    hadamard_core_family,
    n2_matrix,
    upper_interval,
)


def assert_member(s, d, tol=1e-9):
    """The construction-output contract: Hermitian unitary MPS at ratio d."""
    assert is_hermitian(s, tol)
    assert is_unitary(s, tol)
    prof = mps_profile(s, tol)
    assert prof.d == pytest.approx(d, abs=1e-9)
    assert check_trace_identity(prof, tol)
    return prof


class TestFullJ:
    def test_order_two(self):
        assert np.allclose(exact.full_j_mps(2).matrix(), [[0, -1], [-1, 0]], atol=1e-12)

    def test_order_six_integer_identity(self):
        q = 3 * exact.full_j_mps(6).matrix()
        assert np.allclose(np.diagonal(q), 2, atol=1e-12)
        assert np.allclose(q @ q.T, 9 * np.eye(6), atol=1e-12)

    def test_order_three_half_ratio(self):
        prof = assert_member(exact.full_j_mps(3).matrix(), 0.5)
        assert prof.p == 3

    def test_sweep(self):
        for n in range(2, 31):
            assert_member(exact.full_j_mps(n).matrix(), n / 2 - 1)

    def test_float_name_is_the_exact_member(self):
        assert np.array_equal(families.full_j_matrix(5), exact.full_j_mps(5).matrix())


class TestN2:
    def test_zero_ratio_swap(self):
        assert np.allclose(n2_matrix(0.0), [[0, 1], [1, 0]], atol=1e-12)

    def test_unit_ratio(self):
        s = n2_matrix(1.0)
        assert np.allclose(s @ s, np.eye(2), atol=1e-12)
        assert np.allclose(s, np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_ratio_three_moduli(self):
        s = n2_matrix(3.0)
        assert abs(s[0, 0]) == pytest.approx(3 / math.sqrt(10))
        assert abs(s[0, 1]) == pytest.approx(1 / math.sqrt(10))
        assert_member(s, 3.0)

    def test_huge_ratio_does_not_overflow(self):
        # d^2 + 1 is inf past d = 1.3e154; the norm is taken by hypot.
        s = n2_matrix(1e200)
        assert np.array_equal(s, [[1.0, 1e-200], [1e-200, -1.0]])
        assert is_unitary(s)


class TestUpperInterval:
    def test_top_endpoint_real(self):
        s = upper_interval(6, 2.0)
        assert np.max(np.abs(s.imag)) < 1e-12
        assert_member(s, 2.0)

    def test_bottom_endpoint_is_scaled_conference(self):
        s = upper_interval(6, 0.0)
        assert np.max(np.abs(s.imag)) < 1e-12
        q = np.rint(math.sqrt(5) * s.real).astype(np.int64)
        assert np.all(np.diagonal(q) == 0)
        assert np.array_equal(q @ q.T, 5 * np.eye(6, dtype=np.int64))

    def test_interior_complex_member(self):
        s = upper_interval(8, 2.5)
        assert np.max(np.abs(s.imag)) > 1e-3
        assert_member(s, 2.5)

    def test_rejections(self):
        with pytest.raises(OutOfRangeError):
            upper_interval(6, 2.0 + 1e-6)
        with pytest.raises(OutOfRangeError):
            upper_interval(7, 2.0)


class TestHadamardCore:
    def test_top_endpoint(self):
        s = hadamard_core_family(6, 2.0, sylvester_hadamard(4))
        assert_member(s, 2.0)

    def test_bottom_endpoint(self):
        s = hadamard_core_family(6, 0.0, sylvester_hadamard(4))
        assert_member(s, 0.0)

    def test_large_order(self, hadamard12):
        assert_member(hadamard_core_family(22, 5.0, hadamard12), 5.0)

    def test_rejects_non_hadamard(self):
        with pytest.raises(NotHadamardError):
            hadamard_core_family(6, 1.0, np.ones((4, 4), dtype=int))

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            hadamard_core_family(6, 2.0 + 1e-6, sylvester_hadamard(4))
        with pytest.raises(OutOfRangeError):
            hadamard_core_family(6, -1e-6 - 0.0, sylvester_hadamard(4))


class TestConferenceCore:
    def test_top_endpoint(self):
        assert_member(conference_core_family(10, 4.0, paley_conference(6)), 4.0)

    def test_lower_endpoint(self):
        d = 10 / 4 - 1.5 - 1 / 8  # n/4 - 3/2 - 1/(n-2) = 7/8
        assert d == pytest.approx(0.875)
        assert_member(conference_core_family(10, d, paley_conference(6)), d)

    def test_interior(self):
        assert_member(conference_core_family(10, 2.0, paley_conference(6)), 2.0)

    @pytest.mark.parametrize("n", [10, 26, 34, 58])
    @pytest.mark.parametrize("end", ["floor", "floor-slack", "top", "top-slack"])
    def test_members_at_both_ends_and_within_the_slack(self, n, end):
        lo, hi = n / 4 - 1.5 - 1 / (n - 2), n / 2 - 1
        d = {"floor": lo, "floor-slack": lo - 1e-12, "top": hi, "top-slack": hi + 1e-12}[end]
        assert_member(conference_core_family(n, d, paley_conference(n // 2 + 1)), d)

    def test_slack_below_the_floor_at_large_order_is_the_floor_member(self):
        # At n = 1018 the 1e-12 slack below the floor takes the discriminant
        # under -1e-9; the root is still the floor's.
        n, c = 1018, paley_conference(510)
        lo = n / 4 - 1.5 - 1 / (n - 2)
        floor = conference_core_family(n, lo, c)
        assert np.allclose(conference_core_family(n, lo - 1e-12, c), floor, rtol=0, atol=1e-9)

    def test_rejects_below_interval(self):
        with pytest.raises(OutOfRangeError):
            conference_core_family(10, 0.875 - 1e-6, paley_conference(6))

    def test_rejects_bad_conference(self):
        with pytest.raises(NotConferenceError):
            conference_core_family(10, 2.0, np.eye(6, dtype=int))


class TestCoreBlockCommutation:
    def test_core_row_column_sums_constant(self):
        # Before exponentiation the cores have constant row/column sums, an
        # exact integer fact; after, the phase block commutes with J to 1e-9.
        from mpsmat.designs import normalize_to_standard

        _, kh = normalize_to_standard(sylvester_hadamard(8))
        _, kc = normalize_to_standard(paley_conference(6))
        for core in (kh, kc):
            assert len(set(core.sum(axis=0))) == 1
            assert len(set(core.sum(axis=1))) == 1
            assert core.sum(axis=0)[0] == core.sum(axis=1)[0]

    def test_phase_block_commutes_numerically(self):
        for s, m in ((hadamard_core_family(14, 3.0, sylvester_hadamard(8)), 7),
                     (conference_core_family(10, 2.0, paley_conference(6)), 5)):
            scale = np.sqrt(mps_profile(s).d ** 2 + 2 * m - 1)
            g = scale * np.asarray(s)[:m, m:]
            j = np.ones((m, m))
            assert np.max(np.abs(g @ j - j @ g)) <= 1e-9


class TestComplexCore:
    def test_order_six_conference_ratio(self):
        assert_member(complex_core_matrix(6), 0.0)

    def test_order_eight_genuinely_complex(self):
        # d = 1/2 is a non-integer, so no real matrix exists at (8, 1/2);
        # this member must be genuinely complex.
        s = complex_core_matrix(8)
        assert np.max(np.abs(s.imag)) > 1e-3
        assert_member(s, 0.5)

    def test_small_order_rejected(self):
        with pytest.raises(OutOfRangeError):
            complex_core_matrix(4)

    def test_every_even_order(self):
        for n in range(6, 31, 2):
            assert_member(complex_core_matrix(n), n / 4 - 1.5)


class TestConferenceBlock:
    def test_real_endpoint(self):
        s = conference_block_family(12, 1.0, paley_conference(6))
        assert np.max(np.abs(s.imag)) < 1e-12
        assert_member(s, 1.0)

    def test_zero_endpoint(self):
        assert_member(conference_block_family(12, 0.0, paley_conference(6)), 0.0)

    def test_interior(self):
        assert_member(conference_block_family(12, 0.5, paley_conference(6)), 0.5)

    def test_complex_hermitian_conference_input(self):
        # An order-4 Hermitian conference matrix scaled out of M_4(0).
        s4 = upper_interval(4, 0.0)
        c4 = math.sqrt(3) * s4
        assert_member(conference_block_family(8, 0.5, c4), 0.5)

    def test_range_rejection(self):
        with pytest.raises(OutOfRangeError):
            conference_block_family(12, 1.0 + 1e-6, paley_conference(6))


class TestDesignFamily:
    def test_alpha_zero_full_ratio(self):
        fano = hadamard_to_design(sylvester_hadamard(8))
        s = design_family(fano, 0.0)
        assert_member(s, 6.0)

    def test_fano_floor_ratio(self):
        fano = hadamard_to_design(sylvester_hadamard(8))
        alpha = design_alpha_for_ratio(fano, 2.0)
        assert alpha == pytest.approx(math.pi / 2)
        assert_member(design_family(fano, alpha), 2.0)

    def test_ratio_floor_bound(self):
        # d >= n/4 - 3/2 always, because k - lam <= (v+1)/4.
        for design in (hadamard_to_design(sylvester_hadamard(8)),
                       hadamard_to_design(sylvester_hadamard(16)),
                       identity_design(5)):
            n = 2 * design.v
            floor = design_family_ratio(design, math.pi / 2)
            assert floor >= n / 4 - 1.5 - 1e-12

    def test_reproduces_hadamard_core_exactly(self, hadamard12):
        # A Hadamard-derived design with matching alpha rebuilds the
        # hadamard-core member entry for entry.
        for h in (sylvester_hadamard(8), hadamard12):
            n = 2 * (h.shape[0] - 1)
            design = hadamard_to_design(h)
            for alpha in (0.3, 1.2):
                d = design_family_ratio(design, alpha)
                s1 = design_family(design, alpha)
                s2 = hadamard_core_family(n, d, h)
                assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_degenerate_design_sweep(self):
        deg = identity_design(5)
        for alpha in np.linspace(0, math.pi / 2, 7):
            d = design_family_ratio(deg, alpha)
            assert_member(design_family(deg, float(alpha)), d)


class TestRealFromDesign:
    def test_fano_exact(self):
        fano = hadamard_to_design(sylvester_hadamard(8))
        s = exact.design_mps(fano, 14, 2).matrix()
        assert_member(s, 2.0)
        q = np.rint(math.sqrt(17) * s).astype(np.int64)
        assert np.array_equal(q @ q.T, 17 * np.eye(14, dtype=np.int64))

    def test_degenerate_ten_two(self):
        s = exact.design_mps(identity_design(5), 10, 2).matrix()
        assert_member(s, 2.0)
        # G = 2I - J satisfies G G^T = 4I + J.
        g = np.rint(math.sqrt(13) * s[:5, 5:]).astype(np.int64)
        assert np.array_equal(g @ g.T, 4 * np.eye(5, dtype=np.int64) + 1)

    def test_degenerate_eight_one(self):
        s = exact.design_mps(identity_design(4), 8, 1).matrix()
        assert_member(s, 1.0)
        h = np.rint(2 * math.sqrt(2) * s).astype(np.int64)
        assert np.array_equal(h @ h.T, 8 * np.eye(8, dtype=np.int64))

    def test_float_name_is_the_exact_member(self):
        fano = hadamard_to_design(sylvester_hadamard(8))
        assert np.array_equal(families.real_from_design(14, 2, fano),
                              exact.design_mps(fano, 14, 2).matrix())

    def test_parameter_mismatch(self):
        from mpsmat.exact import ParameterMismatchError

        with pytest.raises(ParameterMismatchError):
            exact.design_mps(hadamard_to_design(sylvester_hadamard(8)), 14, 4)


class TestRegistry:
    def test_names_are_the_registry(self):
        assert FAMILY_NAMES == tuple(FAMILIES)
        assert len(FAMILIES) == 9

    def test_exact_builders_only_at_real_points(self):
        assert FAMILIES["full_j"].exact(6, Fraction(2)) == exact.full_j_mps(6)
        assert FAMILIES["full_j"].exact(6, Fraction(1)) is None
        assert FAMILIES["n2"].exact(2, Fraction(3, 2)) == exact.two_by_two_mps(Fraction(3, 2))
        assert FAMILIES["n2"].exact(2, Fraction(1, 3)) is None
        assert FAMILIES["n2"].exact(9, Fraction(1)) is None
        # The last 2d with 4d^2 + 4 in the int64 range, and the first past it.
        assert FAMILIES["n2"].exact(2, Fraction(3_037_000_499, 2)).two_d == 3_037_000_499
        assert FAMILIES["n2"].exact(2, Fraction(3_037_000_500, 2)) is None
        assert FAMILIES["upper_interval"].exact(8, Fraction(1)) == (
            exact.upper_interval_mps(8, 1))
        assert FAMILIES["upper_interval"].exact(8, Fraction(2)) is None
        assert FAMILIES["conference_block"].exact(12, Fraction(1)) == (
            exact.conference_block_mps(paley_conference(6)))
        assert FAMILIES["conference_block"].exact(8, Fraction(1)) is None   # no Paley order 4
        fano = hadamard_to_design(sylvester_hadamard(8))
        assert FAMILIES["design_real"].exact(14, Fraction(2)) == exact.design_mps(fano, 14, 2)
        assert FAMILIES["design_real"].exact(22, Fraction(4)) is None       # no provider
        for name in ("hadamard_core", "conference_core", "complex_core", "design_complex"):
            assert FAMILIES[name].exact(14, Fraction(3)) is None

    @staticmethod
    def _grid():
        for n in range(2, 21):
            for j in range(n - 1):
                yield n, Fraction(j, 2)

    def test_exact_is_none_or_a_member_of_order_n_and_ratio_d(self):
        for name, family in FAMILIES.items():
            for n, d in self._grid():
                member = family.exact(n, d)
                assert member is None or (member.n, member.d) == (n, d), (name, n, d)

    @pytest.mark.parametrize("name", ["n2", "upper_interval", "conference_block"])
    def test_float_member_equals_exact_member(self, name):
        family = FAMILIES[name]
        real_points = 0
        for n, d in list(self._grid()) + [(2, Fraction(j, 2)) for j in range(1, 9)]:
            member = family.exact(n, d)
            if member is not None:
                s = family.float(n, d, family.provider(n, d), None)
                assert np.max(np.abs(s - member.matrix())) <= 1e-12, (n, d)
                real_points += 1
        assert real_points > 0

    @pytest.mark.parametrize("name, n, d", [
        # No Sylvester order 6 or 12, no Paley order 4 or 8, no design on
        # fewer than two points.
        *[(name, 22, Fraction(4)) for name in FAMILY_NAMES
          if name not in ("hadamard_core", "conference_core", "conference_block")],
        ("hadamard_core", 10, Fraction(2)), ("conference_core", 14, Fraction(3)),
        ("conference_block", 8, Fraction(1, 2)),
        ("design_complex", 0, Fraction(0)), ("design_complex", 3, Fraction(0)),
    ])
    def test_provider_returns_none_where_nothing_is_built_in(self, name, n, d):
        assert FAMILIES[name].provider(n, d) is None

    def test_providers_run_only_at_real_points(self, monkeypatch):
        calls = []
        monkeypatch.setattr(designs, "provider_conference",
                            lambda order: calls.append(order))
        assert FAMILIES["conference_block"].exact(12, Fraction(1, 2)) is None
        assert calls == []
        FAMILIES["conference_block"].exact(12, Fraction(1))
        assert calls == [6]

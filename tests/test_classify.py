from fractions import Fraction

import pytest

from mpsmat import classify, designs
from mpsmat.classify import (
    EXISTS,
    IMPOSSIBLE_STATUS,
    OPEN,
    RULE_DESIGN_GAP,
    RULE_DESIGN_NONEXISTENCE,
    RULE_RANGE_OF_R,
    RULE_REAL_PARITY,
    RULE_SMALL_N,
    Verdict,
    necessary_conditions,
    provider_design,
)
from mpsmat.exact import two_by_two_mps
from mpsmat.designs import design_params_for


def half_grid(n):
    out = []
    j = 0
    while Fraction(j, 2) <= Fraction(n, 2) - 1:
        out.append(Fraction(j, 2))
        j += 1
    return out


class TestRules:
    def test_range_of_r(self):
        v = necessary_conditions(6, Fraction(5, 2))
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_RANGE_OF_R)

    def test_order_two_never_bounded(self):
        v = necessary_conditions(2, 100)
        assert v.status == EXISTS

    def test_small_n(self):
        assert necessary_conditions(4, 0).rule == RULE_SMALL_N
        assert necessary_conditions(3, 0).rule == RULE_SMALL_N
        assert necessary_conditions(5, 1).rule == RULE_SMALL_N

    def test_small_n_top_ratio_exists(self):
        for n in (3, 4, 5):
            v = necessary_conditions(n, Fraction(n, 2) - 1)
            assert v.status == EXISTS and v.rule == "full-j"

    def test_parity_odd_order(self):
        v = necessary_conditions(7, 1)
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_REAL_PARITY)

    def test_parity_non_integer(self):
        v = necessary_conditions(8, Fraction(1, 2))
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_REAL_PARITY)

    def test_parity_even_sum(self):
        v = necessary_conditions(12, 4)  # n/2 + d = 10
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_REAL_PARITY)

    def test_design_gap_26_4(self):
        # 4 lies in (26/6 - 1, 26/4 - 3/2) = (3.33.., 5); the parity rules do
        # not fire: n = 2 mod 4, d even, n/2 + d = 17 odd.
        v = necessary_conditions(26, 4)
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_DESIGN_GAP)

    def test_design_nonexistence(self):
        # (16, 3): q^2 = 8 is not a perfect square, so no design parameters
        # fit; parity does not fire (n/2 + d = 11 is odd).
        assert design_params_for(16, 3) is None
        v = necessary_conditions(16, 3)
        assert (v.status, v.rule) == (IMPOSSIBLE_STATUS, RULE_DESIGN_NONEXISTENCE)

    def test_rule_vocabulary_enforced(self):
        with pytest.raises(ValueError):
            Verdict(n=6, d=Fraction(1), status=IMPOSSIBLE_STATUS, rule="bogus")


class TestWitnesses:
    def test_full_j_witness_any_order(self):
        for n in (3, 6, 9, 14):
            v = necessary_conditions(n, Fraction(n, 2) - 1)
            assert v.status == EXISTS
            assert v.witness is not None and v.witness.d == Fraction(n, 2) - 1

    def test_two_by_two(self):
        v = necessary_conditions(2, Fraction(1, 2))
        assert v.status == EXISTS and v.witness == two_by_two_mps(Fraction(1, 2))
        v = necessary_conditions(2, Fraction(1, 3))
        assert v.status == EXISTS and v.witness is None

    def test_interval_endpoint(self):
        v = necessary_conditions(8, 1)
        assert v.status == EXISTS
        assert v.witness is not None

    def test_fano_witness(self):
        v = necessary_conditions(14, 2)
        assert v.status == EXISTS and v.rule == "design"
        assert v.witness is not None and v.witness.n == 14

    def test_conference_witness(self):
        v = necessary_conditions(14, 0)
        assert v.status == EXISTS and v.rule == "conference"

    def test_conference_block_witness(self):
        v = necessary_conditions(12, 1)
        assert v.status == EXISTS and v.rule == "conference-block"

    def test_degenerate_design_flagged(self):
        # (10, 2) sits in the design range with parameters (5, 1, 0); the
        # verdict must flag that the theorem coverage rests on a lam = 0
        # design, whichever witness family fires.
        v = necessary_conditions(10, 2)
        assert v.status == EXISTS and "degenerate" in v.detail


class TestOpenOutcomes:
    def test_design_exists_but_no_provider(self):
        # (22, 4) reduces to an (11, 5, 2)-design; none of the built-in
        # providers supplies it even though one exists in the literature.
        v = necessary_conditions(22, 4)
        assert v.status == OPEN and v.rule == "design-required"
        assert provider_design(11, 5, 2) is None

    def test_below_theory_range(self):
        # (18, 2) sits exactly at d = n/6 - 1, outside every theorem.
        v = necessary_conditions(18, 2)
        assert v.status == OPEN and v.rule == "unclassified"


class TestRuleTable:
    def test_design_parameters_are_computed_at_most_once(self, monkeypatch):
        # The design rows share one design_params_for result per pair.
        calls = []
        real = designs.design_params_for

        def counting(n, d):
            calls.append((n, d))
            return real(n, d)

        monkeypatch.setattr(designs, "design_params_for", counting)
        monkeypatch.setattr(classify, "design_params_for", counting)
        for n in range(6, 61, 2):
            for d in range(n // 2 - 1):
                calls.clear()
                necessary_conditions(n, d)
                assert len(calls) <= 1, (n, d, calls)


class TestSoundness:
    def test_never_contradicts_constructed_witnesses(self):
        # Whenever the classifier says impossible, no exact builder may
        # succeed; whenever it attaches a witness, validation already ran.
        for n in range(2, 41):
            for d in half_grid(n):
                verdict = necessary_conditions(n, d)
                if verdict.status != IMPOSSIBLE_STATUS:
                    continue
                assert d != Fraction(n, 2) - 1  # full_j always exists there
                if n % 2 == 0 and d == Fraction(n, 2) - 3:
                    pytest.fail(f"({n},{d}) excluded but interval endpoint exists")
                if d.denominator == 1 and n % 2 == 0 and n >= 6:
                    params = design_params_for(n, int(d))
                    if params is not None and Fraction(n, 4) - Fraction(3, 2) <= d:
                        design = provider_design(n // 2, params.k, params.lam)
                        if design is not None:
                            pytest.fail(f"({n},{d}) excluded but design builds")

    def test_witnesses_have_requested_parameters(self):
        for n in range(2, 41):
            for d in half_grid(n):
                verdict = necessary_conditions(n, d)
                if verdict.witness is not None:
                    assert verdict.witness.n == n
                    assert verdict.witness.d == d


def _rational_conditions(n, d):
    """The rule chain as it read in Fraction arithmetic: the oracle of the
    integer comparisons in necessary_conditions."""
    if n < 2:
        raise ValueError("order must be at least 2")
    d = Fraction(d)
    if d < 0:
        raise ValueError("d must be non-negative")
    half = Fraction(n, 2)

    if n > 2 and d > half - 1:
        return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_RANGE_OF_R)
    if n in (3, 4, 5) and d != half - 1:
        return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_SMALL_N)
    if d < half - 1:
        if n % 2 == 1:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="odd order admits only d = n/2 - 1")
        if d.denominator != 1:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="below n/2 - 1 the ratio must be an integer")
        if (n // 2 + int(d)) % 2 == 0:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="n/2 + d must be odd")
        if Fraction(n, 6) - 1 < d < Fraction(n, 4) - Fraction(3, 2):
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_DESIGN_GAP)
        if Fraction(n, 4) - Fraction(3, 2) <= d:
            if design_params_for(n, int(d)) is None:
                return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_DESIGN_NONEXISTENCE)

    design_range = d.denominator == 1 and Fraction(n, 4) - Fraction(3, 2) <= d < half - 1
    params = design_params_for(n, int(d)) if design_range else None
    found = necessary_conditions(n, d)
    if found.status == EXISTS:
        rule, witness, note = found.rule, found.witness, found.detail
        if params is not None and params.lam == 0:
            note = f"existence rests on the degenerate ({n // 2}, 1, 0)-design (lam = 0)"
            if rule == "design":
                note = f"degenerate design (lam = 0); {note}"
        return Verdict(n, d, EXISTS, rule, witness=witness, detail=note)

    if params is not None:
        return Verdict(
            n, d, OPEN, "design-required",
            detail=f"reduces to a symmetric ({n // 2}, {params.k}, {params.lam})-design; "
                   "no provider supplies one",
        )
    return Verdict(n, d, OPEN, "unclassified",
                   detail="no rule excludes this pair and no family covers it")


def _outcome(classifier, n, d):
    """Status, rule, detail and witness bytes of a verdict, or the error raised."""
    try:
        v = classifier(n, d)
    except ValueError as exc:
        return type(exc), str(exc)
    w = v.witness
    witness = None if w is None else (w.d, w.two_q.dtype.str, w.two_q.shape, w.two_q.tobytes())
    return v.n, v.d, v.status, v.rule, v.detail, witness


class TestIntegerRulesMatchTheRationalOracle:
    def test_every_sweep_pair(self):
        # Every half-integer d <= n/2 - 1 with 2 <= n <= 200.
        pairs = [(n, Fraction(j, 2)) for n in range(2, 201) for j in range(n - 1)]
        assert len(pairs) == 19_900
        statuses = {EXISTS: 0, IMPOSSIBLE_STATUS: 0, OPEN: 0}
        for n, d in pairs:
            got = _outcome(necessary_conditions, n, d)
            assert got == _outcome(_rational_conditions, n, d), (n, d)
            statuses[got[2]] += 1
        assert statuses == {EXISTS: 332, IMPOSSIBLE_STATUS: 18_692, OPEN: 876}

    @pytest.mark.parametrize("q", [3, 5])
    def test_thirds_and_fifths(self, q):
        # Up to d = n/2, one step past the range-of-r edge.
        for n in range(2, 61):
            for j in range(n * q // 2 + 2):
                d = Fraction(j, q)
                assert _outcome(necessary_conditions, n, d) == \
                    _outcome(_rational_conditions, n, d), (n, d)

    @pytest.mark.parametrize("d", [Fraction(10**30 + 1, 2), Fraction(10**40 + 1, 10**40),
                                   Fraction(10**40 - 1, 10**40), 10**30, Fraction(1, 10**40)])
    def test_large_numerators_and_denominators(self, d):
        for n in (2, 3, 4, 5, 6, 8, 10, 12, 30, 31):
            assert _outcome(necessary_conditions, n, d) == \
                _outcome(_rational_conditions, n, d), (n, d)

    @pytest.mark.parametrize("n, d", [(1, 0), (0, 1), (-3, Fraction(1, 2)), (6, -1),
                                      (6, Fraction(-1, 2)), (2, Fraction(-10**40, 3)),
                                      (1, -1)])
    def test_value_errors(self, n, d):
        expected = _outcome(_rational_conditions, n, d)
        assert expected[0] is ValueError
        assert _outcome(necessary_conditions, n, d) == expected

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else: 1e-9 for numerical
checks (1e-8 for the quadratic residual), zero for everything exact.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import sign_matrix, _H12_ROWS
from mpsmat.classify import IMPOSSIBLE_STATUS, necessary_conditions
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
    verify_design,
    verify_hadamard,
)
from mpsmat.exact import (
    IntegerMps,
    design_mps,
    extract_design,
    full_j_mps,
    hadamard_bridge,
    hadamard_to_mps,
    structure_check,
    upper_interval_mps,
)
from mpsmat.families import (
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
from mpsmat.parametrize import (
    HermitianUnitaryParam,
    QuadraticSpec,
    UnitaryParam,
    build_hermitian_unitary,
    build_quadratic_solution,
    build_unitary,
    decompose_hermitian_unitary,
    decompose_unitary,
    eigenbasis_from_param,
)
from mpsmat.search import (
    are_equivalent,
    candidate_ratios,
    exhaustive_search,
    naive_search,
)

TOL = 1e-9

# Expected nonempty ratios per order (criterion 3).
EXPECTED_RATIOS = {
    3: {Fraction(1, 2)},
    4: {Fraction(1)},
    5: {Fraction(3, 2)},
    6: {Fraction(0), Fraction(2)},
    7: {Fraction(5, 2)},
    8: {Fraction(1), Fraction(3)},
}


def _teststamp(num: int, text: str) -> None:
    print(f"[criterion {num}] PASS: {text}")


def _interval_points(lo: float, hi: float, count: int = 12) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _swept_constructions() -> list[tuple[str, int, float, np.ndarray]]:
    """Every family over its admissible grid: (family, n, d, matrix)."""
    h12 = sign_matrix(_H12_ROWS)
    out = []
    for n in range(4, 31, 2):
        out.append(("full_j", n, n / 2 - 1, full_j_mps(n).matrix()))
    for d in _interval_points(0.0, 5.0):
        out.append(("n2", 2, d, n2_matrix(d)))
    for n in range(4, 31, 2):
        lo, hi = max(0.0, n / 2 - 3), n / 2 - 1
        for d in _interval_points(lo, hi):
            out.append(("upper_interval", n, d, upper_interval(n, d)))
    hadamards = {6: sylvester_hadamard(4), 14: sylvester_hadamard(8),
                 22: h12, 30: sylvester_hadamard(16)}
    for n, h in hadamards.items():
        for d in _interval_points(n / 4 - 1.5, n / 2 - 1):
            out.append(("hadamard_core", n, d, hadamard_core_family(n, d, h)))
    for n in (10, 26):
        c = paley_conference(n // 2 + 1)
        for d in _interval_points(n / 4 - 1.5 - 1 / (n - 2), n / 2 - 1):
            out.append(("conference_core", n, d, conference_core_family(n, d, c)))
    for n in range(6, 31, 2):
        out.append(("complex_core", n, n / 4 - 1.5, complex_core_matrix(n)))
    conf_blocks = {12: paley_conference(6), 28: paley_conference(14),
                   8: math.sqrt(3) * upper_interval(4, 0.0)}
    for n, c in conf_blocks.items():
        for d in _interval_points(0.0, 1.0):
            out.append(("conference_block", n, d, conference_block_family(n, d, c)))
    design_providers = [
        hadamard_to_design(sylvester_hadamard(8)),      # n = 14
        hadamard_to_design(h12),                        # n = 22
        hadamard_to_design(sylvester_hadamard(16)),     # n = 30
        identity_design(5),                             # n = 10
    ]
    for design in design_providers:
        n = 2 * design.v
        lo = design_family_ratio(design, math.pi / 2)
        for d in _interval_points(lo, n / 2 - 1):
            alpha = design_alpha_for_ratio(design, d)
            out.append(("design_complex", n, d, design_family(design, alpha)))
    real_design_cases = [
        (14, 2, hadamard_to_design(sylvester_hadamard(8))),
        (22, 4, hadamard_to_design(h12)),
        (30, 6, hadamard_to_design(sylvester_hadamard(16))),
        (10, 2, identity_design(5)),
        (8, 1, identity_design(4)),
        (6, 0, identity_design(3)),
    ]
    for n, d, design in real_design_cases:
        out.append(("design_real", n, float(d), design_mps(design, n, d).matrix()))
    return out


@pytest.fixture(scope="module")
def swept():
    return _swept_constructions()


def test_criterion_1_construction_sweep(swept):
    started = time.monotonic()
    assert len(swept) > 300
    for family, n, d, s in swept:
        label = (family, n, d)
        assert is_hermitian(s, TOL), label
        assert is_unitary(s, TOL), label
        prof = mps_profile(s, TOL)
        assert abs(prof.d - d) <= 1e-9, label
        assert check_trace_identity(prof, TOL), label
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _teststamp(1, f"{len(swept)} family members verified at 1e-9 "
                  f"in {elapsed:.2f}s")


def test_criterion_2_parametrization_round_trips():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, n))
        t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
        perm = tuple(int(x) for x in rng.permutation(n))
        param = HermitianUnitaryParam(n=n, m=m, t=t, perm=perm)
        s = build_hermitian_unitary(param)
        assert np.linalg.norm(build_hermitian_unitary(
            decompose_hermitian_unitary(s)) - s) < 1e-9
        plus, minus = eigenbasis_from_param(param)
        assert np.linalg.norm(s @ plus - plus) < 1e-9
        assert np.linalg.norm(s @ minus + minus) < 1e-9
    for _ in range(200):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, n + 1))
        t = None
        if m < n:
            t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
        h = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        param = UnitaryParam(n=n, m=m, t=t, s_h=(h + h.conj().T) / 2, perm=tuple(
            int(x) for x in rng.permutation(n)))
        u = build_unitary(param)
        assert np.linalg.norm(build_unitary(decompose_unitary(u)) - u) < 1e-9
    for _ in range(200):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, n))
        t = rng.normal(size=(m, n - m)) + 1j * rng.normal(size=(m, n - m))
        param = HermitianUnitaryParam(n=n, m=m, t=t, perm=tuple(range(n)))
        a, b = float(rng.uniform(0.1, 4.0)), float(rng.uniform(-2.0, 2.0))
        hmat = build_quadratic_solution(QuadraticSpec(a=a, b=b), param)
        resid = hmat @ hmat - a * np.eye(n) - b * hmat
        assert np.linalg.norm(resid) < 1e-8
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _teststamp(2, f"600 round-trips (block, general, quadratic) in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def all_mode_search():
    """exhaustive_search(n, d, "all") on the candidate grid of n = 3..8, shared
    by criteria 3 and 6, and the seconds it took."""
    started = time.monotonic()
    results = {(n, d): exhaustive_search(n, d, mode="all")
               for n in range(3, 9) for d in candidate_ratios(n)}
    return results, time.monotonic() - started


def test_criterion_3_small_order_classification(all_mode_search):
    results, search_s = all_mode_search
    started = time.monotonic()
    for n in range(3, 9):
        nonempty = set()
        for d in candidate_ratios(n):
            res = results[n, d]
            assert res.complete
            if res.count:
                nonempty.add(d)
        assert nonempty == EXPECTED_RATIOS[n], n
    for n in (3, 4, 5):
        for d in candidate_ratios(n):
            res = results[n, d]
            oracle = naive_search(n, d)
            want = (np.stack([m.two_q for m in oracle]).astype(np.int8)
                    if oracle else np.empty((0, n, n), dtype=np.int8))
            assert np.array_equal(res.two_q_stack, want), (n, d)
    elapsed = search_s + time.monotonic() - started
    assert elapsed < 600.0
    _teststamp(3, f"orders 3..8 classified over the full candidate grid, "
                  f"n<=5 bit-identical to the naive oracle, in {elapsed:.2f}s")


def test_criterion_4_design_correspondence():
    fano = hadamard_to_design(sylvester_hadamard(8))
    m = design_mps(fano, 14, 2)
    q = m.two_q
    assert np.array_equal(
        (q // 2) @ (q // 2).T, 17 * np.eye(14, dtype=np.int64))
    recovered = extract_design(m)
    assert (recovered.v, recovered.k, recovered.lam) == (7, 3, 1)
    assert verify_design(recovered.incidence, 7, 3, 1)
    h = hadamard_bridge(m)
    assert h.shape == (8, 8) and verify_hadamard(h)
    back = hadamard_to_mps(h)
    assert (back.n, back.d) == (14, Fraction(2))
    _teststamp(4, "Fano <-> M_14(2) <-> Hadamard(8) round-trips, exact")


def _buildable(n: int, d: Fraction) -> bool:
    """Can any exact family construct (n, d)?  Used to confront 'impossible'."""
    from mpsmat.classify import provider_design
    from mpsmat.designs import design_params_for

    if d == Fraction(n, 2) - 1 or n == 2:
        return True
    if n % 2 == 0 and d == Fraction(n, 2) - 3 and d >= 0:
        return True
    if d.denominator == 1 and n % 2 == 0 and n >= 6:
        params = design_params_for(n, int(d))
        if params is not None and Fraction(n, 4) - Fraction(3, 2) <= d:
            if provider_design(n // 2, params.k, params.lam) is not None:
                return True
    if d == 0:
        from mpsmat.classify import provider_conference

        if provider_conference(n) is not None:
            return True
    if d == 1 and n % 2 == 0:
        from mpsmat.classify import provider_conference

        if provider_conference(n // 2) is not None:
            return True
    return False


def test_criterion_5_theorem_consistency():
    checked = 0
    for n in range(2, 41):
        d = Fraction(0)
        while d <= Fraction(n, 2) - 1:
            verdict = necessary_conditions(n, d)
            if verdict.status == IMPOSSIBLE_STATUS:
                assert not _buildable(n, d), (n, d, verdict.rule)
            if verdict.witness is not None:
                # IntegerMps validation re-runs all exact identities.
                IntegerMps(d=verdict.witness.d, two_q=verdict.witness.two_q)
                assert (verdict.witness.n, verdict.witness.d) == (n, d)
            checked += 1
            d += Fraction(1, 2)
    for n in range(3, 8):
        for d in candidate_ratios(n):
            verdict = necessary_conditions(n, d)
            found = exhaustive_search(n, d, max_results=1).count > 0
            if verdict.status == IMPOSSIBLE_STATUS:
                assert not found, (n, d)
            if found:
                assert verdict.status != IMPOSSIBLE_STATUS, (n, d)
    v26 = necessary_conditions(26, 4)
    assert (v26.status, v26.rule) == (IMPOSSIBLE_STATUS, "design-gap")
    # no parity rule may exclude it: check each parity predicate directly
    assert 26 % 2 == 0 and Fraction(4).denominator == 1 and (13 + 4) % 2 == 1
    _teststamp(5, f"{checked} half-integer pairs (n <= 40) consistent; "
                  f"(26, 4) excluded by design-gap only")


def _batch_structure_identities(stack: np.ndarray, two_d: int) -> None:
    """Exact block-structure identities for every matrix in a search stack.

    Vectorized restatement of structure_check for d != 0: global flip to
    p >= n/2, stable diagonal sort, first-row/column sign normalization of
    both diagonal blocks, then the three exact G identities.  Cross-validated
    against structure_check on a deterministic subsample below.
    """
    k, n, _ = stack.shape
    if k == 0:
        return
    p = n // 2
    q = stack.astype(np.int64)
    diag = q[:, np.arange(n), np.arange(n)]
    flip = np.where((diag > 0).sum(axis=1) * 2 < n, -1, 1)
    q = q * flip[:, None, None]
    diag = q[:, np.arange(n), np.arange(n)]
    assert np.all((diag > 0).sum(axis=1) == p), "p must equal n/2 in range"
    order = np.argsort(diag < 0, axis=1, kind="stable")
    q = np.take_along_axis(q, order[:, :, None], axis=1)
    q = np.take_along_axis(q, order[:, None, :], axis=2)
    signs = np.ones((k, n), dtype=np.int64)
    signs[:, 1:p] = np.where(q[:, 0, 1:p] == -2, 1, -1)
    signs[:, p + 1:] = np.where(q[:, p, p + 1:] == 2, 1, -1)
    q = q * signs[:, :, None] * signs[:, None, :]
    off = ~np.eye(p, dtype=bool)
    assert np.all(q[:, :p, :p][:, off] == -2)
    assert np.all(q[:, p:, p:][:, off] == 2)
    g = q[:, :p, p:] // 2
    ggt = np.einsum("kij,klj->kil", g, g)
    gtg = np.einsum("kji,kjl->kil", g, g)
    assert np.all(ggt == gtg), "normality fails"
    row_sums = g.sum(axis=2)
    col_sums = g.sum(axis=1)
    assert np.all(row_sums == row_sums[:, :1])
    assert np.all(col_sums == row_sums[:, :1]), "commutation with J fails"
    d = two_d // 2
    target = (n - 2 * d - 2) * np.eye(p, dtype=np.int64) + (
        2 * d + 2 - n // 2) * np.ones((p, p), dtype=np.int64)
    assert np.all(ggt == target[None]), "Gram identity fails"


def test_criterion_6_structure_identities(all_mode_search):
    results, _ = all_mode_search
    started = time.monotonic()
    total = 0
    for n in range(3, 9):
        for d in candidate_ratios(n):
            if not (Fraction(n, 6) - 1 < d < Fraction(n, 2) - 1):
                continue
            if (2 * d).denominator != 1:
                continue
            res = results[n, d]
            if res.count == 0:
                continue
            _batch_structure_identities(res.two_q_stack, int(2 * d))
            # tie the batch check to the library operation on a subsample
            for qmat in res.two_q_stack[::64]:
                rep = structure_check(IntegerMps(d=d, two_q=qmat.astype(np.int64)))
                assert rep.normal and rep.commutes_with_j and rep.gram_ok
            total += res.count
    design_cases = [
        design_mps(hadamard_to_design(sylvester_hadamard(8)), 14, 2),
        design_mps(hadamard_to_design(sign_matrix(_H12_ROWS)), 22, 4),
        design_mps(hadamard_to_design(sylvester_hadamard(16)), 30, 6),
        design_mps(identity_design(5), 10, 2),
        design_mps(identity_design(4), 8, 1),
    ]
    for m in design_cases:
        rep = structure_check(m)
        assert rep.normal and rep.commutes_with_j and rep.gram_ok
        total += 1
    elapsed = time.monotonic() - started
    _teststamp(6, f"exact G identities on {total} matrices in {elapsed:.2f}s")


def test_criterion_7_two_classes_at_top_ratio():
    res = exhaustive_search(6, 2, mode="up_to_equivalence")
    assert res.complete and res.count == 2
    reps = res.matrices()
    flags = {
        (are_equivalent(rep, full_j_mps(6)) is not None,
         are_equivalent(rep, upper_interval_mps(6, 2)) is not None)
        for rep in reps
    }
    assert flags == {(True, False), (False, True)}
    _teststamp(7, "exactly 2 classes at (6, 2): full-J and the interval member")


def test_criterion_8_scattering(swept):
    for family, n, d, s in swept:
        probs = np.abs(np.asarray(s, dtype=complex)) ** 2
        sums = probs.sum(axis=0)
        assert np.max(np.abs(sums - 1.0)) <= 1e-9, (family, n, d)
        reflection = np.real(np.diagonal(probs))
        expected = d * d / (d * d + n - 1)
        assert np.max(np.abs(reflection - expected)) <= 1e-9, (family, n, d)
    _teststamp(8, f"scattering sums/reflections verified on all "
                  f"{len(swept)} swept members")

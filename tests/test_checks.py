"""The exact and float checks against the oracles built on n x n tables.

_check_two_q, _gram_equals, _verify_unimodular and _complex_array compare
with scalars where the oracles in tests/oracles.py build a target or moduli
table; each must give the same return value, or raise the same exception
class with the same message, on valid, perturbed and malformed inputs.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import _H12_ROWS, random_hermitian_unitary, random_unitary, sign_matrix
from mpsmat import cli, core, exact
from mpsmat.designs import (
    _gram_equals,
    _verify_unimodular,
    fourier_complex_hadamard,
    hadamard_to_design,
    paley_conference,
    sylvester_hadamard,
)
from mpsmat.exact import (
    _NOT_CONFERENCE,
    IntegerMps,
    _check_two_q,
    conference_block_mps,
    conference_mps,
    design_mps,
    full_j_mps,
    hadamard_to_mps,
    two_by_two_mps,
    upper_interval_mps,
)
from mpsmat.parametrize import decompose_hermitian_unitary, decompose_unitary
from mpsmat.serialize import _NOT_PAIRS, FormatError, _complex_array


H12 = sign_matrix(_H12_ROWS)


def _outcome(f, *args):
    """("ok", value) or (exception class, message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def _wrap(x: int) -> int:
    return (x + 2**63) % 2**64 - 2**63


def _negated(x):
    """-x in x's dtype: the most negative integer wraps to itself, as array
    negation does, where scalar negation warns."""
    return (-np.atleast_1d(x))[0]


def _same_array(x, y) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)


# --- 2Q stacks ----------------------------------------------------------------

#: Valid doubled matrices 2Q with their 2d: d = 0 and d = 1 (where the
#: diagonal and off-diagonal moduli are both 2) among them.
_MEMBERS = [(m.two_q, m.two_d) for m in (
    conference_mps(paley_conference(6)),
    conference_mps(paley_conference(14)),
    IntegerMps(d=1, two_q=2 * sylvester_hadamard(4)),
    conference_block_mps(paley_conference(6)),
    full_j_mps(5),
    full_j_mps(8),
    upper_interval_mps(10, 2),
    hadamard_to_mps(sylvester_hadamard(8)),
    design_mps(hadamard_to_design(H12), 22, 4),
    two_by_two_mps(Fraction(127, 2)),
)]

#: 2 x 2 members whose Gram entry 4d^2 + 4 passes 2^53: the int64 path.
_WIDE = [(two_by_two_mps(Fraction(t, 2)).two_q, t)
         for t in (2**26 + 7, 94_906_267, 3_037_000_499)]


@st.composite
def _two_q_stacks(draw):
    base, two_d = draw(st.sampled_from(_MEMBERS + _WIDE))
    fits_int8 = int(np.abs(base).max()) <= 127
    dtype = draw(st.sampled_from([np.int8, np.int64] if fits_int8 else [np.int64]))
    info = np.iinfo(dtype)
    stack = np.repeat(base.astype(dtype)[None], draw(st.integers(1, 3)), axis=0)
    n = base.shape[0]
    values = st.sampled_from([v for v in (0, 1, -1, 2, -2, 3, two_d, -two_d, two_d + 2,
                                          info.min, info.max) if info.min <= v <= info.max])
    for _ in range(draw(st.integers(0, 2))):
        k, i, j = (draw(st.integers(0, len(stack) - 1)), draw(st.integers(0, n - 1)),
                   draw(st.integers(0, n - 1)))
        kind = draw(st.sampled_from(["flip", "flip-pair", "set", "set-pair"]))
        value = _negated(stack[k, i, j]) if kind.startswith("flip") else draw(values)
        stack[k, i, j] = value
        if kind.endswith("pair"):
            stack[k, j, i] = value
    # The caller keeps 4d^2 + 4n - 4 in the int64 range.
    claimed = max(0, two_d + draw(st.sampled_from([0, 0, 0, -2, 2])))
    return stack, claimed if claimed**2 + 4 * n < 2**63 else two_d


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_two_q_stacks())
def test_check_two_q_matches_the_table_oracle(case):
    stack, two_d = case
    assert (_outcome(_check_two_q, stack, two_d)
            == _outcome(oracles.check_two_q, stack, two_d))


@pytest.mark.parametrize("q, two_d", _MEMBERS + _WIDE)
def test_every_member_passes_and_one_flipped_sign_fails(q, two_d):
    _check_two_q(q[None], two_d)
    n = len(q)
    for i, j in [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0), (1, 0)]:
        for pair in (False, True):
            bad = q.copy()
            bad[i, j] = -bad[i, j]
            if pair:
                bad[j, i] = bad[i, j]
            expected = _outcome(oracles.check_two_q, bad[None], two_d)
            if i != j and not pair:
                assert expected == (exact.StructureViolationError, "2Q must be symmetric")
            assert _outcome(_check_two_q, bad[None], two_d) == expected


# --- Gram identities ----------------------------------------------------------

_GRAM_BASES = [sylvester_hadamard(8), H12, paley_conference(14),
               hadamard_to_design(sylvester_hadamard(16)).incidence,
               full_j_mps(7).two_q, _WIDE[0][0], _WIDE[2][0]]


@st.composite
def _gram_cases(draw):
    a = np.array(draw(st.sampled_from(_GRAM_BASES)), dtype=np.int64)
    n = a.shape[0]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i, j] = draw(st.sampled_from([-a[i, j], 0, a[i, j] + 1, 2**26, -2**31]))
    gram = a @ a.T  # int64, wrapping as the exact path does
    diag = _wrap(int(gram[0, 0]) + draw(st.sampled_from([0, 0, -1, 1])))
    off = _wrap(int(gram[0, -1]) + draw(st.sampled_from([0, 0, -1, 1])))
    if draw(st.booleans()):
        a = np.stack([a, a[::-1, ::-1]])
    return a, diag, off


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_gram_cases())
def test_gram_equals_matches_the_target_oracle(case):
    a, diag, off = case
    target = np.full((a.shape[-2],) * 2, off, dtype=np.int64)
    np.fill_diagonal(target, diag)
    assert _gram_equals(a, diag, off) == oracles.gram_equals(a, target)


# --- Hadamard and conference matrices -------------------------------------------

_UNIMODULAR = [sylvester_hadamard(1), sylvester_hadamard(8), H12,
               paley_conference(6), paley_conference(14), fourier_complex_hadamard(3),
               fourier_complex_hadamard(6), paley_conference(18).astype(complex),
               np.zeros((1, 1)), np.zeros((1, 1), dtype=complex)]


@st.composite
def _unimodular_cases(draw):
    a = np.array(draw(st.sampled_from(_UNIMODULAR)))
    n = a.shape[0]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        step = draw(st.sampled_from(["flip", "zero", "two", "noise", "wide"]))
        if step == "flip":
            a[i, j] = -a[i, j]
        elif step == "zero":
            a[i, j] = 0
        elif step == "two":
            a[i, j] = 2
        elif step == "wide":
            a = a.astype(float if a.dtype.kind == "i" else a.dtype)
            a[i, j] += 0.5
        else:
            a = a.astype(complex)
            a[i, j] += draw(st.sampled_from([1e-12, -3e-10, 2e-9, 1e-6])) * (1 + 1j)
    return a, draw(st.sampled_from([1e-9, 1e-12, 1e-6]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=_unimodular_cases(), conference=st.booleans())
def test_verify_unimodular_matches_the_table_oracle(case, conference):
    a, tol = case
    assert (_outcome(_verify_unimodular, a, tol, conference)
            == _outcome(oracles.verify_unimodular, a, tol, conference))


@st.composite
def _square_integer_matrices(draw):
    if draw(st.booleans()):
        c = np.array(paley_conference(draw(st.sampled_from([6, 14, 18]))))
    else:
        n = draw(st.integers(1, 6))
        c = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    n = c.shape[0]
    wide = [2, -2, 2**62, 2**63 - 1, -2**63 + 1, -2**63]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c[i, j] = draw(st.sampled_from([_negated(c[i, j]), 0, 1, -1] + wide))
        if draw(st.booleans()):
            c[j, i] = c[i, j]
    return c


@settings(max_examples=400, deadline=None, derandomize=True)
@given(c=_square_integer_matrices())
def test_conference_builders_refuse_every_non_conference(c):
    # A symmetric real conference matrix builds; anything else is refused
    # with the builders' one message, however doubling would wrap it.
    is_conference = (np.array_equal(c, c.T)
                     and oracles.verify_unimodular(c, core.DEFAULT_TOL, True))
    for d, build, member in [(0, conference_mps, lambda c: 2 * c),
                             (1, conference_block_mps, _conference_block_oracle)]:
        if d == 0 and len(c) == 1:
            continue  # order 1: IntegerMps refuses the order first
        got = _outcome(build, c)
        if is_conference:
            assert got == ("ok", IntegerMps(d=d, two_q=member(c)))
        else:
            assert got == (ValueError, _NOT_CONFERENCE)


def _conference_block_oracle(c):
    eye = np.eye(len(c), dtype=np.int64)
    return 2 * np.block([[eye + c, c - eye], [c - eye, -(eye + c)]])


def test_a_doubled_entry_that_wraps_onto_two_is_refused():
    # 2 (2^63 - 1) wraps to -2 in int64: without the range test it would
    # pass every check as -1.
    c = np.array(paley_conference(6))
    c[c == -1] = 2**63 - 1
    assert np.array_equal(2 * c, 2 * paley_conference(6))
    for build in (conference_mps, conference_block_mps):
        with pytest.raises(ValueError, match=f"^{_NOT_CONFERENCE}$"):
            build(c)


# --- Complex rows ------------------------------------------------------------

_PARTS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.integers(-2**70, 2**70), st.sampled_from([10**400, -10**400]),
                   st.booleans(), st.text(max_size=2), st.none(),
                   st.lists(st.integers(0, 1), max_size=2))
_CELLS_ = st.one_of(st.lists(_PARTS, min_size=2, max_size=2),
                    st.lists(st.floats(-4, 4), min_size=2, max_size=2),
                    st.lists(_PARTS, max_size=3), st.text(max_size=2), st.integers())
_ROW = st.one_of(st.lists(_CELLS_, max_size=3),
                 st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2), max_size=3),
                 st.text(min_size=1, max_size=2), st.integers())
_ROWS = st.one_of(st.lists(_ROW, max_size=3), st.integers(), st.none(),
                  st.text(min_size=1, max_size=2),
                  st.integers(0, 3).flatmap(lambda w: st.lists(
                      st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2),
                               min_size=w, max_size=w), max_size=3)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(rows=_ROWS)
def test_complex_array_matches_the_nested_conversion(rows):
    got, expected = _outcome(_complex_array, rows), _outcome(oracles.complex_array, rows)
    if expected[0] == "ok":
        assert got[0] == "ok" and _same_array(got[1], expected[1])
    else:
        assert got == expected


@pytest.mark.parametrize("rows", [{}, [{}], "", ["", ""], [{}, []], ({"": 1},)])
def test_complex_rows_that_hold_no_json_array_are_refused(rows):
    # The nested conversion let a TypeError out for {} and [{}], and called ""
    # ragged.
    with pytest.raises(FormatError, match=rf"^{_NOT_PAIRS}$".replace("[", r"\[")):
        _complex_array(rows)


# --- One scan of the entries per call ---------------------------------------------

def _finiteness_scans(monkeypatch, f, *args):
    calls = []
    real = np.isfinite

    def counted(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(np, "isfinite", counted)
    f(*args)
    monkeypatch.setattr(np, "isfinite", real)
    return len(calls)


def test_the_checks_scan_the_entries_once(monkeypatch, tmp_path, capsys, rng):
    s = random_hermitian_unitary(6, 2, rng)
    assert _finiteness_scans(monkeypatch, decompose_hermitian_unitary, s) == 1
    assert _finiteness_scans(monkeypatch, decompose_unitary, random_unitary(6, rng)) == 1
    path = tmp_path / "m.json"
    assert cli.main(["construct", "--family", "full_j", "--n", "6", "--out", str(path)]) == 0
    assert _finiteness_scans(monkeypatch, cli.main, ["verify", str(path)]) == 1
    assert _finiteness_scans(monkeypatch, cli.main, ["scatter", str(path), "--edge", "1"]) == 1
    capsys.readouterr()

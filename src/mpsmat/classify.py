"""Existence classification for real MPS matrices M_n^R(d).

necessary_conditions gives the verdict of the first row of one ordered rule
table, ``_TABLE``, that decides: the exact exclusion rules (integer comparisons
on d = p/q in lowest terms), the witnesses (real members of the registry
``families.FAMILIES``, conference matrices at d = 0), then the open pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .designs import design_params_for, provider_conference, provider_design
from .exact import IntegerMps, conference_mps
from .families import FAMILIES

__all__ = [
    "EXISTS", "IMPOSSIBLE_STATUS", "OPEN", "Verdict", "necessary_conditions",
    "RULE_RANGE_OF_R", "RULE_SMALL_N", "RULE_REAL_PARITY", "RULE_DESIGN_GAP",
    "RULE_DESIGN_NONEXISTENCE", "provider_design", "provider_conference",
]

EXISTS = "exists_with_witness"
IMPOSSIBLE_STATUS = "impossible"
OPEN = "open"

RULE_RANGE_OF_R = "range-of-r"
RULE_SMALL_N = "small-n"
RULE_REAL_PARITY = "real-parity"
RULE_DESIGN_GAP = "design-gap"
RULE_DESIGN_NONEXISTENCE = "design-nonexistence"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome for (n, d): status, deciding rule, witness.

    ``rule`` names the exclusion rule for impossible pairs, the witness
    family for existing ones, and the missing ingredient for open ones.
    ``detail`` is a human-readable note (e.g. flags a degenerate design).
    """

    n: int
    d: Fraction
    status: str
    rule: str
    witness: Optional[IntegerMps] = None
    detail: str = ""

    def __post_init__(self):
        if self.status == IMPOSSIBLE_STATUS and self.rule not in _EXCLUSIONS:
            raise ValueError(f"impossible verdict must cite one of {sorted(_EXCLUSIONS)}")


class _Pair:
    """(n, d) as the rules read it.  d = p/q in lowest terms with q >= 1, so
    every rule is an integer comparison: d against n/2 - 1 is 2p against
    ``edge`` = (n - 2)q, and the design range is the integers d in
    [n/4 - 3/2, n/2 - 1)."""

    def __init__(self, n: int, d: Fraction) -> None:
        self.n, self.d, self.p, self.q = n, d, d.numerator, d.denominator
        self.edge = (n - 2) * self.q
        self.design_range = self.q == 1 and n - 6 <= 4 * self.p and 2 * self.p < self.edge

    @cached_property
    def params(self):
        """The design parameters (q, k, lam) that fit (n, d), if any.  Read
        only past real-parity, which leaves the design range to even n >= 6."""
        return design_params_for(self.n, self.p) if self.design_range else None


def _member(family: str, x: _Pair, aux=None):
    """("", witness) for the real member of a registry family at (n, d), if any."""
    witness = FAMILIES[family].exact(x.n, x.d, aux)
    return None if witness is None else ("", witness)


def _real_parity(x: _Pair):
    if 2 * x.p >= x.edge:
        return None
    if x.n % 2 == 1:
        return "odd order admits only d = n/2 - 1", None
    if x.q != 1:
        return "below n/2 - 1 the ratio must be an integer", None
    return ("n/2 + d must be odd", None) if (x.n // 2 + x.p) % 2 == 0 else None


def _interval_endpoint(x: _Pair):
    found = _member("upper_interval", x)
    # Below n/2 - 1 the endpoint is d = n/2 - 3, whose design has lam = 0.
    if found and x.params is not None and x.params.lam == 0:
        return f"existence rests on the degenerate ({x.n // 2}, 1, 0)-design (lam = 0)", found[1]
    return found


def _design(x: _Pair):
    design = None if x.params is None else provider_design(x.n // 2, x.params.k, x.params.lam)
    return None if design is None else _member("design_real", x, design)


def _conference(x: _Pair):
    c = provider_conference(x.n) if x.d == 0 else None
    return None if c is None else ("", conference_mps(c))


#: The rules in the order they are tried, (rule, status, test): a test sees a
#: pair that no earlier row decided and returns None, or the verdict's
#: (detail, witness).  The last row decides every pair.
_TABLE = (
    (RULE_RANGE_OF_R, IMPOSSIBLE_STATUS,
     lambda x: ("", None) if x.n > 2 and 2 * x.p > x.edge else None),
    (RULE_SMALL_N, IMPOSSIBLE_STATUS,
     lambda x: ("", None) if x.n in (3, 4, 5) and 2 * x.p != x.edge else None),
    (RULE_REAL_PARITY, IMPOSSIBLE_STATUS, _real_parity),
    # n/6 - 1 < d < n/4 - 3/2, times 6 and 4: below n/2 - 1, where d is now an integer.
    (RULE_DESIGN_GAP, IMPOSSIBLE_STATUS,
     lambda x: ("", None) if x.n - 6 < 6 * x.p and 4 * x.p < x.n - 6 else None),
    (RULE_DESIGN_NONEXISTENCE, IMPOSSIBLE_STATUS,
     lambda x: ("", None) if x.design_range and x.params is None else None),
    ("full-j", EXISTS, lambda x: _member("full_j", x)),
    # Past the exact member's reach, the float 2 x 2 family still exists.
    ("two-by-two", EXISTS, lambda x: None if x.n != 2 else
     _member("n2", x) or ("2x2 family exists for every d >= 0", None)),
    ("interval-endpoint", EXISTS, _interval_endpoint),
    ("conference-block", EXISTS, lambda x: _member("conference_block", x)),
    ("design", EXISTS, _design),
    ("conference", EXISTS, _conference),
    ("design-required", OPEN, lambda x: None if x.params is None else (
        f"reduces to a symmetric ({x.n // 2}, {x.params.k}, {x.params.lam})-design; "
        "no provider supplies one", None)),
    ("unclassified", OPEN, lambda x: ("no rule excludes this pair and no family covers it", None)),
)

_EXCLUSIONS = frozenset(rule for rule, status, _ in _TABLE if status == IMPOSSIBLE_STATUS)


def necessary_conditions(n: int, d) -> Verdict:
    """Classify (n, d) by the first row of ``_TABLE`` that decides: impossible
    with a citing rule, exists with a witness, or open."""
    if n < 2:
        raise ValueError("order must be at least 2")
    # Fraction(d) of a Fraction costs a microsecond, a fifth of a classify.
    d = d if type(d) is Fraction else Fraction(d)
    if d.numerator < 0:
        raise ValueError("d must be non-negative")
    pair = _Pair(n, d)
    for rule, status, test in _TABLE:
        decided = test(pair)
        if decided is not None:
            return Verdict(n, d, status, rule, decided[1], decided[0])
    raise RuntimeError("the last row of the rule table decides every pair")


def _witness(n: int, d) -> Optional[tuple[str, Optional[IntegerMps], str]]:
    """(rule, witness, detail) of the verdict of (n, d) if it exists, else None."""
    v = necessary_conditions(n, d)
    return (v.rule, v.witness, v.detail) if v.status == EXISTS else None

"""Existence classification for real MPS matrices M_n^R(d).

necessary_conditions applies the exact exclusion rules in a fixed order, each
an integer comparison on d = p/q in lowest terms, and, when none fires, tries
to attach a constructed witness:

  range-of-r            d > n/2 - 1 with n > 2
  small-n               n in {3, 4, 5} and d != n/2 - 1
  real-parity           d < n/2 - 1 with n odd, d not a non-negative
                        integer, or n/2 + d even
  design-gap            n/6 - 1 < d < n/4 - 3/2 (no matrix exists there)
  design-nonexistence   d in [n/4 - 3/2, n/2 - 1) but no integer design
                        parameters (q, k, lam) fit (n, d)

Witnesses are the real members of the registry ``families.FAMILIES``, tried
in its order (full-J, the 2x2 family, the real interval endpoints, conference
blocks, and the design construction with the built-in providers), then
conference matrices at d = 0.  Surviving pairs without a
provider-backed witness are reported ``open``: either the reduction to a
symmetric design succeeded but no such design is available here, or the pair
lies in the small-ratio region the theory does not settle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .designs import design_params_for, provider_conference, provider_design
from .exact import IntegerMps, conference_mps
from .families import FAMILIES

__all__ = [
    "EXISTS",
    "IMPOSSIBLE_STATUS",
    "OPEN",
    "RULE_RANGE_OF_R",
    "RULE_SMALL_N",
    "RULE_REAL_PARITY",
    "RULE_DESIGN_GAP",
    "RULE_DESIGN_NONEXISTENCE",
    "Verdict",
    "necessary_conditions",
    "provider_design",
    "provider_conference",
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
        if self.status == IMPOSSIBLE_STATUS:
            allowed = {
                RULE_RANGE_OF_R,
                RULE_SMALL_N,
                RULE_REAL_PARITY,
                RULE_DESIGN_GAP,
                RULE_DESIGN_NONEXISTENCE,
            }
            if self.rule not in allowed:
                raise ValueError(f"impossible verdict must cite one of {allowed}")


#: Witness rule of each family with real members.
_RULES = {"full_j": "full-j", "n2": "two-by-two", "upper_interval": "interval-endpoint",
          "conference_block": "conference-block", "design_real": "design"}


def _witness(n: int, d: Fraction) -> Optional[tuple[str, IntegerMps, str]]:
    """Try the registry's families in order, then a conference matrix of
    order n at d = 0; (rule, witness, note)."""
    for name, family in FAMILIES.items():
        witness = family.exact(n, d)
        if witness is not None:
            return _RULES[name], witness, ""
    if n == 2:
        return "two-by-two", None, "2x2 family exists for every d >= 0"
    if d == 0:
        c = provider_conference(n)
        if c is not None:
            return "conference", conference_mps(c), ""
    return None


def necessary_conditions(n: int, d) -> Verdict:
    """Classify (n, d): impossible with a citing rule, exists with a witness,
    or open.

    The exclusion rules run in the fixed order documented in the module
    docstring, as exact integer comparisons on d = p/q in lowest terms.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    d = Fraction(d)
    # d = p/q in lowest terms with q >= 1, so every rule is an integer
    # comparison: d against n/2 - 1 is 2p against (n - 2)q.
    p, q = d.numerator, d.denominator
    if p < 0:
        raise ValueError("d must be non-negative")
    edge = (n - 2) * q

    if n > 2 and 2 * p > edge:
        return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_RANGE_OF_R)
    if n in (3, 4, 5) and 2 * p != edge:
        return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_SMALL_N)
    if 2 * p < edge:
        if n % 2 == 1:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="odd order admits only d = n/2 - 1")
        if q != 1:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="below n/2 - 1 the ratio must be an integer")
        if (n // 2 + p) % 2 == 0:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_REAL_PARITY,
                           detail="n/2 + d must be odd")
        # n/6 - 1 < d < n/4 - 3/2 and n/4 - 3/2 <= d, times 6 and 4.
        if n - 6 < 6 * p and 4 * p < n - 6:
            return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_DESIGN_GAP)
        if n - 6 <= 4 * p:
            if design_params_for(n, p) is None:
                return Verdict(n, d, IMPOSSIBLE_STATUS, RULE_DESIGN_NONEXISTENCE)

    design_range = q == 1 and n - 6 <= 4 * p and 2 * p < edge
    params = design_params_for(n, p) if design_range else None
    found = _witness(n, d)
    if found is not None:
        rule, witness, note = found
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

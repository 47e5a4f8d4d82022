"""Explicit construction families of Hermitian unitary MPS matrices.

Each builder returns a verified member of M_n(d) for its admissible (n, d)
region.  Except for the 2 x 2 family, every construction here uses the block
scheme

    S = (d^2 + n - 1)^{-1/2} [[ (d+1)I - J,  B ], [ B*,  -(d+1)I + J ]]

(or a close variant) with m = n/2, where the off-diagonal block B carries the
family-specific phases: a rank-one perturbation of J for the interval family,
entrywise complex exponentials of a Hadamard/conference core or of a design
incidence matrix, and a conference-matrix block.  Interval endpoints are
accepted closed: the formulas remain valid there and reproduce the canonical
members of neighbouring families.

Auxiliary Hadamard/conference matrices and designs are injected as arguments;
the designs module supplies standard providers.  Real members are built only
by the exact module.  ``FAMILIES`` is the one registry of the CLI families: it
pairs each exact builder with the float builder of a family's complex members
and its built-in provider, for ``construct`` and the classifier.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import designs, exact
from .core import DEFAULT_TOL, as_square_matrix
from .designs import (
    SymmetricDesign,
    fourier_complex_hadamard,
    normalize_to_standard,
    verify_conference,
    verify_hadamard,
)

__all__ = [
    "OutOfRangeError",
    "NotHadamardError",
    "NotConferenceError",
    "NoRealRootError",
    "Family",
    "FAMILIES",
    "FAMILY_NAMES",
    "n2_matrix",
    "upper_interval",
    "hadamard_core_family",
    "conference_core_family",
    "complex_core_matrix",
    "conference_block_family",
    "design_family",
    "design_family_ratio",
    "design_alpha_for_ratio",
]


class OutOfRangeError(ValueError):
    """The requested d lies outside the family's admissible interval."""


class NotHadamardError(ValueError):
    """Auxiliary matrix is not a Hadamard matrix."""


class NotConferenceError(ValueError):
    """Auxiliary matrix is not a conference matrix of the required kind."""


class NoRealRootError(ValueError):
    """No phase angle in [-1, 1] solves the family's cosine equation."""


def _block_matrix(n: int, d: float, off_block: np.ndarray) -> np.ndarray:
    """Assemble the standard block scheme around the given off-diagonal block."""
    m = n // 2
    tl = (d + 1) * np.eye(m) - np.ones((m, m))
    return exact._block_scheme(tl, off_block) / math.sqrt(d * d + n - 1)


def n2_matrix(d: float) -> np.ndarray:
    """The 2 x 2 family [[d, 1], [1, -d]] / sqrt(d^2 + 1), any d >= 0."""
    if d < 0:
        raise OutOfRangeError("d must be non-negative")
    return np.array([[d, 1.0], [1.0, -d]]) / math.sqrt(d * d + 1)


# Float names of two exact members, kept while the benchmark's tracer
# (perfbench/tracing.py GROUPS) counts them among families.builders.
def full_j_matrix(n: int) -> np.ndarray:
    """``exact.full_j_mps(n).matrix()``: I - (2/n)J, a member of M_n(n/2 - 1)."""
    return exact.full_j_mps(n).matrix()


def real_from_design(n: int, d, design: SymmetricDesign) -> np.ndarray:
    """``exact.design_mps(design, n, d).matrix()``."""
    return exact.design_mps(design, n, d).matrix()


def upper_interval(n: int, d: float) -> np.ndarray:
    """Interval family covering d in [n/2 - 3, n/2 - 1] for even n.

    The off-diagonal block is (e^{i a} - 1) I + J with cos(a) = d + 2 - n/2;
    real exactly at the endpoints (a = 0 or pi).
    """
    if n % 2 or n < 4:
        raise OutOfRangeError("n must be even and at least 4")
    lo, hi = n / 2 - 3, n / 2 - 1
    if d < max(0.0, lo) - 1e-12 or d > hi + 1e-12:
        raise OutOfRangeError(f"d must lie in [{max(0.0, lo)}, {hi}]")
    m = n // 2
    alpha = math.acos(min(1.0, max(-1.0, d + 2 - n / 2)))
    off = (np.exp(1j * alpha) - 1.0) * np.eye(m) + np.ones((m, m))
    return _block_matrix(n, d, off)


def hadamard_core_family(n: int, d: float, hadamard) -> np.ndarray:
    """Family on d in [n/4 - 3/2, n/2 - 1] from a Hadamard matrix of order n/2 + 1.

    The core K of the normalized Hadamard matrix supplies the phases:
    B = exp(i a K) entrywise, with cos^2(a) = 4(d + 2)/(n + 2) - 1.
    """
    if n % 2 or n < 4:
        raise OutOfRangeError("n must be even and at least 4")
    h = as_square_matrix(hadamard)
    if h.shape[0] != n // 2 + 1:
        raise NotHadamardError(f"need order {n // 2 + 1}, got {h.shape[0]}")
    if not verify_hadamard(h):
        raise NotHadamardError("auxiliary matrix is not Hadamard")
    lo, hi = n / 4 - 1.5, n / 2 - 1
    if d < lo - 1e-12 or d > hi + 1e-12:
        raise OutOfRangeError(f"d must lie in [{lo}, {hi}]")
    cos2 = 4 * (d + 2) / (n + 2) - 1
    cos2 = min(1.0, max(0.0, cos2))
    alpha = math.acos(math.sqrt(cos2))
    _, core = normalize_to_standard(h)
    off = np.exp(1j * alpha * core.astype(float))
    return _block_matrix(n, d, off)


def conference_core_family(n: int, d: float, conference) -> np.ndarray:
    """Family on d in [n/4 - 3/2 - 1/(n-2), n/2 - 1] from a symmetric
    conference matrix of order n/2 + 1.

    B = exp(i a K) with K the conference core (zero diagonal), where cos(a)
    solves (n-2)/4 c^2 + c + (n-6)/4 - d = 0; the larger root in [-1, 1] is
    taken when both qualify.
    """
    if n % 2 or n < 6:
        raise OutOfRangeError("n must be even and at least 6")
    c = as_square_matrix(conference)
    if c.shape[0] != n // 2 + 1:
        raise NotConferenceError(f"need order {n // 2 + 1}, got {c.shape[0]}")
    if np.iscomplexobj(c) or not np.array_equal(np.asarray(c), np.asarray(c).T):
        raise NotConferenceError("auxiliary matrix must be real symmetric")
    if not verify_conference(c):
        raise NotConferenceError("auxiliary matrix is not a conference matrix")
    lo = n / 4 - 1.5 - 1.0 / (n - 2)
    hi = n / 2 - 1
    if d < lo - 1e-12 or d > hi + 1e-12:
        raise OutOfRangeError(f"d must lie in [{lo}, {hi}]")
    a2 = (n - 2) / 4.0
    disc = 1.0 - 4.0 * a2 * ((n - 6) / 4.0 - d)
    if disc < 0:
        if disc > -1e-9:
            disc = 0.0
        else:
            raise NoRealRootError("no real cosine solves the ratio equation")
    roots = [(-1.0 + math.sqrt(disc)) / (2 * a2), (-1.0 - math.sqrt(disc)) / (2 * a2)]
    valid = [r for r in roots if -1 - 1e-12 <= r <= 1 + 1e-12]
    if not valid:
        raise NoRealRootError("no cosine root lies in [-1, 1]")
    cos_a = min(1.0, max(-1.0, max(valid)))
    alpha = math.acos(cos_a)
    _, core = normalize_to_standard(c)
    off = np.exp(1j * alpha * core.astype(float))
    return _block_matrix(n, d, off)


def complex_core_matrix(n: int) -> np.ndarray:
    """Member of M_n(n/4 - 3/2) for any even n >= 6, from the Fourier
    complex Hadamard matrix of order n/2 + 1.

    The off-diagonal block is the dephased core itself.
    """
    if n % 2 or n < 6:
        raise OutOfRangeError("n must be even and at least 6 (d = n/4 - 3/2 >= 0)")
    _, core = normalize_to_standard(fourier_complex_hadamard(n // 2 + 1))
    return _block_matrix(n, n / 4 - 1.5, core)


def conference_block_family(n: int, d: float, conference) -> np.ndarray:
    """Family on d in [0, 1] from a Hermitian conference matrix of order n/2.

    S = (d^2+n-1)^{-1/2} [[ dI + C, C - e^{ia}I ], [ C - e^{-ia}I, -(dI + C) ]]
    with d = cos(a).
    """
    if n % 2 or n < 4:
        raise OutOfRangeError("n must be even and at least 4")
    c = as_square_matrix(conference).astype(complex)
    if c.shape[0] != n // 2:
        raise NotConferenceError(f"need order {n // 2}, got {c.shape[0]}")
    if np.max(np.abs(c - c.conj().T)) > DEFAULT_TOL:
        raise NotConferenceError("auxiliary conference matrix must be Hermitian")
    if not verify_conference(np.asarray(conference)):
        raise NotConferenceError("auxiliary matrix is not a conference matrix")
    if d < -1e-12 or d > 1 + 1e-12:
        raise OutOfRangeError("d must lie in [0, 1]")
    alpha = math.acos(min(1.0, max(0.0, d)))
    eye = np.eye(n // 2)
    s = exact._block_scheme(d * eye + c, c - np.exp(1j * alpha) * eye)
    return s / math.sqrt(d * d + n - 1)


def design_family_ratio(design: SymmetricDesign, alpha: float) -> float:
    """The ratio achieved by design_family at phase angle alpha."""
    n = 2 * design.v
    return -1 + n / 2 - (design.k - design.lam) * (1 - math.cos(2 * alpha))


def design_alpha_for_ratio(design: SymmetricDesign, d: float) -> float:
    """Phase angle (in [0, pi/2]) hitting ratio d; requires
    d in [n/2 - 1 - 2(k - lam), n/2 - 1]."""
    n = 2 * design.v
    km = design.k - design.lam
    cos2a = 1 - (n / 2 - 1 - d) / km
    if cos2a < -1 - 1e-12 or cos2a > 1 + 1e-12:
        raise OutOfRangeError(
            f"d must lie in [{n / 2 - 1 - 2 * km}, {n / 2 - 1}]"
        )
    return math.acos(min(1.0, max(-1.0, cos2a))) / 2.0


def design_family(design: SymmetricDesign, alpha: float) -> np.ndarray:
    """Member of M_{2v}(d) with d = v - 1 - (k - lam)(1 - cos 2a) from a
    symmetric (v, k, lam)-design.

    The off-diagonal block is exp(i a G) entrywise with G = 2A - J, the
    +-1 signed incidence matrix: the design identities A A^T = (k-lam)I + lam J
    and A J = k J make the block Gram matrix constant off the diagonal, which
    is exactly the membership condition at the stated d.  When A comes from a
    Hadamard matrix, G is that matrix's core and this family coincides with
    hadamard_core_family entry for entry.

    At a = 0 the ratio is the maximal n/2 - 1; the reachable floor is
    n/2 - 1 - 2(k - lam), which is always at least n/4 - 3/2 because
    k - lam <= (v + 1)/4 for every symmetric design.
    """
    v = design.v
    n = 2 * v
    d = design_family_ratio(design, alpha)
    g_sign = 2.0 * design.incidence.astype(float) - np.ones((v, v))
    off = np.exp(1j * alpha * g_sign)
    return _block_matrix(n, d, off)


class Family(NamedTuple):
    """One construction family, as ``construct`` and the classifier use it.

    ``exact(n, d, aux=None)`` builds the real member at the family's real
    points, asking the provider only there, and returns None elsewhere: a
    member it returns has order n and ratio d.  ``float(n, d, aux, alpha)``
    builds a member from the auxiliary input of kind ``aux`` ("matrix" or
    "design"), which ``provider(n, d)`` supplies where it can (elsewhere it
    returns None or raises); it is None for a family with real members only.
    ``ratio(n)`` is the d of a fixed-ratio family; ``alpha`` marks the family
    whose phase angle may stand in for d.  Builders are looked up when called.
    """

    float: Optional[Callable] = None
    exact: Callable = lambda n, d, aux=None: None
    aux: Optional[str] = None
    provider: Callable = lambda n, d: None
    ratio: Optional[Callable] = None
    alpha: bool = False


def _conference_block_exact(n, d, conference=None):
    if d != 1 or n % 2:
        return None
    c = designs.provider_conference(n // 2) if conference is None else conference
    return None if c is None or np.iscomplexobj(c) else exact.conference_block_mps(c)


def _real_design(n, d):
    """The built-in design behind the real member at (n, d), if any."""
    if d.denominator != 1 or n % 2 or n < 6:
        return None
    params = designs.design_params_for(n, int(d))
    return None if params is None else designs.provider_design(n // 2, params.k, params.lam)


def _design_exact(n, d, design=None):
    design = _real_design(n, d) if design is None else design
    return None if design is None else exact.design_mps(design, n, d)


def _covering_design(n, d):
    """The Sylvester design of order n/2, else the identity design: the first
    whose ratio interval covers d (any d when None)."""
    def candidates():
        n_had = n // 2 + 1
        if n_had >= 4 and n_had & (n_had - 1) == 0:
            yield designs.hadamard_to_design(designs.sylvester_hadamard(n_had))
        yield designs.identity_design(n // 2)

    for design in candidates():
        floor = n / 2 - 1 - 2 * (design.k - design.lam)
        if d is None or floor - 1e-12 <= float(d) <= n / 2 - 1 + 1e-12:
            return design
    return None


#: The CLI families, in the order the classifier tries their real members.
FAMILIES: dict[str, Family] = {
    "full_j": Family(
        exact=lambda n, d, aux=None: exact.full_j_mps(n) if d == Fraction(n, 2) - 1 else None,
        ratio=lambda n: Fraction(n, 2) - 1),
    "n2": Family(
        lambda n, d, aux, alpha: n2_matrix(float(d)),
        lambda n, d, aux=None: (exact.two_by_two_mps(d)
                                if n == 2 and (2 * d).denominator == 1 else None)),
    "upper_interval": Family(
        lambda n, d, aux, alpha: upper_interval(n, float(d)),
        lambda n, d, aux=None: (exact.upper_interval_mps(n, d)
                                if n % 2 == 0 and n >= 4
                                and d in (Fraction(n, 2) - 1, Fraction(n, 2) - 3) else None)),
    "hadamard_core": Family(
        lambda n, d, h, alpha: hadamard_core_family(n, float(d), h),
        aux="matrix", provider=lambda n, d: designs.sylvester_hadamard(n // 2 + 1)),
    "conference_core": Family(
        lambda n, d, c, alpha: conference_core_family(n, float(d), c),
        aux="matrix", provider=lambda n, d: designs.paley_conference(n // 2 + 1)),
    "complex_core": Family(
        lambda n, d, aux, alpha: complex_core_matrix(n),
        ratio=lambda n: Fraction(n, 4) - Fraction(3, 2)),
    "conference_block": Family(
        lambda n, d, c, alpha: conference_block_family(n, float(d), c),
        _conference_block_exact,
        aux="matrix", provider=lambda n, d: designs.provider_conference(n // 2)),
    "design_complex": Family(
        lambda n, d, design, alpha: design_family(
            design, design_alpha_for_ratio(design, float(d)) if alpha is None else alpha),
        aux="design", provider=_covering_design, alpha=True),
    "design_real": Family(exact=_design_exact, aux="design", provider=_real_design),
}

#: Family names used by the file/CLI interfaces.
FAMILY_NAMES = tuple(FAMILIES)

"""Measuring modular permutation symmetry.

A Hermitian unitary matrix is MPS when its diagonal entries share one modulus
and its off-diagonal entries share another; the ratio d of the two moduli is
the structure constant everything else in this package revolves around.
"""

import numpy as np

from mpsmat import (
    BALANCED,
    IMPOSSIBLE,
    check_d_bound,
    check_trace_identity,
    d_from_mp,
    full_j_mps,
    is_hermitian,
    is_unitary,
    mps_profile,
    n2_matrix,
)

# The permutation-symmetric member: I - (2/n)J.  For n = 6 its diagonal is
# 2/3 and its off-diagonal entries are -1/3, so d = 2 = n/2 - 1.
s = full_j_mps(6).matrix()
print("I - (2/6)J:")
print(np.round(s, 3))
print("hermitian:", is_hermitian(s), " unitary:", is_unitary(s))

prof = mps_profile(s)
print(f"profile: r={prof.r:.4f} t={prof.t:.4f} d={prof.d:.4f} "
      f"p={prof.p} m={prof.m}")

# The trace identity 2m - n = (2p - n) d / sqrt(d^2 + n - 1) ties the
# eigenvalue multiplicity m to the diagonal sign count p.
print("trace identity holds:", check_trace_identity(prof))

# d is bounded: for n > 2 no MPS matrix exceeds d = n/2 - 1.
print("d bound at (6, 2.0):", check_d_bound(6, 2.0))
print("d bound at (6, 2.01):", check_d_bound(6, 2.01))

# Inverting the trace identity: which d is forced by a given (m, p)?
print("\n(n, m, p) -> d")
for n, m, p in [(4, 3, 4), (6, 3, 3), (6, 3, 4), (6, 1, 0)]:
    d = d_from_mp(n, m, p)
    label = {BALANCED: "any d (balanced)", IMPOSSIBLE: "impossible"}.get(d, d)
    print(f"  ({n}, {m}, {p}) -> {label}")

# Order 2 is special: a real member exists for every d >= 0.
for d in (0.0, 1.0, 3.0):
    prof2 = mps_profile(n2_matrix(d))
    print(f"n=2 family at d={d}: measured {prof2.d:.4f}")

"""Quantum graphs: MPS matrices as equal-transmission vertex couplings.

At a vertex of degree n whose coupling matrix is Hermitian unitary, the
scattering is energy independent; if the matrix is moreover MPS, a particle
entering on any edge is reflected with one fixed probability and transmitted
to every other edge with another, and d^2 is exactly the ratio of the two.
Existence of a matrix in M_n(d) decides whether such a junction can be
physically realized.
"""

import numpy as np

from mpsmat import (
    complex_core_matrix,
    full_j_mps,
    mps_profile,
    scattering_probabilities,
    upper_interval,
)

for label, s in [
    ("full_j(4)         ", full_j_mps(4).matrix()),
    ("upper_interval(6,0)", upper_interval(6, 0.0)),
    ("complex_core(8)    ", complex_core_matrix(8)),
]:
    prof = mps_profile(s)
    probs = scattering_probabilities(s, 0)
    d2 = prof.d ** 2
    print(f"{label} n={prof.n} d={prof.d:.3f}")
    print(f"   probabilities from edge 0: {np.round(probs, 4)}")
    print(f"   sum = {probs.sum():.12f}")
    print(f"   reflection = {probs[0]:.4f} "
          f"= d^2/(d^2+n-1) = {d2 / (d2 + prof.n - 1):.4f}")
    if probs[1] > 0:
        print(f"   reflection/transmission = {probs[0] / probs[1]:.4f} "
              f"= d^2 = {d2:.4f}")
    print()

# A d = 0 coupling never reflects; d = n/2 - 1 is the most reflective MPS
# junction possible.
s0 = upper_interval(6, 0.0)
print("d = 0: reflection", scattering_probabilities(s0, 2)[2])
stop = full_j_mps(6).matrix()
print("d = 2: reflection", scattering_probabilities(stop, 2)[2],
      "= 4/9 =", 4 / 9)

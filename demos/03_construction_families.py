"""Every construction family, each verified on the spot.

The families tile the admissible ratio range [0, n/2 - 1]:

  full_j            the single point d = n/2 - 1, any order
  upper_interval    [n/2 - 3, n/2 - 1], even orders
  hadamard_core     [n/4 - 3/2, n/2 - 1], needs a Hadamard matrix of n/2 + 1
  conference_core   [n/4 - 3/2 - 1/(n-2), n/2 - 1], conference of n/2 + 1
  complex_core      the single point d = n/4 - 3/2, every even order
  conference_block  [0, 1], needs a Hermitian conference matrix of n/2
  design_family     [n/2 - 1 - 2(k - lam), n/2 - 1] from a symmetric design
"""

import numpy as np

from mpsmat import (
    complex_core_matrix,
    conference_block_family,
    conference_core_family,
    design_alpha_for_ratio,
    design_family,
    design_mps,
    full_j_mps,
    hadamard_core_family,
    hadamard_to_design,
    mps_profile,
    paley_conference,
    sylvester_hadamard,
    upper_interval,
)


def report(name, s, d_target):
    prof = mps_profile(s)
    flag = "ok" if abs(prof.d - d_target) < 1e-9 else "MISMATCH"
    print(f"  {name:32s} n={prof.n:3d} d={prof.d:8.4f} ({flag})")


print("interval family at n = 10:")
for d in (2.0, 2.8, 3.5, 4.0):
    report(f"upper_interval(10, {d})", upper_interval(10, d), d)

print("\ncore families (Hadamard of order 8 -> n = 14):")
h8 = sylvester_hadamard(8)
for d in (2.0, 3.7, 6.0):
    report(f"hadamard_core(14, {d})", hadamard_core_family(14, d, h8), d)

print("\ncore families (conference of order 6 -> n = 10):")
c6 = paley_conference(6)
for d in (0.875, 1.5, 4.0):
    report(f"conference_core(10, {d})", conference_core_family(10, d, c6), d)

print("\nthe guaranteed point d = n/4 - 3/2 (complex Hadamard core):")
for n in (6, 8, 12, 20):
    report(f"complex_core({n})", complex_core_matrix(n), n / 4 - 1.5)

print("\nsmall ratios via a conference block (order 6 -> n = 12):")
for d in (0.0, 0.4, 1.0):
    report(f"conference_block(12, {d})", conference_block_family(12, d, c6), d)

print("\ndesign phases: the Fano plane covers d in [2, 6] at n = 14:")
fano = hadamard_to_design(h8)
for d in (2.0, 3.0, 6.0):
    alpha = design_alpha_for_ratio(fano, d)
    report(f"design_family(fano, a={alpha:.3f})", design_family(fano, alpha), d)

print("\nreal (symmetric orthogonal) members from designs, exact integers:")
s = design_mps(fano, 14, 2).matrix()
q = np.rint(np.sqrt(17) * s).astype(int)
print("  Q = sqrt(17) S has integer entries; Q Q^T = 17 I:",
      np.array_equal(q @ q.T, 17 * np.eye(14, dtype=int)))
report("design_mps(fano, 14, 2)", s, 2.0)

print("\nthe one-point family everyone starts from:")
report("full_j(9)", full_j_mps(9).matrix(), 9 / 2 - 1)

"""Free parameters for Hermitian unitary and general unitary matrices.

Every Hermitian unitary matrix besides +-I is determined by the multiplicity
m of its +1 eigenvalue, an unconstrained complex m x (n-m) block T, and a
permutation P.  The decomposer picks P so that the m rows of S + I it solves
with are well conditioned (greedy pivoted Cholesky, ties to the lowest
index).  Nothing about (m, T, P) needs tuning: every choice produces a
Hermitian unitary matrix.
"""

import numpy as np

from mpsmat import (
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

rng = np.random.default_rng(1)

# --- Hermitian unitary from free parameters -------------------------------
t = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
param = HermitianUnitaryParam(n=5, m=2, t=t, perm=(0, 1, 2, 3, 4))
s = build_hermitian_unitary(param)
print("||S S* - I|| =", np.linalg.norm(s @ s.conj().T - np.eye(5)))
print("trace = 2m - n:", np.trace(s).real, "=", 2 * param.m - 5)

# The parameter block also hands us the eigenbasis.
plus, minus = eigenbasis_from_param(param)
print("S plus = plus:", np.linalg.norm(s @ plus - plus) < 1e-12)
print("S minus = -minus:", np.linalg.norm(s @ minus + minus) < 1e-12)

# --- Decomposition round-trip ----------------------------------------------
param_back = decompose_hermitian_unitary(s)
print("recovered m:", param_back.m)
print("round-trip error:",
      np.linalg.norm(build_hermitian_unitary(param_back) - s))

# A matrix that forces a permutation: diag(-1, 1) has a singular leading
# 1x1 block in S + I.
p2 = decompose_hermitian_unitary(np.diag([-1.0, 1.0]))
print("permutation for diag(-1, 1):", p2.perm)

# --- General unitary matrices ----------------------------------------------
# Adding a Hermitian block S_h inside the inverted factor reaches all of
# U(n); m = n means no eigenvalue -1 and T disappears.
h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
uparam = UnitaryParam(n=4, m=2,
                      t=rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)),
                      s_h=(h + h.conj().T) / 2, perm=(0, 1, 2, 3))
u = build_unitary(uparam)
print("\n||U U* - I|| =", np.linalg.norm(u @ u.conj().T - np.eye(4)))
eigs = np.linalg.eigvals(u)
print("eigenvalues at -1:", int(np.sum(np.abs(eigs + 1) < 1e-9)), "= n - m = 2")
print("unitary round-trip error:",
      np.linalg.norm(build_unitary(decompose_unitary(u)) - u))

# --- Hermitian solutions of H^2 = aI + bH ----------------------------------
spec = QuadraticSpec(a=2.0, b=1.0)  # eigenvalues (1 +- 3)/2 = {2, -1}
hmat = build_quadratic_solution(spec, param)
resid = hmat @ hmat - spec.a * np.eye(5) - spec.b * hmat
print("\nquadratic residual:", np.linalg.norm(resid))
print("spectrum:", np.round(np.linalg.eigvalsh(hmat), 6))

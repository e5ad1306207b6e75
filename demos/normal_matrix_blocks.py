"""Moment blocks of normal matrices with genuinely complex spectra.

For a normal matrix A (A*A = AA*) and any positive unital linear map, the
3x3 block array built from I, Phi(A), Phi(A*A) and their degree-four
companions is PSD. A normal A is unitarily diagonal, A = U diag(z) U*, and
normal_spectrum finds U and z from the commuting Hermitian and skew parts of
A; every block entry is then a sum of f(z_j) Phi(u_j u_j*). For a functional
phi this yields a lower bound on the centered fourth moment:
phi(|B|^4) >= |phi(B |B|^2)|^2 / phi(|B|^2) + phi(|B|^2)^2 where
B = A - phi(A) I.
"""

import numpy as np

from momenta import (
    DEFAULT_PSD_TOL,
    NormalizedTrace,
    build_normal_block,
    centered_fourth_moment,
    normal_spectrum,
    psd_records,
    random_map,
    random_normal_matrix,
)

# A rotation-like spectrum: conjugate pair on the imaginary axis.
z, u = normal_spectrum(np.diag([1j, -1j]))
print("eigenvalues of diag(i, -i):", z)
block = build_normal_block(NormalizedTrace(2), z, u)
print("conjugate-pair spectrum {i, -i} under the normalized trace:")
print(block.assembled.real)
(rec,) = psd_records([("normal_block", block)], 0, DEFAULT_PSD_TOL)
print("min eigenvalue:", rec.margin)

# Random normal matrices under compressions and vector states.
print("\nrandom normal matrices:")
for seed in range(5):
    n = 3 + seed % 3
    z, u = normal_spectrum(random_normal_matrix(n, seed=seed))
    compression = random_map("compression", n, k=2, seed=seed + 10)
    state = random_map("vector-state", n, seed=seed + 20)
    (rec,) = psd_records([("normal_block",
                           build_normal_block(compression, z, u))],
                         seed, DEFAULT_PSD_TOL)
    _, slack = centered_fourth_moment(state, z, u, tol=1e-9)
    print(f"  n={n} seed={seed}: block margin {rec.margin:+.3e} "
          f"({'PSD' if rec.passed else 'NOT PSD'}), "
          f"fourth-moment slack {slack:+.3e}")

# The fourth-moment bound is tight for a centered two-point spectrum.
_, slack = centered_fourth_moment(NormalizedTrace(2),
                                  *normal_spectrum(np.diag([1.0, -1.0])),
                                  tol=1e-9)
print(f"\nspectrum {{1, -1}}: slack {slack:+.1e} (zero = equality)")

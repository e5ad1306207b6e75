"""Moment blocks of normal matrices with genuinely complex spectra.

For a normal matrix A (A*A = AA*) and any positive unital linear map, the
3x3 block array built from I, Phi(A), Phi(A*A) and their degree-four
companions is PSD, with no eigendecomposition needed to assemble it. For a
functional phi this yields a lower bound on the centered fourth moment:
phi(|B|^4) >= |phi(B |B|^2)|^2 / phi(|B|^2) + phi(|B|^2)^2 where
B = A - phi(A) I.
"""

import numpy as np

from momenta import (
    NormalizedTrace,
    build_normal_block,
    centered_fourth_moment_slack,
    is_psd,
    random_map,
    random_normal_matrix,
)

# A rotation-like spectrum: conjugate pair on the imaginary axis.
A = np.diag([1j, -1j])
block = build_normal_block(NormalizedTrace(2), A).assembled
print("conjugate-pair spectrum {i, -i} under the normalized trace:")
print(block.real)
print("min eigenvalue:", is_psd(block).min_eigenvalue)

# Random normal matrices under compressions and vector states.
print("\nrandom normal matrices:")
for seed in range(5):
    n = 3 + seed % 3
    A = random_normal_matrix(n, seed=seed)
    compression = random_map("compression", n, k=2, seed=seed + 10)
    state = random_map("vector_state", n, seed=seed + 20)
    block = build_normal_block(compression, A)
    v = is_psd(block.assembled, scale=block.scale)
    slack = centered_fourth_moment_slack(state, A)
    print(f"  n={n} seed={seed}: block margin {v.min_eigenvalue:+.3e} "
          f"({'PSD' if v.passed else 'NOT PSD'}), "
          f"fourth-moment slack {slack:+.3e}")

# The fourth-moment bound is tight for a centered two-point spectrum.
slack = centered_fourth_moment_slack(NormalizedTrace(2), np.diag([1.0, -1.0]))
print(f"\nspectrum {{1, -1}}: slack {slack:+.1e} (zero = equality)")

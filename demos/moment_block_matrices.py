"""Positive semidefinite block matrices built from moments Phi(A^k).

For any positive unital linear map Phi and Hermitian A with spectrum in
[m, M], the Hankel array [Phi(A^{i+j-2})] is PSD, and so are its
weighted variants: multiplying the underlying measure by (x - m), (M - x),
their product, an eigenvalue-gap quadratic, or 1/x (for positive definite
A) keeps it positive. This script assembles each variant and prints the
margin (smallest eigenvalue) reported by the PSD test.
"""

import numpy as np

from momenta import (
    BLOCK_KINDS,
    build_block,
    build_blocks,
    build_refinement_chain,
    hermitian_eig,
    hermitian_with_spectrum,
    is_psd,
    moment_table,
    random_map,
)

# A 5x5 Hermitian matrix with a positive spectrum, compressed to M(2).
spectrum = np.array([0.3, 0.8, 1.1, 1.9, 2.6])
A = hermitian_with_spectrum(spectrum, seed=12)
phi = random_map("compression", 5, k=2, seed=34)

table = moment_table(phi, A, k_min=-1, k_max=8)
print(f"moment table over powers {table.k_min}..{table.k_max}, "
      f"spectrum interval [{table.m:.3f}, {table.M:.3f}]")

r = 3
# one block per kind; the gap_product block is the first of the family of
# adjacent distinct eigenvalue pairs, which build_blocks forms from A's
# eigenvalues
lam = hermitian_eig(A).eigenvalues
for kind in BLOCK_KINDS:
    if kind == "gap_product":
        _, block = next(build_blocks(table, r, eigenvalues=lam))
    else:
        block = build_block(kind, table, r)
    verdict = is_psd(block.assembled)
    print(f"  {kind:18s} {block.assembled.shape[0]:2d}x{block.assembled.shape[0]:<2d}"
          f" min eigenvalue {verdict.min_eigenvalue:+.3e}"
          f"  {'PSD' if verdict.passed else 'NOT PSD'}")

# The lower and upper shifted blocks are two halves of one identity.
low = build_block("lower_shift", table, r).assembled
high = build_block("upper_shift", table, r).assembled
hank = build_block("hankel", table, r).assembled
gap = np.max(np.abs(low + high - (table.M - table.m) * hank))
print(f"\nlower + upper shifts vs (M - m) * Hankel: max entry gap {gap:.2e}")

# For A >= m > 0 the even-moment Hankel dominates a two-term refinement
# which is itself PSD. The chain gives both checked blocks, each with the
# size of its operands as the scale to judge it at.
print("refinement chain:")
for name, block in zip(("outer - inner", "inner"),
                       build_refinement_chain(table)):
    verdict = is_psd(block.assembled, scale=block.scale)
    print(f"  {name + ':':14s} min eigenvalue {verdict.min_eigenvalue:+.3e}"
          f"  {'PSD' if verdict.passed else 'NOT PSD'}")

# Each power in the table is one spectral contraction, the sum over the
# eigenpairs of lambda_j^k Phi(v_j v_j*). Applying the map to explicitly
# multiplied powers of A, the direct route that the route_agreement check
# compares against, gives the same blocks to rounding.
direct = {k: phi.apply(np.linalg.matrix_power(A, k)) for k in range(9)}
direct[-1] = phi.apply(np.linalg.inv(A))
worst = max(
    np.linalg.norm(table.power(k) - direct[k])
    for k in range(-1, 9)
)
print(f"\nspectral vs direct moment routes: worst block difference {worst:.2e}")

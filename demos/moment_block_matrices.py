"""Positive semidefinite block matrices built from moments Phi(A^k).

For any positive unital linear map Phi and Hermitian A with spectrum in
[m, M], the Hankel array [Phi(A^{i+j-2})] is PSD, and so are its
weighted variants: multiplying the underlying measure by (x - m), (M - x),
their product, an eigenvalue-gap quadratic, or 1/x (for positive definite
A) keeps it positive. This script assembles each variant and prints the
margin (smallest eigenvalue) and the verdict of psd_records, which judges
each block at the size of the operands it was assembled from, as every
check of the package does.
"""

import numpy as np

from momenta import (
    BLOCK_KINDS,
    DEFAULT_PSD_TOL,
    build_block,
    build_blocks,
    build_refinement_chain,
    hermitian_eig,
    hermitian_with_spectrum,
    moment_table,
    psd_records,
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
blocks = [next(build_blocks(table, r, eigenvalues=lam))
          if kind == "gap_product" else (kind, build_block(kind, table, r))
          for kind in BLOCK_KINDS]
for (kind, block), rec in zip(blocks, psd_records(blocks, 0, DEFAULT_PSD_TOL)):
    size = block.assembled.shape[0]
    print(f"  {kind:18s} {size:2d}x{size:<2d} min eigenvalue {rec.margin:+.3e}"
          f"  {'PSD' if rec.passed else 'NOT PSD'}")

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
chain = zip(("refinement_chain_outer", "refinement_chain_inner"),
            build_refinement_chain(table))
for name, rec in zip(("outer - inner", "inner"),
                     psd_records(chain, 0, DEFAULT_PSD_TOL)):
    print(f"  {name + ':':14s} min eigenvalue {rec.margin:+.3e}"
          f"  {'PSD' if rec.passed else 'NOT PSD'}")

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

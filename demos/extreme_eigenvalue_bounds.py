"""Bound the extreme eigenvalues of a Hermitian matrix from trace moments.

The running example is a 3x3 real symmetric matrix whose eigenvalues are
-12, 0, 12. Classical mean/variance estimates place the extreme eigenvalues
outside +-sqrt(48) ~ 6.93; a published refinement using third moments
reaches +-sqrt(96) ~ 9.80. The cubic built from central moments up to order
five is exact here: its outer roots are -12 and 12.

The cubic's roots are the three Gauss nodes of the spectral measure that
the trace puts on the eigenvalues, so they are computed as the eigenvalues
of that measure's 3x3 Jacobi matrix, with no closed-form cubic formula.
"""

import numpy as np

from momenta import NormalizedTrace, hermitian_eig, spectral_bounds, wolkowicz_styan

s2 = 3.0 * np.sqrt(2.0)
A = np.array([
    [3.0, -s2, -9.0],
    [-s2, -6.0, -s2],
    [-9.0, -s2, 3.0],
])

print("A =")
print(A)

report = spectral_bounds(NormalizedTrace(3), A)
print("\ncentral-moment cubic: x^3 + (%.6g) x^2 + (%.6g) x + (%.6g) = 0"
      % report.cubic)
print("gamma =", report.gamma)
print("roots (Gauss nodes about the mean):", np.round(report.roots, 10))

print("\nbounds on the spectrum:")
print(f"  lambda_min <= {report.lambda_min_upper:.6f}")
print(f"  lambda_max >= {report.lambda_max_lower:.6f}")

ws_lo, ws_hi = wolkowicz_styan(A)
print("\nmean/variance comparator (Wolkowicz-Styan):")
print(f"  lambda_min <= {ws_lo:.6f}")
print(f"  lambda_max >= {ws_hi:.6f}")
print("a third-moment trace estimate reaches +-sqrt(96) =",
      round(np.sqrt(96.0), 4), "on this matrix")

lam = hermitian_eig(A).eigenvalues
print("\nactual eigenvalues:", np.round(lam, 10))
print("the cubic bounds are attained to rounding: the spectrum has three atoms")

# On a spread-out random matrix the bounds are strict but always valid.
rng = np.random.default_rng(7)
g = rng.standard_normal((6, 6))
B = (g + g.T) / 2.0
rep = spectral_bounds(NormalizedTrace(6), B)
lam = hermitian_eig(B).eigenvalues
print("\nrandom 6x6 symmetric matrix:")
print(f"  lambda_min = {lam[0]:+.4f} <= {rep.lambda_min_upper:+.4f} (cubic)"
      f" <= {rep.ws_min_upper:+.4f} (comparator)")
print(f"  lambda_max = {lam[-1]:+.4f} >= {rep.lambda_max_lower:+.4f} (cubic)"
      f" >= {rep.ws_max_lower:+.4f} (comparator)")

"""Tour of the positive unital linear map variants and their basic bounds.

Each variant is built from a seed, which checks its unitality
(``Phi(I) = I``; a payload that misses it raises), and then run through the
square-moment and variance inequalities: Phi(A^2) >= Phi(A)^2 always, and
the variance Phi(A^2) - Phi(A)^2 is capped both by the squared half-width
of the spectrum interval and by the product of distances of Phi(A) to the
interval endpoints.
"""

import numpy as np

from momenta import (
    MAP_KINDS,
    NormalizedTrace,
    random_hermitian,
    random_map,
    scalar_checks,
)

n = 4
A = random_hermitian(n, seed=5)

for kind in MAP_KINDS:
    phi = random_map(kind, n, k=2, seed=91)
    k = phi.codomain_dim
    residual = np.linalg.norm(phi.apply(np.eye(n)) - np.eye(k))
    print(f"{kind:17s} codomain {k}x{k}, unitality residual {residual:.1e}")
    for res in scalar_checks(phi, A):
        if res.passed is not None and res.check in (
                "kadison", "variance_range", "variance_endpoints"):
            print(f"    {res.check:20s} margin {res.margin:+.3e} "
                  f"{'ok' if res.passed else 'VIOLATED'}")

# The variance bounds are tight for a symmetric two-point spectrum: with
# spectrum {0, 1} under the normalized trace, the variance is exactly 1/4,
# which equals both right-hand sides.
print("\ntwo-point tightness under the normalized trace:")
for res in scalar_checks(NormalizedTrace(2), np.diag([0.0, 1.0])):
    if res.check in ("variance_range", "variance_endpoints"):
        print(f"  {res.check:20s} slack {res.margin:+.1e} (zero = equality)")

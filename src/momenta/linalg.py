"""Dense complex linear algebra kernel.

Everything operates on square ``numpy`` arrays of ``complex128``. A matrix is
validated once, where it enters: :func:`symmetrize` rejects non-finite,
non-square and non-Hermitian input (asymmetry ``||M - M*||_F`` above
``SYMMETRY_RTOL * ||M||_F``; less is round-off and absorbed). Every eigensolve
runs that check in :func:`hermitian_eig`, which returns the validated matrix
with the spectrum, so callers never symmetrize twice.

The eigensolver is LAPACK's Hermitian divide-and-conquer routine (``zheevd``)
reached through ``numpy.linalg.eigh``. It returns the spectrum in ascending
order with an orthonormal eigenvector basis, which the moment machinery needs
explicitly, and is backward stable: the reconstruction error is a small
multiple of machine precision times ``||A||_F`` at any dense size this
package targets (n up to a few hundred).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

#: Relative tolerance below which asymmetry is treated as round-off.
SYMMETRY_RTOL = 1e-8

#: Default relative tolerance for positive semidefiniteness verdicts.
DEFAULT_PSD_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.array(a, dtype=np.complex128, copy=True)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix contains non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(M + M*)/2`` with no asymmetry check.

    For quantities that are Hermitian by construction and asymmetric only
    through rounding; user-facing ingestion should go through
    :func:`symmetrize` instead, which rejects genuinely non-Hermitian data.
    """
    return (a + a.conj().T) / 2.0


def is_hermitian(a: np.ndarray) -> bool:
    """Whether ``||M - M*||_F <= SYMMETRY_RTOL * max(||M||_F, tiny)``.

    The ``tiny`` floor lets the zero matrix pass.
    """
    scale = max(frobenius(a), np.finfo(float).tiny)
    return frobenius(a - a.conj().T) <= SYMMETRY_RTOL * scale


def symmetrize(a) -> np.ndarray:
    """Return ``(M + M*)/2`` if ``M`` passes :func:`is_hermitian`, else raise."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        scale = max(frobenius(m), np.finfo(float).tiny)
        raise DomainError(
            f"matrix is not Hermitian: asymmetry "
            f"{frobenius(m - m.conj().T):.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * ||M||_F = {SYMMETRY_RTOL * scale:.3e}"
        )
    return hermitian_part(m)


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues (ascending, real) and an orthonormal eigenvector basis.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``;
    ``matrix`` is the validated Hermitian matrix they decompose.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    matrix: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Assemble ``V diag(lambda) V*`` back into a matrix."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


def hermitian_eig(a) -> HermitianSpectrum:
    """Full eigendecomposition of a Hermitian matrix, checked by :func:`symmetrize`.

    Returns the spectrum sorted ascending with matching orthonormal
    eigenvector columns; reconstruction error is a few ulps of ``||A||_F``.
    """
    h = symmetrize(a)
    return HermitianSpectrum(*np.linalg.eigh(h), matrix=h)


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test with its margin.

    ``passed`` is equivalent to ``min_eigenvalue >= -tolerance_used * scale``
    where ``scale`` is the Frobenius norm of the tested matrix floored at 1.
    """

    min_eigenvalue: float
    scale: float
    passed: bool
    tolerance_used: float


def is_psd(m, tol: float = DEFAULT_PSD_TOL) -> PsdVerdict:
    """Test a Hermitian matrix for positive semidefiniteness.

    The verdict reports the minimum eigenvalue so callers can see the margin,
    not just the boolean. Non-Hermitian input (beyond the symmetrization
    tolerance) is rejected with :class:`DomainError`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    spectrum = hermitian_eig(m)
    scale = max(1.0, frobenius(spectrum.matrix))
    return PsdVerdict(
        min_eigenvalue=spectrum.min,
        scale=scale,
        passed=spectrum.min >= -tol * scale,
        tolerance_used=tol,
    )


def matrix_function(a, f, *, positive_only: bool = False) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix via its spectrum.

    ``f`` maps an array of eigenvalues to an array of real values; the result
    is ``V diag(f(lambda)) V*``. With ``positive_only`` the spectrum must be
    strictly positive (for logarithms and inverse powers).
    """
    spec = hermitian_eig(a)
    if positive_only and spec.min <= 0.0:
        raise DomainError(
            f"matrix must be positive definite (min eigenvalue {spec.min:.3e})"
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.asarray(f(spec.eigenvalues), dtype=np.float64)
    if values.shape != spec.eigenvalues.shape or not np.all(np.isfinite(values)):
        raise DomainError("scalar function produced non-finite or misshaped values")
    v = spec.eigenvectors
    return hermitian_part((v * values) @ v.conj().T)


def matrix_log(a) -> np.ndarray:
    """Principal logarithm of a positive definite Hermitian matrix."""
    return matrix_function(a, np.log, positive_only=True)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary: QR of a seeded complex Gaussian matrix.

    Deterministic for a fixed ``(n, seed)``; ``U* U = I`` to machine
    precision.
    """
    if n < 1:
        raise ShapeError("unitary dimension must be at least 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g / math.sqrt(2.0))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d)).conj()


def random_hermitian(n: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian matrix with entries of size ~1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g)


def random_psd(n: int, seed: int) -> np.ndarray:
    """Seeded random positive semidefinite matrix ``C* C``."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return c.conj().T @ c


def random_normal_matrix(n: int, seed: int) -> np.ndarray:
    """Seeded random normal matrix ``U diag(z) U*``, Re z and Im z in [-2, 2]."""
    rng = np.random.default_rng(seed)
    z = 2.0 * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
    u = random_unitary(n, seed + 1)
    return (u * z) @ u.conj().T


def hermitian_with_spectrum(eigenvalues, seed: int) -> np.ndarray:
    """Hermitian matrix with a prescribed real spectrum and a seeded basis."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    u = random_unitary(lam.size, seed)
    return hermitian_part((u * lam) @ u.conj().T)

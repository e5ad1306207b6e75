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


def _asymmetry(a: np.ndarray) -> tuple[float, float]:
    """``||M - M*||_F`` and the threshold :func:`is_hermitian` holds it to."""
    with np.errstate(over="ignore"):  # an infinite asymmetry fails the test
        scale = max(frobenius(a), np.finfo(float).tiny)
        asymmetry = frobenius(a - a.conj().T)
    if not math.isfinite(scale):
        raise DomainError("matrix norm overflows double precision; "
                          "rescale the matrix")
    return asymmetry, SYMMETRY_RTOL * scale


def is_hermitian(a: np.ndarray) -> bool:
    """Whether ``||M - M*||_F <= SYMMETRY_RTOL * max(||M||_F, tiny)``.

    The ``tiny`` floor lets the zero matrix pass. A matrix whose Frobenius
    norm overflows is rejected with :class:`DomainError`: against an
    infinite scale any asymmetry, and any later verdict, would pass.
    """
    asymmetry, threshold = _asymmetry(a)
    return asymmetry <= threshold


def symmetrize(a) -> np.ndarray:
    """Return ``(M + M*)/2`` if ``M`` passes :func:`is_hermitian`, else raise."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    asymmetry, threshold = _asymmetry(m)
    if not asymmetry <= threshold:
        raise DomainError(
            f"matrix is not Hermitian: asymmetry {asymmetry:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * ||M||_F = {threshold:.3e}"
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


def passes(slack: float, scale: float, rtol: float) -> bool:
    """The one verdict rule of every check: ``slack >= -rtol * scale``.

    ``slack`` is how far the checked inequality holds (negative when it is
    violated) and ``scale`` the size of the operands it was computed from,
    before they cancel, so the verdict does not change when the input is
    scaled. A non-finite scale would accept any slack and is an error.
    """
    if not math.isfinite(scale):
        raise DomainError("verdict scale overflows double precision; "
                          "rescale the matrix")
    return slack >= -rtol * scale


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness test with its margin.

    ``passed`` is :func:`passes` of ``min_eigenvalue`` at ``scale``, the
    size of the operands the tested matrix was assembled from.
    """

    min_eigenvalue: float
    scale: float
    passed: bool


def is_psd(m, tol: float = DEFAULT_PSD_TOL,
           scale: float | None = None) -> PsdVerdict:
    """Test a Hermitian matrix for positive semidefiniteness.

    The verdict reports the minimum eigenvalue so callers can see the margin,
    not just the boolean. ``scale`` is the size of the operands the matrix
    was computed from, the scale :func:`passes` judges it at; by default
    the matrix's own Frobenius norm, right for a matrix that is not a
    cancelling difference. Non-Hermitian input (beyond the symmetrization
    tolerance) and a matrix whose Frobenius norm overflows are rejected
    with :class:`DomainError`.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    spectrum = hermitian_eig(m)
    if scale is None:
        scale = frobenius(spectrum.matrix)
    return PsdVerdict(min_eigenvalue=spectrum.min, scale=scale,
                      passed=passes(spectrum.min, scale, tol))


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

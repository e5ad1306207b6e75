"""Dense complex linear algebra kernel.

Everything operates on square ``numpy`` arrays of ``complex128`` at working
scale, as given: the command line scales a matrix file by a power of two
where it enters, no function scales again, and an overflow is a
:class:`~momenta.errors.DomainError`. A matrix is validated once, where it
enters. :func:`as_matrix` is the one matrix check: 2-D, then finite
entries, then square, with one error and message for each fault.
:func:`symmetrize` runs it and rejects non-Hermitian input with the
package's one Hermitian decision, :class:`~momenta.errors.NotHermitianError`
(asymmetry ``||M - M*||_F`` above ``SYMMETRY_RTOL * ||M||_F``; less is
round-off and absorbed). The full solve :func:`hermitian_eig` runs that
check and returns the validated matrix with the spectrum, so callers never
symmetrize twice. The eigenvalues-only solve does not: it is for a matrix
that its caller holds as Hermitian, a block the package assembled or a
matrix already symmetrized, and reads one triangle of it. It runs only the
matrix check.

The eigensolver is LAPACK's Hermitian divide-and-conquer routine (``zheevd``)
reached through ``numpy.linalg.eigh``. It returns the spectrum in ascending
order with an orthonormal eigenvector basis, which the moment machinery needs
explicitly, and is backward stable: the reconstruction error is a small
multiple of machine precision times ``||A||_F`` at any dense size this
package targets (n up to a few hundred). A caller that reads eigenvalues
only asks for no vectors (``vectors=False``): the same routine then runs
with ``jobz='N'`` through ``numpy.linalg.eigvalsh``, which skips the
eigenvector work. Every PSD verdict is such a solve, since it needs the
minimum eigenvalue alone: :func:`is_psd`, the one verdict, which
``moments.psd_records`` calls on each block as assembled, exactly Hermitian.
So is the normalized trace's spectral measure in ``eigenbounds``, whose
weights are ``1/n`` for any basis: it solves the symmetrized matrix.

Every check of an instance reads the same spectrum of ``A``, so the full
solve (``vectors=True``) is memoized: the last two distinct inputs, keyed on
their exact bytes as ``complex128`` in C order, keep their spectrum, and a
byte-identical input gets it back without a second check or solve. A matrix
changed in any entry is a new key, never a stale answer. The memo holds about
``2 * 3 * 16 n^2`` bytes, and its arrays (``eigenvalues``, ``eigenvectors``
and ``matrix``) are read-only, since every caller of a hit shares them. The
eigenvalues-only solve is not memoized: its inputs are transient PSD blocks
that seldom repeat, and its eigenvalues may differ from ``eigh``'s in the
last bits, so it must not read an ``eigh`` entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotHermitianError, ShapeError

#: Relative tolerance below which asymmetry is treated as round-off.
SYMMETRY_RTOL = 1e-8

#: Default relative tolerance for positive semidefiniteness verdicts.
DEFAULT_PSD_TOL = 1e-9

_TINY = np.finfo(float).tiny


def as_matrix(a, square: bool = False) -> np.ndarray:
    """``a`` as a 2-D ``complex128`` array, not copied where it is one
    already, after the one matrix check: a :class:`ShapeError` unless it is
    2-D, a :class:`DomainError` if an entry is not finite and, if
    ``square``, a :class:`ShapeError` unless it is square, in that order."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DomainError("matrix contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def binary_scaled(a) -> tuple[np.ndarray, int]:
    """``(2**-e a, e)``, ``e`` the binary exponent of ``a``'s largest real
    or imaginary part, which so lies in ``[1/2, 1)``: the working scale. It
    is exact wherever a part does not fall below the normal range."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts), initial=0.0))[1])
    return np.ldexp(parts, -e).view(np.complex128), e


def require_finite(what: str, values) -> None:
    """Raise :class:`DomainError`, naming ``what``, if a value is not finite."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} overflow double precision; "
                          "rescale the matrix")


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(M + M*)/2`` of a matrix or of each in a stack, no asymmetry check.

    For quantities that are Hermitian by construction and asymmetric only
    through rounding; user-facing ingestion should go through
    :func:`symmetrize` instead, which rejects genuinely non-Hermitian data.
    """
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _asymmetry(a) -> tuple[np.ndarray, np.ndarray, float, float]:
    """``M`` as ``complex128``, ``M*``, ``||M - M*||_F`` and the threshold
    :func:`symmetrize` holds it to, for a matrix that passes
    :func:`as_matrix` as square and whose norm is finite; else a
    :class:`ShapeError` or :class:`DomainError`.

    The input is neither copied nor changed. An overflowing norm is
    rejected: against an infinite scale any asymmetry, and any later
    verdict, would pass.
    """
    m = as_matrix(a, square=True)
    with np.errstate(over="ignore"):  # norms checked below
        scale = np.linalg.norm(m)
        if not math.isfinite(scale):
            raise DomainError("matrix norm overflows double precision; "
                              "rescale the matrix")
        adjoint = m.conj().T
        # an infinite asymmetry fails the test
        return (m, adjoint, np.linalg.norm(m - adjoint),
                SYMMETRY_RTOL * max(scale, _TINY))


def symmetrize(a) -> np.ndarray:
    """``(M + M*)/2``, or :class:`NotHermitianError` where ``||M - M*||_F >
    SYMMETRY_RTOL * max(||M||_F, tiny)`` (the floor passes the zero matrix);
    ``M*`` is formed once, for the asymmetry and for the result."""
    m, adjoint, asymmetry, threshold = _asymmetry(a)
    if not asymmetry <= threshold:
        raise NotHermitianError(
            f"matrix is not Hermitian: asymmetry {asymmetry:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * ||M||_F = {threshold:.3e}"
        )
    return (m + adjoint) / 2.0


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigenvalues (ascending, real) and, if asked for, an eigenvector basis.

    ``eigenvectors[:, k]`` is the unit eigenvector for ``eigenvalues[k]``,
    or ``eigenvectors`` is None for an eigenvalues-only solve
    (``hermitian_eig(a, vectors=False)``). ``matrix`` is the matrix they
    decompose: the validated Hermitian matrix of a full solve, and the input
    as given, as ``complex128``, of an eigenvalues-only solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    matrix: np.ndarray

    @property
    def min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max(self) -> float:
        return float(self.eigenvalues[-1])


@functools.lru_cache(maxsize=2)
def _eigh(shape: tuple[int, ...], data: bytes) -> HermitianSpectrum:
    """The full solve of :func:`hermitian_eig`, memoized on the input bytes.

    An input that fails :func:`symmetrize` raises and leaves no entry.
    """
    h = symmetrize(np.frombuffer(data, dtype=np.complex128).reshape(shape))
    w, v = np.linalg.eigh(h)
    for x in (w, v, h):
        x.flags.writeable = False
    return HermitianSpectrum(w, v, matrix=h)


def hermitian_eig(a, vectors: bool = True) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    The full solve checks ``a`` with :func:`symmetrize` and returns the
    spectrum sorted ascending with matching orthonormal eigenvector columns;
    reconstruction error is a few ulps of ``||A||_F``. It is memoized on the
    exact bytes of the input (as ``complex128`` in C order) for the last two
    distinct inputs: a repeat skips both the check and the solve, since it
    is an input that already passed the check, and gets the same read-only
    arrays.

    With ``vectors=False`` only the eigenvalues are solved for
    (``numpy.linalg.eigvalsh``, cheaper than ``eigh``), and ``eigenvectors``
    is None. This solve trusts its caller that ``a`` is Hermitian: it does
    not symmetrize, and it reads one triangle, as ``eigvalsh`` does. It
    runs only :func:`as_matrix`'s check, so a non-finite entry in either
    triangle, which ``eigvalsh`` could otherwise turn into finite
    eigenvalues, is a :class:`DomainError`. Its eigenvalues agree with
    ``eigh``'s to rounding, a few ulps of ``||A||_F``, but not always bit
    for bit, so it never reads the memo; nor is it memoized, as its inputs
    are transient blocks that seldom repeat.
    """
    if vectors:
        m = np.asarray(a, dtype=np.complex128, order="C")
        return _eigh(m.shape, m.tobytes())
    m = as_matrix(a, square=True)
    return HermitianSpectrum(np.linalg.eigvalsh(m), None, matrix=m)


def passes(slack: float, scale: float, rtol: float) -> bool:
    """The one verdict rule of every check: ``slack >= -rtol * scale``.

    ``slack`` is how far the checked inequality holds (negative when it is
    violated) and ``scale`` the size of the operands it was computed from,
    before they cancel, so the verdict does not change when the input is
    scaled. A non-finite scale would accept any slack and is a
    :class:`DomainError`; so would an infinite ``rtol``, and an ``rtol``
    that is not positive and finite is a :class:`ValueError`.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    if not math.isfinite(scale):
        raise DomainError("verdict scale overflows double precision; "
                          "rescale the matrix")
    return slack >= -rtol * scale


def is_psd(m, tol: float, scale: float) -> tuple[bool, float]:
    """The one PSD verdict: ``(passed, min_eigenvalue)`` of a matrix.

    ``passed`` is :func:`passes` of the minimum eigenvalue at ``scale``, the
    size of the operands ``m`` was assembled from. ``m`` must be exactly
    Hermitian, as every ``moments.BlockMatrixSpec`` is: it is solved for
    eigenvalues only (``hermitian_eig(m, vectors=False)``), which reads one
    triangle and runs only :func:`as_matrix`'s check. :func:`passes` rejects
    an infinite ``scale`` and a ``tol`` that is not positive and finite.
    """
    lam = hermitian_eig(m, vectors=False).min
    return passes(lam, scale, tol), lam


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

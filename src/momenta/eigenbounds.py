"""Extreme-eigenvalue bounds from the three-node Gauss rule of a spectral measure.

Given a Hermitian matrix ``A`` and a positive unital linear functional
``phi``, the centered matrix ``B = A - phi(A) I`` has moments
``b_k = phi(B^k)``: those of the spectral measure ``sum_j w_j delta(x_j)``
with atoms ``x_j = lambda_j - phi(A)`` and weights ``w_j = phi(v_j v_j*)``.
The shifted 3x3 Hankel matrix of ``B`` is positive semidefinite when the
shift sits at an extreme centered eigenvalue, and its determinant is
``gamma`` times a monic cubic

    x^3 + (beta_1/gamma) x^2 + (beta_2/gamma) x + beta_3/gamma = 0,

    gamma  = b3^2 - b2 b4 + b2^3
    beta_1 = -b4 b3 - b2^2 b3 + b2 b5
    beta_2 = -b3 b5 + b4^2 + b3^2 b2 - b2^2 b4
    beta_3 = 2 b2 b3 b4 - b2^2 b5 - b3^3

whose smallest root bounds the smallest centered eigenvalue from above and
whose largest root bounds the largest from below.

The cubic is the measure's degree-3 orthogonal polynomial, so its roots are
the nodes of the measure's three-node Gauss rule: the eigenvalues of its
3x3 Jacobi matrix ``J``, tridiagonal with off-diagonal entries ``e1, e2``
(Golub & Meurant, *Matrices, Moments and Quadrature*, 2010).
:func:`spectral_bounds` builds ``J = Q^T diag(x) Q``, with ``Q`` the
orthonormal factor of the Krylov block ``[sqrt(w), x sqrt(w), x^2 sqrt(w)]``;
this is the matrix three Lanczos steps on the measure produce, and it never
forms the moment combinations ``beta_i / gamma``, which cancel badly near a
close eigenvalue pair. Everything is read off ``J``: the roots are its
eigenvalues, the reported cubic is ``det(xI - J)`` and
``gamma = -e1^4 e2^2``, minus the determinant of the moment Hankel
``[1, 0, b2; 0, b2, b3; b2, b3, b4]`` and so never positive. ``e2`` vanishes
exactly when the functional sees at most two spectral atoms; no bound is
then produced (the trace-moment comparator below still is).

The moment formulas above are kept as an independent oracle:
:func:`gamma_value`, :func:`beta_values` and :func:`determinant_oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import frobenius, hermitian_eig, symmetrize
from .maps import PositiveUnitalMap
from .moments import spectral_images

#: ``e2`` at or below this fraction of ``e1`` counts as degenerate. Since
#: ``|gamma| / b2^3 = (e2 / e1)^2``, this bounds that ratio by 1e-10.
DEGENERACY_RTOL = 1e-5


def _require_finite(what: str, values) -> None:
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what} overflow double precision; "
                          "rescale the matrix")


@dataclass(frozen=True)
class CentralMoments:
    """Mean and central moments 2..5 of the spectral measure under phi."""

    mean: float
    b2: float
    b3: float
    b4: float
    b5: float


def _spectral_measure(functional: PositiveUnitalMap,
                      a) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``A`` and the functional's weights ``phi(v_j v_j*)``."""
    if not functional.is_functional:
        raise ShapeError("central moments need a functional (1x1 codomain)")
    spectrum = hermitian_eig(a)
    return (spectrum.eigenvalues,
            spectral_images(functional, spectrum).real.ravel())


def central_moments(functional: PositiveUnitalMap, a) -> CentralMoments:
    """Central moments ``phi((A - phi(A) I)^k)``, k = 2..5, spectrally.

    The functional's weights on the eigenprojections of ``A`` are computed
    once and the centered powers are averaged against them.
    """
    lam, weights = _spectral_measure(functional, a)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(weights @ lam)
        centered = lam - mean
        b = [float(weights @ centered ** k) for k in range(2, 6)]
    _require_finite("central moments", [mean, *b])
    return CentralMoments(mean=mean, b2=b[0], b3=b[1], b4=b[2], b5=b[3])


def gamma_value(cm: CentralMoments) -> float:
    """``b3^2 - b2 b4 + b2^3``; non-positive for genuine moment data."""
    return cm.b3 ** 2 - cm.b2 * cm.b4 + cm.b2 ** 3


def beta_values(cm: CentralMoments) -> tuple[float, float, float]:
    """``(beta_1, beta_2, beta_3)``, the cubic's coefficients times gamma.

    Defined for degenerate moment data too, where gamma vanishes.
    """
    b2, b3, b4, b5 = cm.b2, cm.b3, cm.b4, cm.b5
    beta1 = -b4 * b3 - b2 ** 2 * b3 + b2 * b5
    beta2 = -b3 * b5 + b4 ** 2 + b3 ** 2 * b2 - b2 ** 2 * b4
    beta3 = 2.0 * b2 * b3 * b4 - b2 ** 2 * b5 - b3 ** 3
    return beta1, beta2, beta3


def determinant_oracle(cm: CentralMoments, a: float) -> float:
    """Shifted-Hankel determinant at shift ``a``, by direct cofactors.

    Equals ``gamma * (a^3 + c2 a^2 + c1 a + c0)`` identically; keeping the
    cofactor expansion separate from the coefficient formulas makes the two
    independently checkable.
    """
    m11, m12, m13 = -a, cm.b2, cm.b3 - a * cm.b2
    m22, m23 = cm.b3 - a * cm.b2, cm.b4 - a * cm.b3
    m33 = cm.b5 - a * cm.b4
    return (m11 * (m22 * m33 - m23 * m23)
            - m12 * (m12 * m33 - m23 * m13)
            + m13 * (m12 * m23 - m22 * m13))


def wolkowicz_styan(a) -> tuple[float, float]:
    """Trace-moment comparator bounds ``(min_upper, max_lower)``.

    From the spectral mean ``mu = tr(A)/n`` and standard deviation ``s``:
    the smallest eigenvalue is at most ``mu - s/sqrt(n-1)`` and the largest
    at least ``mu + s/sqrt(n-1)``. The variance is the centered sum
    ``||A - mu I||_F^2 / n``, which does not cancel as
    ``||A||_F^2 / n - mu^2`` does.
    """
    h = symmetrize(a)
    n = h.shape[0]
    if n < 2:
        raise ShapeError("comparator bounds need a matrix of dimension >= 2")
    # numpy scalars, so overflow yields inf (checked below) instead of raising
    mu = np.trace(h).real / n
    with np.errstate(over="ignore", invalid="ignore"):
        h[np.diag_indices(n)] -= mu  # symmetrize's own copy, centered
        s2 = np.float64(frobenius(h)) ** 2 / n
    d = math.sqrt(s2) / math.sqrt(n - 1.0)
    bounds = float(mu - d), float(mu + d)
    _require_finite("comparator bounds", bounds)
    return bounds


@dataclass(frozen=True)
class EigenBoundReport:
    """Cubic data and the resulting eigenvalue bounds, plus comparators.

    When ``degenerate`` is set the cubic yields no information: ``cubic``,
    ``roots`` and the lambda bounds are empty/None while the comparator
    bounds stay populated.
    """

    mean: float
    gamma: float
    degenerate: bool
    cubic: tuple | None
    roots: tuple
    lambda_min_upper: float | None
    lambda_max_lower: float | None
    ws_min_upper: float | None
    ws_max_lower: float | None


def _jacobi_matrix(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """3x3 Jacobi matrix of the measure ``sum_j w_j delta(x_j)``, n >= 3.

    ``Q^T diag(x) Q`` with ``Q`` the orthonormal factor of the Krylov block
    ``[sqrt(w), x sqrt(w), x^2 sqrt(w)]``: the matrix three Lanczos steps on
    ``diag(x)`` from ``sqrt(w)`` produce, up to the signs of its
    off-diagonal entries. ``x`` is first scaled into [-1, 1] by a power of
    two, which is exact, so ``x^2`` neither overflows nor underflows.
    """
    exponent = np.frexp(np.max(np.abs(x)))[1]
    u = np.ldexp(x, -exponent)
    root_w = np.sqrt(np.clip(weights, 0.0, None))
    q = np.linalg.qr(np.column_stack([root_w, u * root_w, u * u * root_w]))[0]
    return np.ldexp(q.T @ (u[:, np.newaxis] * q), exponent)


def spectral_bounds(functional: PositiveUnitalMap, a) -> EigenBoundReport:
    """Bound the extreme eigenvalues of ``A`` through a functional's moments.

    The smallest Gauss node of the centered spectral measure, shifted back
    by the mean, bounds the smallest eigenvalue from above; the largest node
    bounds the largest eigenvalue from below. A measure with at most two
    atoms is flagged degenerate, with the trace comparator still reported:
    always for ``n <= 2``, otherwise when ``e2`` is at most
    :data:`DEGENERACY_RTOL` times ``e1`` or within the rounding of the
    eigenvalues, ``n eps max|lambda|`` (a one-atom measure, whose ``e1``
    and ``e2`` are both rounding).
    """
    lam, weights = _spectral_measure(functional, a)
    n = lam.size
    ws_min, ws_max = wolkowicz_styan(a) if n >= 2 else (None, None)
    mean = float(weights @ lam)
    gamma, degenerate = 0.0, True
    if n >= 3:
        jacobi = _jacobi_matrix(lam - mean, weights)
        e1, e2 = abs(float(jacobi[1, 0])), abs(float(jacobi[2, 1]))
        # (e1 e2)^2 first, so e2 = 0 gives 0, not 0 * inf; 0.0 - t keeps +0.0
        gamma = 0.0 - (e1 * e2) * (e1 * e2) * (e1 * e1)
        _require_finite("Gauss rule bounds", gamma)
        rounding = n * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]))
        degenerate = e2 <= max(DEGENERACY_RTOL * e1, rounding)
    if degenerate:
        return EigenBoundReport(
            mean=mean, gamma=gamma, degenerate=True, cubic=None, roots=(),
            lambda_min_upper=None, lambda_max_lower=None,
            ws_min_upper=ws_min, ws_max_lower=ws_max,
        )
    roots = tuple(float(r) for r in np.linalg.eigvalsh(jacobi))
    cubic = tuple(float(c) for c in np.poly(roots)[1:])
    _require_finite("Gauss rule bounds", cubic)
    return EigenBoundReport(
        mean=mean, gamma=gamma, degenerate=False, cubic=cubic, roots=roots,
        lambda_min_upper=mean + roots[0],
        lambda_max_lower=mean + roots[-1],
        ws_min_upper=ws_min, ws_max_lower=ws_max,
    )

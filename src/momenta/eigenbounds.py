"""Extreme-eigenvalue bounds from the three-node Gauss rule of a spectral measure.

Given a Hermitian matrix ``A`` and a positive unital linear functional
``phi``, the centered matrix ``B = A - phi(A) I`` has moments
``b_k = phi(B^k)``: those of the spectral measure ``sum_j w_j delta(x_j)``
with atoms ``x_j = lambda_j - phi(A)`` and weights ``w_j = phi(v_j v_j*)``.
Under the normalized trace every weight is ``1/n`` whatever the orthonormal
basis, so that measure is read from an eigenvalues-only solve; any other
functional weighs the eigenvectors of the full solve.
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

:func:`determinant_error` checks ``J`` against the reference, the cofactor
determinant :func:`determinant_oracle` of the same measure's moments. The
beta formulas live in the tests; :func:`central_moments` is the moment API.
Matrices are at working scale, as given (see :mod:`momenta.linalg`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .linalg import hermitian_eig, require_finite, symmetrize
from .maps import NormalizedTrace, PositiveUnitalMap

#: ``e2`` at or below this fraction of ``e1`` counts as degenerate. Since
#: ``|gamma| / b2^3 = (e2 / e1)^2``, this bounds that ratio by 1e-10.
DEGENERACY_RTOL = 1e-5


@dataclass(frozen=True)
class CentralMoments:
    """Mean and central moments 2..5 of the spectral measure under phi."""

    mean: float
    b2: float
    b3: float
    b4: float
    b5: float


def _spectral_measure(functional: PositiveUnitalMap,
                      a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, weights ``phi(v_j v_j*)`` and validated matrix of ``A``."""
    if isinstance(functional, NormalizedTrace):
        # the trace weighs every unit vector 1/n, whatever the basis
        h = functional._check_input(symmetrize(a))
        return (hermitian_eig(h, vectors=False).eigenvalues,
                np.full(functional.n, 1.0 / functional.n), h)
    spectrum = hermitian_eig(a)
    return (spectrum.eigenvalues, functional.weights(spectrum.eigenvectors),
            spectrum.matrix)


def central_moments(functional: PositiveUnitalMap, a) -> CentralMoments:
    """Central moments ``phi((A - phi(A) I)^k)``, k = 2..5, spectrally.

    The functional's weights on the eigenprojections of ``A`` are computed
    once and the centered powers are averaged against them (``1/n`` under
    the normalized trace, from an eigenvalues-only solve).
    """
    lam, weights, _ = _spectral_measure(functional, a)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(weights @ lam)
        centered = lam - mean
        b = [float(weights @ centered ** k) for k in range(2, 6)]
    require_finite("central moments", [mean, *b])
    return CentralMoments(mean=mean, b2=b[0], b3=b[1], b4=b[2], b5=b[3])


def determinant_oracle(cm: CentralMoments, a: float) -> float:
    """Shifted-Hankel determinant at shift ``a``, by direct cofactors.

    For the moments of a measure it equals ``gamma * det(aI - J)``, ``J``
    the measure's 3x3 Jacobi matrix: the reference of
    :func:`determinant_error`.
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
    return _comparator_bounds(symmetrize(a))


def _comparator_bounds(h: np.ndarray) -> tuple[float, float]:
    """:func:`wolkowicz_styan` of a validated Hermitian matrix ``h``."""
    n = h.shape[0]
    if n < 2:
        raise ShapeError("comparator bounds need a matrix of dimension >= 2")
    # numpy scalars, so overflow yields inf (checked below) instead of raising
    mu = np.trace(h).real / n
    with np.errstate(over="ignore", invalid="ignore"):
        t = np.linalg.norm(h - mu * np.eye(n))
        d = math.sqrt(t * t / n) / math.sqrt(n - 1.0)
        bounds = float(mu - d), float(mu + d)
    require_finite("comparator bounds", bounds)
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
    off-diagonal entries.
    """
    root_w = np.sqrt(np.clip(weights, 0.0, None))
    q = np.linalg.qr(np.column_stack([root_w, x * root_w, x * x * root_w]))[0]
    return q.T @ (x[:, np.newaxis] * q)


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
    lam, weights, h = _spectral_measure(functional, a)
    n = lam.size
    ws_min, ws_max = _comparator_bounds(h) if n >= 2 else (None, None)
    mean = float(weights @ lam)
    gamma, degenerate = 0.0, True
    if n >= 3:
        jacobi = _jacobi_matrix(lam - mean, weights)
        e1, e2 = abs(float(jacobi[1, 0])), abs(float(jacobi[2, 1]))
        # (e1 e2)^2 first, so e2 = 0 gives 0, not 0 * inf; 0.0 - t keeps +0.0
        gamma = 0.0 - (e1 * e2) * (e1 * e2) * (e1 * e1)
        require_finite("Gauss rule bounds", gamma)
        rounding = n * np.finfo(float).eps * max(abs(lam[0]), abs(lam[-1]))
        degenerate = bool(e2 <= max(DEGENERACY_RTOL * e1, rounding))
    cubic, roots, bounds = None, (), (None, None)
    if not degenerate:
        roots = tuple(float(r) for r in np.linalg.eigvalsh(jacobi))
        cubic = tuple(float(c) for c in np.poly(roots)[1:])
        require_finite("Gauss rule bounds", cubic)
        bounds = mean + roots[0], mean + roots[-1]
    return EigenBoundReport(mean, gamma, degenerate, cubic, roots, *bounds,
                            ws_min, ws_max)


def determinant_error(functional: PositiveUnitalMap, a) -> float:
    """Worst mismatch of the shifted-Hankel determinant and
    ``gamma * det(xI - J)`` at the shifts ``x = -2..2``.

    The reference is :func:`determinant_oracle` of the measure's central
    moments; ``J`` is the Jacobi matrix :func:`spectral_bounds` reads its
    roots, cubic and gamma from. Both sides are divided by ``s = max_k
    |b_k|^(1/k)``, the unit of the shifts: every determinant term is of
    degree 9 in ``s``. For ``n <= 2`` there is no ``J`` and gamma is 0: the
    shifted Hankel of at most two atoms is singular.
    """
    lam, weights, _ = _spectral_measure(functional, a)
    x = lam - weights @ lam
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        b = (weights @ x[:, np.newaxis] ** np.arange(2, 6)).tolist()
    require_finite("central moments", b)
    s = max(abs(bk) ** (1.0 / k) for k, bk in enumerate(b, start=2))
    if s == 0.0:
        return 0.0
    unit = CentralMoments(0.0, *(bk / s ** k
                                 for k, bk in enumerate(b, start=2)))
    a1 = a2 = a3 = e1 = e2 = 0.0
    if lam.size >= 3:
        (a1, e1, _), (_, a2, e2), (_, _, a3) = (_jacobi_matrix(x, weights)
                                                / s).tolist()
    gamma = -(e1 * e2) ** 2 * e1 ** 2
    worst = 0.0
    for shift in (-2.0, -1.0, 0.0, 1.0, 2.0):
        # det(shift I - J) by the three-term recurrence of a tridiagonal
        p1 = shift - a1
        cubic = ((shift - a2) * p1 - e1 * e1) * (shift - a3) - e2 * e2 * p1
        worst = max(worst, abs(determinant_oracle(unit, shift)
                               - gamma * cubic))
    return worst

"""Extreme-eigenvalue bounds from central moments of the spectral measure.

Given a Hermitian matrix ``A`` and a positive unital linear functional
``phi``, the centered matrix ``B = A - phi(A) I`` has moments
``b_k = phi(B^k)``. The shifted 3x3 Hankel matrix of ``B`` is positive
semidefinite when the shift sits at an extreme centered eigenvalue, and
expanding its determinant yields a monic cubic

    x^3 + (beta_1/gamma) x^2 + (beta_2/gamma) x + beta_3/gamma = 0,

    gamma  = b3^2 - b2 b4 + b2^3
    beta_1 = -b4 b3 - b2^2 b3 + b2 b5
    beta_2 = -b3 b5 + b4^2 + b3^2 b2 - b2^2 b4
    beta_3 = 2 b2 b3 b4 - b2^2 b5 - b3^3

whose smallest root bounds the smallest centered eigenvalue from above and
whose largest root bounds the largest from below. ``gamma`` equals minus the
determinant of the plain moment Hankel ``[1, 0, b2; 0, b2, b3; b2, b3, b4]``
and is therefore never positive; it vanishes exactly when the spectral
measure seen by the functional has at most two atoms, in which case no bound
is produced (the trace-moment comparator below still is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import frobenius, hermitian_eig, symmetrize
from .maps import PositiveUnitalMap

#: |gamma| at or below this fraction of max(1, b2^3) counts as degenerate.
GAMMA_DEGENERACY_RTOL = 1e-10


class DegenerateMomentsError(DomainError):
    """The functional sees at most two spectral atoms; the cubic collapses."""


def _require_finite(what: str, values) -> None:
    if not all(map(math.isfinite, values)):
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


def central_moments(functional: PositiveUnitalMap, a) -> CentralMoments:
    """Central moments ``phi((A - phi(A) I)^k)``, k = 2..5, spectrally.

    The functional's weights on the eigenprojections of ``A`` are computed
    once and the centered powers are averaged against them.
    """
    if not functional.is_functional:
        raise ShapeError("central moments need a functional (1x1 codomain)")
    spectrum = hermitian_eig(a)
    lam = spectrum.eigenvalues
    weights = np.array([
        functional.apply(np.outer(v, v.conj()))[0, 0].real
        for v in spectrum.eigenvectors.T
    ])
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


def is_degenerate(cm: CentralMoments) -> bool:
    return abs(gamma_value(cm)) <= GAMMA_DEGENERACY_RTOL * max(1.0, cm.b2 ** 3)


def cubic_coefficients(cm: CentralMoments) -> tuple[float, float, float, float]:
    """Coefficients ``(c2, c1, c0)`` of the bounding cubic, plus gamma.

    Raises :class:`DegenerateMomentsError` when gamma is numerically zero.
    """
    gamma = gamma_value(cm)
    if abs(gamma) <= GAMMA_DEGENERACY_RTOL * max(1.0, cm.b2 ** 3):
        raise DegenerateMomentsError(
            f"gamma = {gamma:.3e} is degenerate (at most two spectral atoms)"
        )
    beta1, beta2, beta3 = beta_values(cm)
    return beta1 / gamma, beta2 / gamma, beta3 / gamma, gamma


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


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def solve_cubic(c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """Real roots of ``x^3 + c2 x^2 + c1 x + c0``, ascending.

    Uses the depressed-cubic substitution: the trigonometric branch when all
    three roots are real (returned with multiplicity), the single-real-root
    Cardano branch otherwise (returned as a 1-tuple). Each root gets one
    Newton polish step.
    """
    c2, c1, c0 = float(c2), float(c1), float(c0)
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    half_q, third_p = q / 2.0, p / 3.0
    disc = half_q * half_q + third_p ** 3
    disc_scale = half_q * half_q + abs(third_p) ** 3

    if disc_scale == 0.0:
        ts = [0.0, 0.0, 0.0]
    elif disc > 1e-12 * disc_scale:
        s = math.sqrt(disc)
        ts = [_cbrt(-half_q + s) + _cbrt(-half_q - s)]
    else:
        # Three real roots (a borderline discriminant is treated as zero,
        # which the clamped arccos handles as a repeated root).
        rho = 2.0 * math.sqrt(max(-third_p, 0.0))
        if rho == 0.0:
            ts = [_cbrt(-q)] * 3
        else:
            arg = min(1.0, max(-1.0, 3.0 * q / (p * rho)))
            theta = math.acos(arg) / 3.0
            ts = [rho * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]

    def residual(x: float) -> float:
        return ((x + c2) * x + c1) * x + c0

    roots = []
    for t in ts:
        x = t + shift
        fx = residual(x)
        dfx = (3.0 * x + 2.0 * c2) * x + c1
        # One Newton step, accepted only if it reduces the residual; near a
        # multiple root f and f' vanish together and the raw step is garbage.
        if dfx != 0.0:
            candidate = x - fx / dfx
            if abs(residual(candidate)) < abs(fx):
                x = candidate
        roots.append(x)
    return tuple(sorted(roots))


def wolkowicz_styan(a) -> tuple[float, float]:
    """Trace-moment comparator bounds ``(min_upper, max_lower)``.

    From the spectral mean ``mu = tr(A)/n`` and standard deviation ``s``:
    the smallest eigenvalue is at most ``mu - s/sqrt(n-1)`` and the largest
    at least ``mu + s/sqrt(n-1)``.
    """
    h = symmetrize(a)
    n = h.shape[0]
    if n < 2:
        raise ShapeError("comparator bounds need a matrix of dimension >= 2")
    # numpy scalars, so overflow yields inf (checked below) instead of raising
    mu = np.trace(h).real / n
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = max(np.float64(frobenius(h)) ** 2 / n - mu * mu, 0.0)
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


def spectral_bounds(functional: PositiveUnitalMap, a) -> EigenBoundReport:
    """Bound the extreme eigenvalues of ``A`` through a functional's moments.

    The smallest root of the central-moment cubic, shifted back by the mean,
    bounds the smallest eigenvalue from above; the largest root bounds the
    largest eigenvalue from below. Degenerate moment data (at most two
    atoms) is flagged, with the trace comparator still reported.
    """
    h = symmetrize(a)
    cm = central_moments(functional, h)
    if h.shape[0] >= 2:
        ws_min, ws_max = wolkowicz_styan(h)
    else:
        ws_min = ws_max = None
    try:
        c2, c1, c0, gamma = cubic_coefficients(cm)
        roots = solve_cubic(c2, c1, c0)
    except DegenerateMomentsError:
        return EigenBoundReport(
            mean=cm.mean, gamma=gamma_value(cm), degenerate=True,
            cubic=None, roots=(), lambda_min_upper=None,
            lambda_max_lower=None, ws_min_upper=ws_min, ws_max_lower=ws_max,
        )
    except OverflowError:
        # float ** raises where float * returns inf; report both alike
        raise DomainError("cubic bounds overflow double precision; "
                          "rescale the matrix") from None
    _require_finite("cubic bounds", roots)
    return EigenBoundReport(
        mean=cm.mean, gamma=gamma, degenerate=False,
        cubic=(c2, c1, c0), roots=roots,
        lambda_min_upper=cm.mean + roots[0],
        lambda_max_lower=cm.mean + roots[-1],
        ws_min_upper=ws_min, ws_max_lower=ws_max,
    )

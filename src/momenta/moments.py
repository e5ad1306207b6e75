"""Moment tables of positive unital linear maps and their PSD block matrices.

A :class:`MomentTable` holds the images ``Phi(A^k)`` of the powers of a
Hermitian matrix over a contiguous range of exponents (possibly starting at
-1 for positive definite ``A``) as one stacked ``(K, k, k)`` array, together
with an interval ``[m, M]`` containing the spectrum. From such a table,
:func:`build_block` assembles the family of block matrices whose positive
semidefiniteness this package verifies:

==================  block (i, j), indices 1-based over 1..r+1
hankel              Phi(A^{i+j-2})
hankel_shift1       Phi(A^{i+j-1})                        (A >= 0)
lower_shift         Phi(A^{i+j-1}) - m Phi(A^{i+j-2})
upper_shift         M Phi(A^{i+j-2}) - Phi(A^{i+j-1})
lower_shift_inv     Phi(A^{i+j-2}) - m Phi(A^{i+j-3})     (A > 0)
upper_shift_inv     M Phi(A^{i+j-3}) - Phi(A^{i+j-2})     (A > 0)
range_product       Phi(A^{i+j-2} (A - mI)(MI - A))
gap_product         Phi(A^{i+j-2} (A - s I)(A - t I)),    (s, t) adjacent
                    distinct eigenvalues
range_product_inv   Phi(A^{i+j-3} (A - mI)(MI - A))       (A > 0)
==================

Every kind is a Hankel block matrix: block (i, j) depends on i + j only. So
an order-r block is a fixed combination of shifted slices of the stacked
table, a sequence of 2r + 1 blocks, gathered into place at index i + j
(:func:`hankel_gather`). Product kinds are assembled from the expanded
moment combination (linearity makes this equal to applying the map to the
product matrix; the equality is itself tested).

The module also holds the check catalog: :data:`CATALOG` says what every
check name verifies, and :func:`record` turns an outcome into the one record
type, :class:`CheckRecord`, that every suite and the command line emit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import (
    DEFAULT_PSD_TOL,
    as_matrix,
    frobenius,
    hermitian_eig,
    hermitian_part,
    is_hermitian,
    is_psd,
    passes,
)
from .maps import PositiveUnitalMap

#: Relative gap below which two eigenvalues are treated as one atom.
GAP_RTOL = 1e-8

#: Relative asymmetry tolerance of the normality test ||A*A - AA*||.
NORMALITY_RTOL = 1e-8

#: Kinds accepted by :func:`build_block`, in assembly order.
BLOCK_KINDS = (
    "hankel",
    "hankel_shift1",
    "lower_shift",
    "upper_shift",
    "lower_shift_inv",
    "upper_shift_inv",
    "range_product",
    "gap_product",
    "range_product_inv",
)

#: Kinds whose validity needs a positive definite argument (and k_min = -1).
PD_BLOCK_KINDS = ("lower_shift_inv", "upper_shift_inv", "range_product_inv")


@dataclass(frozen=True)
class MomentTable:
    """Images ``Phi(A^k)`` for ``k = k_min..k_max`` plus spectrum interval.

    ``blocks`` is one ``(k_max - k_min + 1, k, k)`` array whose entry
    ``blocks[k - k_min]`` is ``Phi(A^k)``. ``m`` and ``M`` bracket the
    spectrum of ``A``; by default they are its exact extreme eigenvalues,
    the tightest admissible choice.
    """

    k_min: int
    k_max: int
    blocks: np.ndarray
    m: float
    M: float

    def powers(self, lo: int, count: int) -> np.ndarray:
        """``Phi(A^k)`` for ``k = lo..lo+count-1`` as one slice of the stack.

        Raises if a requested power is outside the table.
        """
        hi = lo + count - 1
        if lo < self.k_min or hi > self.k_max:
            raise ShapeError(
                f"moment table covers powers {self.k_min}..{self.k_max}, "
                f"powers {lo}..{hi} requested"
            )
        return self.blocks[lo - self.k_min:hi - self.k_min + 1]

    def power(self, k: int) -> np.ndarray:
        """The block ``Phi(A^k)``; raises if ``k`` is outside the table."""
        return self.powers(k, 1)[0]

    def size(self, k: int) -> float:
        """Bound on the norm of ``Phi(A^k)`` from the interval.

        ``max(|m|, |M|)^k``, and ``1/m`` for ``k = -1``: a positive unital
        map does not increase the norm. ``inf`` past double precision.
        """
        if k < 0:
            return 1.0 / self.m
        try:
            return max(abs(self.m), abs(self.M)) ** k
        except OverflowError:
            return math.inf

    def operand_scale(self, weights: dict[int, float], r: int) -> float:
        """Size of the operands of the order-``r`` Hankel block of
        ``sum_d c_d Phi(A^{e+d})``, ``e = 0..2r``, before they cancel.

        ``weights`` maps each power shift ``d`` to ``c_d``. The scale is
        ``sum_d |c_d| size(e + d)``, the larger of its values at ``e = 0``
        and ``e = 2r``: :meth:`size` is log-convex in ``k``, so no degree
        in between gives more.
        """
        return max(sum(abs(c) * self.size(e + d) for d, c in weights.items())
                   for e in (0, 2 * r))


def _spectrum_interval(lo: float, hi: float, m: float | None,
                       M: float | None) -> tuple[float, float]:
    """``[m, M]``, defaulting to ``[lo, hi]``, which it must contain up to
    round-off relative to ``max(|lo|, |hi|)`` (no absolute floor)."""
    m = lo if m is None else float(m)
    M = hi if M is None else float(M)
    grace = 1e-12 * max(abs(lo), abs(hi))
    if m > lo + grace or M < hi - grace:
        raise DomainError(
            f"[m, M] = [{m}, {M}] does not contain the spectrum [{lo}, {hi}]"
        )
    return m, M


def moment_table(pulm: PositiveUnitalMap, a, k_min: int = 0, k_max: int = 4,
                 route: str = "spectral", m: float | None = None,
                 M: float | None = None) -> MomentTable:
    """Tabulate ``Phi(A^k)`` for ``k = k_min..k_max``.

    ``route="spectral"`` contracts the power matrix ``lambda_j^k`` with the
    stacked images ``Phi(v_j v_j*)`` of the eigenprojections of ``A``;
    ``route="direct"`` applies the map to explicitly multiplied matrix
    powers. The two agree to rounding and their agreement is one of the
    package's standing cross-checks.

    ``k_min`` may be -1 only for positive definite ``A``. Passing ``m``
    and/or ``M`` widens the spectrum interval; values inside the spectrum are
    rejected because every downstream inequality assumes containment.
    """
    if k_min not in (-1, 0):
        raise DomainError(f"k_min must be -1 or 0, got {k_min}")
    if k_max < k_min:
        raise DomainError(f"k_max {k_max} below k_min {k_min}")
    spectrum = hermitian_eig(a)
    h, lam = spectrum.matrix, spectrum.eigenvalues
    if k_min == -1 and spectrum.min <= 0.0:
        raise DomainError(
            f"inverse moments need a positive definite matrix "
            f"(min eigenvalue {spectrum.min:.3e})"
        )
    m, M = _spectrum_interval(spectrum.min, spectrum.max, m, M)
    if k_min == -1 and m <= 0.0:
        # the size of Phi(A^-1) is bounded through 1/m
        raise DomainError(f"inverse moments need m > 0, got {m}")
    powers = np.arange(k_min, k_max + 1)
    if route == "spectral":
        images = spectral_images(pulm, spectrum)
        n, k = images.shape[:2]
        lam_powers = lam[np.newaxis, :] ** powers[:, np.newaxis]
        blocks = (lam_powers @ images.reshape(n, k * k)).reshape(-1, k, k)
    elif route == "direct":
        acc = {0: np.eye(h.shape[0], dtype=np.complex128)}
        for p in range(1, max(k_max, 1) + 1):
            acc[p] = acc[p - 1] @ h
        if k_min == -1:
            acc[-1] = np.linalg.inv(h)
        blocks = np.stack([pulm.apply(hermitian_part(acc[p])) for p in powers])
    else:
        raise ValueError(f"unknown route {route!r}; expected spectral or direct")
    return MomentTable(
        k_min=k_min,
        k_max=k_max,
        blocks=(blocks + blocks.conj().transpose(0, 2, 1)) / 2.0,
        m=m,
        M=M,
    )


def spectral_images(pulm: PositiveUnitalMap, spectrum) -> np.ndarray:
    """``Phi(v_j v_j*)`` for each eigenvector ``v_j``, as an ``(n, k, k)`` stack.

    The map is applied to one rank-one projection at a time, so no
    ``(n, n, n)`` stack of projections is ever held.
    """
    return np.stack([pulm.apply(np.outer(v, v.conj()))
                     for v in spectrum.eigenvectors.T])


@dataclass(frozen=True)
class BlockMatrixSpec:
    """An assembled block matrix and the size of the operands it was
    assembled from, the scale its PSD verdict is judged at."""

    assembled: np.ndarray
    scale: float


def distinct_eigenvalues(values) -> np.ndarray:
    """Cluster an ascending spectrum into distinct atoms.

    Adjacent values closer than ``GAP_RTOL`` times the spectral width are
    merged (represented by their mean).
    """
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        return vals
    width = max(vals[-1] - vals[0], np.finfo(float).tiny)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= GAP_RTOL * width:
            groups[-1].append(v)
        else:
            groups.append([v])
    return np.array([np.mean(g) for g in groups])


def build_block(kind: str, table: MomentTable, r: int, *,
                eigenvalues=None, gap_index: int | None = None) -> BlockMatrixSpec:
    """Assemble one of the PSD block matrices from a moment table.

    ``r`` is the block order: the result has ``r + 1`` block rows and
    columns. ``gap_product`` additionally needs the (distinct, ascending)
    ``eigenvalues`` of the underlying matrix and a 1-based ``gap_index`` g
    selecting the open interval between eigenvalues g-1 and g.
    """
    if kind not in BLOCK_KINDS:
        raise ValueError(f"unknown block kind {kind!r}; expected one of {BLOCK_KINDS}")
    if r < 0:
        raise DomainError("block order r must be non-negative")
    m, M = table.m, table.M

    def T(d: int) -> np.ndarray:
        # Phi(A^{e+d}) for e = 0..2r: the table shifted by d
        return table.powers(d, 2 * r + 1)

    if kind == "gap_product":
        if eigenvalues is None or gap_index is None:
            raise DomainError("gap_product needs eigenvalues and gap_index")
        lam = np.asarray(eigenvalues, dtype=np.float64)
        g = int(gap_index)
        if not 2 <= g <= lam.size:
            raise DomainError(
                f"gap index must lie in 2..{lam.size}, got {g}"
            )
        s, t = float(lam[g - 2]), float(lam[g - 1])
        if t - s <= GAP_RTOL * max(M - m, np.finfo(float).tiny):
            raise DomainError(f"eigenvalue gap ({s}, {t}) is too narrow")

    # entry e of the sequence is block (i, j) for i + j = e; written as the
    # catalog's expressions, term for term, so every bit matches the
    # entrywise form. Each comes with its coefficients c_d by power shift d.
    sequence, weights = {
        "hankel": lambda: (T(0), {0: 1.0}),
        "hankel_shift1": lambda: (T(1), {1: 1.0}),
        "lower_shift": lambda: (T(1) - m * T(0), {1: 1.0, 0: m}),
        "upper_shift": lambda: (M * T(0) - T(1), {0: M, 1: 1.0}),
        "lower_shift_inv": lambda: (T(0) - m * T(-1), {0: 1.0, -1: m}),
        "upper_shift_inv": lambda: (M * T(-1) - T(0), {-1: M, 0: 1.0}),
        "range_product": lambda: ((m + M) * T(1) - T(2) - m * M * T(0),
                                  {1: m + M, 2: 1.0, 0: m * M}),
        "range_product_inv": lambda: ((m + M) * T(0) - T(1) - m * M * T(-1),
                                      {0: m + M, 1: 1.0, -1: m * M}),
        "gap_product": lambda: (T(2) - (s + t) * T(1) + s * t * T(0),
                                {2: 1.0, 1: s + t, 0: s * t}),
    }[kind]()
    return BlockMatrixSpec(assembled=hankel_gather(sequence),
                           scale=table.operand_scale(weights, r))


def hankel_gather(sequence: np.ndarray) -> np.ndarray:
    """The block Hankel matrix ``[sequence[i + j]]`` of a ``(2r + 1, k, k)`` stack.

    One index gather puts block ``i + j`` at block position ``(i, j)``, and
    one transpose and reshape lay the ``(r + 1) x (r + 1)`` grid of ``k x k``
    blocks out as a ``(r + 1) k`` square matrix.
    """
    count, k = sequence.shape[:2]
    size = (count + 1) // 2
    index = np.add.outer(np.arange(size), np.arange(size))
    grid = sequence[index]  # (i, j, row, col)
    return grid.transpose(0, 2, 1, 3).reshape(size * k, size * k)


def build_refinement_chain(table: MomentTable,
                           m: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Two-block refinement of the even-moment Hankel for ``A >= m > 0``.

    Returns ``(outer, inner)`` where
    ``outer = [[Phi(A^2), Phi(A^3)], [Phi(A^3), Phi(A^4)]]`` and
    ``inner = 2m [[Phi(A), Phi(A^2)], [Phi(A^2), Phi(A^3)]]
    - m^2 [[I, Phi(A)], [Phi(A), Phi(A^2)]]``; both ``outer - inner`` and
    ``inner`` are positive semidefinite whenever the spectrum lies in
    ``[m, inf)`` with ``m > 0``.
    """
    m, _ = _spectrum_interval(table.m, table.M, m, None)
    if m <= 0.0:
        raise DomainError(f"refinement chain needs m > 0, got {m}")
    outer = hankel_gather(table.powers(2, 3))
    inner = hankel_gather(2.0 * m * table.powers(1, 3)
                          - m * m * table.powers(0, 3))
    return outer, inner


def _log(spectrum) -> np.ndarray:
    """``log A`` from the spectrum of a positive definite ``A``."""
    if spectrum.min <= 0.0:
        raise DomainError(
            f"matrix must be positive definite (min eigenvalue {spectrum.min:.3e})"
        )
    v = spectrum.eigenvectors
    return hermitian_part((v * np.log(spectrum.eigenvalues)) @ v.conj().T)


def build_log_deficit_block(pulm: PositiveUnitalMap, a) -> np.ndarray:
    """``[[Phi(A^2), Phi(A)], [Phi(A), Phi(A - log A)]]`` for ``A > 0``.

    Positive semidefinite because ``x - log x >= 1`` on the positive axis.
    """
    spectrum = hermitian_eig(a)
    h, la = spectrum.matrix, _log(spectrum)
    one = pulm.apply(h)
    two = pulm.apply(hermitian_part(h @ h))
    deficit = pulm.apply(h - la)
    return np.block([[two, one], [one, deficit]])


def build_log_endpoint_blocks(pulm: PositiveUnitalMap, a,
                              m: float | None = None,
                              M: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic endpoint blocks for ``0 < m <= spectrum(A) <= M``.

    Returns ``(upper, lower)``:

    - upper: ``[[Phi((log M) I - log A), Phi((log M) A - A log A)],
      [..., Phi((log M) A^2 - A^2 log A)]]``
    - lower: the mirrored block with ``log m`` subtracted instead.
    """
    spectrum = hermitian_eig(a)
    m, M = _spectrum_interval(spectrum.min, spectrum.max, m, M)
    if m <= 0.0:
        raise DomainError(f"log endpoint blocks need m > 0, got {m}")
    h, la = spectrum.matrix, _log(spectrum)
    h2 = hermitian_part(h @ h)
    hla = hermitian_part(h @ la)
    h2la = hermitian_part(h2 @ la)
    lm, lM = np.log(m), np.log(M)
    eye = np.eye(h.shape[0])
    upper = hankel_gather(np.stack([
        pulm.apply(lM * eye - la), pulm.apply(lM * h - hla),
        pulm.apply(lM * h2 - h2la)]))
    lower = hankel_gather(np.stack([
        pulm.apply(la - lm * eye), pulm.apply(hla - lm * h),
        pulm.apply(h2la - lm * h2)]))
    return upper, lower


def is_normal(a: np.ndarray) -> bool:
    """Whether ``||A*A - AA*||_F <= NORMALITY_RTOL * ||A||_F^2``."""
    ms = a.conj().T
    comm = frobenius(ms @ a - a @ ms)
    return comm <= NORMALITY_RTOL * max(frobenius(a) ** 2, np.finfo(float).tiny)


def build_normal_block(pulm: PositiveUnitalMap, a) -> np.ndarray:
    """Three-by-three moment block of a normal (possibly non-Hermitian) matrix.

    ``[[I, Phi(A), Phi(A*A)], [Phi(A*), Phi(AA*), Phi(A*^2 A)],
    [Phi(A*A), Phi(A* A^2), Phi(A*^2 A^2)]]``, assembled from direct matrix
    products; no eigendecomposition is involved.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got {m.shape}")
    ms = m.conj().T
    if not is_normal(m):
        raise DomainError(
            f"matrix is not normal: ||A*A - AA*||_F = "
            f"{frobenius(ms @ m - m @ ms):.3e} "
            f"exceeds {NORMALITY_RTOL:.1e} * ||A||_F^2"
        )
    eye = np.eye(pulm.codomain_dim)
    return np.block([
        [eye, pulm.apply(m), pulm.apply(ms @ m)],
        [pulm.apply(ms), pulm.apply(m @ ms), pulm.apply(ms @ ms @ m)],
        [pulm.apply(ms @ m), pulm.apply(ms @ m @ m), pulm.apply(ms @ ms @ m @ m)],
    ])


@dataclass(frozen=True)
class CheckRecord:
    """One verified statement: identifier, citation, outcome, margin, seed.

    ``passed`` is None when the check's hypotheses do not hold for the input
    ("skipped"), which is never counted as a failure. ``margin`` is the
    minimum eigenvalue of the tested difference, or the scalar slack.
    ``passed`` is :func:`~momenta.linalg.passes` of the slack against the
    check's tolerance at the size of the operands it was computed from, so
    slightly negative margins within that tolerance still pass, and scaling
    the input does not change the verdict. ``seed`` is the seed of the
    instance the check ran on (0 outside a seeded campaign).
    """

    check: str
    citation: str
    passed: bool | None
    margin: float
    seed: int


#: What each check verifies, by check name. A check name may add a ``psd_``
#: prefix (block constructions) or a ``_pd`` suffix (the same check on the
#: positive definite variant); both cite the entry of the bare name.
CATALOG = {
    "hankel": "moment Hankel block matrix is PSD",
    "hankel_shift1": "odd-shifted moment Hankel is PSD for nonnegative matrices",
    "lower_shift": "moment Hankel weighted by the distance above m is PSD",
    "upper_shift": "moment Hankel weighted by the distance below M is PSD",
    "lower_shift_inv": "inverse-shifted lower-weighted Hankel is PSD",
    "upper_shift_inv": "inverse-shifted upper-weighted Hankel is PSD",
    "range_product": "Hankel weighted by (x - m)(M - x) is PSD",
    "gap_product": "Hankel weighted by an eigenvalue-gap quadratic is PSD",
    "range_product_inv": "inverse-shifted range-weighted Hankel is PSD",
    "centered_lower_shift": "centered-moment Hankel weighted above the lower endpoint is PSD",
    "centered_upper_shift": "centered-moment Hankel weighted below the upper endpoint is PSD",
    "refinement_chain_outer": "even-moment Hankel dominates its refinement",
    "refinement_chain_inner": "refinement of the even-moment Hankel is PSD",
    "log_deficit": "block matrix of x - log x moments is PSD",
    "log_endpoint_upper": "log-distance block at the upper endpoint is PSD",
    "log_endpoint_lower": "log-distance block at the lower endpoint is PSD",
    "normal_block": "three-by-three moment block of a normal matrix is PSD",
    "kadison": "square moment dominates the squared moment",
    "variance_range": "variance at most the squared half-width of the spectrum interval",
    "variance_endpoints": "variance at most the product of distances to the interval endpoints",
    "inverse_moment": "moment of the inverse dominates the inverse of the moment",
    "third_moment_lower": "third moment above its Schur-complement lower bound",
    "third_moment_upper": "third moment below its Schur-complement upper bound",
    "centered_fourth_moment": "centered fourth moment dominates its two-term lower bound",
    "route_agreement": "spectral and direct moment routes agree",
    "shift_sum_identity": "lower plus upper shifted blocks equal (M - m) times the Hankel",
    "determinant_identity": "shifted-Hankel determinant matches the cubic expansion",
    "tensor_reconstruction": "moment Hankel equals its weighted scalar-Hankel sum",
    "bound_min_upper": "smallest eigenvalue respects its cubic upper bound",
    "bound_max_lower": "largest eigenvalue respects its cubic lower bound",
    "cubic_sign_min": "cubic is non-positive at the smallest centered eigenvalue",
    "cubic_sign_max": "cubic is non-negative at the largest centered eigenvalue",
    # values reported by ``momenta bounds``
    "cubic_c2": "quadratic coefficient of the bounding cubic",
    "cubic_c1": "linear coefficient of the bounding cubic",
    "cubic_c0": "constant coefficient of the bounding cubic",
    **{f"root_{i}": "root of the bounding cubic" for i in range(3)},
    "lambda_min_upper": "upper bound on the smallest eigenvalue",
    "lambda_max_lower": "lower bound on the largest eigenvalue",
    "gamma": "Hankel determinant scale of the cubic",
    "ws_min_upper": "trace-moment comparator upper bound on the smallest eigenvalue",
    "ws_max_lower": "trace-moment comparator lower bound on the largest eigenvalue",
}

#: Scalar checks that need Hermitian input, in the order they are emitted.
_HERMITIAN_SCALAR_CHECKS = ("kadison", "variance_range", "variance_endpoints",
                            "inverse_moment", "third_moment_lower",
                            "third_moment_upper")


def record(check: str, seed: int, passed: bool | None,
           margin: float) -> CheckRecord:
    """The record of one outcome, cited from :data:`CATALOG`."""
    base = check.removeprefix("psd_").removesuffix("_pd")
    return CheckRecord(
        check=check, citation=CATALOG[base],
        passed=None if passed is None else bool(passed),
        margin=float(margin), seed=seed,
    )


def skip_record(check: str, seed: int) -> CheckRecord:
    """The record of a check whose hypotheses do not hold."""
    return record(check, seed, None, 0.0)


def psd_outcome(difference: np.ndarray, scale: float,
                tol: float) -> tuple[bool, float]:
    """PSD verdict and minimum eigenvalue of a Hermitian-by-construction matrix.

    ``scale`` is the size of the operands the matrix was computed from.
    Rounding asymmetry is dropped before the test.
    """
    verdict = is_psd(hermitian_part(difference), tol, scale)
    return verdict.passed, verdict.min_eigenvalue


def centered_fourth_moment_outcome(functional: PositiveUnitalMap, a,
                                   tol: float) -> tuple[bool, float]:
    """Verdict and slack, judged at ``||A||_F^4``, the size of the fourth
    moments the slack is computed from."""
    slack = centered_fourth_moment_slack(functional, a)
    return passes(slack, frobenius(a) ** 4, tol), slack


def centered_fourth_moment_slack(functional: PositiveUnitalMap, a) -> float:
    """Slack of the centered fourth-moment bound for a normal matrix.

    With ``B = A - phi(A) I`` and ``|B|^2 = B* B``, returns
    ``phi(|B|^4) - |phi(B |B|^2)|^2 / phi(|B|^2) - phi(|B|^2)^2``. The middle
    term is taken as 0 when ``phi(|B|^2)`` vanishes (the numerator then
    vanishes too, by Cauchy-Schwarz).
    """
    if not functional.is_functional:
        raise ShapeError("centered fourth moment needs a functional (1x1 codomain)")
    m = as_matrix(a)
    mean = complex(functional.apply(m)[0, 0])
    b = m - mean * np.eye(m.shape[0])
    bsq = b.conj().T @ b
    second = float(functional.apply(bsq)[0, 0].real)
    fourth = float(functional.apply(bsq @ bsq)[0, 0].real)
    mixed = complex(functional.apply(b @ bsq)[0, 0])
    if second <= 1e-15 * frobenius(b) ** 2:
        ratio = 0.0
    else:
        ratio = abs(mixed) ** 2 / second
    return fourth - ratio - second * second


def scalar_checks(pulm: PositiveUnitalMap, a, m: float | None = None,
                  M: float | None = None,
                  tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """Run the non-block inequality checks on one matrix under one map.

    For Hermitian input this covers the square-moment bound, the two
    variance bounds against the spectrum interval ``[m, M]``, the inverse
    moment bound (positive definite input), and the two Schur-complement
    bounds on the third moment (which need ``Phi(A) - mI`` respectively
    ``MI - Phi(A)`` to be safely invertible). For a functional it adds the
    centered fourth-moment bound, which also covers normal non-Hermitian
    input; all other checks are then reported as skipped. The records carry
    seed 0; a seeded campaign restamps them with its instance seed.

    Each verdict is judged at the size of the operands its slack is
    computed from: ``rho = max(|m|, |M|)`` bounds ``||Phi(A^k)||`` by
    ``rho^k``, and a check that inverts a gap adds the norm of the inverse
    or Schur term it forms.
    """
    mat = as_matrix(a)
    if mat.shape[0] != mat.shape[1]:
        raise ShapeError(f"expected a square matrix, got {mat.shape}")
    results: list[CheckRecord] = []

    if is_hermitian(mat):
        spectrum = hermitian_eig(mat)
        h = spectrum.matrix
        m, M = _spectrum_interval(spectrum.min, spectrum.max, m, M)
        eye = np.eye(pulm.codomain_dim)
        p1 = hermitian_part(pulm.apply(h))
        p2 = hermitian_part(pulm.apply(hermitian_part(h @ h)))
        p3 = hermitian_part(pulm.apply(hermitian_part(h @ h @ h)))
        variance = p2 - p1 @ p1

        rho = max(abs(m), abs(M))
        sq = rho * rho  # the size of Phi(A^2) and of Phi(A)^2
        results.append(record("kadison", 0, *psd_outcome(
            variance, 2.0 * sq, tol)))
        half = (M - m) / 2.0
        results.append(record("variance_range", 0, *psd_outcome(
            half * half * eye - variance, half * half + 2.0 * sq, tol)))
        results.append(record("variance_endpoints", 0, *psd_outcome(
            hermitian_part((p1 - m * eye) @ (M * eye - p1)) - variance,
            (rho + abs(m)) * (rho + abs(M)) + 2.0 * sq, tol)))

        if spectrum.min > 0.0:
            pinv = hermitian_part(pulm.apply(np.linalg.inv(h)))
            p1_inv = np.linalg.inv(p1)
            results.append(record("inverse_moment", 0, *psd_outcome(
                pinv - p1_inv, 1.0 / spectrum.min + frobenius(p1_inv), tol)))
        else:
            results.append(skip_record("inverse_moment", 0))

        # a gap is inverted only if it stands clear of its own norm and of
        # the rounding in Phi(A) - m I, which is relative to max(|m|, |M|)
        low_gap = p1 - m * eye
        if hermitian_eig(low_gap).min > 1e-6 * max(frobenius(low_gap), rho):
            x = p2 - m * p1
            schur = hermitian_part(x @ np.linalg.inv(low_gap) @ x)
            results.append(record("third_moment_lower", 0, *psd_outcome(
                p3 - (m * p2 + schur),
                (rho + abs(m)) * sq + frobenius(schur), tol)))
        else:
            results.append(skip_record("third_moment_lower", 0))

        high_gap = M * eye - p1
        if hermitian_eig(high_gap).min > 1e-6 * max(frobenius(high_gap), rho):
            y = M * p1 - p2
            schur = hermitian_part(y @ np.linalg.inv(high_gap) @ y)
            results.append(record("third_moment_upper", 0, *psd_outcome(
                M * p2 - schur - p3,
                (rho + abs(M)) * sq + frobenius(schur), tol)))
        else:
            results.append(skip_record("third_moment_upper", 0))
    else:
        results.extend(skip_record(check, 0)
                       for check in _HERMITIAN_SCALAR_CHECKS)

    if pulm.is_functional and is_normal(mat):
        results.append(record("centered_fourth_moment", 0,
                              *centered_fourth_moment_outcome(pulm, mat, tol)))
    else:
        results.append(skip_record("centered_fourth_moment", 0))
    return results

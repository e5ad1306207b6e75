"""Moment tables of positive unital linear maps and their PSD block matrices.

A :class:`MomentTable` holds the images ``Phi(A^k)`` of the powers of a
Hermitian matrix over a contiguous range of exponents (possibly starting at
-1 for positive definite ``A``) as one stacked ``(K, k, k)`` array, together
with the extreme eigenvalues ``m`` and ``M`` of ``A``. Every image
``Phi(f(A))`` is one contraction of ``f`` at the eigenvalues with the images
of the eigenprojections of ``A``'s one solve: of a Hermitian ``A``
(:func:`spectral_images`), whose shift ``A - phi(A) I`` has the same ones,
and of a normal ``A = U diag(z) U*`` (:func:`normal_spectrum`). From such a
table, :func:`build_blocks` assembles the family of block matrices whose
positive semidefiniteness this package verifies:

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
table, a sequence of 2r + 1 blocks, gathered into place at index i + j.
Product kinds are assembled from the expanded moment combination (linearity
makes this equal to applying the map to the product matrix; the equality is
itself tested). Each block is written once, as a list of signed terms
``(sign, d, c)``, and that list gives both its sequence and the size of its
operands.

There is one assembly path. :func:`build_blocks` stacks the sequences of a
whole family of one table, the kinds asked for and then the ``gap_product``
block of every adjacent pair of distinct eigenvalues, and lays them all out
with one index gather. The gather runs in chunks of at most
``GATHER_BUDGET`` bytes, so a family of ``k = n`` blocks is never held all at
once. :func:`build_block` is the one-block call of that path; the centered
blocks and the refinement chain, whose outer block is ``gap_product`` at
``s = t = m``, are families of it; the log and normal blocks are laid out by
the same gather. Every builder returns each block as a
:class:`BlockMatrixSpec` with the size of its operands: block scales are
decided in this module alone.

The module also holds the check catalog: :data:`CATALOG` says what every
check name verifies, and :func:`record` turns an outcome into the one record
type, :class:`CheckRecord`, that every suite and the command line emit.
Every PSD verdict is recorded by one function, :func:`psd_records`: for each
``(check, block)`` pair, :func:`~momenta.linalg.is_psd` of a
:class:`BlockMatrixSpec` at its scale, with its minimum eigenvalue as the
margin, or a skip where it is None.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotNormalError, ShapeError
from .linalg import (
    DEFAULT_PSD_TOL,
    as_matrix,
    binary_scaled,
    hermitian_eig,
    hermitian_part,
    is_psd,
    passes,
    require_finite,
)
from .maps import PositiveUnitalMap

#: Relative gap below which two eigenvalues are treated as one atom.
GAP_RTOL = 1e-8

#: Relative asymmetry tolerance of the normality test ||A*A - AA*||.
NORMALITY_RTOL = 1e-8

#: Each kind's signed terms ``(sign, d, c)`` from its two constants, ``(m,
#: M)`` or the gap ``(s, t)``: entry e of its Hankel sequence, the block
#: (i, j) with i + j = e, is the sum in order of ``sign * c * Phi(A^{e+d})``,
#: the first term added and a unit ``c`` None. Both :func:`_sequence` and
#: :meth:`MomentTable.operand_scale` read them. Each is the catalog's
#: expression term for term, the signs and units structural (as factors
#: they could flip a signed zero), so every bit matches the entrywise form.
_KINDS = {
    "hankel": lambda m, M: ((1, 0, None),),
    "hankel_shift1": lambda m, M: ((1, 1, None),),
    "lower_shift": lambda m, M: ((1, 1, None), (-1, 0, m)),
    "upper_shift": lambda m, M: ((1, 0, M), (-1, 1, None)),
    "lower_shift_inv": lambda m, M: ((1, 0, None), (-1, -1, m)),
    "upper_shift_inv": lambda m, M: ((1, -1, M), (-1, 0, None)),
    "range_product": lambda m, M: ((1, 1, m + M), (-1, 2, None),
                                   (-1, 0, m * M)),
    "gap_product": lambda s, t: ((1, 2, None), (-1, 1, s + t), (1, 0, s * t)),
    "range_product_inv": lambda m, M: ((1, 0, m + M), (-1, 1, None),
                                       (-1, -1, m * M)),
}


#: Block kinds in assembly order; :func:`build_block` takes every one but
#: ``gap_product``, whose blocks come from eigenvalues.
BLOCK_KINDS = tuple(_KINDS)

#: Bytes one gather of :func:`build_blocks` may allocate, for its grid of
#: blocks and the laid-out matrices together. A larger family is gathered in
#: chunks (at least one block each), so a family of ``k = n`` blocks holds no
#: more than this at a time. A chunk this small is still in a core's cache
#: when its blocks are judged. Assembling and taking the Hermitian part of
#: the order-3 family under the identity map (2-core Xeon, 2 MiB of L2 per
#: core): chunks of 8 MiB took 1.9x to 3.6x as long as chunks of 256 KiB at
#: n = 12..32, and chunks of 256 KiB took 0.45x to 0.9x as long as one
#: block per gather at n = 4..16.
GATHER_BUDGET = 256 << 10

#: Kinds whose validity needs a positive definite argument (and k_min = -1).
PD_BLOCK_KINDS = ("lower_shift_inv", "upper_shift_inv", "range_product_inv")


@dataclass(frozen=True)
class MomentTable:
    """Images ``Phi(A^k)`` for ``k = k_min..k_max`` plus spectrum interval.

    ``blocks`` is one ``(k_max - k_min + 1, k, k)`` array whose entry
    ``blocks[k - k_min]`` is ``Phi(A^k)``. ``[m, M]`` is the spectrum of
    ``A``: its extreme eigenvalues. Every block inequality on a wider
    interval follows from the one on the spectrum, so no wider one is
    taken.
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
        """:func:`_power_size` of ``Phi(A^k)`` on the table's interval."""
        return _power_size(self.m, self.M, k)

    def operand_scale(self, terms, r: int) -> float:
        """Size of the operands of the order-``r`` Hankel block of the
        signed ``terms`` ``(sign, d, c)`` (see ``_KINDS``) before they
        cancel.

        The scale is ``sum_d |c| size(e + d)``, a unit ``c`` (None) counting
        1, the larger of its values at ``e = 0`` and ``e = 2r``: :meth:`size`
        is log-convex in ``k``, so no degree in between gives more. Signs do
        not enter it.
        """
        first, last = (sum(self.size(e + d) if c is None
                           else abs(c) * self.size(e + d) for _, d, c in terms)
                       for e in (0, 2 * r))
        return float(max(first, last))


def _power_size(m: float, M: float, k: int) -> float:
    """Size of ``Phi(A^k)`` for a spectrum in ``[m, M]``: ``max(|m|, |M|)^k``,
    as a positive unital map does not increase the norm, and for ``k = -1``
    ``kappa/m``, ``kappa = M/m``, as ``1/lambda_j`` is only good to ``eps
    kappa`` of ``1/m``."""
    if k < 0:
        return (M / m) / m
    return max(abs(m), abs(M)) ** k


def positive_definite(m: float, M: float, tol: float) -> bool:
    """Whether ``[m, M]`` is a positive definite spectrum at working
    precision, ``m > 0`` and ``kappa tol < 1``: past that, the inverse
    powers' rounding reaches their checks' tolerance, and they are skips."""
    return m > 0.0 and M / m * tol < 1.0


def moment_table(pulm: PositiveUnitalMap, a, k_min: int = 0,
                 k_max: int = 4) -> MomentTable:
    """Tabulate ``Phi(A^k)`` for ``k = k_min..k_max``.

    The powers are the spectral images (:func:`spectral_images`) of
    ``lambda_j^k``. ``k_min`` may be -1 only for positive definite ``A``.
    The table's interval ``[m, M]`` is the spectrum of ``A``.
    """
    if k_min not in (-1, 0):
        raise DomainError(f"k_min must be -1 or 0, got {k_min}")
    if k_max < k_min:
        raise DomainError(f"k_max {k_max} below k_min {k_min}")
    spectrum = hermitian_eig(a)
    return _table(pulm.rank_one_images(spectrum.eigenvectors),
                  spectrum.eigenvalues, k_min, k_max)


def _table(images: np.ndarray, eigenvalues: np.ndarray, k_min: int,
           k_max: int) -> MomentTable:
    """The moment table of :func:`moment_table` from ascending ``eigenvalues``
    and their eigenvectors' ``images``; ``[m, M]`` are the first and last."""
    m, M = float(eigenvalues[0]), float(eigenvalues[-1])
    if k_min == -1 and m <= 0.0:
        raise DomainError(f"inverse moments need a positive definite matrix "
                          f"(min eigenvalue {m:.3e})")
    powers = np.arange(k_min, k_max + 1)
    with np.errstate(over="ignore"):  # _images rejects the overflow
        values = eigenvalues[np.newaxis, :] ** powers[:, np.newaxis]
    blocks = hermitian_part(_images(images, values, "moment powers"))
    return MomentTable(k_min=k_min, k_max=k_max, blocks=blocks, m=m, M=M)


def spectral_images(pulm: PositiveUnitalMap, spectrum,
                    values: np.ndarray) -> np.ndarray:
    """The ``(K, k, k)`` stack of ``Phi(f_i(A))``, ``values[i, j]`` being
    ``f_i(lambda_j)`` on the eigenvalues of ``spectrum``, a full solve.

    Each image is the contraction ``sum_j f_i(lambda_j) Phi(v_j v_j*)`` with
    the map's ``rank_one_images``, Hermitian part taken; a non-finite one
    (an overflow) is a :class:`DomainError`.
    """
    return hermitian_part(_images(pulm.rank_one_images(spectrum.eigenvectors),
                                  values, "moment powers"))


def _images(images: np.ndarray, values, what: str):
    """The stack of ``sum_j values[i, j] images[j]`` over a ``rank_one_images``
    stack; a non-finite image is a :class:`DomainError` on ``what``."""
    n, k = images.shape[:2]
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        blocks = (values @ images.reshape(n, k * k)).reshape(-1, k, k)
    require_finite(what, blocks)
    return blocks


@dataclass(frozen=True)
class BlockMatrixSpec:
    """An assembled block matrix, exactly Hermitian, and the size of the
    operands it was assembled from, the scale its PSD verdict is judged at.
    A gathered block is Hermitian because its table is and its terms are
    real; a scalar-check block and the normal block are Hermitian parts."""

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
    starts, ends = _atoms(vals, vals[-1] - vals[0])
    atoms = vals[starts]
    for i in np.flatnonzero(ends - starts > 1):
        atoms[i] = np.mean(vals[starts[i]:ends[i]])
    return atoms


def _atoms(vals: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Start and end indices of the atoms of a non-empty ascending spectrum:
    adjacent values closer than ``GAP_RTOL * width`` are one atom."""
    width = max(width, np.finfo(float).tiny)
    # a new atom starts wherever a step is not within the merging gap
    cuts = np.flatnonzero(~(np.diff(vals) <= GAP_RTOL * width)) + 1
    return np.concatenate(([0], cuts)), np.concatenate((cuts, [vals.size]))


def build_block(kind: str, table: MomentTable, r: int) -> BlockMatrixSpec:
    """Assemble one of the PSD block matrices from a moment table.

    ``r`` is the block order: the result has ``r + 1`` block rows and
    columns. The block is the one-block family of :func:`build_blocks`, bit
    for bit; ``gap_product`` blocks come from that family's eigenvalues.
    """
    return next(build_blocks(table, r, (kind,)))[1]


def build_blocks(table: MomentTable, r: int, kinds=(), *, eigenvalues=None):
    """Assemble a family of PSD block matrices of one table at order ``r``.

    Returns an iterator of ``(kind, block)``: one for each of ``kinds``,
    then, given ``A``'s ``eigenvalues``, one ``("gap_product", block)`` for
    each adjacent pair of their :func:`distinct_eigenvalues`, in order. Every
    block is one term list of ``_KINDS``, which gives both its sequence and
    its scale. The family is gathered in chunks of at most ``GATHER_BUDGET``
    bytes, and a chunk is assembled when its first block is asked for. Every
    argument is checked here, a table too short for the family included.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {kind!r}; "
                             f"expected one of {BLOCK_KINDS}")
    if r < 0:
        raise DomainError("block order r must be non-negative")
    if "gap_product" in kinds:
        raise DomainError("gap_product blocks come from eigenvalues, "
                          "one per adjacent pair")
    family = [_KINDS[kind](table.m, table.M) for kind in kinds]
    if eigenvalues is not None:
        atoms = distinct_eigenvalues(eigenvalues).tolist()
        family += [_KINDS["gap_product"](s, t)
                   for s, t in zip(atoms, atoms[1:])]
    names = kinds + ("gap_product",) * (len(family) - len(kinds))
    return zip(names, _assemble(table, r, family))


def _sequence(T: dict, terms) -> np.ndarray:
    """The Hankel sequence of ``terms`` (see ``_KINDS``), ``T[d]`` being
    ``Phi(A^{e+d})`` for ``e = 0..2r``."""
    total = None
    for sign, d, c in terms:
        term = T[d] if c is None else c * T[d]
        total = (term if total is None
                 else total + term if sign > 0 else total - term)
    return total


def _assemble(table: MomentTable, r: int, family):
    """An iterator of the order-``r`` blocks of ``family``, one term list
    each, laid out by one :func:`_gather` per ``GATHER_BUDGET`` bytes. The
    first term whose ``2r + 1`` powers the table lacks raises at the call.
    """
    T = {d: table.powers(d, 2 * r + 1)
         for d in dict.fromkeys(d for terms in family for _, d, _ in terms)}
    # a gather allocates the grid of blocks and the laid-out matrices
    k = table.blocks.shape[1]
    per_gather = max(1, GATHER_BUDGET
                     // (2 * table.blocks.itemsize * ((r + 1) * k) ** 2))

    def chunk(part):
        assembled = _gather(np.stack([_sequence(T, terms) for terms in part]),
                            _hankel_index(r + 1))
        return map(BlockMatrixSpec, assembled,
                   [table.operand_scale(terms, r) for terms in part])

    # a chunk is freed before the next one is assembled
    return itertools.chain.from_iterable(
        chunk(family[lo:lo + per_gather])
        for lo in range(0, len(family), per_gather))


@functools.lru_cache(maxsize=None)
def _hankel_index(size: int) -> np.ndarray:
    """The read-only ``(size, size)`` index ``i + j`` of a Hankel gather."""
    index = np.add.outer(np.arange(size), np.arange(size))
    index.flags.writeable = False
    return index


def _gather(sequences: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The block matrices ``[sequences[b, index[i, j]]]`` of a
    ``(count, length, k, k)`` stack of sequences and a square grid
    ``index``: :func:`_hankel_index` for a Hankel block.

    One index gather puts block ``index[i, j]`` of each sequence at block
    position ``(i, j)``, and one transpose and reshape lay each grid of
    ``k x k`` blocks out as one square matrix.
    """
    count, size, k = sequences.shape[0], index.shape[0], sequences.shape[-1]
    grid = sequences[:, index]  # (b, i, j, row, col)
    return grid.transpose(0, 1, 3, 2, 4).reshape(count, size * k, size * k)


def build_refinement_chain(table: MomentTable) -> tuple[BlockMatrixSpec,
                                                        BlockMatrixSpec]:
    """Two-block refinement of the even-moment Hankel for ``A >= m > 0``.

    Returns ``(outer, inner)``, a two-block family of :func:`build_blocks`:
    ``inner = 2m [[Phi(A), Phi(A^2)], [Phi(A^2), Phi(A^3)]] - m^2 [[I,
    Phi(A)], [Phi(A), Phi(A^2)]]``, and ``outer``, the even-moment Hankel
    ``[[Phi(A^2), Phi(A^3)], [Phi(A^3), Phi(A^4)]]`` less ``inner``, which is
    the ``gap_product`` block at ``s = t = m``. Both are positive
    semidefinite whenever the spectrum lies in ``[m, inf)``, ``m = table.m >
    0``; each is judged at the :meth:`MomentTable.operand_scale` of its terms.
    """
    m = table.m
    if m <= 0.0:
        raise DomainError(f"refinement chain needs m > 0, got {m}")
    return tuple(_assemble(table, 1, (_KINDS["gap_product"](m, m),
                                      ((1, 1, 2.0 * m), (-1, 0, m * m)))))


def build_centered_blocks(functional: PositiveUnitalMap, a, r: int):
    """The :func:`build_blocks` pairs of the order-``r`` ``lower_shift`` and
    ``upper_shift`` blocks of ``A - phi(A) I`` under a functional ``phi``.

    ``A - phi(A) I`` has ``A``'s eigenvectors and the eigenvalues
    ``lambda_j - phi(A)``, so its table is contracted from ``A``'s one solve
    at those shifted eigenvalues; the table's ``[m, M]``, which sizes both
    blocks, is ``A``'s extreme eigenvalues less the mean.
    """
    if not functional.is_functional:
        raise ShapeError("centered blocks need a functional (1x1 codomain)")
    spectrum = hermitian_eig(a)
    lam = spectrum.eigenvalues
    images = functional.rank_one_images(spectrum.eigenvectors)
    mean = float(hermitian_part(_images(images, lam[np.newaxis],
                                        "moment powers"))[0, 0, 0].real)
    table = _table(images, lam - mean, 0, 2 * r + 2)
    return build_blocks(table, r, ("lower_shift", "upper_shift"))


def _log_spectrum(a):
    """The spectrum of a positive definite ``A`` and the logarithms of its
    eigenvalues."""
    spectrum = hermitian_eig(a)
    if spectrum.min <= 0.0:
        raise DomainError(f"matrix must be positive definite "
                          f"(min eigenvalue {spectrum.min:.3e})")
    return spectrum, np.log(spectrum.eigenvalues)


def build_log_deficit_block(pulm: PositiveUnitalMap, a) -> BlockMatrixSpec:
    """``[[Phi(A^2), Phi(A)], [Phi(A), Phi(A - log A)]]`` for ``A > 0``.

    Positive semidefinite because ``x - log x >= 1`` on the positive axis.
    The three images are one Hankel sequence, laid out by one gather, and
    the scale is the larger of the sizes of ``Phi(A^2)`` and of
    ``Phi(A) - Phi(log A)``.
    """
    spectrum, log_lam = _log_spectrum(a)
    lam, m, M = spectrum.eigenvalues, spectrum.min, spectrum.max
    log_size = max(abs(math.log(m)), abs(math.log(M)))  # the size of log A
    with np.errstate(over="ignore"):  # spectral_images rejects the overflow
        values = np.stack([lam * lam, lam, lam - log_lam])
    images = spectral_images(pulm, spectrum, values)
    return BlockMatrixSpec(_gather(images[np.newaxis], _hankel_index(2))[0],
                           max(_power_size(m, M, 2),
                               _power_size(m, M, 1) + log_size))


def build_log_endpoint_blocks(pulm: PositiveUnitalMap,
                              a) -> tuple[BlockMatrixSpec, BlockMatrixSpec]:
    """Logarithmic endpoint blocks of a positive definite ``A``.

    ``m`` and ``M`` are the extreme eigenvalues of ``A``. Returns
    ``(upper, lower)``, one gather:

    - upper: ``[[Phi((log M) I - log A), Phi((log M) A - A log A)],
      [..., Phi((log M) A^2 - A^2 log A)]]``
    - lower: the mirrored block with ``log m`` subtracted instead.

    Block ``e = 0..2`` of a sequence is of the size of ``A^e`` times
    ``|log M|`` (or ``|log m|``) plus that of ``log A``; the scale is the
    larger of the sizes at ``e = 0`` and ``e = 2``.
    """
    spectrum, log_lam = _log_spectrum(a)
    lam, m, M = spectrum.eigenvalues, spectrum.min, spectrum.max
    lm, lM = np.log(m), np.log(M)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        powers = lam[np.newaxis, :] ** np.arange(3)[:, np.newaxis]
        values = np.concatenate([(lM - log_lam) * powers,
                                 (log_lam - lm) * powers])
    images = spectral_images(pulm, spectrum, values)
    blocks = _gather(images.reshape(2, 3, *images.shape[1:]), _hankel_index(2))
    low, high = abs(math.log(m)), abs(math.log(M))  # max: the size of log A
    size, square = max(low, high), _power_size(m, M, 2)
    return tuple(BlockMatrixSpec(block, max(c, c * square)) for block, c
                 in zip(blocks, (high + size, size + low)))


def _normality_defect(b: np.ndarray) -> float:
    """``||B*B - BB*||_F / ||B||_F^2`` of ``B = 2^-e A``
    (:func:`~momenta.linalg.binary_scaled`). No norm can overflow, and
    wherever ``A``'s own products neither overflow nor underflow, the ratio
    is ``A``'s."""
    bs = b.conj().T
    return (np.linalg.norm(bs @ b - b @ bs)
            / max(np.linalg.norm(b) ** 2, np.finfo(float).tiny))


def normal_spectrum(a) -> tuple[np.ndarray, np.ndarray]:
    """``(z, U)`` with ``A = U diag(z) U*`` for a normal ``A``.

    This is the package's one normality decision:
    ``||A*A - AA*||_F <= NORMALITY_RTOL * ||A||_F^2``, on ``A`` scaled by a
    power of two so that no norm overflows; a matrix that fails it raises
    :class:`~momenta.errors.NotNormalError`.

    ``H = (A + A*)/2`` and ``K = (A - A*)/2i`` commute: ``eigh`` of ``H``,
    then of ``K`` on each atom of ``H``, and of ``H`` again on each atom of
    ``K`` there where ``H`` spreads more, solves both. The atoms are taken at
    the width ``||A - (tr A / n) I||_F`` of the whole spectrum.
    """
    b, e = binary_scaled(as_matrix(a, square=True))
    defect = _normality_defect(b)
    if not defect <= NORMALITY_RTOL:
        raise NotNormalError(
            f"matrix is not normal: ||A*A - AA*||_F = {defect:.3e} * "
            f"||A||_F^2 exceeds {NORMALITY_RTOL:.1e} * ||A||_F^2")
    bs = b.conj().T
    h, k = (b + bs) / 2.0, (b - bs) / 2j
    hv, u = np.linalg.eigh(h)
    width = np.linalg.norm(b - np.trace(b) / len(b) * np.eye(len(b)))
    for lo, hi in zip(*_atoms(hv, width)):
        if hi - lo > 1:
            v = u[:, lo:hi]
            kv, w = np.linalg.eigh(v.conj().T @ k @ v)
            u[:, lo:hi] = v @ w
            for klo, khi in zip(*(lo + i for i in _atoms(kv, width))):
                v = u[:, klo:khi]
                hs, w = np.linalg.eigh(v.conj().T @ h @ v)
                if np.ptp(hs) > np.ptp(kv[klo - lo:khi - lo]):
                    u[:, klo:khi] = v @ w
    z = np.einsum("ij,ij->j", u.conj(), b @ u)
    with np.errstate(over="ignore"):  # an infinite z overflows the images
        return np.ldexp(z.view(np.float64), e).view(np.complex128), u


def build_normal_block(pulm: PositiveUnitalMap, z, u) -> BlockMatrixSpec:
    """Three-by-three moment block of a normal ``A = U diag(z) U*``
    (:func:`normal_spectrum`, or a Hermitian ``A``'s full solve).

    ``[[I, Phi(A), Phi(A*A)], [Phi(A*), Phi(AA*), Phi(A*^2 A)],
    [Phi(A*A), Phi(A* A^2), Phi(A*^2 A^2)]]``, block ``(p, q)`` contracted
    from ``conj(x_p) x_q``, ``x = (1, z_j, |z_j|^2)``. Each entry is one
    image, with no cancellation, so the scale is the block's own Frobenius
    norm (``inf`` where that overflows, which :func:`psd_records` rejects).
    """
    x = np.stack([np.ones_like(z), z, z.real * z.real + z.imag * z.imag])
    # _images raises an overflow, and psd_records an infinite scale
    with np.errstate(over="ignore", invalid="ignore"):
        grid = _images(pulm.rank_one_images(u),
                       (x.conj()[:, np.newaxis] * x).reshape(9, -1),
                       "normal-matrix moments")
        block = _gather(grid[np.newaxis], np.arange(9).reshape(3, 3))[0]
        return BlockMatrixSpec(hermitian_part(block), np.linalg.norm(block))


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
#:
#: The centered shift blocks restate the plain ones: with ``mu = phi(A)``
#: and ``B = A - mu I``, ``[phi(B^{i+j} (A - m))]`` is ``P L P^T`` for the
#: plain ``lower_shift`` block ``L`` and the unipotent ``P = [C(i, a)
#: (-mu)^{i-a}]``, and likewise for ``upper_shift``. So
#: ``centered_lower_shift`` and ``centered_upper_shift`` test the same
#: inequalities on blocks conditioned differently.
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
    # holds for every table, so it checks the term lists, not the input
    "shift_sum_identity": "lower plus upper shifted blocks equal (M - m) times the Hankel",
    "determinant_identity": "shifted-Hankel determinant matches the cubic expansion",
    # sums the images the Hankel gather uses, in another order, so it holds
    # for any input; deleting it waits on the tracer counting work, since it
    # makes one memo-hit eigensolve request per functional instance
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
HERMITIAN_SCALAR_CHECKS = ("kadison", "variance_range", "variance_endpoints",
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


def psd_records(blocks, seed: int, tol: float,
                prefix: str = "") -> list[CheckRecord]:
    """The PSD records of ``(check, block)`` pairs, named ``prefix + check``.

    Each :class:`BlockMatrixSpec` is exactly Hermitian as built, so it is
    neither checked nor copied again: :func:`~momenta.linalg.is_psd` judges
    the block itself at ``block.scale``, with its minimum eigenvalue as the
    margin. A block that is None, whose hypotheses fail, gives a skip, and
    one whose scale overflowed a :class:`DomainError` before its eigensolve.
    Every PSD verdict of the package is recorded here.
    """
    out = []
    for check, block in blocks:
        if block is None:
            out.append(skip_record(prefix + check, seed))
            continue
        if not math.isfinite(block.scale):
            raise DomainError(f"{prefix + check} operands overflow double "
                              f"precision; rescale the matrix")
        out.append(record(prefix + check, seed,
                          *is_psd(block.assembled, tol, block.scale)))
    return out


def centered_fourth_moment(functional: PositiveUnitalMap, z, u,
                           tol: float) -> tuple[bool, float]:
    """Verdict and slack of the centered fourth-moment bound of a normal
    ``A = U diag(z) U*``, judged at ``||A||_F^4``.

    With ``B = A - phi(A) I`` and ``|B|^2 = B* B``, the slack is
    ``phi(|B|^4) - |phi(B |B|^2)|^2 / phi(|B|^2) - phi(|B|^2)^2``, each
    moment weighted by ``phi(u_j u_j*)``. The middle term is 0 when
    ``phi(|B|^2)`` vanishes (its numerator does too, by Cauchy-Schwarz).
    """
    if not functional.is_functional:
        raise ShapeError("centered fourth moment needs a functional (1x1 codomain)")
    w = functional.rank_one_images(u).real.ravel()
    # numpy scalars, so an overflow gives inf or nan, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        b = z - w @ z
        s = b.real * b.real + b.imag * b.imag  # |b_j|^2
        second, fourth, mixed = w @ s, w @ (s * s), w @ (b * s)
        ratio = 0.0 if second <= 1e-15 * s.sum() else abs(mixed) ** 2 / second
        slack = fourth - ratio - second * second
        require_finite("centered fourth moments", slack)
        scale = np.vdot(z, z).real ** 2  # inf, which passes rejects
        return passes(slack, scale, tol), slack


def scalar_checks(pulm: PositiveUnitalMap, a, tol: float = DEFAULT_PSD_TOL,
                  seed: int = 0, suffix: str = "") -> list[CheckRecord]:
    """Run the non-block inequality checks on one Hermitian matrix.

    They cover the square-moment bound, the two variance bounds against the
    spectrum ``[m, M]`` of ``A``, the inverse moment bound (where
    :func:`positive_definite`), the two Schur-complement bounds on the third
    moment (which need ``Phi(A) - mI`` respectively ``MI - Phi(A)`` to be
    safely invertible), and for a functional the centered fourth-moment
    bound. All read one
    ``hermitian_eig(a)``, which rejects non-Hermitian input (a normal
    matrix goes through ``campaign.normal_suite``). The records are named
    ``check + suffix`` and carry ``seed``, the seed of their instance.

    Each verdict is judged at the size of the operands its slack is
    computed from: ``rho = max(|m|, |M|)`` bounds ``||Phi(A^k)||`` by
    ``rho^k``, and a check that inverts a gap adds the norm of the inverse
    or Schur term it forms.
    """
    spectrum = hermitian_eig(a)
    lam, vectors = spectrum.eigenvalues, spectrum.eigenvectors
    m, M = spectrum.min, spectrum.max
    pd = positive_definite(m, M, tol)
    blocks = dict.fromkeys(HERMITIAN_SCALAR_CHECKS)
    eye = np.eye(pulm.codomain_dim)
    table = _table(pulm.rank_one_images(vectors), lam, -1 if pd else 0, 3)
    p1, p2, p3 = table.powers(1, 3)
    variance = p2 - p1 @ p1
    low, high = p1 - m * eye, M * eye - p1  # the gaps of Phi(A) to m and M

    rho = max(abs(m), abs(M))
    sq = rho * rho  # the size of Phi(A^2) and of Phi(A)^2
    blocks["kadison"] = BlockMatrixSpec(hermitian_part(variance), 2.0 * sq)
    half = (M - m) / 2.0
    blocks["variance_range"] = BlockMatrixSpec(hermitian_part(
        half * half * eye - variance), half * half + 2.0 * sq)
    blocks["variance_endpoints"] = BlockMatrixSpec(hermitian_part(
        hermitian_part(low @ high) - variance),
        (rho + abs(m)) * (rho + abs(M)) + 2.0 * sq)

    # an overflowing inverse gives a non-finite scale, which psd_records
    # rejects, here and in the third moments
    if pd:
        with np.errstate(over="ignore", invalid="ignore"):
            p1_inv = np.linalg.inv(p1)
            size = np.linalg.norm(p1_inv)
            blocks["inverse_moment"] = BlockMatrixSpec(hermitian_part(
                table.power(-1) - p1_inv), table.size(-1) + size)

    blocks["third_moment_lower"] = _third_moment(
        low, p2 - m * p1, rho, (rho + abs(m)) * sq,
        lambda schur: p3 - (m * p2 + schur))
    blocks["third_moment_upper"] = _third_moment(
        high, M * p1 - p2, rho, (rho + abs(M)) * sq,
        lambda schur: M * p2 - schur - p3)
    results = psd_records(((check + suffix, block)
                           for check, block in blocks.items()), seed, tol)

    check = "centered_fourth_moment" + suffix
    if not pulm.is_functional:
        return results + [skip_record(check, seed)]
    return results + [record(check, seed,
                             *centered_fourth_moment(pulm, lam, vectors, tol))]


def _third_moment(gap: np.ndarray, x: np.ndarray, rho: float, size: float,
                  bound) -> BlockMatrixSpec | None:
    """The third-moment block ``bound(x gap^-1 x)`` at ``size`` plus the
    norm of its Schur term, or None unless the gap stands clear of its own
    norm and of the rounding in it, which is relative to ``rho``."""
    if (hermitian_eig(gap, vectors=False).min
            > 1e-6 * max(np.linalg.norm(gap), rho)):
        with np.errstate(over="ignore", invalid="ignore"):
            schur = hermitian_part(x @ np.linalg.inv(gap) @ x)
            return BlockMatrixSpec(hermitian_part(bound(schur)),
                                   size + np.linalg.norm(schur))
    return None

"""Seeded verification campaigns over random instances.

An instance couples a Hermitian test matrix (plus a shifted positive
definite variant), a map variant, and a block order. The suites below run
every inequality the package implements against such instances and emit
flat records that the command line interface serializes; the acceptance
tests drive the same functions directly.

Records carry the seed of their instance so any outcome can be reproduced
in isolation. A record whose hypotheses fail reports ``passed=None``
("skipped"), never a failure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigenbounds, moments
from .errors import NotHermitianError, NotNormalError
from .linalg import (
    DEFAULT_PSD_TOL,
    hermitian_eig,
    hermitian_part,
    hermitian_with_spectrum,
    passes,
    random_normal_matrix,
    require_finite,
)
from .maps import MAP_KINDS, NormalizedTrace, PositiveUnitalMap, random_map
from .moments import CheckRecord, psd_records, record, skip_record

#: Minimum eigenvalue of the shifted positive definite variant.
PD_FLOOR = 0.1

#: Relative tolerances of the cubic bounds and signs in :func:`bounds_suite`
#: and of the identities of :func:`oracle_suite`.
BOUNDS_RTOL = 1e-8
ROUTE_RTOL = 1e-8
SHIFT_SUM_RTOL = 1e-10
DETERMINANT_RTOL = 1e-8
TENSOR_RTOL = 1e-9

#: Map kinds cycled by the normal-matrix suite (block and functional cases).
NORMAL_MAP_KINDS = ("compression", "vector-state")

_ALWAYS_KINDS = ("hankel", "lower_shift", "upper_shift", "range_product")
_PD_KINDS = ("hankel_shift1",) + moments.PD_BLOCK_KINDS
_PD_EXTRA_CHECKS = ("refinement_chain_outer", "refinement_chain_inner",
                    "log_deficit", "log_endpoint_upper", "log_endpoint_lower")
#: Every check of the positive definite variant, skipped where it is None.
_PD_CHECKS = tuple(f"psd_{kind}" for kind in _PD_KINDS) + _PD_EXTRA_CHECKS


@dataclass(frozen=True)
class Instance:
    """One corpus element: matrices, map, and block order.

    ``matrix_pd`` is the positive definite variant, None where there is none.
    """

    seed: int
    n: int
    r: int
    kind: str
    matrix: np.ndarray
    matrix_pd: np.ndarray | None
    pulm: PositiveUnitalMap


def _dimensions(count: int, n_range: tuple[int, int]) -> list[int]:
    """The dimension of each of ``count`` instances, cycling through
    ``n_range``; a :class:`ValueError` unless ``1 <= n_lo <= n_hi``."""
    n_lo, n_hi = n_range
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad dimension range {n_range}")
    return [n_lo + i % (n_hi - n_lo + 1) for i in range(count)]


def corpus(count: int = 200, seed: int = 42, n_range: tuple[int, int] = (2, 6),
           r_max: int = 3) -> list[Instance]:
    """Deterministic instance corpus cycling dimensions, maps, and orders.

    Test matrices get spectra drawn uniformly from [-1.5, 1.5] so that the
    high moment powers stay well inside double precision; the positive
    definite variant is the same matrix shifted to put its smallest
    eigenvalue at ``PD_FLOOR``.
    """
    out = []
    for i, n in enumerate(_dimensions(count, n_range)):
        inst_seed = seed + 7919 * i
        kind = MAP_KINDS[i % len(MAP_KINDS)]
        r = i % (r_max + 1)
        rng = np.random.default_rng(inst_seed)
        lam = np.sort(rng.uniform(-1.5, 1.5, n))
        a = hermitian_with_spectrum(lam, inst_seed + 1)
        a_pd = a + (PD_FLOOR - lam[0]) * np.eye(n)
        k = int(rng.integers(1, n + 1))
        pulm = random_map(kind, n, k, inst_seed + 2)
        out.append(Instance(
            seed=inst_seed, n=n, r=r, kind=kind,
            matrix=a, matrix_pd=a_pd, pulm=pulm,
        ))
    return out


def normal_corpus(count: int = 200, seed: int = 42,
                  n_range: tuple[int, int] = (2, 6)) -> list[tuple]:
    """Corpus of normal (generally non-Hermitian) matrices for the 3x3 block.

    Cycles compressions and vector states, the variants the normal-matrix
    checks target. Yields ``(seed, matrix, map)`` triples.
    """
    out = []
    for i, n in enumerate(_dimensions(count, n_range)):
        inst_seed = seed + 104729 + 7919 * i
        kind = NORMAL_MAP_KINDS[i % len(NORMAL_MAP_KINDS)]
        a = random_normal_matrix(n, inst_seed)
        rng = np.random.default_rng(inst_seed + 1)
        k = int(rng.integers(1, n + 1))
        pulm = random_map(kind, n, k, inst_seed + 2)
        out.append((inst_seed, a, pulm))
    return out


def psd_suite(inst: Instance, tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """PSD verdicts for every block construction on one instance; those of
    the positive definite variant are skipped where it is None."""
    pulm, a, pd, r, seed = (inst.pulm, inst.matrix, inst.matrix_pd, inst.r,
                            inst.seed)
    table = moments.moment_table(pulm, a, 0, 2 * r + 2)
    records = psd_records(moments.build_blocks(
        table, r, _ALWAYS_KINDS, eigenvalues=hermitian_eig(a).eigenvalues),
        seed, tol, "psd_")
    if pd is None:
        records += [skip_record(check, seed) for check in _PD_CHECKS]
    else:
        records += psd_records(moments.build_blocks(
            moments.moment_table(pulm, pd, -1, 2 * r + 2), r, _PD_KINDS),
            seed, tol, "psd_")
        blocks = (*moments.build_refinement_chain(
                      moments.moment_table(pulm, pd, 0, 4)),
                  moments.build_log_deficit_block(pulm, pd),
                  *moments.build_log_endpoint_blocks(pulm, pd))
        records += psd_records(zip(_PD_EXTRA_CHECKS, blocks), seed, tol)
    if pulm.is_functional:
        records += psd_records(moments.build_centered_blocks(pulm, a, r),
                               seed, tol, "centered_")
    return records


def scalar_suite(inst: Instance, tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """Scalar-form inequality checks on one instance, and under a ``_pd``
    suffix on a positive definite variant other than the matrix itself."""
    records = moments.scalar_checks(inst.pulm, inst.matrix, tol, inst.seed)
    if inst.matrix_pd is not None and inst.matrix_pd is not inst.matrix:
        records += moments.scalar_checks(inst.pulm, inst.matrix_pd, tol,
                                         inst.seed, "_pd")
    return records


def _route_error(pulm, matrix, k_min, k_max) -> float:
    """Worst disagreement of the moment table with the direct route (the
    map applied to multiplied powers), each power ``k`` relative to the
    table's ``size(k)``, ``kappa/m`` for ``k = -1``. A zero scale
    (an underflowed power) leaves the raw difference. Each difference is
    divided by its scale before its norm is taken, so the norm of a finite
    relative difference cannot overflow."""
    spectral = moments.moment_table(pulm, matrix, k_min, k_max)
    h = hermitian_eig(matrix).matrix
    acc = {0: np.eye(h.shape[0], dtype=np.complex128)}
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        for p in range(1, max(k_max, 1) + 1):
            acc[p] = acc[p - 1] @ h
        if k_min == -1:
            acc[-1] = np.linalg.inv(h)
        direct = np.stack([pulm.apply(hermitian_part(acc[p]))
                           for p in range(k_min, k_max + 1)])
        require_finite("moment powers", direct)
        direct = hermitian_part(direct)
        scales = np.array([spectral.size(k) for k in range(k_min, k_max + 1)])
        # divide the real and imaginary parts: a complex division by a
        # subnormal scale can give nan
        rel = ((spectral.blocks - direct).view(np.float64)
               / np.where(scales > 0.0, scales, 1.0)[:, None, None])
        diff = np.linalg.norm(rel, axis=(1, 2))
    require_finite("moment route differences", diff)
    return float(np.max(diff))


def oracle_suite(inst: Instance) -> list[CheckRecord]:
    """Identities of the moment table and the bounding cubic: only
    ``route_agreement`` and ``determinant_identity`` compare independent
    routes and can fail on the input; the other two hold for any input."""
    records = []
    r = inst.r
    err = _route_error(inst.pulm, inst.matrix, 0, 2 * r + 2)
    if inst.matrix_pd is not None:
        err = max(err, _route_error(inst.pulm, inst.matrix_pd, -1,
                                    max(2 * r + 2, 4)))
    records.append(_identity_record("route_agreement", inst.seed, err, 1.0,
                                    ROUTE_RTOL))

    table = moments.moment_table(inst.pulm, inst.matrix, 0, 2 * r + 2)
    low, high, hank = (block for _, block in moments.build_blocks(
        table, r, ("lower_shift", "upper_shift", "hankel")))
    gap = table.M - table.m
    err = float(np.max(np.abs(low.assembled + high.assembled
                              - gap * hank.assembled)))
    scale = max(low.scale, high.scale, abs(gap) * hank.scale)
    records.append(_identity_record("shift_sum_identity", inst.seed, err,
                                    scale, SHIFT_SUM_RTOL))

    worst = eigenbounds.determinant_error(NormalizedTrace(inst.n), inst.matrix)
    records.append(_identity_record("determinant_identity", inst.seed, worst,
                                    1.0, DETERMINANT_RTOL))

    if inst.pulm.is_functional:
        spectrum = hermitian_eig(inst.matrix)
        weights = inst.pulm.rank_one_images(spectrum.eigenvectors).real.ravel()
        v = spectrum.eigenvalues[:, np.newaxis] ** np.arange(r + 1)
        acc = (v.T * weights) @ v  # sum_j w_j v_j v_j^T
        err = float(np.max(np.abs(acc - hank.assembled.real)))
        records.append(_identity_record("tensor_reconstruction", inst.seed,
                                        err, hank.scale, TENSOR_RTOL))
    return records


def _identity_record(check, seed, err, scale, rtol) -> CheckRecord:
    """The record of an identity met up to ``err``, judged at ``scale``."""
    return record(check, seed, passes(-err, scale, rtol), rtol * scale - err)


def bounds_suite(inst: Instance) -> list[CheckRecord]:
    """Validity of the cubic eigenvalue bounds under the normalized trace.

    A bound fails when it misses its eigenvalue by more than ``BOUNDS_RTOL``
    times the spectral radius, and a cubic sign when it is wrong by more
    than ``BOUNDS_RTOL`` times the sum of its Horner terms.
    """
    functional = NormalizedTrace(inst.n)
    report = eigenbounds.spectral_bounds(functional, inst.matrix)
    lam = hermitian_eig(inst.matrix).eigenvalues
    if report.degenerate:
        return [skip_record(check, inst.seed)
                for check in ("bound_min_upper", "bound_max_lower",
                              "cubic_sign_min", "cubic_sign_max")]
    rho = max(abs(lam[0]), abs(lam[-1]))
    records = []
    for check, slack in (("bound_min_upper", report.lambda_min_upper - lam[0]),
                         ("bound_max_lower", lam[-1] - report.lambda_max_lower)):
        records.append(record(check, inst.seed, passes(slack, rho, BOUNDS_RTOL), slack))
    c2, c1, c0 = report.cubic
    # the cubic is <= 0 at the smallest centered eigenvalue, >= 0 at the largest
    for check, mu, sign in (("cubic_sign_min", lam[0] - report.mean, -1.0),
                            ("cubic_sign_max", lam[-1] - report.mean, 1.0)):
        slack = sign * (((mu + c2) * mu + c1) * mu + c0)
        horner = abs(mu) ** 3 + abs(c2) * mu * mu + abs(c1 * mu) + abs(c0)
        records.append(record(check, inst.seed, passes(slack, horner, BOUNDS_RTOL),
                              slack))
    return records


def normal_suite(seed: int, matrix: np.ndarray, pulm: PositiveUnitalMap,
                 tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """Centered fourth moment (of a functional), then normal block, from one
    ``normal_spectrum``: where both overflow, the former's error is raised."""
    z, u = moments.normal_spectrum(matrix)
    records = []
    if pulm.is_functional:
        records.append(record("centered_fourth_moment", seed,
                              *moments.centered_fourth_moment(pulm, z, u, tol)))
    return records + psd_records(
        [("normal_block", moments.build_normal_block(pulm, z, u))], seed, tol)


def instance_records(inst: Instance, tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """Every suite on one instance, in the order psd, oracle, bounds,
    scalar; file mode's first error is the first suite's."""
    return (psd_suite(inst, tol) + oracle_suite(inst) + bounds_suite(inst)
            + scalar_suite(inst, tol))


def run_campaign(count: int = 200, seed: int = 42,
                 n_range: tuple[int, int] = (2, 6), r_max: int = 3,
                 tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """Full random campaign: every suite over both corpora."""
    records = []
    for inst in corpus(count, seed, n_range, r_max):
        records.extend(instance_records(inst, tol))
    for nseed, matrix, pulm in normal_corpus(count, seed, n_range):
        records.extend(normal_suite(nseed, matrix, pulm, tol))
    return records


def single_matrix_records(matrix: np.ndarray, pulm: PositiveUnitalMap,
                          seed: int, r_max: int = 3,
                          tol: float = DEFAULT_PSD_TOL) -> list[CheckRecord]:
    """File-mode verification: run every applicable check on one matrix.

    Hermitian input, as its one solve ``hermitian_eig`` decides, is one
    instance of :func:`instance_records` on the matrix as given, its own
    positive definite variant where ``moments.positive_definite`` holds,
    and the normal block of its solve. Where the solve raises
    :class:`~momenta.errors.NotHermitianError`, it is :func:`normal_suite`,
    other scalar checks skipped, or, where ``moments.normal_spectrum``
    raises :class:`~momenta.errors.NotNormalError`, four skips: checks
    whose hypotheses fail are skips, never failures.
    """
    try:
        spectrum = hermitian_eig(matrix)
    except NotHermitianError:
        pass
    else:
        pd = moments.positive_definite(spectrum.min, spectrum.max, tol)
        records = instance_records(Instance(
            seed=seed, n=spectrum.eigenvalues.size, r=r_max, kind="file",
            matrix=matrix, matrix_pd=matrix if pd else None, pulm=pulm), tol)
        block = moments.build_normal_block(pulm, spectrum.eigenvalues,
                                           spectrum.eigenvectors)
        return records + psd_records([("normal_block", block)], seed, tol)
    skipped = moments.HERMITIAN_SCALAR_CHECKS + (
        () if pulm.is_functional else ("centered_fourth_moment",))
    try:
        return ([skip_record(check, seed) for check in skipped]
                + normal_suite(seed, matrix, pulm, tol))
    except NotNormalError:
        return [skip_record(check, seed)
                for check in ("psd_hankel", "normal_block", "kadison",
                              "centered_fourth_moment")]

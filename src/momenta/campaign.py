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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import eigenbounds, moments
from .errors import DomainError
from .linalg import (
    frobenius,
    hermitian_eig,
    hermitian_part,
    hermitian_with_spectrum,
    is_hermitian,
    passes,
    random_normal_matrix,
)
from .maps import MAP_KINDS, NormalizedTrace, PositiveUnitalMap, random_map
from .moments import CheckRecord, psd_outcome, record, skip_record

#: Minimum eigenvalue of the shifted positive definite variant.
PD_FLOOR = 0.1

#: Map kinds cycled by the normal-matrix suite (block and functional cases).
NORMAL_MAP_KINDS = ("compression", "vector_state")

_ALWAYS_KINDS = ("hankel", "lower_shift", "upper_shift", "range_product")
_PD_KINDS = ("hankel_shift1",) + moments.PD_BLOCK_KINDS
_PD_EXTRA_CHECKS = ("refinement_chain_outer", "refinement_chain_inner",
                    "log_deficit", "log_endpoint_upper", "log_endpoint_lower")


@dataclass(frozen=True)
class Instance:
    """One corpus element: matrices, map, and block order."""

    index: int
    seed: int
    n: int
    r: int
    kind: str
    matrix: np.ndarray
    matrix_pd: np.ndarray
    pulm: PositiveUnitalMap


def corpus(count: int = 200, seed: int = 42, n_range: tuple[int, int] = (2, 6),
           r_max: int = 3) -> list[Instance]:
    """Deterministic instance corpus cycling dimensions, maps, and orders.

    Test matrices get spectra drawn uniformly from [-1.5, 1.5] so that the
    high moment powers stay well inside double precision; the positive
    definite variant is the same matrix shifted to put its smallest
    eigenvalue at ``PD_FLOOR``.
    """
    n_lo, n_hi = n_range
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad dimension range {n_range}")
    out = []
    for i in range(count):
        inst_seed = seed + 7919 * i
        n = n_lo + i % (n_hi - n_lo + 1)
        kind = MAP_KINDS[i % len(MAP_KINDS)]
        r = i % (r_max + 1)
        rng = np.random.default_rng(inst_seed)
        lam = np.sort(rng.uniform(-1.5, 1.5, n))
        a = hermitian_with_spectrum(lam, inst_seed + 1)
        a_pd = a + (PD_FLOOR - lam[0]) * np.eye(n)
        k = int(rng.integers(1, n + 1))
        pulm = random_map(kind, n, k, inst_seed + 2)
        out.append(Instance(
            index=i, seed=inst_seed, n=n, r=r, kind=kind,
            matrix=a, matrix_pd=a_pd, pulm=pulm,
        ))
    return out


def normal_corpus(count: int = 200, seed: int = 42,
                  n_range: tuple[int, int] = (2, 6)) -> list[tuple]:
    """Corpus of normal (generally non-Hermitian) matrices for the 3x3 block.

    Cycles compressions and vector states, the variants the normal-matrix
    checks target. Yields ``(seed, matrix, map)`` triples.
    """
    n_lo, n_hi = n_range
    out = []
    for i in range(count):
        inst_seed = seed + 104729 + 7919 * i
        n = n_lo + i % (n_hi - n_lo + 1)
        kind = NORMAL_MAP_KINDS[i % len(NORMAL_MAP_KINDS)]
        a = random_normal_matrix(n, inst_seed)
        rng = np.random.default_rng(inst_seed + 1)
        k = int(rng.integers(1, n + 1))
        pulm = random_map(kind, n, k, inst_seed + 2)
        out.append((inst_seed, a, pulm))
    return out


def _psd_base_records(pulm, matrix, r, seed, tol) -> list[CheckRecord]:
    table = moments.moment_table(pulm, matrix, 0, 2 * r + 2)
    records = []
    for kind in _ALWAYS_KINDS:
        block = moments.build_block(kind, table, r)
        records.append(record(f"psd_{kind}", seed, *psd_outcome(
            block.assembled, block.scale, tol)))
    distinct = moments.distinct_eigenvalues(hermitian_eig(matrix).eigenvalues)
    for g in range(2, distinct.size + 1):
        try:
            block = moments.build_block("gap_product", table, r,
                                        eigenvalues=distinct, gap_index=g)
        except DomainError:
            records.append(skip_record("psd_gap_product", seed))
            continue
        records.append(record("psd_gap_product", seed, *psd_outcome(
            block.assembled, block.scale, tol)))
    return records


def _psd_pd_records(pulm, matrix_pd, r, seed, tol) -> list[CheckRecord]:
    table_pd = moments.moment_table(pulm, matrix_pd, -1, 2 * r + 2)
    records = []
    for kind in _PD_KINDS:
        block = moments.build_block(kind, table_pd, r)
        records.append(record(f"psd_{kind}", seed, *psd_outcome(
            block.assembled, block.scale, tol)))
    return records


def _pd_extra_records(pulm, matrix_pd, seed, tol) -> list[CheckRecord]:
    table = moments.moment_table(pulm, matrix_pd, 0, 4)
    outer, inner = moments.build_refinement_chain(table)
    deficit = moments.build_log_deficit_block(pulm, matrix_pd)
    upper, lower = moments.build_log_endpoint_blocks(pulm, matrix_pd)
    blocks = (outer - inner, inner, deficit, upper, lower)
    # operand sizes: Phi(A^k) by table.size(k), log A by the larger of
    # |log m| and |log M| (m > 0 is the smallest eigenvalue, M the largest)
    m, log_m, log_M = table.m, math.log(table.m), math.log(table.M)
    log_size = max(abs(log_m), abs(log_M))
    scales = (
        table.operand_scale({2: 1.0, 1: 2.0 * m, 0: m * m}, 1),
        table.operand_scale({1: 2.0 * m, 0: m * m}, 1),
        max(table.size(2), table.size(1) + log_size),
        # Phi(A^e ((log M) I - log A)) and Phi(A^e (log A - (log m) I))
        table.operand_scale({0: abs(log_M) + log_size}, 1),
        table.operand_scale({0: log_size + abs(log_m)}, 1),
    )
    return [record(check, seed, *psd_outcome(block, scale, tol))
            for check, block, scale in zip(_PD_EXTRA_CHECKS, blocks, scales)]


def _centered_records(functional, matrix, r, seed, tol) -> list[CheckRecord]:
    mean = float(functional.apply(matrix)[0, 0].real)
    lam = hermitian_eig(matrix).eigenvalues
    centered = matrix - mean * np.eye(matrix.shape[0])
    # [m, M] is the centered spectrum, rounded at the scale of ``matrix``
    # rather than that of moment_table's containment test: set, not checked
    ctable = replace(moments.moment_table(functional, centered, 0, 2 * r + 2),
                     m=float(lam[0] - mean), M=float(lam[-1] - mean))
    records = []
    for kind, name in (("lower_shift", "centered_lower_shift"),
                       ("upper_shift", "centered_upper_shift")):
        block = moments.build_block(kind, ctable, r)
        records.append(record(name, seed, *psd_outcome(
            block.assembled, block.scale, tol)))
    return records


def _restamp(results: list[CheckRecord], seed: int,
             suffix: str) -> list[CheckRecord]:
    """Scalar-check records under the instance seed and a name suffix."""
    return [record(res.check + suffix, seed, res.passed, res.margin)
            for res in results]


def psd_suite(inst: Instance, tol: float = 1e-9) -> list[CheckRecord]:
    """PSD verdicts for every block construction on one instance."""
    return (_psd_base_records(inst.pulm, inst.matrix, inst.r, inst.seed, tol)
            + _psd_pd_records(inst.pulm, inst.matrix_pd, inst.r, inst.seed, tol))


def scalar_suite(inst: Instance, tol: float = 1e-9) -> list[CheckRecord]:
    """Scalar-form and two-block inequality checks on one instance."""
    records = _restamp(moments.scalar_checks(inst.pulm, inst.matrix, tol=tol),
                       inst.seed, "")
    records += _restamp(moments.scalar_checks(inst.pulm, inst.matrix_pd,
                                              tol=tol), inst.seed, "_pd")
    records.extend(_pd_extra_records(inst.pulm, inst.matrix_pd, inst.seed, tol))
    if inst.pulm.is_functional:
        records.extend(_centered_records(inst.pulm, inst.matrix, inst.r,
                                         inst.seed, tol))
    return records


def _route_error(pulm, matrix, k_min, k_max) -> float:
    """Worst disagreement of the spectral and direct routes, each power
    ``k`` relative to its own scale: ``max(|m|, |M|)^k``, and ``1/m`` for
    ``k = -1``. A zero scale (the zero matrix) leaves the raw difference.
    """
    spectral = moments.moment_table(pulm, matrix, k_min, k_max,
                                    route="spectral")
    direct = moments.moment_table(pulm, matrix, k_min, k_max,
                                  route="direct").blocks
    scales = np.array([spectral.size(k) for k in range(k_min, k_max + 1)])
    diff = np.linalg.norm(spectral.blocks - direct, axis=(1, 2))
    return float(np.max(diff / np.where(scales > 0.0, scales, 1.0)))


def _determinant_identity_error(cm: eigenbounds.CentralMoments) -> float:
    """Worst mismatch of determinant vs cubic at five shifts, relative to
    the moments' own scale ``s = max_k |b_k|^(1/k)``.

    Every determinant term is of degree 9 in ``s``, so the check runs on the
    moments ``b_k / s^k`` (scaled by a power of two first, which is exact
    and cannot overflow) at the shifts ``-2..2``. Moments that all vanish
    give error 0.
    """
    b = (cm.b2, cm.b3, cm.b4, cm.b5)
    s = max(abs(bk) ** (1.0 / k) for k, bk in enumerate(b, start=2))
    if s == 0.0:
        return 0.0
    e = math.frexp(s)[1]
    sigma = math.ldexp(s, -e)  # in [1/2, 1)
    unit = eigenbounds.CentralMoments(0.0, *(
        math.ldexp(bk, -e * k) / sigma ** k for k, bk in enumerate(b, start=2)))
    gamma = eigenbounds.gamma_value(unit)
    beta1, beta2, beta3 = eigenbounds.beta_values(unit)
    worst = 0.0
    for a in (-2.0, -1.0, 0.0, 1.0, 2.0):
        det = eigenbounds.determinant_oracle(unit, a)
        poly = ((gamma * a + beta1) * a + beta2) * a + beta3
        worst = max(worst, abs(det - poly))
    return worst


def _max_entry(*operands: np.ndarray) -> float:
    """Largest entry modulus over the operands: the scale of an identity."""
    return max(float(np.max(np.abs(x))) for x in operands)


def oracle_suite(inst: Instance, include_pd: bool = True) -> list[CheckRecord]:
    """Cross-checks between independent computation routes."""
    records = []
    r = inst.r
    err = _route_error(inst.pulm, inst.matrix, 0, 2 * r + 2)
    if include_pd:
        err = max(err, _route_error(inst.pulm, inst.matrix_pd, -1,
                                    max(2 * r + 2, 4)))
    records.append(record("route_agreement", inst.seed,
                          passes(-err, 1.0, 1e-8), 1e-8 - err))

    table = moments.moment_table(inst.pulm, inst.matrix, 0, 2 * r + 2)
    low = moments.build_block("lower_shift", table, r).assembled
    high = moments.build_block("upper_shift", table, r).assembled
    hank = moments.build_block("hankel", table, r).assembled
    err = float(np.max(np.abs(low + high - (table.M - table.m) * hank)))
    # low and high are differences T(e+1) - m T(e), M T(e) - T(e+1): their
    # rounding scales with the terms before subtraction
    scale = _max_entry(low, high, max(abs(table.m), abs(table.M)) * hank)
    records.append(record("shift_sum_identity", inst.seed,
                          passes(-err, scale, 1e-10), 1e-10 * scale - err))

    cm = eigenbounds.central_moments(NormalizedTrace(inst.n), inst.matrix)
    worst = _determinant_identity_error(cm)
    records.append(record("determinant_identity", inst.seed,
                          passes(-worst, 1.0, 1e-8), 1e-8 - worst))

    if inst.pulm.is_functional:
        spectrum = hermitian_eig(inst.matrix)
        weights = moments.spectral_images(inst.pulm, spectrum).real.ravel()
        acc = np.zeros((r + 1, r + 1))
        for lam_j, w in zip(spectrum.eigenvalues, weights):
            v = np.array([lam_j ** k for k in range(r + 1)])
            acc += w * np.outer(v, v)
        err = float(np.max(np.abs(acc - hank.real)))
        scale = _max_entry(acc, hank.real)
        records.append(record("tensor_reconstruction", inst.seed,
                              passes(-err, scale, 1e-9), 1e-9 * scale - err))
    return records


def bounds_suite(inst: Instance, tol: float = 1e-8) -> list[CheckRecord]:
    """Validity of the cubic eigenvalue bounds under the normalized trace.

    A bound fails when it misses its eigenvalue by more than ``tol`` times
    the spectral radius, and a cubic sign when it is wrong by more than
    ``tol`` times the sum of its Horner terms.
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
        records.append(record(check, inst.seed, passes(slack, rho, tol), slack))
    c2, c1, c0 = report.cubic
    # the cubic is <= 0 at the smallest centered eigenvalue, >= 0 at the largest
    for check, mu, sign in (("cubic_sign_min", lam[0] - report.mean, -1.0),
                            ("cubic_sign_max", lam[-1] - report.mean, 1.0)):
        slack = sign * (((mu + c2) * mu + c1) * mu + c0)
        horner = abs(mu) ** 3 + abs(c2) * mu * mu + abs(c1 * mu) + abs(c0)
        records.append(record(check, inst.seed, passes(slack, horner, tol),
                              slack))
    return records


def _normal_block_record(pulm, matrix, seed, tol) -> CheckRecord:
    # every entry is one map image, with no cancellation: the block's own
    # norm is the size of its operands
    block = moments.build_normal_block(pulm, matrix)
    return record("normal_block", seed,
                  *psd_outcome(block, frobenius(block), tol))


def normal_suite(seed: int, matrix: np.ndarray, pulm: PositiveUnitalMap,
                 tol: float = 1e-9) -> list[CheckRecord]:
    """Normal-matrix block and centered fourth-moment checks."""
    records = [_normal_block_record(pulm, matrix, seed, tol)]
    if pulm.is_functional:
        records.append(record("centered_fourth_moment", seed,
                              *moments.centered_fourth_moment_outcome(
                                  pulm, matrix, tol)))
    return records


def run_campaign(count: int = 200, seed: int = 42,
                 n_range: tuple[int, int] = (2, 6), r_max: int = 3,
                 tol: float = 1e-9) -> list[CheckRecord]:
    """Full random campaign: every suite over both corpora."""
    records = []
    for inst in corpus(count, seed, n_range, r_max):
        records.extend(psd_suite(inst, tol))
        records.extend(scalar_suite(inst, tol))
        records.extend(oracle_suite(inst))
        records.extend(bounds_suite(inst))
    for nseed, matrix, pulm in normal_corpus(count, seed, n_range):
        records.extend(normal_suite(nseed, matrix, pulm, tol))
    return records


def single_matrix_records(matrix: np.ndarray, pulm: PositiveUnitalMap,
                          seed: int, r_max: int = 3,
                          tol: float = 1e-9) -> list[CheckRecord]:
    """File-mode verification: run every applicable check on one matrix.

    Non-Hermitian but normal input gets the normal-matrix checks; checks
    whose hypotheses fail for the given matrix are recorded as skipped,
    never as failures. Each check is recorded once (``psd_gap_product`` once
    per eigenvalue gap).
    """
    m = np.asarray(matrix, dtype=np.complex128)
    records: list[CheckRecord] = []
    if is_hermitian(m):
        m = hermitian_part(m)
        pd = hermitian_eig(m).min > 0.0
        records.extend(_psd_base_records(pulm, m, r_max, seed, tol))
        if pd:
            records.extend(_psd_pd_records(pulm, m, r_max, seed, tol))
            records.extend(_pd_extra_records(pulm, m, seed, tol))
        else:
            for kind in _PD_KINDS:
                records.append(skip_record(f"psd_{kind}", seed))
            for check in _PD_EXTRA_CHECKS:
                records.append(skip_record(check, seed))
        if pulm.is_functional:
            records.extend(_centered_records(pulm, m, r_max, seed, tol))
        inst = Instance(index=0, seed=seed, n=m.shape[0], r=r_max,
                        kind="file", matrix=m, matrix_pd=m, pulm=pulm)
        records.extend(oracle_suite(inst, include_pd=pd))
        records.extend(bounds_suite(inst))
    elif not moments.is_normal(m):
        # Neither Hermitian nor normal: nothing in the catalog applies.
        return [skip_record(check, seed)
                for check in ("psd_hankel", "normal_block", "kadison",
                              "centered_fourth_moment")]
    records += _restamp(moments.scalar_checks(pulm, m, tol=tol), seed, "")
    # scalar_checks covers the centered fourth moment
    records.append(_normal_block_record(pulm, m, seed, tol))
    return records

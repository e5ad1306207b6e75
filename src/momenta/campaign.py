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
    hermitian_eig,
    hermitian_part,
    hermitian_with_spectrum,
    is_hermitian,
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
        records.append(record(f"psd_{kind}", seed,
                              *psd_outcome(block.assembled, tol)))
    distinct = moments.distinct_eigenvalues(hermitian_eig(matrix).eigenvalues)
    for g in range(2, distinct.size + 1):
        try:
            block = moments.build_block("gap_product", table, r,
                                        eigenvalues=distinct, gap_index=g)
        except DomainError:
            records.append(skip_record("psd_gap_product", seed))
            continue
        records.append(record("psd_gap_product", seed,
                              *psd_outcome(block.assembled, tol)))
    return records


def _psd_pd_records(pulm, matrix_pd, r, seed, tol) -> list[CheckRecord]:
    table_pd = moments.moment_table(pulm, matrix_pd, -1, 2 * r + 2)
    records = []
    for kind in _PD_KINDS:
        block = moments.build_block(kind, table_pd, r)
        records.append(record(f"psd_{kind}", seed,
                              *psd_outcome(block.assembled, tol)))
    return records


def _pd_extra_records(pulm, matrix_pd, seed, tol) -> list[CheckRecord]:
    table = moments.moment_table(pulm, matrix_pd, 0, 4)
    outer, inner = moments.build_refinement_chain(table)
    deficit = moments.build_log_deficit_block(pulm, matrix_pd)
    upper, lower = moments.build_log_endpoint_blocks(pulm, matrix_pd)
    blocks = (outer - inner, inner, deficit, upper, lower)
    return [record(check, seed, *psd_outcome(block, tol))
            for check, block in zip(_PD_EXTRA_CHECKS, blocks)]


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
        records.append(record(name, seed, *psd_outcome(block.assembled, tol)))
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
    spectral = moments.moment_table(pulm, matrix, k_min, k_max,
                                    route="spectral").blocks
    direct = moments.moment_table(pulm, matrix, k_min, k_max,
                                  route="direct").blocks
    err = (np.linalg.norm(spectral - direct, axis=(1, 2))
           / np.maximum(1.0, np.linalg.norm(spectral, axis=(1, 2))))
    return float(err.max())


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
                          err <= 1e-8, 1e-8 - err))

    table = moments.moment_table(inst.pulm, inst.matrix, 0, 2 * r + 2)
    low = moments.build_block("lower_shift", table, r).assembled
    high = moments.build_block("upper_shift", table, r).assembled
    hank = moments.build_block("hankel", table, r).assembled
    err = float(np.max(np.abs(low + high - (table.M - table.m) * hank)))
    # low and high are differences T(e+1) - m T(e), M T(e) - T(e+1): their
    # rounding scales with the terms before subtraction
    threshold = 1e-10 * _max_entry(low, high,
                                   max(abs(table.m), abs(table.M)) * hank)
    records.append(record("shift_sum_identity", inst.seed,
                          err <= threshold, threshold - err))

    cm = eigenbounds.central_moments(NormalizedTrace(inst.n), inst.matrix)
    worst = _determinant_identity_error(cm)
    records.append(record("determinant_identity", inst.seed,
                          worst <= 1e-8, 1e-8 - worst))

    if inst.pulm.is_functional:
        spectrum = hermitian_eig(inst.matrix)
        weights = moments.spectral_images(inst.pulm, spectrum).real.ravel()
        acc = np.zeros((r + 1, r + 1))
        for lam_j, w in zip(spectrum.eigenvalues, weights):
            v = np.array([lam_j ** k for k in range(r + 1)])
            acc += w * np.outer(v, v)
        err = float(np.max(np.abs(acc - hank.real)))
        threshold = 1e-9 * _max_entry(acc, hank.real)
        records.append(record("tensor_reconstruction", inst.seed,
                              err <= threshold, threshold - err))
    return records


def _root_rounding_error(report: eigenbounds.EigenBoundReport, rho: float,
                         root: float) -> float:
    """First-order rounding error of a cubic root computed from moments.

    The coefficients are ``beta_i / gamma``, where gamma and the betas are
    sums of degree-6 to degree-9 products of central moments ``|b_k| <=
    rho^k`` (``rho`` the largest centered |eigenvalue|). Rounding those sums
    moves ``p(root)`` by about ``u (3 rho^9 + rho^6 sum|c_i||root|^i) /
    |gamma|``, and dividing by ``|p'(root)|`` turns that into an error in
    the root. Near a close eigenvalue pair gamma and ``p'`` are both small,
    so the error can far exceed a fixed tolerance. On 100 000 random
    three-atom spectra, whose exact roots are the eigenvalues, the observed
    error of a three-root cubic stayed below 7% of this estimate.
    """
    c2, c1, c0 = report.cubic
    gamma_rel = (abs(report.gamma) ** (1 / 6) / rho) ** 6  # no rho^9 overflow
    drift = np.finfo(float).eps * (
        3.0 * rho ** 3 + abs(c2) * root * root + abs(c1) * abs(root) + abs(c0)
    ) / gamma_rel
    slope = abs((3.0 * root + 2.0 * c2) * root + c1)
    return drift / slope if slope else float("inf")


def bounds_suite(inst: Instance, tol: float = 1e-8) -> list[CheckRecord]:
    """Validity of the cubic eigenvalue bounds under the normalized trace.

    A bound fails only when it misses its eigenvalue by more than ``tol``
    plus the bound's own rounding error (:func:`_root_rounding_error`).
    """
    functional = NormalizedTrace(inst.n)
    report = eigenbounds.spectral_bounds(functional, inst.matrix)
    lam = hermitian_eig(inst.matrix).eigenvalues
    if report.degenerate:
        return [skip_record(check, inst.seed)
                for check in ("bound_min_upper", "bound_max_lower",
                              "cubic_sign_min", "cubic_sign_max")]
    mu_min = lam[0] - report.mean
    mu_max = lam[-1] - report.mean
    rho = max(-mu_min, mu_max)
    slack_min = tol + _root_rounding_error(report, rho, report.roots[0])
    slack_max = tol + _root_rounding_error(report, rho, report.roots[-1])
    records = [
        record("bound_min_upper", inst.seed,
               lam[0] <= report.lambda_min_upper + slack_min,
               report.lambda_min_upper - lam[0]),
        record("bound_max_lower", inst.seed,
               lam[-1] >= report.lambda_max_lower - slack_max,
               lam[-1] - report.lambda_max_lower),
    ]
    c2, c1, c0 = report.cubic
    scale = max(1.0, abs(c2), abs(c1), abs(c0))
    p_min = ((mu_min + c2) * mu_min + c1) * mu_min + c0
    p_max = ((mu_max + c2) * mu_max + c1) * mu_max + c0
    records.append(record("cubic_sign_min", inst.seed,
                          p_min <= tol * scale, -p_min))
    records.append(record("cubic_sign_max", inst.seed,
                          p_max >= -tol * scale, p_max))
    return records


def normal_suite(seed: int, matrix: np.ndarray, pulm: PositiveUnitalMap,
                 tol: float = 1e-9) -> list[CheckRecord]:
    """Normal-matrix block and centered fourth-moment checks."""
    records = [record("normal_block", seed, *psd_outcome(
        moments.build_normal_block(pulm, matrix), tol))]
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
    records.append(record("normal_block", seed, *psd_outcome(
        moments.build_normal_block(pulm, m), tol)))
    return records

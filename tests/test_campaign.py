import collections
import dataclasses
import functools
import json
import warnings

import numpy as np
import pytest

from momenta import campaign, cli, eigenbounds, linalg, maps, moments
from momenta.errors import DomainError

from conftest import ReflectedTrace, peak_bytes, random_psd
from mutant_runs import installed


def test_corpus_is_deterministic():
    a = campaign.corpus(10, seed=5)
    b = campaign.corpus(10, seed=5)
    for x, y in zip(a, b):
        assert x.seed == y.seed and x.kind == y.kind
        np.testing.assert_array_equal(x.matrix, y.matrix)


def test_corpus_cycles_all_map_kinds():
    kinds = {inst.kind for inst in campaign.corpus(12, seed=1)}
    assert kinds == set(maps.MAP_KINDS)


@pytest.mark.parametrize("build", [campaign.corpus, campaign.normal_corpus],
                         ids=["corpus", "normal_corpus"])
@pytest.mark.parametrize("n_range", [(0, 3), (4, 3), (3, 1)])
def test_corpus_rejects_a_bad_dimension_range(build, n_range):
    with pytest.raises(ValueError, match=r"bad dimension range \("):
        build(2, seed=0, n_range=n_range)


def test_corpus_dimensions_and_orders():
    insts = campaign.corpus(20, seed=2, n_range=(2, 6), r_max=3)
    assert {i.n for i in insts} == {2, 3, 4, 5, 6}
    assert {i.r for i in insts} == {0, 1, 2, 3}
    for inst in insts:
        assert linalg.hermitian_eig(inst.matrix_pd).min >= campaign.PD_FLOOR - 1e-9


def test_psd_suite_has_no_failures():
    for inst in campaign.corpus(12, seed=3):
        for rec in campaign.psd_suite(inst):
            assert rec.passed is not False, (rec.check, rec.seed, rec.margin)


def test_scalar_suite_has_no_failures():
    for inst in campaign.corpus(12, seed=4):
        for rec in campaign.scalar_suite(inst):
            assert rec.passed is not False, (rec.check, rec.seed, rec.margin)


def test_oracle_suite_has_no_failures():
    for inst in campaign.corpus(12, seed=5):
        for rec in campaign.oracle_suite(inst):
            assert rec.passed is not False, (rec.check, rec.seed, rec.margin)


def test_tensor_reconstruction_equals_its_loop():
    # the per-eigenvalue outer-product loop the suite's one product
    # replaced: the same sum in another order, so equal to rounding
    checked = 0
    for inst in campaign.corpus(60, seed=6):
        if not inst.pulm.is_functional:
            continue
        spectrum = linalg.hermitian_eig(inst.matrix)
        weights = inst.pulm.rank_one_images(spectrum.eigenvectors).real.ravel()
        acc = np.zeros((inst.r + 1, inst.r + 1))
        for lam_j, w in zip(spectrum.eigenvalues, weights):
            v = np.array([lam_j ** k for k in range(inst.r + 1)])
            acc += w * np.outer(v, v)
        hank = moments.build_block(
            "hankel", moments.moment_table(inst.pulm, inst.matrix, 0,
                                           2 * inst.r + 2), inst.r)
        err = float(np.max(np.abs(acc - hank.assembled.real)))
        rec, = (r for r in campaign.oracle_suite(inst)
                if r.check == "tensor_reconstruction")
        assert abs(rec.margin - (campaign.TENSOR_RTOL * hank.scale - err)) <= (
            1e-14 * hank.scale)
        checked += 1
    assert checked >= 10


def test_shift_sum_identity_is_judged_at_its_operand_scales():
    # the operand scales that the blocks' PSD verdicts use, the Hankel's
    # times the gap
    for inst in campaign.corpus(60, seed=6):
        table = moments.moment_table(inst.pulm, inst.matrix, 0, 2 * inst.r + 2)
        low, high, hank = (block for _, block in moments.build_blocks(
            table, inst.r, ("lower_shift", "upper_shift", "hankel")))
        gap = table.M - table.m
        err = float(np.max(np.abs(low.assembled + high.assembled
                                  - gap * hank.assembled)))
        scale = max(low.scale, high.scale, abs(gap) * hank.scale)
        rec, = (r for r in campaign.oracle_suite(inst)
                if r.check == "shift_sum_identity")
        assert rec.margin == campaign.SHIFT_SUM_RTOL * scale - err


def _file_instance(matrix, pulm):
    n = matrix.shape[0]
    return campaign.Instance(seed=0, n=n, r=3, kind="file",
                             matrix=matrix, matrix_pd=None, pulm=pulm)


def _identity_verdicts(inst):
    # the two identities read A alone, so no positive definite variant
    return {r.check: r.passed
            for r in campaign.oracle_suite(
                dataclasses.replace(inst, matrix_pd=None))
            if r.check in ("shift_sum_identity", "tensor_reconstruction")}


@pytest.mark.parametrize("spec", ["trace", "vector-state", "pinching",
                                  "compression"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_identities_pass_at_n128(spec, seed):
    # every map kind; a full verify on the matrix-valued maps takes seconds
    # at this size, so only the two scale-carrying identities run here
    a = linalg.random_hermitian(128, seed)
    inst = _file_instance(a, cli.build_map(spec, 128, 0))
    verdicts = _identity_verdicts(inst)
    assert verdicts and all(verdicts.values()), verdicts


@pytest.mark.parametrize("shift,spread", [(1.0, 1e-8), (100.0, 1e-6)])
@pytest.mark.parametrize("spec", ["trace", "pinching"])
def test_oracle_identities_pass_on_near_identity(shift, spread, spec):
    # a spectrum spread far below its offset: the shifted blocks cancel to
    # a sliver of their terms, so the threshold has to carry the terms' size
    a = shift * np.eye(6) + spread * linalg.random_hermitian(6, 3)
    verdicts = _identity_verdicts(_file_instance(a, cli.build_map(spec, 6, 0)))
    assert verdicts and all(verdicts.values()), verdicts


#: (matrix, map) pairs of the scale sweep: four map kinds at n = 2 and 5,
#: and 1e3 * random_hermitian(2, 2) under the trace, whose range and third
#: moment checks once failed at scale through a floor of 1 in the PSD test
_SCALE_PAIRS = [(linalg.random_hermitian(n, s), cli.build_map(spec, n, s))
                for spec in ("trace", "vector-state", "compression", "pinching")
                for n in (2, 5) for s in range(3)]
_SCALE_PAIRS.append((1e3 * linalg.random_hermitian(2, 2),
                     maps.NormalizedTrace(2)))


def _file_verdicts(matrix, pulm):
    return [(r.check, r.passed)
            for r in campaign.single_matrix_records(matrix, pulm, 0)]


@functools.cache
def _unscaled_verdicts(index):
    return _file_verdicts(*_SCALE_PAIRS[index])


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e8])
def test_oracle_identity_verdicts_are_scale_invariant(c):
    # every check of file mode, each judged at its own operands' scale:
    # A -> cA changes no verdict and no skip
    for index, (a, pulm) in enumerate(_SCALE_PAIRS):
        base = _unscaled_verdicts(index)
        assert all(passed is not False for _, passed in base), (index, base)
        assert _file_verdicts(c * a, pulm) == base, index
    insts = campaign.corpus(12, seed=5)
    insts.append(_file_instance(linalg.random_hermitian(64, 1),
                                maps.NormalizedTrace(64)))
    near_identity = np.eye(6) + 1e-8 * linalg.random_hermitian(6, 3)
    insts.append(_file_instance(near_identity, maps.NormalizedTrace(6)))
    for inst in insts:
        scaled = dataclasses.replace(inst, matrix=c * inst.matrix)
        base = _identity_verdicts(inst)
        assert all(base.values()), (inst.seed, base)
        assert _identity_verdicts(scaled) == base, inst.seed


def test_bound_verdicts_hold_at_1e9():
    # a bound is judged relative to the spectral radius; an absolute 1e-8
    # failed 5 of these 30 instances on rounding alone
    for s in range(30):
        n = 3 + s % 5
        inst = _file_instance(1e9 * linalg.random_hermitian(n, 500 + s),
                              maps.NormalizedTrace(n))
        for rec in campaign.bounds_suite(inst):
            assert rec.passed is not False, (s, rec.check, rec.margin)


@pytest.mark.parametrize("check,n,seed", [
    ("kadison", 3, 1),
    ("variance_range", 3, 1),
    ("variance_endpoints", 3, 1),
    ("third_moment_upper", 3, 1),
    ("psd_range_product", 3, 1),
    ("psd_gap_product", 3, 1),
    # Phi(A) - mI is invertible only when tr(A)/n lies above the midrange
    ("third_moment_lower", 4, 2),
])
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_checks_fail_under_a_map_that_is_not_positive(check, n, seed, c):
    # a floor of 1 in the PSD test let every one of these pass at 1e-6
    records = campaign.single_matrix_records(
        c * linalg.random_hermitian(n, seed), ReflectedTrace(n), 0)
    verdicts = [r.passed for r in records if r.check == check]
    assert verdicts and all(v is False for v in verdicts), verdicts


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_bound_checks_fail_on_roots_moved_outward(c, monkeypatch):
    # negative control: the Gauss nodes of three atoms are the atoms, so
    # outer roots moved 1e-6 rho past them break both bounds and both signs
    exact = eigenbounds.spectral_bounds

    def moved(functional, a):
        report = exact(functional, a)
        shift = 1e-6 * 4.0 * c
        roots = (report.roots[0] - shift, report.roots[1],
                 report.roots[2] + shift)
        return dataclasses.replace(
            report, roots=roots, cubic=tuple(np.poly(roots)[1:]),
            lambda_min_upper=report.mean + roots[0],
            lambda_max_lower=report.mean + roots[2])

    inst = _file_instance(c * np.diag([1.0, 2.0, 4.0]), maps.NormalizedTrace(3))
    assert all(r.passed for r in campaign.bounds_suite(inst))
    monkeypatch.setattr(eigenbounds, "spectral_bounds", moved)
    verdicts = {r.check: r.passed for r in campaign.bounds_suite(inst)}
    assert verdicts == dict.fromkeys(("bound_min_upper", "bound_max_lower",
                                      "cubic_sign_min", "cubic_sign_max"),
                                     False)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_route_agreement_fails_on_a_skewed_direct_route(c, monkeypatch):
    # negative control: a direct route run on 1.01 A fails at every scale;
    # each power is compared at its own scale, so no floor of 1 lets the
    # 1% error in Phi(A) pass below scale 1
    inst = campaign.corpus(6, seed=3)[1]  # vector state, n = 3
    scaled = dataclasses.replace(inst, matrix=c * inst.matrix,
                                 matrix_pd=c * inst.matrix_pd)

    def route_agreement(with_pd):
        inst = scaled if with_pd else dataclasses.replace(scaled,
                                                          matrix_pd=None)
        return next(r for r in campaign.oracle_suite(inst)
                    if r.check == "route_agreement")

    assert route_agreement(True).margin >= 1e-8 - 1e-13
    eig = campaign.hermitian_eig

    def skewed(a, *args, **kwargs):
        # the direct route multiplies the validated matrix, here 1.01 A;
        # the moment table solves A itself, in moments
        spectrum = eig(a, *args, **kwargs)
        return dataclasses.replace(spectrum, matrix=1.01 * spectrum.matrix)

    monkeypatch.setattr(campaign, "hermitian_eig", skewed)
    assert route_agreement(False).passed is False
    assert route_agreement(True).passed is False


@pytest.mark.parametrize("c", [1e-170, 1e-250, 1e-300])
@pytest.mark.parametrize("case", ["trace", "compression"])
def test_route_error_is_relative_before_its_norm(case, c):
    # the inverse powers of a tiny positive definite matrix are huge and
    # finite; their difference is divided by its scale 1/m before its norm
    # is taken, so the norm does not square past double precision
    pulm, a = {
        "trace": (maps.NormalizedTrace(3), random_psd(3, 2)),
        "compression": (cli.build_map("compression:2", 8, 3),
                        random_psd(8, 2) + np.eye(8)),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = campaign._route_error(pulm, c * a, -1, 4)
    assert np.isfinite(err) and err < 1e-8


@pytest.mark.parametrize("a", [np.diag([-1.0, 0.5, 2.0]),
                               linalg.random_hermitian(8, 1)],
                         ids=["diag", "random"])
def test_route_error_divides_by_a_subnormal_scale(a):
    # at 1e-310 the scale of Phi(A) is subnormal: a complex division by it
    # can give nan, the division of the real and imaginary parts does not
    pulm = maps.Identity(a.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = campaign._route_error(pulm, 1e-310 * a, 0, 8)
    assert np.isfinite(err) and err < 1e-8


def test_bounds_suite_skips_two_atom_instances():
    insts = campaign.corpus(12, seed=6, n_range=(2, 2))
    records = [r for inst in insts for r in campaign.bounds_suite(inst)]
    # every n = 2 instance has a two-atom spectrum: all bounds skipped
    assert records and all(r.passed is None for r in records)


def test_bounds_suite_allows_rounding_of_a_close_eigenvalue_pair():
    # n = 3 with top eigenvalues 2e-3 apart, where the cubic's moment
    # coefficients cancel to ~7e-8 of error in a root, above the fixed 1e-8
    # tolerance; the Gauss nodes of three atoms are the eigenvalues
    inst = campaign.corpus(6, seed=951503465)[1]
    lam = linalg.hermitian_eig(inst.matrix).eigenvalues
    assert inst.n == 3 and lam[2] - lam[1] < 3e-3
    records = campaign.bounds_suite(inst)
    assert all(r.passed for r in records), [(r.check, r.margin)
                                            for r in records]
    for r in records:
        if r.check.startswith("bound_"):
            assert abs(r.margin) <= 1e-14, (r.check, r.margin)


def test_bounds_suite_still_bites_on_separated_atoms():
    # three atoms make the bounds exact to rounding: both hold with less
    # than 1e-9 of the spectral radius to spare, so demanding that much
    # room would fail them
    a = linalg.hermitian_with_spectrum([-1.0, 0.2, 1.3], 4)
    inst = _file_instance(a, maps.NormalizedTrace(3))
    records = {r.check: r for r in campaign.bounds_suite(inst)}
    rho = max(abs(linalg.hermitian_eig(a).eigenvalues[[0, -1]]))
    for check in ("bound_min_upper", "bound_max_lower"):
        assert records[check].margin < 1e-9 * rho
    assert all(r.passed for r in records.values())


def test_normal_suite_has_no_failures():
    for seed, matrix, pulm in campaign.normal_corpus(12, seed=7):
        for rec in campaign.normal_suite(seed, matrix, pulm):
            assert rec.passed is not False, (rec.check, rec.seed, rec.margin)


def test_single_matrix_records_indefinite_input_skips_pd_family(example_3x3):
    records = campaign.single_matrix_records(
        example_3x3, maps.NormalizedTrace(3), seed=0, r_max=2)
    by_check = {}
    for r in records:
        by_check.setdefault(r.check, []).append(r)
    for check in ("psd_lower_shift_inv", "psd_range_product_inv",
                  "log_deficit", "refinement_chain_inner"):
        assert all(r.passed is None for r in by_check[check])
    assert all(r.passed for r in by_check["psd_hankel"])
    assert not any(r.passed is False for r in records)


def test_single_matrix_records_positive_definite_runs_everything():
    a = linalg.hermitian_with_spectrum([0.5, 1.0, 2.0], 11)
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(3), seed=1)
    checks = {r.check for r in records if r.passed is not None}
    assert "psd_lower_shift_inv" in checks
    assert "log_deficit" in checks
    assert not any(r.passed is False for r in records)


def test_single_matrix_records_normal_input():
    a = np.diag([1j, -1j, 2.0])
    records = campaign.single_matrix_records(
        a, maps.NormalizedTrace(3), seed=2)
    by_check = {r.check: r for r in records}
    assert by_check["normal_block"].passed
    assert by_check["centered_fourth_moment"].passed
    assert by_check["kadison"].passed is None
    assert not any(r.passed is False for r in records)


@pytest.fixture
def normality_defects(monkeypatch):
    """The matrices whose normality is measured, in order."""
    calls = []
    defect = moments._normality_defect
    monkeypatch.setattr(moments, "_normality_defect",
                        lambda b: calls.append(b) or defect(b))
    return calls


def test_a_normal_file_is_solved_once(monkeypatch, normality_defects):
    # the centered fourth moment and the normal block come from one joint
    # eigensolve, which alone decides that the matrix is normal, and the
    # Hermitian scalar checks are skipped
    calls = []
    solve = moments.normal_spectrum
    monkeypatch.setattr(moments, "normal_spectrum",
                        lambda a: calls.append(a) or solve(a))
    a = linalg.random_normal_matrix(6, 5)
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(6), 1)
    assert len(calls) == len(normality_defects) == 1
    by_check = {r.check: r.passed for r in records}
    assert by_check["normal_block"] is by_check["centered_fourth_moment"] is True
    assert [by_check[c] for c in moments.HERMITIAN_SCALAR_CHECKS] == [None] * 6


@pytest.mark.parametrize("c, spec", [(1e80, "trace"), (1e52, "vector-state")])
def test_a_normal_file_names_the_fourth_moment_overflow_first(c, spec):
    # the normal block overflows too; the fourth moment is computed first
    a = c * np.diag([1j, -1j])
    with pytest.raises(DomainError, match="^centered fourth moments overflow"):
        campaign.single_matrix_records(a, cli.build_map(spec, 2, 3), 3)


@pytest.mark.parametrize("a", [np.array([[0.0, 1.0], [0.0, 0.0]]),
                               np.triu(linalg.random_hermitian(4, 7))],
                         ids=["shear", "triu"])
def test_single_matrix_records_unstructured_input_all_skipped(
        normality_defects, a):
    # neither Hermitian nor normal, by normal_spectrum's one decision:
    # nothing in the catalog applies
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(len(a)),
                                             seed=3)
    assert [(r.check, r.passed) for r in records] == [
        ("psd_hankel", None), ("normal_block", None), ("kadison", None),
        ("centered_fourth_moment", None)]
    assert len(normality_defects) == 1


@pytest.mark.parametrize("spec", ["trace", "compression:4"])
def test_single_matrix_records_solves_each_distinct_input_once(
        eigh_inputs, spec):
    # every suite reads A's spectrum, a functional's centered checks
    # included, which shift its eigenvalues: the memo solves A once
    a = linalg.hermitian_with_spectrum(np.linspace(0.5, 6.0, 12), 12)
    pulm = cli.build_map(spec, 12, 4)
    records = campaign.single_matrix_records(a, pulm, seed=4)
    assert not any(r.passed is False for r in records)
    assert len(eigh_inputs) == 1


@pytest.mark.parametrize("spec", ["trace", "compression:4"])
def test_a_hermitian_file_is_decided_by_one_asymmetry(monkeypatch,
                                                      eigh_inputs, spec):
    # the one full solve's symmetrize measures the asymmetry, and nothing
    # else does before the suites run
    measured = []
    measure = linalg._asymmetry
    monkeypatch.setattr(linalg, "_asymmetry",
                        lambda a: measured.append(a) or measure(a))
    seen = []
    monkeypatch.setattr(campaign, "instance_records",
                        lambda inst, tol: seen.append(len(measured)) or [])
    a = linalg.random_hermitian(6, 3)
    campaign.single_matrix_records(a, cli.build_map(spec, 6, 4), seed=4)
    assert seen == [1]
    assert len(eigh_inputs) == 1


@pytest.mark.parametrize("spec", ["trace", "compression:4", "identity"])
def test_a_nearly_hermitian_file_gets_its_hermitian_parts_records(
        eigh_inputs, spec):
    # asymmetric by rounding, below SYMMETRY_RTOL: every full-solve request
    # reads the raw bytes, so there is one solve, of the Hermitian part
    a = linalg.random_hermitian(6, 3) + 4.0 * np.eye(6)
    a[0, 1] += 1e-12
    h = linalg.symmetrize(a)
    assert h.tobytes() != a.tobytes()
    pulm = cli.build_map(spec, 6, 4)
    records = campaign.single_matrix_records(a, pulm, seed=4)
    assert eigh_inputs == [h.tobytes()]
    linalg._eigh.cache_clear()
    assert campaign.single_matrix_records(h, pulm, seed=4) == records


@pytest.mark.parametrize("shift, pd", [(0.0, False), (4.0, True)])
def test_file_instance_has_a_pd_variant_only_for_pd_input(monkeypatch, shift,
                                                          pd):
    # file mode judges A itself; its pd variant is A when A > 0, else none
    seen = []
    suite = campaign.oracle_suite
    monkeypatch.setattr(campaign, "oracle_suite",
                        lambda inst: seen.append(inst) or suite(inst))
    a = linalg.random_hermitian(4, 1) + shift * np.eye(4)
    assert (linalg.hermitian_eig(a).min > 0.0) == pd
    campaign.single_matrix_records(a, maps.NormalizedTrace(4), 0)
    (inst,) = seen
    if pd:
        np.testing.assert_array_equal(inst.matrix_pd, inst.matrix)
    else:
        assert inst.matrix_pd is None


#: The checks of a positive definite file that read inverse powers or need
#: ``A > 0``: skipped together where the matrix is not positive definite
#: at working precision.
PD_FILE_CHECKS = campaign._PD_CHECKS + ("inverse_moment",)


@pytest.mark.parametrize("spec", ["trace", "vector-state", "compression:2",
                                  "pinching", "identity"])
@pytest.mark.parametrize("d", [1e-6, 1e-7, 1e-8, 1e-10, 1e-13])
def test_an_ill_conditioned_pd_file_gets_no_spurious_fail(d, spec):
    # kappa = 2/d: the inverse powers are sized by kappa/m, and past
    # kappa * tol >= 1 (d <= 2e-9) the pd checks are skips
    a = linalg.hermitian_with_spectrum([d, 0.5, 1.0, 2.0], 3)
    records = campaign.single_matrix_records(a, cli.build_map(spec, 4, 0), 0)
    assert [r.check for r in records if r.passed is False] == []
    pd = [r.passed for r in records if r.check in PD_FILE_CHECKS]
    assert len(pd) == len(PD_FILE_CHECKS)
    runs = 2.0 / d * linalg.DEFAULT_PSD_TOL < 1.0
    assert runs == (d > 2e-9)
    assert all((passed is not None) == runs for passed in pd)


@pytest.mark.parametrize("shift", [1.0, 2.0])
def test_a_shift_by_the_spectral_radius_gets_no_spurious_fail(shared_corpus,
                                                              shift):
    # A + rho(A) I is positive semidefinite, its smallest eigenvalue 0 up to
    # rounding where lambda_min = -rho; A + 2 rho(A) I has kappa <= 3
    skipped = 0
    for inst in shared_corpus:
        lam = linalg.hermitian_eig(inst.matrix).eigenvalues
        rho = max(abs(lam[0]), abs(lam[-1]))
        a = inst.matrix + shift * rho * np.eye(inst.n)
        records = campaign.single_matrix_records(a, inst.pulm, inst.seed,
                                                 inst.r)
        failed = [r.check for r in records if r.passed is False]
        assert failed == [], (inst.seed, failed)
        skipped += any(r.passed is None for r in records
                       if r.check == "inverse_moment")
    assert (skipped > 0) == (shift == 1.0)


@pytest.mark.parametrize("kind", maps.MAP_KINDS)
def test_file_mode_runs_the_campaign_checks(kind):
    # a positive definite file is the instance whose pd variant is itself:
    # the campaign's checks but the _pd scalar twins, then the normal block
    inst = next(i for i in campaign.corpus(12, seed=7) if i.kind == kind)
    names = [r.check for r in campaign.instance_records(inst)
             if not r.check.endswith("_pd")]
    records = campaign.single_matrix_records(inst.matrix_pd, inst.pulm,
                                             inst.seed, inst.r)
    assert [r.check for r in records if r.check != "normal_block"] == names
    assert [r.check for r in records].count("normal_block") == 1


#: tracemalloc peaks, in bytes, of ``single_matrix_records`` on
#: ``random_hermitian(48, 1)`` at seed 1 (warm, eigensolve memo cleared) when
#: every block was gathered by itself, one block per gather (numpy 2.4.6).
ONE_BLOCK_PER_GATHER_PEAK = {"identity": 3_439_681, "pinching": 3_707_145}


@pytest.mark.parametrize("spec", sorted(ONE_BLOCK_PER_GATHER_PEAK))
def test_k_equals_n_block_families_stay_within_the_gather_budget(spec):
    # 47 gap blocks of 192 rows: about 28 MB gathered at once, twice that
    # with the grid of blocks, without the budget
    a = linalg.random_hermitian(48, 1)
    pulm = cli.build_map(spec, 48, 1)
    campaign.single_matrix_records(a, pulm, 1)
    linalg._eigh.cache_clear()
    _, peak = peak_bytes(lambda: campaign.single_matrix_records(a, pulm, 1))
    assert peak <= ONE_BLOCK_PER_GATHER_PEAK[spec] + 2 * moments.GATHER_BUDGET


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e7])
def test_single_matrix_records_near_identity_runs_centered_checks(c):
    # the centered interval comes from the uncentered spectrum, whose
    # rounding is far above the centered spectrum's own scale
    a = c * (np.eye(5) + 1e-8 * linalg.random_hermitian(5, 5))
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(5), 0)
    centered = [r for r in records if r.check.startswith("centered_")]
    assert len(centered) == 3
    assert all(r.passed is True for r in centered)


#: Every PSD check of the two corpora, each a block of the package; the
#: scalar checks of the positive definite variant are named with their
#: ``_pd`` suffix where they are judged.
BLOCK_CHECKS = (
    {f"psd_{kind}" for kind in moments.BLOCK_KINDS}
    | {"centered_lower_shift", "centered_upper_shift", "refinement_chain_outer",
       "refinement_chain_inner", "log_deficit", "log_endpoint_upper",
       "log_endpoint_lower", "normal_block"}
    | {check + suffix for check in moments.HERMITIAN_SCALAR_CHECKS
       for suffix in ("", "_pd")})


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_every_block_is_exactly_hermitian(c, monkeypatch):
    # psd_records solves each block as it is given, reading one triangle
    seen = set()
    records = moments.psd_records

    def checking(blocks, seed, tol, prefix=""):
        blocks = list(blocks)
        for check, block in blocks:
            if block is not None:
                b = block.assembled
                assert np.array_equal(b, b.conj().T), (prefix + check, seed)
                seen.add(prefix + check)
        return records(blocks, seed, tol, prefix)

    monkeypatch.setattr(moments, "psd_records", checking)
    monkeypatch.setattr(campaign, "psd_records", checking)
    for inst in campaign.corpus(200, 42):
        campaign.instance_records(dataclasses.replace(
            inst, matrix=c * inst.matrix, matrix_pd=c * inst.matrix_pd))
    for seed, a, pulm in campaign.normal_corpus(200, 42):
        campaign.normal_suite(seed, c * a, pulm)
    assert seen == BLOCK_CHECKS


def test_records_carry_reproducible_seeds():
    insts = campaign.corpus(6, seed=9)
    for inst in insts:
        for rec in campaign.psd_suite(inst):
            assert rec.seed == inst.seed


def test_catalog_cites_each_check_once(tmp_path, capsys):
    # One citation per check name, never the bare name, and each check
    # recorded once per matrix (psd_gap_product once per eigenvalue gap).
    def gaps(a):
        lam = linalg.hermitian_eig(a).eigenvalues
        return moments.distinct_eigenvalues(lam).size - 1

    out = tmp_path / "r.json"
    assert cli.main(["verify", "--random", "--instances", "12", "--seed", "5",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    random_records = json.loads(out.read_text())["records"]
    inputs = (  # (matrix, eigenvalue gaps): PD, indefinite, normal, neither
        (linalg.hermitian_with_spectrum([0.5, 1.0, 2.0, 3.0], 61), 3),
        (linalg.hermitian_with_spectrum([-1.0, 0.5, 2.0, 3.0], 62), 3),
        (linalg.random_normal_matrix(4, 63), 0),
        (np.diag(np.ones(3), 1), 0),
    )
    reports = [(random_records, {inst.seed: gaps(inst.matrix)
                                 for inst in campaign.corpus(12, seed=5)})]
    for kind in maps.MAP_KINDS:
        pulm = maps.random_map(kind, 4, 2, seed=64)
        for a, n_gaps in inputs:
            records = campaign.single_matrix_records(a, pulm, seed=7)
            reports.append(([dataclasses.asdict(r) for r in records],
                            {7: n_gaps}))

    citations = {}
    for records, gap_count in reports:
        keys = collections.Counter((r["check"], r["seed"]) for r in records)
        for (check, seed), count in keys.items():
            if check == "psd_gap_product":
                assert count == gap_count[seed], (check, seed)
            else:
                assert count == 1, (check, seed)
        for r in records:
            citations.setdefault(r["check"], set()).add(r["citation"])
    for check, cited in citations.items():
        assert len(cited) == 1, (check, cited)
        bare = check.removeprefix("psd_").removesuffix("_pd")
        assert cited.isdisjoint({check, bare}), check


def _determinant_identity(matrix):
    records = campaign.single_matrix_records(
        matrix, maps.NormalizedTrace(matrix.shape[0]), seed=0)
    (rec,) = [r for r in records if r.check == "determinant_identity"]
    return rec


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_determinant_identity_holds_at_every_scale(c, n):
    # each determinant term is degree 9 in the moments' scale; at c = 1e3,
    # n = 2 the absolute floors of the old check failed by 5.6e13
    assert _determinant_identity(c * linalg.random_hermitian(n, 2)).passed is True


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_determinant_error_is_small_at_every_scale(n):
    # both sides are on the unit scale, so no overflow and no drift from
    # 1e-300 to 1e150, where b5 itself would underflow or overflow
    a = linalg.random_hermitian(n, 2)
    functional = maps.NormalizedTrace(n)
    for k in range(-300, 151, 10):
        err = eigenbounds.determinant_error(functional, 10.0 ** k * a)
        assert err <= 1e-13, (k, err)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_determinant_identity_fails_on_a_short_e2(c, n):
    # negative control: the Jacobi matrix of the bounds with e2 scaled by
    # 0.9; a two-atom measure has no Jacobi matrix
    with installed("jacobi_e2"):
        rec = _determinant_identity(c * linalg.random_hermitian(n, 2))
    assert rec.passed is False
    assert rec.margin < 0.0


def test_campaign_fails_determinant_identity_on_a_short_e2():
    # every instance with three or more atoms, and no other verdict moves
    base = campaign.run_campaign(200, 42)
    with installed("jacobi_e2"):
        mutated = campaign.run_campaign(200, 42)
    assert [(r.check, r.seed) for r in mutated] == [
        (r.check, r.seed) for r in base]
    moved = [r for r, b in zip(mutated, base) if r.passed != b.passed]
    assert {(r.check, r.seed) for r in moved} == {
        ("determinant_identity", inst.seed)
        for inst in campaign.corpus(200, 42) if inst.n >= 3}
    assert len(moved) == 160 and all(r.passed is False for r in moved)

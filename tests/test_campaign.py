import collections
import dataclasses
import functools
import json

import numpy as np
import pytest

from momenta import campaign, cli, eigenbounds, linalg, maps, moments


def test_corpus_is_deterministic():
    a = campaign.corpus(10, seed=5)
    b = campaign.corpus(10, seed=5)
    for x, y in zip(a, b):
        assert x.seed == y.seed and x.kind == y.kind
        np.testing.assert_array_equal(x.matrix, y.matrix)


def test_corpus_cycles_all_map_kinds():
    kinds = {inst.kind for inst in campaign.corpus(12, seed=1)}
    assert kinds == set(maps.MAP_KINDS)


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


def _file_instance(matrix, pulm):
    n = matrix.shape[0]
    return campaign.Instance(index=0, seed=0, n=n, r=3, kind="file",
                             matrix=matrix, matrix_pd=matrix, pulm=pulm)


def _identity_verdicts(inst):
    return {r.check: r.passed
            for r in campaign.oracle_suite(inst, include_pd=False)
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
        scaled = dataclasses.replace(inst, matrix=c * inst.matrix,
                                     matrix_pd=c * inst.matrix_pd)
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


class _ReflectedTrace(maps.PositiveUnitalMap):
    """``A -> 2 tr(A)/n I - A``: unital, but not positive. A negative control."""

    def __init__(self, n):
        self.n = n

    domain_dim = codomain_dim = property(lambda self: self.n)

    def apply(self, a):
        m = self._check_input(a)
        return 2.0 * np.trace(m) / self.n * np.eye(self.n) - m


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
        c * linalg.random_hermitian(n, seed), _ReflectedTrace(n), 0)
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

    def route_agreement(include_pd):
        return next(r for r in campaign.oracle_suite(scaled, include_pd)
                    if r.check == "route_agreement")

    assert route_agreement(True).margin >= 1e-8 - 1e-13
    table = moments.moment_table

    def skewed(pulm, a, *args, route="spectral", **kwargs):
        if route == "direct":
            a = 1.01 * a
        return table(pulm, a, *args, route=route, **kwargs)

    monkeypatch.setattr(moments, "moment_table", skewed)
    assert route_agreement(False).passed is False
    assert route_agreement(True).passed is False


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
    # three atoms make the bounds exact to rounding; demanding 1e-9 of room
    # must fail both bound checks
    a = linalg.hermitian_with_spectrum([-1.0, 0.2, 1.3], 4)
    inst = _file_instance(a, maps.NormalizedTrace(3))
    verdicts = {r.check: r.passed
                for r in campaign.bounds_suite(inst, tol=-1e-9)}
    assert verdicts["bound_min_upper"] is False
    assert verdicts["bound_max_lower"] is False
    assert all(r.passed for r in campaign.bounds_suite(inst))


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


def test_single_matrix_records_unstructured_input_all_skipped():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])  # neither Hermitian nor normal
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(2), seed=3)
    assert records and all(r.passed is None for r in records)


@pytest.mark.parametrize("c", [1e-3, 1.0, 1e7])
def test_single_matrix_records_near_identity_runs_centered_checks(c):
    # the centered interval comes from the uncentered spectrum, whose
    # rounding is far above the centered spectrum's own scale
    a = c * (np.eye(5) + 1e-8 * linalg.random_hermitian(5, 5))
    records = campaign.single_matrix_records(a, maps.NormalizedTrace(5), 0)
    centered = [r for r in records if r.check.startswith("centered_")]
    assert len(centered) == 3
    assert all(r.passed is True for r in centered)


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


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_determinant_identity_fails_on_perturbed_betas(c, n, monkeypatch):
    # negative control: a cubic whose constant term is off by 1e-6 of the
    # scale of a determinant term, s^9 with s = max_k |b_k|^(1/k)
    beta_values = eigenbounds.beta_values

    def perturbed(cm):
        s = max(abs(b) ** (1.0 / k)
                for k, b in enumerate((cm.b2, cm.b3, cm.b4, cm.b5), start=2))
        beta1, beta2, beta3 = beta_values(cm)
        return beta1, beta2, beta3 + 1e-6 * s ** 9

    monkeypatch.setattr(eigenbounds, "beta_values", perturbed)
    rec = _determinant_identity(c * linalg.random_hermitian(n, 2))
    assert rec.passed is False
    assert rec.margin < 0.0

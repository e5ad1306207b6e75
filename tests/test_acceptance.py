"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package at its stated
tolerance, including runtime budgets where they are part of the guarantee.
A one-line pass/fail summary per criterion is printed at the end of the run
(see ``pytest_terminal_summary`` in conftest).
"""

import json
import math
import time

import numpy as np
import pytest

from momenta import campaign, cli, eigenbounds, linalg, maps, moments

from conftest import EXAMPLE_3X3, gamma_value, reconstruct


class _Budget:
    """Wall-clock guard for criteria that include a runtime ceiling."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.limit}s")
        return False


def _no_failures(records):
    bad = [r for r in records if r.passed is False]
    assert not bad, [(r.check, r.seed, r.margin) for r in bad[:10]]


def test_criterion_1_worked_example_bounds():
    # 3x3 worked example under the normalized trace: cubic (0, -144, 0),
    # roots {-12, 0, 12}, bounds -12/12, comparator +-sqrt(48), all < 1 s.
    with _Budget(1.0):
        report = eigenbounds.spectral_bounds(maps.NormalizedTrace(3), EXAMPLE_3X3)
        assert not report.degenerate
        np.testing.assert_allclose(report.cubic, (0.0, -144.0, 0.0), atol=1e-6)
        np.testing.assert_allclose(report.roots, (-12.0, 0.0, 12.0), atol=1e-6)
        assert report.lambda_min_upper == pytest.approx(-12.0, abs=1e-6)
        assert report.lambda_max_lower == pytest.approx(12.0, abs=1e-6)
        assert report.ws_min_upper == pytest.approx(-6.9282, abs=1e-4)
        assert report.ws_max_lower == pytest.approx(6.9282, abs=1e-4)
        assert report.ws_max_lower == pytest.approx(math.sqrt(48.0), abs=1e-4)


def test_criterion_2_eigensolver_accuracy():
    # worked-example eigenvalues to 1e-8; 500 seeded random Hermitian
    # matrices (n <= 8) reconstruct to 1e-10 * ||A||_F; all < 10 s.
    with _Budget(10.0):
        spectrum = linalg.hermitian_eig(EXAMPLE_3X3)
        np.testing.assert_allclose(spectrum.eigenvalues, [-12.0, 0.0, 12.0],
                                   atol=1e-8)
        for i in range(500):
            n = 2 + i % 7
            a = linalg.random_hermitian(n, 31_000 + i)
            spec = linalg.hermitian_eig(a)
            err = np.linalg.norm(reconstruct(spec) - a)
            assert err <= 1e-10 * np.linalg.norm(a), (n, i, err)


def test_criterion_3_block_psd_suite(shared_corpus):
    # 200 seeded instances (n in [2, 6], all six map kinds, r <= 3): every
    # block construction passes the PSD test at tol 1e-9; < 60 s.
    with _Budget(60.0):
        always = {f"psd_{k}" for k in
                  ("hankel", "lower_shift", "upper_shift", "range_product")}
        pd_only = {f"psd_{k}" for k in
                   ("hankel_shift1", "lower_shift_inv", "upper_shift_inv",
                    "range_product_inv")}
        for inst in shared_corpus:
            records = campaign.psd_suite(inst, tol=1e-9)
            _no_failures(records)
            seen = {r.check for r in records if r.passed}
            assert always <= seen, (inst.seed, always - seen)
            assert pd_only <= seen, (inst.seed, pd_only - seen)
            gaps = [r for r in records if r.check == "psd_gap_product"]
            assert all(r.passed for r in gaps if r.passed is not None)


def test_criterion_4_scalar_suite(shared_corpus):
    # square-moment, variance, inverse-moment, third-moment, refinement
    # chain, and log-block checks on the same corpus: zero failures; the
    # symmetric two-point equality cases are exact to 1e-12.
    for inst in shared_corpus:
        _no_failures(campaign.scalar_suite(inst, tol=1e-9))
    results = {r.check: r
               for r in moments.scalar_checks(maps.NormalizedTrace(2),
                                              np.diag([0.0, 1.0]))}
    assert results["kadison"].margin == pytest.approx(0.25, abs=1e-12)
    assert results["variance_range"].margin == pytest.approx(0.0, abs=1e-12)
    assert results["variance_endpoints"].margin == pytest.approx(0.0, abs=1e-12)


def test_criterion_5_normal_matrix_suite():
    # 200 seeded normal matrices (n <= 6) under compressions and vector
    # states: the 3x3 moment block is PSD and the centered fourth-moment
    # bound holds with slack >= -1e-9 * scale; < 30 s.
    with _Budget(30.0):
        functional_checked = 0
        for seed, matrix, pulm in campaign.normal_corpus(200, seed=42,
                                                         n_range=(2, 6)):
            records = campaign.normal_suite(seed, matrix, pulm, tol=1e-9)
            _no_failures(records)
            checks = {r.check for r in records}
            assert "normal_block" in checks
            if pulm.is_functional:
                assert "centered_fourth_moment" in checks
                functional_checked += 1
        assert functional_checked >= 90


def test_criterion_6_oracle_equivalences(shared_corpus):
    # (a) spectral and direct moment routes agree to 1e-8 relative;
    # (b) the shifted-Hankel determinant equals gamma times the cubic to
    # 1e-8 relative at five shifts; (c) lower + upper shifted blocks equal
    # (M - m) times the Hankel to 1e-10 entrywise. All instances.
    for inst in shared_corpus:
        records = campaign.oracle_suite(inst)
        _no_failures(records)
        seen = {r.check for r in records}
        assert {"route_agreement", "shift_sum_identity",
                "determinant_identity"} <= seen


def test_criterion_7_cubic_bound_validity():
    # 200 non-degenerate random instances: the extreme eigenvalues respect
    # the cubic bounds to 1e-8; 50 three-atom equal-multiplicity instances:
    # roots equal the centered atoms to 1e-7; two-atom instances are flagged
    # degenerate with gamma inside its threshold.
    for i in range(200):
        n = 3 + i % 6
        a = linalg.random_hermitian(n, 77_000 + i)
        lam = linalg.hermitian_eig(a).eigenvalues
        report = eigenbounds.spectral_bounds(maps.NormalizedTrace(n), a)
        assert not report.degenerate, (n, i)
        assert lam[0] <= report.lambda_min_upper + 1e-8
        assert lam[-1] >= report.lambda_max_lower - 1e-8

    for i in range(50):
        rng = np.random.default_rng(88_000 + i)
        while True:
            atoms = np.sort(rng.uniform(-2.0, 2.0, 3))
            if np.min(np.diff(atoms)) > 0.25:
                break
        mult = 1 if i % 2 == 0 else 2
        spectrum = np.repeat(atoms, mult)
        a = linalg.hermitian_with_spectrum(spectrum, 88_500 + i)
        n = spectrum.size
        report = eigenbounds.spectral_bounds(maps.NormalizedTrace(n), a)
        assert not report.degenerate
        centered = atoms - np.mean(atoms)
        np.testing.assert_allclose(report.roots, centered, atol=1e-7)

    for i in range(40):
        rng = np.random.default_rng(99_000 + i)
        lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
        n = int(rng.integers(2, 7))
        n_lo = int(rng.integers(1, n))
        spectrum = np.array([lo] * n_lo + [hi] * (n - n_lo))
        a = linalg.hermitian_with_spectrum(spectrum, 99_500 + i)
        functional = maps.NormalizedTrace(n)
        cm = eigenbounds.central_moments(functional, a)
        assert abs(gamma_value(cm)) <= 1e-10 * max(1.0, cm.b2 ** 3)
        assert eigenbounds.spectral_bounds(functional, a).degenerate


def test_criterion_8_cli_contract(tmp_path, capsys):
    # byte-exact matrix round trips at 17 significant digits, byte-identical
    # reports for a fixed seed, the documented exit codes, and the three
    # worked bounds invocations.
    m = linalg.random_hermitian(3, seed=16)
    json_text = cli.write_matrix_json(m)
    assert cli.write_matrix_json(cli._matrix_from_json(json_text, "mem")) == json_text
    assert np.array_equal(cli._matrix_from_json(json_text, "mem"), m)
    csv_text = cli.write_matrix_csv(EXAMPLE_3X3)
    csv_path = tmp_path / "a.csv"
    csv_path.write_text(csv_text)
    assert cli.write_matrix_csv(cli.parse_matrix(str(csv_path))) == csv_text

    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    args = ["verify", "--random", "--instances", "10", "--seed", "42"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    assert report["summary"]["total"] == len(report["records"])
    assert all(r["passed"] in (True, None) for r in report["records"])

    paper_path = tmp_path / "paper.csv"
    paper_path.write_text(cli.write_matrix_csv(EXAMPLE_3X3))
    assert cli.main(["bounds", str(paper_path)]) == 0
    out = capsys.readouterr().out
    assert "-12" in out and "lambda_max >= 12" in out

    eye_path = tmp_path / "eye.json"
    eye_path.write_text(cli.write_matrix_json(np.eye(3, dtype=complex)))
    assert cli.main(["bounds", str(eye_path)]) == 0
    out = capsys.readouterr().out
    assert "degenerate" in out
    assert "lambda_min <= 1" in out and "lambda_max >= 1" in out

    tri_path = tmp_path / "d.json"
    tri_path.write_text(cli.write_matrix_json(np.diag([1., 2., 4.]).astype(complex)))
    assert cli.main(["bounds", str(tri_path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_min <= 1\n" in out and "lambda_max >= 4\n" in out

    assert cli.main(["bounds", str(tmp_path / "missing.csv")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.main(["verify", str(bad)]) == 1

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenta import eigenbounds, linalg, maps
from momenta.errors import DomainError, ShapeError

from conftest import EXAMPLE_3X3

TR2 = maps.NormalizedTrace(2)
TR3 = maps.NormalizedTrace(3)


def brute_central_moments(eigenvalues, weights=None):
    """Independent oracle: centered power sums over an explicit atom list."""
    lam = np.asarray(eigenvalues, dtype=float)
    w = np.full(lam.size, 1.0 / lam.size) if weights is None else np.asarray(weights)
    mean = float(w @ lam)
    c = lam - mean
    return eigenbounds.CentralMoments(
        mean=mean,
        b2=float(w @ c ** 2), b3=float(w @ c ** 3),
        b4=float(w @ c ** 4), b5=float(w @ c ** 5),
    )


class TestCentralMoments:
    def test_example_3x3(self):
        cm = eigenbounds.central_moments(TR3, EXAMPLE_3X3)
        assert cm.mean == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose([cm.b2, cm.b3, cm.b4, cm.b5],
                                   [96.0, 0.0, 13824.0, 0.0], atol=1e-8)

    def test_constant_matrix_has_no_spread(self):
        cm = eigenbounds.central_moments(TR3, 2.5 * np.eye(3))
        assert cm.mean == pytest.approx(2.5)
        assert (cm.b2, cm.b3, cm.b4, cm.b5) == pytest.approx((0, 0, 0, 0), abs=1e-14)

    def test_three_point_spectrum_fractions(self):
        cm = eigenbounds.central_moments(TR3, np.diag([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(
            [cm.b2, cm.b3, cm.b4, cm.b5],
            [14.0 / 9.0, 20.0 / 27.0, 98.0 / 27.0, 700.0 / 243.0], atol=1e-13)

    def test_agrees_with_brute_force_under_vector_state(self):
        a = linalg.random_hermitian(5, 3)
        x = maps.random_map("vector_state", 5, seed=4)
        spectrum = linalg.hermitian_eig(a)
        weights = [abs(np.vdot(x.vector, v)) ** 2
                   for v in spectrum.eigenvectors.T]
        oracle = brute_central_moments(spectrum.eigenvalues, weights)
        cm = eigenbounds.central_moments(x, a)
        np.testing.assert_allclose(
            [cm.mean, cm.b2, cm.b3, cm.b4, cm.b5],
            [oracle.mean, oracle.b2, oracle.b3, oracle.b4, oracle.b5],
            atol=1e-12)

    def test_needs_functional(self):
        with pytest.raises(ShapeError):
            eigenbounds.central_moments(maps.Identity(2), np.eye(2))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflow"):
            eigenbounds.central_moments(TR3, np.diag([1e200, -1e200, 3.0]))


def gauss_bounds(functional, a):
    """Report of ``spectral_bounds`` with its degeneracy flag asserted off."""
    report = eigenbounds.spectral_bounds(functional, a)
    assert not report.degenerate
    return report


def mp_gauss_nodes(atoms, weights, digits=50):
    """Test-only oracle: extreme three-node Gauss nodes of a discrete measure.

    Three Stieltjes steps in ``digits``-digit arithmetic give the Jacobi
    matrix of the centered measure; its extreme eigenvalues, shifted back by
    the mean, are returned as floats.
    """
    with mpmath.workdps(digits):
        x = [mpmath.mpf(float(v)) for v in atoms]
        w = [mpmath.mpf(float(v)) for v in weights]
        total = sum(w)
        w = [wi / total for wi in w]
        mean = sum(wi * xi for wi, xi in zip(w, x))
        x = [xi - mean for xi in x]
        prev, cur = [mpmath.mpf(0)] * len(x), [mpmath.mpf(1)] * len(x)
        diag, off, norm_prev = [], [], None
        for k in range(3):
            norm = sum(wi * p * p for wi, p in zip(w, cur))
            alpha = sum(wi * xi * p * p for wi, xi, p in zip(w, x, cur)) / norm
            beta = norm / norm_prev if k else mpmath.mpf(0)
            diag.append(alpha)
            if k:
                off.append(mpmath.sqrt(beta))
            prev, cur = cur, [(xi - alpha) * p - beta * q
                              for xi, p, q in zip(x, cur, prev)]
            norm_prev = norm
        jac = mpmath.matrix([[diag[0], off[0], 0], [off[0], diag[1], off[1]],
                             [0, off[1], diag[2]]])
        nodes = sorted(mpmath.eigsy(jac, eigvals_only=True))
        return float(nodes[0] + mean), float(nodes[-1] + mean)


class TestCubicCoefficients:
    """The reported cubic is ``det(xI - J)`` and gamma is ``-e1^4 e2^2``."""

    def test_example_3x3_moments(self):
        report = gauss_bounds(TR3, np.diag([-12.0, 0.0, 12.0]))
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        assert report.gamma == pytest.approx(-442368.0, rel=1e-14)
        assert report.gamma == pytest.approx(eigenbounds.gamma_value(cm),
                                             rel=1e-14)
        assert report.cubic == pytest.approx((0.0, -144.0, 0.0), abs=1e-12)

    def test_two_point_spectrum_is_degenerate(self):
        cm = brute_central_moments([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            [cm.b2, cm.b3, cm.b4, cm.b5],
            [2.0 / 9.0, 2.0 / 27.0, 2.0 / 27.0, 10.0 / 243.0], atol=1e-15)
        assert eigenbounds.gamma_value(cm) == pytest.approx(0.0, abs=1e-16)
        report = eigenbounds.spectral_bounds(TR3, np.diag([0.0, 0.0, 1.0]))
        assert report.degenerate and report.cubic is None
        assert report.gamma == pytest.approx(0.0, abs=1e-16)

    def test_three_point_gamma_fraction(self):
        report = gauss_bounds(TR3, np.diag([1.0, 2.0, 4.0]))
        assert report.gamma == pytest.approx(-4.0 / 3.0, rel=1e-14)

    def test_gamma_never_positive(self):
        # gamma is minus the determinant of a PSD moment Hankel: -e1^4 e2^2
        # by construction, matching the moment formula to its rounding
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lam = rng.uniform(-2, 2, rng.integers(2, 7))
            cm = brute_central_moments(lam)
            report = eigenbounds.spectral_bounds(
                maps.NormalizedTrace(lam.size), np.diag(lam))
            assert report.gamma <= 0.0
            assert eigenbounds.gamma_value(cm) <= 1e-12 * cm.b2 ** 3
            assert abs(report.gamma - eigenbounds.gamma_value(cm)) <= (
                1e-12 * cm.b2 ** 3)


class TestSolveCubic:
    """The cubic is solved as the 3x3 Jacobi matrix's eigenproblem: its
    roots are the measure's three Gauss nodes, centered at the mean."""

    def test_example_cubic(self):
        report = gauss_bounds(TR3, EXAMPLE_3X3)
        np.testing.assert_allclose(report.roots, [-12.0, 0.0, 12.0],
                                   atol=1e-14 * 12.0)
        assert report.cubic == pytest.approx((0.0, -144.0, 0.0), abs=1e-12)

    def test_triple_root(self):
        # one atom: all three nodes coincide and the rule is degenerate, at
        # every scale and also when rotation leaves rounding in the spectrum
        for c in (1e-8, 1.0, 1e8):
            for a in (c * np.eye(3),
                      linalg.hermitian_with_spectrum([c] * 5, 3)):
                report = eigenbounds.spectral_bounds(
                    maps.NormalizedTrace(len(a)), a)
                assert report.degenerate and report.roots == ()
                assert report.gamma == pytest.approx(0.0, abs=1e-20 * c ** 6)

    def test_integer_factorization(self):
        # roots 1, 2, 3 of x^3 - 6x^2 + 11x - 6, about their mean 2
        report = gauss_bounds(TR3, np.diag([1.0, 2.0, 3.0]))
        assert report.mean == 2.0
        np.testing.assert_allclose(report.roots, [-1.0, 0.0, 1.0], atol=1e-15)
        assert report.cubic == pytest.approx((0.0, -1.0, 0.0), abs=1e-15)

    def test_double_root(self):
        # two atoms, one of them doubled: the rule collapses to two nodes
        report = eigenbounds.spectral_bounds(TR3, np.diag([1.0, 1.0, -2.0]))
        assert report.degenerate and report.roots == ()

    @settings(max_examples=120, deadline=None)
    @given(atoms=st.lists(st.floats(-10, 10), min_size=3, max_size=3,
                          unique=True))
    def test_roots_from_factored_form(self, atoms):
        # equal weights on three atoms: the nodes are the atoms themselves
        atoms = np.sort(atoms)
        report = eigenbounds.spectral_bounds(TR3, np.diag(atoms))
        rho = max(abs(atoms[0]), abs(atoms[-1]))
        if report.degenerate:
            # only when two atoms sit at the rounding of the third's scale
            assert np.min(np.diff(atoms)) <= 1e-4 * (atoms[-1] - atoms[0])
            return
        np.testing.assert_allclose(report.mean + np.array(report.roots),
                                   atoms, rtol=0, atol=1e-14 * rho)
        centered = atoms - report.mean
        c2 = -centered.sum()
        c1 = (centered[0] * centered[1] + centered[0] * centered[2]
              + centered[1] * centered[2])
        c0 = -np.prod(centered)
        assert report.cubic == pytest.approx(
            (c2, c1, c0), abs=1e-13 * max(rho, rho ** 2, rho ** 3))


class TestDeterminantOracle:
    def test_zero_moments_give_zero(self):
        cm = eigenbounds.CentralMoments(0.0, 0.0, 0.0, 0.0, 0.0)
        assert eigenbounds.determinant_oracle(cm, 0.0) == 0.0

    def test_vanishes_at_cubic_roots(self):
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        for a in (-12.0, 0.0, 12.0):
            det = eigenbounds.determinant_oracle(cm, a)
            assert abs(det) <= 1e-6 * max(1.0, abs(eigenbounds.gamma_value(cm)))

    def test_vanishes_at_gauss_nodes_relative_to_its_scale(self):
        # every term of the determinant has degree 9 in the spread s
        for seed in range(40):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(3, 9))
            c = 10.0 ** rng.uniform(-6, 6)
            lam = c * rng.uniform(-1.5, 1.5, n)
            report = gauss_bounds(maps.NormalizedTrace(n), np.diag(lam))
            cm = brute_central_moments(lam)
            s = max(abs(lam - cm.mean))
            for root in report.roots:
                det = eigenbounds.determinant_oracle(cm, root)
                assert abs(det) <= 1e-12 * s ** 9, (seed, root, det)

    def test_nonnegative_at_smallest_centered_eigenvalue(self):
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        assert eigenbounds.determinant_oracle(cm, -12.0) >= -1e-6

    def test_matches_gamma_times_cubic(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            lam = rng.uniform(-2, 2, rng.integers(3, 8))
            cm = brute_central_moments(lam)
            report = gauss_bounds(maps.NormalizedTrace(lam.size), np.diag(lam))
            c2, c1, c0 = report.cubic
            for a in rng.uniform(-3, 3, 5):
                det = eigenbounds.determinant_oracle(cm, a)
                poly = report.gamma * (((a + c2) * a + c1) * a + c0)
                assert abs(det - poly) <= 1e-8 * max(1.0, abs(det))


class TestWolkowiczStyan:
    def test_example_3x3(self):
        lo, hi = eigenbounds.wolkowicz_styan(EXAMPLE_3X3)
        assert lo == pytest.approx(-math.sqrt(48.0), abs=1e-10)
        assert hi == pytest.approx(math.sqrt(48.0), abs=1e-10)

    def test_constant_matrix(self):
        lo, hi = eigenbounds.wolkowicz_styan(3.0 * np.eye(4))
        assert lo == pytest.approx(3.0) and hi == pytest.approx(3.0)

    def test_two_point_exactness(self):
        lo, hi = eigenbounds.wolkowicz_styan(np.diag([0.0, 1.0]))
        assert lo == pytest.approx(0.0, abs=1e-14)
        assert hi == pytest.approx(1.0, abs=1e-14)

    def test_needs_dimension_two(self):
        with pytest.raises(ShapeError):
            eigenbounds.wolkowicz_styan([[1.0]])

    @pytest.mark.parametrize("big", [1e160, 1e200])
    def test_overflow_is_a_domain_error(self, big):
        with pytest.raises(DomainError, match="overflow"):
            eigenbounds.wolkowicz_styan(np.diag([big, -big, 3.0]))

    def test_always_valid_on_random_instances(self):
        for seed in range(20):
            a = linalg.random_hermitian(2 + seed % 5, seed)
            lam = linalg.hermitian_eig(a).eigenvalues
            lo, hi = eigenbounds.wolkowicz_styan(a)
            assert lam[0] <= lo + 1e-10
            assert lam[-1] >= hi - 1e-10


class TestSpectralBounds:
    @pytest.mark.parametrize("big", [1e60])
    def test_cubic_overflow_is_a_domain_error(self, big):
        # the spectral measure is finite but gamma ~ big^6 is not
        with pytest.raises(DomainError, match="overflow"):
            eigenbounds.spectral_bounds(TR3, np.diag([big, -big, 3.0]))

    def test_bounds_at_1e40_are_exact(self):
        # gamma ~ 1e240 and the cubic's coefficients stay finite here
        report = gauss_bounds(TR3, np.diag([1e40, -1e40, 3.0]))
        assert report.lambda_min_upper == pytest.approx(-1e40, rel=1e-14)
        assert report.lambda_max_lower == pytest.approx(1e40, rel=1e-14)

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1e-2, 1.0, 1e4, 1e8])
    def test_three_atoms_exact_at_every_scale(self, c):
        report = gauss_bounds(TR3, c * np.diag([1.0, 2.0, 4.0]))
        assert abs(report.lambda_min_upper - c) <= 1e-14 * 4.0 * c
        assert abs(report.lambda_max_lower - 4.0 * c) <= 1e-14 * 4.0 * c

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_two_atoms_flagged_at_every_scale(self, c):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
            n = int(rng.integers(3, 8))
            n_lo = int(rng.integers(1, n))
            spectrum = c * np.array([lo] * n_lo + [hi] * (n - n_lo))
            a = linalg.hermitian_with_spectrum(spectrum, seed)
            for functional in (maps.NormalizedTrace(n),
                               maps.random_map("vector_state", n, seed=seed)):
                report = eigenbounds.spectral_bounds(functional, a)
                assert report.degenerate, (seed, functional)

    def test_matches_mpmath_gauss_nodes_on_close_pairs(self):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(3, 9))
            lam = rng.uniform(-1.5, 1.5, n)
            j = int(rng.integers(0, n - 1))
            lam[j + 1] = lam[j] + 10.0 ** rng.uniform(-6, -2)
            x = maps.random_map("vector_state", n, seed=trial)
            functional = maps.NormalizedTrace(n) if trial % 2 else x
            weights = (np.full(n, 1.0 / n) if trial % 2
                       else np.abs(x.vector) ** 2)
            report = eigenbounds.spectral_bounds(functional, np.diag(lam))
            if report.degenerate:
                continue
            lo, hi = mp_gauss_nodes(lam, weights)
            rho = np.max(np.abs(lam))
            assert abs(report.lambda_min_upper - lo) <= 1e-14 * rho, trial
            assert abs(report.lambda_max_lower - hi) <= 1e-14 * rho, trial

    def test_example_3x3(self):
        report = eigenbounds.spectral_bounds(TR3, EXAMPLE_3X3)
        assert not report.degenerate
        np.testing.assert_allclose(report.roots, [-12.0, 0.0, 12.0], atol=1e-9)
        assert report.lambda_min_upper == pytest.approx(-12.0, abs=1e-9)
        assert report.lambda_max_lower == pytest.approx(12.0, abs=1e-9)
        # strictly tighter than the trace comparator here
        assert report.lambda_min_upper < report.ws_min_upper
        assert report.lambda_max_lower > report.ws_max_lower

    def test_constant_matrix_degenerate_with_exact_comparator(self):
        # the variance is a centered sum, so it does not cancel to ~1e-8
        for c in (1.25e-6, 1.25, 1.25e6):
            report = eigenbounds.spectral_bounds(TR3, c * np.eye(3))
            assert report.degenerate
            assert report.cubic is None and report.roots == ()
            assert abs(report.ws_min_upper - c) <= 4 * np.spacing(c)
            assert abs(report.ws_max_lower - c) <= 4 * np.spacing(c)

    def test_three_atom_exactness(self):
        report = eigenbounds.spectral_bounds(TR3, np.diag([1.0, 2.0, 4.0]))
        np.testing.assert_allclose(
            report.roots, [-4.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0], atol=1e-10)
        assert report.lambda_min_upper == pytest.approx(1.0, abs=1e-10)
        assert report.lambda_max_lower == pytest.approx(4.0, abs=1e-10)

    def test_bounds_valid_on_random_instances(self):
        for seed in range(40):
            n = 3 + seed % 5
            a = linalg.random_hermitian(n, 500 + seed)
            lam = linalg.hermitian_eig(a).eigenvalues
            report = eigenbounds.spectral_bounds(maps.NormalizedTrace(n), a)
            if report.degenerate:
                continue
            assert lam[0] <= report.lambda_min_upper + 1e-8
            assert lam[-1] >= report.lambda_max_lower - 1e-8

    def test_sign_conditions_at_extreme_centered_eigenvalues(self):
        for seed in range(25):
            n = 3 + seed % 4
            a = linalg.random_hermitian(n, 900 + seed)
            lam = linalg.hermitian_eig(a).eigenvalues
            report = eigenbounds.spectral_bounds(maps.NormalizedTrace(n), a)
            if report.degenerate:
                continue
            c2, c1, c0 = report.cubic
            scale = max(1.0, abs(c2), abs(c1), abs(c0))

            def cubic(x):
                return ((x + c2) * x + c1) * x + c0

            assert cubic(lam[0] - report.mean) <= 1e-8 * scale
            assert cubic(lam[-1] - report.mean) >= -1e-8 * scale

    def test_vector_state_bounds_stay_valid(self):
        for seed in range(15):
            a = linalg.random_hermitian(5, 2000 + seed)
            x = maps.random_map("vector_state", 5, seed=seed)
            lam = linalg.hermitian_eig(a).eigenvalues
            report = eigenbounds.spectral_bounds(x, a)
            if report.degenerate:
                continue
            assert lam[0] <= report.lambda_min_upper + 1e-8
            assert lam[-1] >= report.lambda_max_lower - 1e-8

import math

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


class TestCubicCoefficients:
    def test_example_3x3_moments(self):
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        c2, c1, c0, gamma = eigenbounds.cubic_coefficients(cm)
        assert gamma == pytest.approx(-442368.0)
        assert (c2, c1, c0) == pytest.approx((0.0, -144.0, 0.0), abs=1e-10)

    def test_two_point_spectrum_is_degenerate(self):
        cm = brute_central_moments([0.0, 0.0, 1.0])
        np.testing.assert_allclose(
            [cm.b2, cm.b3, cm.b4, cm.b5],
            [2.0 / 9.0, 2.0 / 27.0, 2.0 / 27.0, 10.0 / 243.0], atol=1e-15)
        assert eigenbounds.gamma_value(cm) == pytest.approx(0.0, abs=1e-16)
        assert eigenbounds.is_degenerate(cm)
        with pytest.raises(eigenbounds.DegenerateMomentsError):
            eigenbounds.cubic_coefficients(cm)

    def test_three_point_gamma_fraction(self):
        cm = brute_central_moments([1.0, 2.0, 4.0])
        *_, gamma = eigenbounds.cubic_coefficients(cm)
        assert gamma == pytest.approx(-4.0 / 3.0, abs=1e-13)

    def test_gamma_never_positive(self):
        # gamma is minus the determinant of a PSD moment Hankel
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lam = rng.uniform(-2, 2, rng.integers(2, 7))
            cm = brute_central_moments(lam)
            assert eigenbounds.gamma_value(cm) <= 1e-12 * max(1.0, cm.b2 ** 3)


class TestSolveCubic:
    def test_example_cubic(self):
        roots = eigenbounds.solve_cubic(0.0, -144.0, 0.0)
        np.testing.assert_allclose(roots, [-12.0, 0.0, 12.0], atol=1e-12)

    def test_triple_root(self):
        assert eigenbounds.solve_cubic(0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_integer_factorization(self):
        roots = eigenbounds.solve_cubic(-6.0, 11.0, -6.0)
        np.testing.assert_allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)

    def test_single_real_root_flagged_by_length(self):
        roots = eigenbounds.solve_cubic(0.0, 1.0, 0.0)  # x(x^2 + 1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(0.0, abs=1e-14)

    def test_double_root(self):
        # (x - 1)^2 (x + 2)
        roots = eigenbounds.solve_cubic(0.0, -3.0, 2.0)
        np.testing.assert_allclose(roots, [-2.0, 1.0, 1.0], atol=1e-8)

    @settings(max_examples=120, deadline=None)
    @given(r1=st.floats(-10, 10), r2=st.floats(-10, 10), r3=st.floats(-10, 10))
    def test_roots_from_factored_form(self, r1, r2, r3):
        c2 = -(r1 + r2 + r3)
        c1 = r1 * r2 + r1 * r3 + r2 * r3
        c0 = -r1 * r2 * r3
        roots = eigenbounds.solve_cubic(c2, c1, c0)
        scale = max(1.0, abs(c2), abs(c1), abs(c0))
        for x in roots:
            residual = ((x + c2) * x + c1) * x + c0
            assert abs(residual) <= 1e-8 * scale
        if len(roots) == 3:
            np.testing.assert_allclose(sorted(roots), sorted([r1, r2, r3]),
                                       atol=1e-4 * scale)


class TestDeterminantOracle:
    def test_zero_moments_give_zero(self):
        cm = eigenbounds.CentralMoments(0.0, 0.0, 0.0, 0.0, 0.0)
        assert eigenbounds.determinant_oracle(cm, 0.0) == 0.0

    def test_vanishes_at_cubic_roots(self):
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        for a in (-12.0, 0.0, 12.0):
            det = eigenbounds.determinant_oracle(cm, a)
            assert abs(det) <= 1e-6 * max(1.0, abs(eigenbounds.gamma_value(cm)))

    def test_nonnegative_at_smallest_centered_eigenvalue(self):
        cm = brute_central_moments([-12.0, 0.0, 12.0])
        assert eigenbounds.determinant_oracle(cm, -12.0) >= -1e-6

    def test_matches_gamma_times_cubic(self):
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            lam = rng.uniform(-2, 2, rng.integers(3, 8))
            cm = brute_central_moments(lam)
            if eigenbounds.is_degenerate(cm):
                continue
            c2, c1, c0, gamma = eigenbounds.cubic_coefficients(cm)
            for a in rng.uniform(-3, 3, 5):
                det = eigenbounds.determinant_oracle(cm, a)
                poly = gamma * (((a + c2) * a + c1) * a + c0)
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
    @pytest.mark.parametrize("big", [1e40, 1e60])
    def test_cubic_overflow_is_a_domain_error(self, big):
        # the central moments are finite but the cubic's coefficients are not
        with pytest.raises(DomainError, match="overflow"):
            eigenbounds.spectral_bounds(TR3, np.diag([big, -big, 3.0]))

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
        c = 1.25
        report = eigenbounds.spectral_bounds(TR3, c * np.eye(3))
        assert report.degenerate
        assert report.cubic is None and report.roots == ()
        assert report.ws_min_upper == pytest.approx(c)
        assert report.ws_max_lower == pytest.approx(c)

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

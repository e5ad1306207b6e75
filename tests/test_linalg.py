import numpy as np
import pytest

from momenta import linalg, maps, moments
from momenta.errors import DomainError, ShapeError


def quad_eig2(a, b, c):
    """Eigenvalues of [[a, b], [b, c]] by the quadratic formula (oracle)."""
    d = np.sqrt((a - c) ** 2 + 4.0 * b * b)
    return (a + c - d) / 2.0, (a + c + d) / 2.0


class TestHermitianEig:
    def test_example_3x3_eigenvalues(self, example_3x3):
        spec = linalg.hermitian_eig(example_3x3)
        np.testing.assert_allclose(spec.eigenvalues, [-12.0, 0.0, 12.0],
                                   atol=1e-10)

    def test_identity(self):
        spec = linalg.hermitian_eig(np.eye(4))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(4), atol=1e-14)

    def test_off_diagonal_pair(self):
        # characteristic polynomial x^2 - 1 = 0
        spec = linalg.hermitian_eig([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17])
    def test_reconstruction_and_orthonormality(self, n):
        for seed in range(4):
            a = linalg.random_hermitian(n, 100 * n + seed)
            spec = linalg.hermitian_eig(a)
            scale = max(1.0, linalg.frobenius(a))
            assert linalg.frobenius(spec.reconstruct() - a) <= 1e-10 * scale
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert linalg.frobenius(gram - np.eye(n)) <= 1e-12
            assert np.all(np.diff(spec.eigenvalues) >= 0.0)

    @pytest.mark.parametrize("n", [64, 128, 256])
    @pytest.mark.parametrize("kind", ["random", "three_atom"])
    def test_large_dimensions(self, n, kind):
        if kind == "random":
            a = linalg.random_hermitian(n, n)
        else:
            # three atoms of multiplicity n/2, n/4 and n/4
            lam = np.repeat([-2.0, 0.5, 3.0], [n // 2, n // 4, n // 4])
            a = linalg.hermitian_with_spectrum(lam, n)
        spec = linalg.hermitian_eig(a)
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)
        assert (linalg.frobenius(spec.reconstruct() - a)
                <= 1e-10 * linalg.frobenius(a))
        v = spec.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-12 * n
        if kind == "three_atom":
            np.testing.assert_allclose(spec.eigenvalues, lam, atol=1e-12 * n)

    def test_matches_reference_solver(self):
        # cross-check against the general (non-Hermitian) eigensolver, an
        # algorithm independent of the Hermitian solver behind hermitian_eig
        for n in (2, 4, 7, 12, 25):
            a = linalg.random_hermitian(n, n)
            ours = linalg.hermitian_eig(a).eigenvalues
            ref = np.sort(np.linalg.eigvals(a).real)
            np.testing.assert_allclose(ours, ref, atol=1e-11 * max(1.0, np.abs(ref).max()))

    def test_eigenvector_equation(self):
        a = linalg.random_hermitian(6, 7)
        spec = linalg.hermitian_eig(a)
        for lam, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            assert np.linalg.norm(a @ v - lam * v) <= 1e-11 * max(1.0, abs(lam))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            linalg.hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            linalg.hermitian_eig([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            linalg.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])


class TestSymmetrize:
    def test_absorbs_roundoff(self):
        a = linalg.random_hermitian(4, 0)
        noisy = a + 1e-12 * linalg.frobenius(a) * np.array(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        h = linalg.symmetrize(noisy)
        assert linalg.frobenius(h - h.conj().T) == 0.0

    def test_rejects_beyond_tolerance(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            linalg.symmetrize(a)

    def test_zero_matrix_passes(self):
        np.testing.assert_array_equal(linalg.symmetrize(np.zeros((3, 3))),
                                      np.zeros((3, 3)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rejects_an_overflowing_norm(self):
        # against an infinite norm any asymmetry would pass as round-off
        with pytest.raises(DomainError, match="overflow"):
            linalg.symmetrize([[1e160, 1e160], [0.0, 1e160]])


class TestIsPsd:
    def test_identity(self):
        verdict = linalg.is_psd(np.eye(3))
        assert verdict.passed
        assert verdict.min_eigenvalue == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_2x2(self):
        lo, hi = quad_eig2(1.0, 2.0, 1.0)
        verdict = linalg.is_psd([[1.0, 2.0], [2.0, 1.0]])
        assert not verdict.passed
        assert verdict.min_eigenvalue == pytest.approx(lo, abs=1e-12)
        assert lo == pytest.approx(-1.0)

    def test_moment_block_of_two_point_spectrum(self):
        # 2x2 moment matrix of diag(1, 2) under the normalized trace
        block = np.array([[1.0, 1.5], [1.5, 2.5]])
        lo, _ = quad_eig2(1.0, 1.5, 2.5)
        verdict = linalg.is_psd(block)
        assert verdict.passed
        assert verdict.min_eigenvalue == pytest.approx(lo, abs=1e-12)
        assert lo == pytest.approx(0.07294901687515765, abs=1e-12)
        assert np.linalg.det(block) == pytest.approx(0.25)

    def test_gram_matrices_pass(self):
        for seed in range(10):
            v = linalg.is_psd(linalg.random_psd(5, seed))
            assert v.passed

    def test_zero_matrix_passes_at_scale_zero(self):
        # the scale is the matrix's own norm, with no floor of 1
        verdict = linalg.is_psd(np.zeros((2, 2)))
        assert verdict.passed
        assert verdict.scale == 0.0

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_verdict_is_relative_to_the_given_scale(self, c):
        # min eigenvalue -2e-9 c against operands of size c
        block = c * np.diag([1.0, -2e-9])
        assert not linalg.is_psd(block, 1e-9, c).passed
        assert linalg.is_psd(block, 1e-9, 3.0 * c).passed

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            linalg.is_psd([[1.0, 5.0], [0.0, 1.0]])

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            linalg.is_psd(np.eye(2), tol=0.0)

    def test_an_infinite_scale_is_a_domain_error(self):
        # it would accept any slack
        with pytest.raises(DomainError, match="overflow"):
            linalg.passes(-1.0, np.inf, 1e-9)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scale_is_a_domain_error(self):
        # an infinite scale would accept any minimum eigenvalue
        with pytest.raises(DomainError, match="overflow"):
            linalg.is_psd(np.diag([1e160, -1e160]))


class TestKron:
    def test_psd_factors_give_psd(self):
        for seed in range(5):
            a = linalg.random_psd(2, seed)
            b = linalg.random_psd(3, seed + 50)
            assert linalg.is_psd(np.kron(a, b)).passed


class TestHadamard:
    def test_schur_product_of_psd_is_psd(self):
        for seed in range(5):
            a = linalg.random_psd(4, seed)
            b = linalg.random_psd(4, seed + 100)
            assert linalg.is_psd(a * b).passed


class TestMatrixFunctions:
    """Matrix functions the package computes from a spectrum: the logarithm
    behind the log blocks, and the powers ``A^k`` that ``moment_table``'s
    spectral route yields under the identity map."""

    @staticmethod
    def log(a):
        return moments._log(linalg.hermitian_eig(a))

    @staticmethod
    def powers(a, k_min, k_max):
        return moments.moment_table(maps.Identity(len(a)), a, k_min, k_max)

    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(self.log(np.eye(3)), np.zeros((3, 3)),
                                   atol=1e-14)

    def test_log_diagonal(self):
        out = self.log(np.diag([1.0, np.e]))
        np.testing.assert_allclose(np.diag(out).real, [0.0, 1.0], atol=1e-14)

    def test_square_trace_of_example(self, example_3x3):
        # trace of A^2 equals the squared Frobenius norm: 144 + 0 + 144
        sq = self.powers(example_3x3, 0, 2).power(2)
        assert np.trace(sq).real == pytest.approx(288.0, rel=1e-12)

    def test_power_addition(self):
        a = linalg.random_hermitian(4, 11)
        pd = a + (abs(linalg.hermitian_eig(a).min) + 0.3) * np.eye(4)
        for m, k_min, pairs in ((a, 0, [(0, 3), (2, 2), (1, 4)]),
                                (pd, -1, [(-1, 2), (-1, 1), (3, -1)])):
            table = self.powers(m, k_min, 5)
            for p, q in pairs:
                left = table.power(p) @ table.power(q)
                right = table.power(p + q)
                assert linalg.frobenius(left - right) <= 1e-9 * max(
                    1.0, linalg.frobenius(right))

    def test_log_requires_positive_definite(self):
        with pytest.raises(DomainError):
            self.log(np.diag([1.0, -1.0]))
        with pytest.raises(DomainError):
            self.log(np.diag([1.0, 0.0]))

    def test_negative_power_requires_positive_definite(self):
        with pytest.raises(DomainError):
            self.powers(np.diag([1.0, -2.0]), -1, 1)


class TestRandomGenerators:
    def test_unitary_single_element(self):
        u = linalg.random_unitary(1, 5)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-14

    def test_unitary_orthonormal(self):
        u = linalg.random_unitary(4, 42)
        assert linalg.frobenius(u.conj().T @ u - np.eye(4)) <= 1e-12

    def test_unitary_deterministic(self):
        np.testing.assert_array_equal(linalg.random_unitary(4, 42),
                                      linalg.random_unitary(4, 42))

    def test_unitary_rejects_empty(self):
        with pytest.raises(ShapeError):
            linalg.random_unitary(0, 1)

    def test_hermitian_with_spectrum(self):
        lam = [-1.0, 0.5, 2.0]
        a = linalg.hermitian_with_spectrum(lam, 9)
        np.testing.assert_allclose(linalg.hermitian_eig(a).eigenvalues, lam,
                                   atol=1e-12)

    def test_normal_matrix_is_normal(self):
        a = linalg.random_normal_matrix(5, 3)
        comm = a.conj().T @ a - a @ a.conj().T
        assert linalg.frobenius(comm) <= 1e-12 * linalg.frobenius(a) ** 2

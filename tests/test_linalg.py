import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenta import linalg, maps, moments
from momenta.errors import DomainError, NotHermitianError, ShapeError

from conftest import psd_at_own_norm, random_psd, reconstruct

EPS = np.finfo(float).eps


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
            scale = max(1.0, np.linalg.norm(a))
            assert np.linalg.norm(reconstruct(spec) - a) <= 1e-10 * scale
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert np.linalg.norm(gram - np.eye(n)) <= 1e-12
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
        assert (np.linalg.norm(reconstruct(spec) - a)
                <= 1e-10 * np.linalg.norm(a))
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

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
    def test_eigenvalues_only(self, n):
        a = linalg.random_hermitian(n, 30 + n)
        full = linalg.hermitian_eig(a)
        only = linalg.hermitian_eig(a, vectors=False)
        assert only.eigenvectors is None
        np.testing.assert_array_equal(only.matrix, full.matrix)
        np.testing.assert_allclose(only.eigenvalues, full.eigenvalues, rtol=0,
                                   atol=8 * n * EPS * np.linalg.norm(a))
        assert np.all(np.diff(only.eigenvalues) >= 0.0)


class TestEigenvaluesOnly:
    """``hermitian_eig(a, vectors=False)`` solves a matrix its caller holds
    as Hermitian: no symmetrize, one triangle read, and only the shape and
    the finiteness of the entries checked."""

    @pytest.mark.parametrize("a", [
        [[np.nan, 0.0], [0.0, 1.0]],
        [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, 0.0], [complex(0.0, -np.inf), 1.0]],
    ], ids=["nan-diagonal", "nan-upper", "nan-lower", "inf", "imag-inf"])
    def test_a_non_finite_entry_is_a_domain_error(self, a):
        # eigvalsh gives [0, -0] and [1, 1] for the first two, a silent PASS
        with pytest.raises(DomainError,
                           match="^matrix contains non-finite entries$"):
            linalg.hermitian_eig(a, vectors=False)

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)),
                                   np.ones((2, 2, 2))],
                             ids=["1-d", "non-square", "3-d"])
    def test_a_shape_that_is_not_square_is_a_shape_error(self, a):
        with pytest.raises(ShapeError):
            linalg.hermitian_eig(a, vectors=False)

    @pytest.mark.parametrize("n", [1, 3, 8, 24, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_exactly_hermitian_input_solves_as_symmetrized(self, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = linalg.hermitian_part(1e3 ** rng.integers(-3, 4) * g)
        only = linalg.hermitian_eig(a, vectors=False)
        np.testing.assert_array_equal(
            only.eigenvalues, np.linalg.eigvalsh(linalg.symmetrize(a)))

    def test_the_matrix_is_the_input_as_given(self):
        # it is not symmetrized: the lower triangle is read, as eigvalsh does
        a = np.array([[1.0, 5.0], [0.0, 2.0]])
        only = linalg.hermitian_eig(a, vectors=False)
        np.testing.assert_array_equal(only.matrix, a)
        assert only.matrix.dtype == np.complex128
        np.testing.assert_array_equal(only.eigenvalues, [1.0, 2.0])

    @pytest.mark.parametrize("c", [1e160, 1e300])
    def test_finite_entries_past_the_norm_range_are_solved(self, c):
        # the Frobenius norm overflows, which symmetrize rejects; the
        # entries are finite and LAPACK scales them
        lam = np.array([-1.0, 0.2, 0.9, 1.3])
        a = c * linalg.hermitian_with_spectrum(lam, 3)
        with pytest.raises(DomainError, match="norm overflows"):
            linalg.symmetrize(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            only = linalg.hermitian_eig(a, vectors=False)
        np.testing.assert_allclose(only.eigenvalues / c, lam, rtol=0,
                                   atol=1e-14)


class TestEigMemo:
    """The full solve is memoized on the exact input bytes, two entries."""

    def test_a_hit_returns_the_same_read_only_arrays(self, eigh_inputs):
        a = linalg.random_hermitian(5, 1)
        first = linalg.hermitian_eig(a)
        again = linalg.hermitian_eig(a.copy())
        assert len(eigh_inputs) == 1
        for x, y in ((first.eigenvalues, again.eigenvalues),
                     (first.eigenvectors, again.eigenvectors),
                     (first.matrix, again.matrix)):
            np.testing.assert_array_equal(x, y)
            with pytest.raises(ValueError, match="read-only"):
                y[0] = 0.0

    def test_a_mutated_input_is_solved_again(self, eigh_inputs):
        a = linalg.random_hermitian(4, 2)
        before = a.copy()
        first = linalg.hermitian_eig(a)
        a[0, 0] += 1.0
        second = linalg.hermitian_eig(a)
        assert len(eigh_inputs) == 2
        np.testing.assert_array_equal(first.matrix, before)
        np.testing.assert_array_equal(second.matrix, a)
        assert np.linalg.norm(reconstruct(second) - a) <= 1e-12

    @pytest.mark.parametrize("bad, error, message", [
        ([[0.0, 1.0], [0.0, 0.0]], DomainError, "not Hermitian"),
        ([[np.nan, 0.0], [0.0, 1.0]], DomainError, "non-finite"),
        (np.ones((2, 3)), ShapeError, r"square matrix, got shape \(2, 3\)"),
        (np.float64(2.0), ShapeError, "2-D matrix, got ndim=0"),
        (np.ones(3), ShapeError, "2-D matrix, got ndim=1"),
    ])
    def test_rejected_input_raises_alike_and_leaves_no_entry(
            self, eigh_inputs, bad, error, message):
        raised = []
        for _ in range(2):
            with pytest.raises(error, match=message) as exc:
                linalg.hermitian_eig(bad)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]
        assert linalg._eigh.cache_info().currsize == 0
        assert eigh_inputs == []

    def test_eigenvalues_only_never_read_the_memo(self, eigh_inputs):
        for seed in range(20):
            a = linalg.random_hermitian(9, seed)
            linalg.hermitian_eig(a)
            only = linalg.hermitian_eig(a, vectors=False)
            assert only.eigenvalues.tobytes() == np.linalg.eigvalsh(
                linalg.symmetrize(a)).tobytes()

    def test_a_third_input_evicts_the_first(self, eigh_inputs):
        a, b, c = (linalg.random_hermitian(3, seed) for seed in (1, 2, 3))
        for m in (a, b, c, c, b):
            linalg.hermitian_eig(m)
        assert len(eigh_inputs) == 3
        linalg.hermitian_eig(a)
        assert len(eigh_inputs) == 4


#: The messages of the input errors :func:`linalg.symmetrize` raises.
NON_FINITE = "matrix contains non-finite entries"
OVERFLOW = "matrix norm overflows double precision; rescale the matrix"


class TestSymmetrize:
    def test_absorbs_roundoff(self):
        a = linalg.random_hermitian(4, 0)
        noisy = a + 1e-12 * np.linalg.norm(a) * np.array(
            [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        h = linalg.symmetrize(noisy)
        assert np.linalg.norm(h - h.conj().T) == 0.0

    def test_rejects_beyond_tolerance(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotHermitianError):
            linalg.symmetrize(a)

    def test_zero_matrix_passes(self):
        np.testing.assert_array_equal(linalg.symmetrize(np.zeros((3, 3))),
                                      np.zeros((3, 3)))

    def test_rejects_an_overflowing_norm(self):
        # against an infinite norm any asymmetry would pass as round-off
        with pytest.raises(DomainError, match="overflow"):
            linalg.symmetrize([[1e160, 1e160], [0.0, 1e160]])

    def test_overflowing_asymmetry_is_not_hermitian(self):
        # ||M||_F is finite, ||M - M*||_F = 2 ||M||_F is not
        a = [[0.0, 9e153], [-9e153, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match="not Hermitian"):
                linalg.symmetrize(a)

    @pytest.mark.parametrize("a, error, message", [
        ([[np.nan, 0.0], [0.0, 1.0]], DomainError, NON_FINITE),
        ([[1.0, 0.0], [0.0, np.inf]], DomainError, NON_FINITE),
        ([[1.0, complex(0.0, -np.inf)], [0.0, 1.0]], DomainError, NON_FINITE),
        # a non-finite entry is reported before the shape, as before
        ([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]], DomainError, NON_FINITE),
        ([[1e160, 0.0], [0.0, 1e160]], DomainError, OVERFLOW),
        (np.ones((2, 3)), ShapeError,
         "expected a square matrix, got shape (2, 3)"),
        (np.ones(3), ShapeError, "expected a 2-D matrix, got ndim=1"),
        (np.ones((2, 2, 2)), ShapeError, "expected a 2-D matrix, got ndim=3"),
        ([[0.0, 1.0], [0.0, 0.0]], NotHermitianError,
         "matrix is not Hermitian: asymmetry 1.414e+00 exceeds "
         "1.0e-08 * ||M||_F = 1.000e-08"),
    ], ids=["nan", "inf", "complex-inf", "nan-non-square", "norm-overflow",
            "non-square", "1-d", "3-d", "non-hermitian"])
    def test_errors_and_messages(self, a, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
                linalg.symmetrize(a)
        # only an asymmetry is a NotHermitianError, which file mode
        # dispatches on: a bad entry, norm or shape keeps its own error
        assert type(exc.value) is error

    @pytest.mark.parametrize("n", [1, 3, 8, 40])
    @pytest.mark.parametrize("real", [False, True])
    def test_result_is_the_hermitian_part_and_input_is_untouched(self, n,
                                                                 real):
        rng = np.random.default_rng(n)
        a = linalg.random_hermitian(n, n)
        # round-off asymmetry, which symmetrize absorbs
        a = (a.real if real else a) + 1e-12 * rng.standard_normal((n, n))
        before = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = linalg.symmetrize(a)
        np.testing.assert_array_equal(a, before)
        assert not np.shares_memory(h, a)
        assert h.dtype == np.complex128
        expected = linalg.hermitian_part(a.astype(np.complex128))
        assert h.tobytes() == expected.tobytes()


class TestSymmetrizeContract:
    """Every input, exactly Hermitian or asymmetric by rounding, has its
    asymmetry measured once and gets a fresh Hermitian part, bit for bit."""

    @pytest.fixture
    def asymmetry_calls(self, monkeypatch):
        calls = []
        measure = linalg._asymmetry

        def counting(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(linalg, "_asymmetry", counting)
        return calls

    EXACT = {
        "1x1": np.array([[2.5]]),
        "zero": np.zeros((3, 3)),
        # conj(-0.0j) is +0.0j, which compares equal
        "negative-zero-diagonal": np.array([[complex(1.0, -0.0), 2.0 + 1.0j],
                                            [2.0 - 1.0j, complex(-3.0, -0.0)]]),
        "real-symmetric": linalg.random_hermitian(6, 2).real,
        "complex": linalg.random_hermitian(7, 3),
    }

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_exact_input_is_measured_once(self, asymmetry_calls, name):
        a = self.EXACT[name]
        before = a.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = linalg.symmetrize(a)
        assert len(asymmetry_calls) == 1
        assert h.tobytes() == linalg.hermitian_part(
            a.astype(np.complex128)).tobytes()
        assert not np.shares_memory(h, a)
        np.testing.assert_array_equal(a, before)

    def test_rounding_asymmetry_is_measured_once(self, asymmetry_calls):
        a = linalg.random_hermitian(5, 4)
        a[0, 1] += 1e-14
        h = linalg.symmetrize(a)
        assert len(asymmetry_calls) == 1
        assert h.tobytes() == linalg.hermitian_part(a).tobytes()

    def test_an_overflowing_norm_raises(self, asymmetry_calls):
        a = [[1e160, 0.0], [0.0, 1e160]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(OVERFLOW)}$"):
                linalg.symmetrize(a)
        assert len(asymmetry_calls) == 1


class TestIsPsd:
    """``is_psd(m, tol, scale)``: the one verdict, on exactly Hermitian
    input, at the scale its caller gives."""

    def test_identity(self):
        passed, lam = linalg.is_psd(np.eye(3), 1e-9, 1.0)
        assert passed
        assert lam == pytest.approx(1.0, abs=1e-14)

    def test_indefinite_2x2(self):
        lo, hi = quad_eig2(1.0, 2.0, 1.0)
        passed, lam = linalg.is_psd([[1.0, 2.0], [2.0, 1.0]], 1e-9, 3.0)
        assert not passed
        assert lam == pytest.approx(lo, abs=1e-12)
        assert lo == pytest.approx(-1.0)

    def test_moment_block_of_two_point_spectrum(self):
        # 2x2 moment matrix of diag(1, 2) under the normalized trace
        block = np.array([[1.0, 1.5], [1.5, 2.5]])
        lo, _ = quad_eig2(1.0, 1.5, 2.5)
        passed, lam = linalg.is_psd(block, 1e-9, 2.5)
        assert passed
        assert lam == pytest.approx(lo, abs=1e-12)
        assert lo == pytest.approx(0.07294901687515765, abs=1e-12)
        assert np.linalg.det(block) == pytest.approx(0.25)

    def test_gram_matrices_pass(self):
        for seed in range(10):
            h = linalg.hermitian_part(random_psd(5, seed))
            assert linalg.is_psd(h, 1e-9, np.linalg.norm(h))[0]

    def test_zero_matrix_passes_at_scale_zero(self):
        # no floor of 1 on the scale
        assert linalg.is_psd(np.zeros((2, 2)), 1e-9, 0.0) == (True, 0.0)

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_verdict_is_relative_to_the_given_scale(self, c):
        # min eigenvalue -2e-9 c against operands of size c
        block = c * np.diag([1.0, -2e-9])
        assert not linalg.is_psd(block, 1e-9, c)[0]
        assert linalg.is_psd(block, 1e-9, 3.0 * c)[0]

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            linalg.is_psd(np.eye(2), 0.0, 1.0)
        # an infinite tol would pass every matrix; a NaN one fail every one
        with pytest.raises(ValueError):
            linalg.is_psd(np.diag([-1.0, 1.0]), float("inf"), 1.0)
        with pytest.raises(ValueError):
            linalg.is_psd(np.eye(2), float("nan"), 1.0)

    def test_overflowing_scale_is_a_domain_error(self):
        # an infinite scale would accept any minimum eigenvalue
        with pytest.raises(DomainError, match="overflow"):
            linalg.is_psd(np.diag([1.0, -1.0]), 1e-9, math.inf)

    def test_a_non_square_matrix_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="square"):
            linalg.is_psd(np.ones((2, 3)), 1e-9, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_is_a_domain_error(self, bad):
        # in the triangle the solve does not read too
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            linalg.is_psd(m, 1e-9, 1.0)

    @pytest.mark.parametrize("rtol", [math.inf, math.nan, 0.0, -1e-9])
    def test_passes_owns_its_tolerance_rule(self, rtol):
        # an infinite tolerance would accept any slack
        with pytest.raises(ValueError, match="tolerance"):
            linalg.passes(-1e300, 1.0, rtol)

    def test_an_infinite_scale_is_a_domain_error(self):
        # it would accept any slack
        with pytest.raises(DomainError, match="overflow"):
            linalg.passes(-1.0, np.inf, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**31),
           exponent=st.floats(-6.0, 6.0))
    def test_min_eigenvalue_agrees_with_eigh(self, n, seed, exponent):
        # the eigenvalues-only solve against the full one, within rounding
        h = 10.0 ** exponent * linalg.random_hermitian(n, seed)
        reference = np.linalg.eigh(h)[0][0]
        lam = linalg.is_psd(h, 1e-9, np.linalg.norm(h))[1]
        assert abs(lam - reference) <= 8 * n * EPS * np.linalg.norm(h)

    @pytest.mark.parametrize("n", [2, 5, 16])
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_verdict_at_the_threshold(self, n, c):
        # lambda_min a thousandth inside and outside -tol * scale; the
        # eigensolve's rounding, ~n eps c, is far below that thousandth
        tol, scale = 1e-9, 3.0 * c
        rest = c * np.linspace(0.5, 1.0, n - 1)
        for factor, passed in ((0.999, True), (1.001, False)):
            lam = np.concatenate([[-factor * tol * scale], rest])
            h = linalg.hermitian_with_spectrum(lam, seed=n)
            verdict, margin = linalg.is_psd(h, tol, scale)
            assert verdict is passed
            assert margin == pytest.approx(lam[0], rel=1e-4)


class TestKron:
    def test_psd_factors_give_psd(self):
        for seed in range(5):
            a = random_psd(2, seed)
            b = random_psd(3, seed + 50)
            assert psd_at_own_norm(np.kron(a, b))


class TestHadamard:
    def test_schur_product_of_psd_is_psd(self):
        for seed in range(5):
            a = random_psd(4, seed)
            b = random_psd(4, seed + 100)
            assert psd_at_own_norm(a * b)


class TestMatrixFunctions:
    """Matrix functions the package computes from a spectrum, as spectral
    images under the identity map: the logarithm behind the log blocks, and
    the powers ``A^k`` of ``moment_table``."""

    @staticmethod
    def log(a):
        spectrum, log_lam = moments._log_spectrum(a)
        return moments.spectral_images(maps.Identity(len(a)), spectrum,
                                       log_lam[np.newaxis])[0]

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
                assert np.linalg.norm(left - right) <= 1e-9 * max(
                    1.0, np.linalg.norm(right))

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
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-12

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
        assert np.linalg.norm(comm) <= 1e-12 * np.linalg.norm(a) ** 2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenta import linalg, maps, moments
from momenta.errors import DomainError, ShapeError

from conftest import EXAMPLE_3X3

TR2 = maps.NormalizedTrace(2)
TR3 = maps.NormalizedTrace(3)
DIAG12 = np.diag([1.0, 2.0]).astype(np.complex128)


def table12(k_min=-1, k_max=4):
    return moments.moment_table(TR2, DIAG12, k_min, k_max)


def scalar_shift_hankel(x, y, r):
    """The (r+1)x(r+1) matrix ``[x^{i+j-1} - y x^{i+j-2}]`` for ``x >= y``.

    Rank one and positive semidefinite: the power vector outer product
    scaled by ``x - y``. An oracle for the tensor-sum structure of the
    shifted moment blocks.
    """
    if x < y:
        raise DomainError(f"scalar shift Hankel needs x >= y, got x={x}, y={y}")
    v = np.array([float(x) ** k for k in range(r + 1)])
    return (x - y) * np.outer(v, v)


def scalar_bracket_hankel(x, y, z, r):
    """The (r+1)x(r+1) matrix ``[y^{i+j-2} (x-y)(y-z)]`` for ``x >= y >= z``."""
    if not (x >= y >= z):
        raise DomainError(
            f"scalar bracket Hankel needs x >= y >= z, got {x}, {y}, {z}"
        )
    v = np.array([float(y) ** k for k in range(r + 1)])
    return (x - y) * (y - z) * np.outer(v, v)


def entry_block(kind, table, r, eigenvalues=None, gap_index=None):
    """Entrywise ``np.block`` form of :func:`moments.build_block`: an oracle
    for the gathered assembly, with the same arithmetic per block."""
    m, M = table.m, table.M
    T = table.power
    if kind == "gap_product":
        s, t = float(eigenvalues[gap_index - 2]), float(eigenvalues[gap_index - 1])

    def entry(i, j):
        e = i + j  # 0-based; the 1-based exponent i+j-2
        if kind == "hankel":
            return T(e)
        if kind == "hankel_shift1":
            return T(e + 1)
        if kind == "lower_shift":
            return T(e + 1) - m * T(e)
        if kind == "upper_shift":
            return M * T(e) - T(e + 1)
        if kind == "lower_shift_inv":
            return T(e) - m * T(e - 1)
        if kind == "upper_shift_inv":
            return M * T(e - 1) - T(e)
        if kind == "range_product":
            return (m + M) * T(e + 1) - T(e + 2) - m * M * T(e)
        if kind == "range_product_inv":
            return (m + M) * T(e) - T(e + 1) - m * M * T(e - 1)
        # gap_product
        return T(e + 2) - (s + t) * T(e + 1) + s * t * T(e)

    return np.block([[entry(i, j) for j in range(r + 1)] for i in range(r + 1)])


def operand_scale_oracle(kind, table, r, eigenvalues=None, gap_index=None):
    """``sum_d |c_d| max(|m|, |M|)^(e + d)`` (``1/m`` for power -1),
    maximised over every degree ``e = 0..2r``: an oracle for the block
    scale, which evaluates the two extreme degrees only."""
    m, M = table.m, table.M
    s = t = 0.0
    if kind == "gap_product":
        s, t = float(eigenvalues[gap_index - 2]), float(eigenvalues[gap_index - 1])
    weights = {
        "hankel": {0: 1.0}, "hankel_shift1": {1: 1.0},
        "lower_shift": {1: 1.0, 0: m}, "upper_shift": {0: M, 1: 1.0},
        "lower_shift_inv": {0: 1.0, -1: m}, "upper_shift_inv": {-1: M, 0: 1.0},
        "range_product": {0: m * M, 1: m + M, 2: 1.0},
        "range_product_inv": {-1: m * M, 0: m + M, 1: 1.0},
        "gap_product": {0: s * t, 1: s + t, 2: 1.0},
    }[kind]
    rho = max(abs(m), abs(M))
    return max(sum(abs(c) * (1.0 / m if e + d < 0 else rho ** (e + d))
                   for d, c in weights.items()) for e in range(2 * r + 1))


def spectral_sum_table(pulm, a, k_min, k_max):
    """Spectral-route powers as per-eigenpair sums ``sum_j lambda_j^k
    Phi(v_j v_j*)``, one power at a time: an oracle for the contraction."""
    spectrum = linalg.hermitian_eig(a)
    images = [pulm.apply(np.outer(v, v.conj())) for v in spectrum.eigenvectors.T]
    return [linalg.hermitian_part(sum((lam ** k) * w for lam, w in
                                      zip(spectrum.eigenvalues, images)))
            for k in range(k_min, k_max + 1)]


class TestMomentTable:
    def test_example_3x3_trace_moments(self):
        t = moments.moment_table(TR3, EXAMPLE_3X3, 0, 5)
        row = [t.power(k)[0, 0].real for k in range(6)]
        np.testing.assert_allclose(row, [1.0, 0.0, 96.0, 0.0, 13824.0, 0.0],
                                   atol=1e-9)

    def test_identity_matrix_powers(self):
        pulm = maps.random_map("compression", 4, k=2, seed=1)
        t = moments.moment_table(pulm, np.eye(4), 0, 3)
        for k in range(4):
            np.testing.assert_allclose(t.power(k), np.eye(2), atol=1e-12)

    def test_inverse_moments_of_two_point_spectrum(self):
        t = table12(-1, 2)
        row = [t.power(k)[0, 0].real for k in range(-1, 3)]
        np.testing.assert_allclose(row, [0.75, 1.0, 1.5, 2.5], atol=1e-13)

    def test_endpoints_default_to_spectrum(self):
        t = table12()
        assert t.m == pytest.approx(1.0, abs=1e-12)
        assert t.M == pytest.approx(2.0, abs=1e-12)

    def test_widened_endpoints_accepted(self):
        t = moments.moment_table(TR2, DIAG12, 0, 2, m=0.5, M=3.0)
        assert (t.m, t.M) == (0.5, 3.0)

    def test_narrowed_endpoints_rejected(self):
        with pytest.raises(DomainError):
            moments.moment_table(TR2, DIAG12, 0, 2, m=1.5)
        with pytest.raises(DomainError):
            moments.moment_table(TR2, DIAG12, 0, 2, M=1.5)

    @pytest.mark.parametrize("c", [1e-14, 1.0, 1e14])
    def test_narrowed_endpoints_rejected_at_every_scale(self, c):
        # m sits inside the spectrum {c, 3c}; its lower_shift block would
        # have a negative eigenvalue
        with pytest.raises(DomainError):
            moments.moment_table(TR2, c * np.diag([1.0, 3.0]), 0, 2, m=2.5 * c)

    def test_inverse_moments_need_positive_definite(self):
        with pytest.raises(DomainError):
            moments.moment_table(TR2, np.diag([1.0, -1.0]), -1, 2)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_inverse_moments_need_a_positive_interval(self, m):
        # the size of Phi(A^-1), the scale of the inverse blocks, is 1/m
        with pytest.raises(DomainError, match="m > 0"):
            moments.moment_table(TR2, DIAG12, -1, 2, m=m)

    def test_power_outside_range(self):
        t = table12(0, 2)
        with pytest.raises(ShapeError):
            t.power(3)
        with pytest.raises(ShapeError):
            t.power(-1)

    @pytest.mark.parametrize("route", ["spectral", "direct"])
    @pytest.mark.parametrize("k_min", [-1, 0])
    def test_table_is_one_stacked_array(self, route, k_min):
        pulm = maps.random_map("compression", 4, k=3, seed=2)
        a = linalg.hermitian_with_spectrum([0.3, 0.8, 1.1, 2.0], 3)
        t = moments.moment_table(pulm, a, k_min, 5, route)
        assert isinstance(t.blocks, np.ndarray)
        assert t.blocks.shape == (6 - k_min, 3, 3)
        # every block exactly Hermitian, not only up to rounding
        np.testing.assert_array_equal(t.blocks, t.blocks.conj().transpose(0, 2, 1))
        for k in range(k_min, 6):
            np.testing.assert_array_equal(t.power(k), t.blocks[k - k_min])
        np.testing.assert_array_equal(t.powers(1, 3), t.blocks[1 - k_min:4 - k_min])
        with pytest.raises(ShapeError):
            t.powers(4, 3)
        with pytest.raises(ShapeError):
            t.powers(k_min - 1, 2)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_spectral_contraction_matches_per_eigenpair_sums(self, kind):
        # the contraction sums in another order than the per-power loop: equal
        # up to a few roundings of the largest term, sum_j |lambda_j|^k
        pulm = maps.random_map(kind, 5, k=3, seed=11)
        a = linalg.hermitian_with_spectrum([0.2, 0.5, 1.0, 1.7, 2.4], 12)
        t = moments.moment_table(pulm, a, -1, 8)
        lam = linalg.hermitian_eig(a).eigenvalues
        for k, expected in zip(range(-1, 9), spectral_sum_table(pulm, a, -1, 8)):
            scale = np.sum(np.abs(lam) ** k)
            assert np.max(np.abs(t.power(k) - expected)) <= 64 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_spectral_images(self, kind):
        pulm = maps.random_map(kind, 4, k=2, seed=13)
        spectrum = linalg.hermitian_eig(linalg.random_hermitian(4, 14))
        images = moments.spectral_images(pulm, spectrum)
        k = pulm.codomain_dim
        assert images.shape == (4, k, k)
        for v, image in zip(spectrum.eigenvectors.T, images):
            np.testing.assert_array_equal(image, pulm.apply(np.outer(v, v.conj())))
        # the eigenprojections sum to I, and the map is unital
        np.testing.assert_allclose(images.sum(axis=0), np.eye(k), atol=1e-12)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_route_equivalence(self, kind):
        pulm = maps.random_map(kind, 4, k=2, seed=3)
        a = linalg.random_hermitian(4, 5)
        pd = a + (abs(linalg.hermitian_eig(a).min) + 0.3) * np.eye(4)
        for matrix, k_min in ((a, 0), (pd, -1)):
            spectral = moments.moment_table(pulm, matrix, k_min, 6, "spectral")
            direct = moments.moment_table(pulm, matrix, k_min, 6, "direct")
            for k in range(k_min, 7):
                s, d = spectral.power(k), direct.power(k)
                assert linalg.frobenius(s - d) <= 1e-8 * max(1.0, linalg.frobenius(s))


class TestBuildBlock:
    @pytest.mark.parametrize("codomain", [1, 3])
    @pytest.mark.parametrize("k_min", [-1, 0])
    @pytest.mark.parametrize("kind", moments.BLOCK_KINDS)
    def test_gathered_block_equals_entrywise_oracle(self, kind, k_min, codomain):
        lam = np.array([0.3, 0.7, 1.2, 1.9, 2.6])
        a = linalg.hermitian_with_spectrum(lam, 41)
        pulm = maps.random_map("compression", 5, k=codomain, seed=42)
        t = moments.moment_table(pulm, a, k_min, 10)
        extra = {"eigenvalues": lam, "gap_index": 3} if kind == "gap_product" else {}
        for r in range(5):
            if kind in moments.PD_BLOCK_KINDS and k_min == 0:
                with pytest.raises(ShapeError):
                    moments.build_block(kind, t, r, **extra)
                continue
            block = moments.build_block(kind, t, r, **extra)
            assert block.scale == pytest.approx(
                operand_scale_oracle(kind, t, r, **extra), rel=1e-14)
            assert block.assembled.shape == ((r + 1) * codomain,) * 2
            # bit for bit, signed zeros included
            assert block.assembled.tobytes() == entry_block(kind, t, r, **extra).tobytes()

    def test_hankel_of_two_point_spectrum(self):
        block = moments.build_block("hankel", table12(), 1).assembled
        np.testing.assert_allclose(block.real, [[1.0, 1.5], [1.5, 2.5]],
                                   atol=1e-13)
        assert np.linalg.det(block).real == pytest.approx(0.25)

    def test_lower_shift_single_atom_at_endpoint(self):
        # one-point spectrum {c} with m = c collapses every entry
        c = 1.7
        t = moments.moment_table(maps.NormalizedTrace(1), [[c]], 0, 3)
        block = moments.build_block("lower_shift", t, 1).assembled
        np.testing.assert_allclose(block, np.zeros((2, 2)), atol=1e-13)

    def test_lower_shift_two_point_spectrum(self):
        # entries Phi(A^{i+j-1}) - m Phi(A^{i+j-2}) from moments 1, 1.5, 2.5, 4.5
        block = moments.build_block("lower_shift", table12(), 1).assembled
        np.testing.assert_allclose(block.real, [[0.5, 1.0], [1.0, 2.0]],
                                   atol=1e-13)
        assert linalg.is_psd(block).passed

    def test_lower_shift_inv_two_point_spectrum(self):
        block = moments.build_block("lower_shift_inv", table12(), 1).assembled
        np.testing.assert_allclose(block.real, [[0.25, 0.5], [0.5, 1.0]],
                                   atol=1e-13)
        assert np.linalg.det(block).real == pytest.approx(0.0, abs=1e-14)
        assert linalg.is_psd(block).passed

    def test_range_product_vanishes_on_two_point_spectrum(self):
        # (A - mI)(MI - A) = 0 when the spectrum is exactly {m, M}
        block = moments.build_block("range_product", table12(), 1).assembled
        np.testing.assert_allclose(block, np.zeros((2, 2)), atol=1e-13)

    def test_gap_product_three_point_spectrum(self):
        a = np.diag([0.0, 1.0, 3.0]).astype(np.complex128)
        t = moments.moment_table(TR3, a, 0, 2)
        block = moments.build_block("gap_product", t, 0, eigenvalues=[0.0, 1.0, 3.0],
                                    gap_index=2).assembled
        # mean of (x - 0)(x - 1) over {0, 1, 3} is 6/3
        np.testing.assert_allclose(block.real, [[2.0]], atol=1e-13)

    def test_gap_product_every_gap_is_psd(self):
        lam = np.array([-1.2, -0.3, 0.4, 1.5])
        a = linalg.hermitian_with_spectrum(lam, 8)
        pulm = maps.random_map("compression", 4, k=2, seed=9)
        t = moments.moment_table(pulm, a, 0, 6)
        for g in range(2, 5):
            block = moments.build_block("gap_product", t, 2, eigenvalues=lam,
                                        gap_index=g)
            assert linalg.is_psd(block.assembled).passed

    def test_gap_product_argument_validation(self):
        t = table12(0, 4)
        with pytest.raises(DomainError):
            moments.build_block("gap_product", t, 1)
        with pytest.raises(DomainError):
            moments.build_block("gap_product", t, 1, eigenvalues=[1.0, 2.0],
                                gap_index=3)
        with pytest.raises(DomainError):
            moments.build_block("gap_product", t, 1,
                                eigenvalues=[1.0, 1.0 + 1e-12], gap_index=2)

    def test_insufficient_range(self):
        t = table12(0, 2)
        with pytest.raises(ShapeError):
            moments.build_block("hankel", t, 2)  # needs power 4
        with pytest.raises(ShapeError):
            moments.build_block("lower_shift_inv", t, 1)  # needs power -1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            moments.build_block("cauchy", table12(), 1)

    @pytest.mark.parametrize("kind", ["range_product", "range_product_inv"])
    def test_product_expansion_matches_direct_application(self, kind):
        # the expanded moment combination equals applying the map to the
        # explicit product matrix
        a = linalg.hermitian_with_spectrum([0.4, 0.9, 1.8, 2.7], 21)
        pulm = maps.random_map("pinching", 4, seed=22)
        t = moments.moment_table(pulm, a, -1, 6)
        r = 2
        block = moments.build_block(kind, t, r).assembled
        m, M = t.m, t.M
        eye = np.eye(4)
        prod = (a - m * eye) @ (M * eye - a)
        base = -3 if kind == "range_product_inv" else -2
        direct = np.block([
            [pulm.apply(np.linalg.matrix_power(a, i + j + 2 + base) @ prod)
             for j in range(r + 1)]
            for i in range(r + 1)
        ])
        assert linalg.frobenius(block - direct) <= 1e-9 * max(
            1.0, linalg.frobenius(direct))

    def test_shift_sum_identity(self):
        # lower + upper shifted blocks rebuild (M - m) times the Hankel
        t = table12(0, 6)
        low = moments.build_block("lower_shift", t, 2).assembled
        high = moments.build_block("upper_shift", t, 2).assembled
        hank = moments.build_block("hankel", t, 2).assembled
        np.testing.assert_allclose(low + high, (t.M - t.m) * hank, atol=1e-10)


class TestRefinementChain:
    @pytest.mark.parametrize("codomain", [1, 3])
    def test_gathered_chain_equals_block_form(self, codomain):
        a = linalg.hermitian_with_spectrum([0.4, 0.9, 1.5, 2.2], 51)
        pulm = maps.random_map("mixture", 4, k=codomain, seed=52)
        t = moments.moment_table(pulm, a, 0, 4)
        m = 0.35
        T = t.power
        outer, inner = moments.build_refinement_chain(t, m)
        expected_inner = (2.0 * m * np.block([[T(1), T(2)], [T(2), T(3)]])
                          - m * m * np.block([[T(0), T(1)], [T(1), T(2)]]))
        assert outer.tobytes() == np.block([[T(2), T(3)], [T(3), T(4)]]).tobytes()
        assert inner.tobytes() == expected_inner.tobytes()

    def test_single_atom_equality(self):
        c = 0.9
        t = moments.moment_table(maps.NormalizedTrace(1), [[c]], 0, 4)
        outer, inner = moments.build_refinement_chain(t, c)
        np.testing.assert_allclose(outer, inner, atol=1e-13)

    def test_two_point_spectrum_values(self):
        outer, inner = moments.build_refinement_chain(table12(0, 4), 1.0)
        np.testing.assert_allclose((outer - inner).real, [[0.5, 1.0], [1.0, 2.0]],
                                   atol=1e-13)
        np.testing.assert_allclose(inner.real, [[2.0, 3.5], [3.5, 6.5]],
                                   atol=1e-13)
        assert np.linalg.det(inner).real == pytest.approx(0.75)
        assert linalg.is_psd(outer - inner).passed
        assert linalg.is_psd(inner).passed

    def test_vanishing_endpoint_limit(self):
        t = table12(0, 4)
        outer, inner = moments.build_refinement_chain(t, 1e-9)
        assert linalg.frobenius(inner) <= 1e-7
        assert linalg.is_psd(outer).passed

    def test_requires_positive_m(self):
        with pytest.raises(DomainError):
            moments.build_refinement_chain(table12(0, 4), 0.0)

    def test_rejects_m_above_spectrum(self):
        with pytest.raises(DomainError):
            moments.build_refinement_chain(table12(0, 4), 1.5)

    def test_rejects_m_above_a_small_scale_spectrum(self):
        t = moments.moment_table(TR2, 1e-14 * DIAG12, 0, 4)
        with pytest.raises(DomainError):
            moments.build_refinement_chain(t, 1.5e-14)


class TestLogBlocks:
    def test_deficit_single_atom_at_one(self):
        t1 = maps.NormalizedTrace(1)
        block = moments.build_log_deficit_block(t1, [[1.0]])
        np.testing.assert_allclose(block.real, [[1.0, 1.0], [1.0, 1.0]],
                                   atol=1e-13)
        assert linalg.is_psd(block).passed

    def test_deficit_two_point_spectrum(self):
        e = np.e
        block = moments.build_log_deficit_block(TR2, np.diag([1.0, e]))
        expected = [[(1 + e * e) / 2, (1 + e) / 2], [(1 + e) / 2, e / 2]]
        np.testing.assert_allclose(block.real, expected, atol=1e-12)
        assert np.linalg.det(block).real == pytest.approx(2.2445497489494923,
                                                          abs=1e-10)

    def test_deficit_is_psd_on_random_instances(self):
        for seed in range(5):
            a = linalg.hermitian_with_spectrum(
                np.random.default_rng(seed).uniform(0.2, 3.0, 4), seed)
            block = moments.build_log_deficit_block(maps.Identity(4), a)
            assert linalg.is_psd(block).passed

    def test_deficit_requires_positive_definite(self):
        with pytest.raises(DomainError):
            moments.build_log_deficit_block(TR2, np.diag([1.0, -1.0]))

    def test_endpoint_blocks_vanish_at_matching_endpoint(self):
        big = 2.5 * np.eye(3)
        upper, _ = moments.build_log_endpoint_blocks(TR3, big, m=1.0, M=2.5)
        np.testing.assert_allclose(upper, np.zeros((2, 2)), atol=1e-12)
        _, lower = moments.build_log_endpoint_blocks(TR3, big, m=2.5, M=3.0)
        np.testing.assert_allclose(lower, np.zeros((2, 2)), atol=1e-12)

    def test_endpoint_blocks_two_point_spectrum(self):
        upper, lower = moments.build_log_endpoint_blocks(TR2, DIAG12)
        l2 = np.log(2.0)
        np.testing.assert_allclose(upper.real, (l2 / 2) * np.ones((2, 2)),
                                   atol=1e-12)
        np.testing.assert_allclose(
            lower.real, (l2 / 2) * np.array([[1.0, 2.0], [2.0, 4.0]]),
            atol=1e-12)
        assert linalg.is_psd(upper).passed
        assert linalg.is_psd(lower).passed

    def test_endpoint_blocks_domain_errors(self):
        with pytest.raises(DomainError):
            moments.build_log_endpoint_blocks(TR2, DIAG12, m=-1.0, M=3.0)
        with pytest.raises(DomainError):
            moments.build_log_endpoint_blocks(TR2, DIAG12, m=0.5, M=1.5)

    def test_endpoint_blocks_apply_the_map_once_per_image(self, monkeypatch):
        # three images per block, the off-diagonal one shared, and every bit
        # as in the entrywise np.block form
        a = linalg.hermitian_with_spectrum([0.3, 1.1, 2.0, 2.7], 5)
        pulm = maps.random_map("compression", 4, k=2, seed=8)
        spectrum = linalg.hermitian_eig(a)
        h, la = spectrum.matrix, moments._log(spectrum)
        h2 = linalg.hermitian_part(h @ h)
        hla = linalg.hermitian_part(h @ la)
        h2la = linalg.hermitian_part(h2 @ la)
        lm, lM, eye = np.log(0.3), np.log(2.7), np.eye(4)
        phi = pulm.apply
        expected_upper = np.block([
            [phi(lM * eye - la), phi(lM * h - hla)],
            [phi(lM * h - hla), phi(lM * h2 - h2la)]])
        expected_lower = np.block([
            [phi(la - lm * eye), phi(hla - lm * h)],
            [phi(hla - lm * h), phi(h2la - lm * h2)]])

        calls = []
        apply = maps.Compression.apply
        monkeypatch.setattr(maps.Compression, "apply",
                            lambda self, x: calls.append(x) or apply(self, x))
        upper, lower = moments.build_log_endpoint_blocks(pulm, a, m=0.3, M=2.7)
        assert len(calls) == 6
        assert np.array_equal(upper, expected_upper)
        assert np.array_equal(lower, expected_lower)


class TestNormalBlock:
    def test_hermitian_input_reduces_to_hankel_pattern(self):
        a = linalg.random_hermitian(3, 4)
        pulm = maps.random_map("compression", 3, k=2, seed=6)
        block = moments.build_normal_block(pulm, a)
        t = moments.moment_table(pulm, a, 0, 4)
        expected = np.block([
            [t.power(0), t.power(1), t.power(2)],
            [t.power(1), t.power(2), t.power(3)],
            [t.power(2), t.power(3), t.power(4)],
        ])
        assert linalg.frobenius(block - expected) <= 1e-8 * max(
            1.0, linalg.frobenius(expected))
        assert linalg.is_psd(block).passed

    def test_conjugate_pair_spectrum(self):
        block = moments.build_normal_block(TR2, np.diag([1j, -1j]))
        expected = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=float)
        np.testing.assert_allclose(block.real, expected, atol=1e-14)
        np.testing.assert_allclose(block.imag, np.zeros((3, 3)), atol=1e-14)
        assert linalg.is_psd(block).passed

    def test_random_normal_instances_are_psd(self):
        for seed in range(8):
            a = linalg.random_normal_matrix(4, seed)
            pulm = maps.random_map("vector_state", 4, seed=seed + 1)
            assert linalg.is_psd(moments.build_normal_block(pulm, a)).passed

    def test_rejects_non_normal(self):
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DomainError):
            moments.build_normal_block(TR2, shear)


class TestScalarChecks:
    def test_variance_equality_on_symmetric_two_point_spectrum(self):
        results = {r.check: r for r in moments.scalar_checks(TR2, np.diag([0.0, 1.0]))}
        assert results["kadison"].passed
        assert results["kadison"].margin == pytest.approx(0.25, abs=1e-14)
        # both variance bounds are tight: 0.25 = ((1-0)/2)^2 = (0.5)(0.5)
        assert results["variance_range"].margin == pytest.approx(0.0, abs=1e-12)
        assert results["variance_endpoints"].margin == pytest.approx(0.0, abs=1e-12)

    def test_third_moment_single_atom_equality(self):
        c = 1.3
        t1 = maps.NormalizedTrace(1)
        results = {r.check: r
                   for r in moments.scalar_checks(t1, [[c]], m=0.5)}
        res = results["third_moment_lower"]
        assert res.passed is True
        # one-point spectrum: phi(A^3) equals m c^2 + c^2 (c - m) exactly
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_third_moment_two_point_arithmetic(self):
        results = {r.check: r
                   for r in moments.scalar_checks(TR2, DIAG12, m=0.5)}
        res = results["third_moment_lower"]
        assert res.passed is True
        # phi(A^3) = 4.5 against 0.5 * 2.5 + (2.5 - 0.75)^2 / (1.5 - 0.5)
        assert res.margin == pytest.approx(4.5 - 4.3125, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-7, 1.0, 1e7])
    def test_third_moment_runs_at_every_scale(self, c):
        results = {r.check: r for r in moments.scalar_checks(
            TR3, c * np.diag([1.0, 2.0, 3.0]))}
        assert results["third_moment_lower"].passed is True
        assert results["third_moment_upper"].passed is True

    @pytest.mark.parametrize("kind, n, c", [("compression", 2, 1e3),
                                            ("vector_state", 3, 1e7)])
    def test_third_moment_skips_a_rounding_level_gap(self, kind, n, c):
        # Phi(cI) - m I is zero up to rounding; inverting it would FAIL
        pulm = maps.random_map(kind, n, 1, seed=3)
        results = {r.check: r for r in moments.scalar_checks(pulm, c * np.eye(n))}
        assert results["third_moment_lower"].passed is None
        assert results["third_moment_upper"].passed is None

    def test_inverse_moment_two_point_spectrum(self):
        results = {r.check: r for r in moments.scalar_checks(TR2, DIAG12)}
        res = results["inverse_moment"]
        assert res.passed is True
        assert res.margin == pytest.approx(0.75 - 1.0 / 1.5, abs=1e-12)

    def test_inverse_moment_skipped_for_indefinite(self):
        results = {r.check: r
                   for r in moments.scalar_checks(TR2, np.diag([-1.0, 1.0]))}
        res = results["inverse_moment"]
        assert res.passed is None

    def test_centered_fourth_moment_equality(self):
        # B = A, |B|^2 = I: phi(|B|^4) = 1 = 0 + 1^2
        slack = moments.centered_fourth_moment_slack(TR2, np.diag([1.0, -1.0]))
        assert slack == pytest.approx(0.0, abs=1e-14)

    def test_centered_fourth_moment_on_normal_input(self):
        a = linalg.random_normal_matrix(4, 6)
        x = maps.random_map("vector_state", 4, seed=7)
        results = {r.check: r for r in moments.scalar_checks(x, a)}
        res = results["centered_fourth_moment"]
        assert res.passed is True
        # Hermitian-only checks are reported not applicable, never failed
        assert results["kadison"].passed is None
        assert results["third_moment_upper"].passed is None

    def test_fourth_moment_needs_functional(self):
        results = {r.check: r
                   for r in moments.scalar_checks(maps.Identity(2), DIAG12)}
        assert results["centered_fourth_moment"].passed is None

    def test_annihilating_state_uses_zero_convention(self):
        # state on the kernel of B: phi(|B|^2) = 0 and the bound holds as 0 >= 0
        e1 = np.array([1.0, 0.0])
        a = np.diag([1.0, 3.0]).astype(np.complex128)
        # phi(A) = 1 so B = diag(0, 2) annihilates e1
        slack = moments.centered_fourth_moment_slack(maps.VectorState(e1), a)
        assert slack == pytest.approx(0.0, abs=1e-14)


class TestScalarOracles:
    def test_shift_collapses_at_equal_arguments(self):
        np.testing.assert_array_equal(scalar_shift_hankel(1.4, 1.4, 3),
                                      np.zeros((4, 4)))

    def test_shift_rank_one_values(self):
        out = scalar_shift_hankel(2.0, 1.0, 1)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [2.0, 4.0]])
        assert np.linalg.matrix_rank(out) == 1

    def test_bracket_values(self):
        out = scalar_bracket_hankel(3.0, 2.0, 1.0, 1)
        np.testing.assert_array_equal(out, [[1.0, 2.0], [2.0, 4.0]])

    def test_preconditions(self):
        with pytest.raises(DomainError):
            scalar_shift_hankel(1.0, 2.0, 1)
        with pytest.raises(DomainError):
            scalar_bracket_hankel(1.0, 2.0, 0.0, 1)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-3, 3), gap=st.floats(0, 2),
           r=st.integers(0, 3))
    def test_shift_is_psd(self, x, gap, r):
        out = scalar_shift_hankel(x, x - gap, r)
        assert linalg.is_psd(out).passed

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(-3, 3), up=st.floats(0, 2), down=st.floats(0, 2),
           r=st.integers(0, 3))
    def test_bracket_is_psd(self, y, up, down, r):
        out = scalar_bracket_hankel(y + up, y, y - down, r)
        assert linalg.is_psd(out).passed

    def test_weighted_scalar_hankels_rebuild_shift_and_range_blocks(self):
        # a functional's lower_shift and range_product blocks are the
        # spectral-weight averages of the scalar oracles at each eigenvalue
        a = linalg.random_hermitian(4, 33)
        x = maps.random_map("vector_state", 4, seed=34)
        spectrum = linalg.hermitian_eig(a)
        t = moments.moment_table(x, a, 0, 8)
        r = 3
        low = moments.build_block("lower_shift", t, r).assembled.real
        rng = moments.build_block("range_product", t, r).assembled.real
        acc_low = np.zeros((r + 1, r + 1))
        acc_rng = np.zeros((r + 1, r + 1))
        for lam, v in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
            w = x.apply(np.outer(v, v.conj()))[0, 0].real
            acc_low += w * scalar_shift_hankel(lam, t.m, r)
            acc_rng += w * scalar_bracket_hankel(t.M, lam, t.m, r)
        assert np.max(np.abs(acc_low - low)) <= 1e-9 * np.max(np.abs(low))
        assert np.max(np.abs(acc_rng - rng)) <= 1e-9 * np.max(np.abs(rng))

    def test_tensor_sum_reconstructs_functional_hankel(self):
        # the moment Hankel of a functional is the weight-averaged scalar Hankel
        a = linalg.random_hermitian(4, 31)
        x = maps.random_map("vector_state", 4, seed=32)
        spectrum = linalg.hermitian_eig(a)
        t = moments.moment_table(x, a, 0, 6)
        hank = moments.build_block("hankel", t, 3).assembled.real
        acc = np.zeros((4, 4))
        for lam, v in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
            w = x.apply(np.outer(v, v.conj()))[0, 0].real
            pv = np.array([lam ** k for k in range(4)])
            acc += w * np.outer(pv, pv)
        assert np.max(np.abs(acc - hank)) <= 1e-9

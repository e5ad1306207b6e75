import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momenta import campaign, cli, linalg, maps, moments
from momenta.errors import (DomainError, NotHermitianError, NotNormalError,
                            ShapeError)

from conftest import (EXAMPLE_3X3, ReflectedState, ReflectedTrace,
                      centered_solve_blocks, direct_centered_fourth_moment,
                      direct_log_blocks, direct_normal_block, direct_powers,
                      psd_at_own_norm, random_psd)

TR2 = maps.NormalizedTrace(2)
TR3 = maps.NormalizedTrace(3)
DIAG12 = np.diag([1.0, 2.0]).astype(np.complex128)

#: Normal spectra with repeated and nearly repeated eigenvalues: their
#: Hermitian parts have multiple eigenvalues.
CLUSTERED_SPECTRA = ([1, 1, 1j, 1j, -1], [1 + 1j, 1 - 1j, 1 + 1e-9j, 2, 2],
                     [0.5j, 2, 1 + 0.3j, 1 + 1e-9 + 0.3j])


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


def entry_block(kind, table, r, pair=None):
    """Entrywise ``np.block`` form of :func:`moments.build_blocks`' blocks,
    ``gap_product`` on the eigenvalue ``pair`` ``(s, t)``: an oracle for the
    gathered assembly, with the same arithmetic per block."""
    m, M = table.m, table.M
    T = table.power
    if kind == "gap_product":
        s, t = float(pair[0]), float(pair[1])

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


def operand_scale_oracle(kind, table, r, pair=None):
    """``sum_d |c_d| max(|m|, |M|)^(e + d)`` (``kappa/m = M/m^2`` for power
    -1), maximised over every degree ``e = 0..2r``: an oracle for the block
    scale, which evaluates the two extreme degrees only."""
    m, M = table.m, table.M
    s = t = 0.0
    if kind == "gap_product":
        s, t = float(pair[0]), float(pair[1])
    weights = {
        "hankel": {0: 1.0}, "hankel_shift1": {1: 1.0},
        "lower_shift": {1: 1.0, 0: m}, "upper_shift": {0: M, 1: 1.0},
        "lower_shift_inv": {0: 1.0, -1: m}, "upper_shift_inv": {-1: M, 0: 1.0},
        "range_product": {0: m * M, 1: m + M, 2: 1.0},
        "range_product_inv": {-1: m * M, 0: m + M, 1: 1.0},
        "gap_product": {0: s * t, 1: s + t, 2: 1.0},
    }[kind]
    rho = max(abs(m), abs(M))
    return max(sum(abs(c) * (M / m / m if e + d < 0 else rho ** (e + d))
                   for d, c in weights.items()) for e in range(2 * r + 1))


def projection_images(pulm, vectors):
    """``Phi(v v*)`` for each column ``v``, one ``apply`` on one explicit
    rank-one matrix at a time: an oracle for ``rank_one_images``."""
    return np.stack([pulm.apply(np.outer(v, v.conj())) for v in vectors.T])


def gap_block(table, r, pair):
    """The ``gap_product`` block of one eigenvalue pair: the one-pair family
    of :func:`moments.build_blocks`."""
    ((kind, block),) = moments.build_blocks(table, r, eigenvalues=pair)
    assert kind == "gap_product"
    return block


def one_block(kind, table, r, pair=None):
    """The block of ``kind`` alone, ``gap_product`` on ``pair``."""
    if kind == "gap_product":
        return gap_block(table, r, pair)
    return moments.build_block(kind, table, r)


def spectral_sum_table(pulm, a, k_min, k_max):
    """Spectral-route powers as per-eigenpair sums ``sum_j lambda_j^k
    Phi(v_j v_j*)``, one power at a time: an oracle for the contraction."""
    spectrum = linalg.hermitian_eig(a)
    images = projection_images(pulm, spectrum.eigenvectors)
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

    @pytest.mark.parametrize("k_min, k_max, message", [
        (1, 4, "k_min must be -1 or 0, got 1"),
        (-2, 4, "k_min must be -1 or 0, got -2"),
        (0, -1, "k_max -1 below k_min 0"),
    ])
    def test_the_power_range_is_checked(self, k_min, k_max, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            moments.moment_table(TR2, DIAG12, k_min, k_max)

    def test_inverse_moments_need_positive_definite(self):
        with pytest.raises(DomainError):
            moments.moment_table(TR2, np.diag([1.0, -1.0]), -1, 2)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_inverse_moments_need_a_positive_interval(self, m):
        # the size of Phi(A^-1), the scale of the inverse blocks, is
        # kappa/m, and m is the smallest eigenvalue
        with pytest.raises(DomainError, match="positive definite"):
            moments.moment_table(TR2, np.diag([m, 2.0]), -1, 2)

    def test_the_inverse_power_is_sized_by_its_forward_error(self):
        # 1/lambda_j is good to eps kappa of 1/m, so the size is kappa/m,
        # formed as (M/m)/m: finite where m^2 underflows
        assert table12(-1, 2).size(-1) == 2.0
        assert moments._power_size(1e-200, 1e-190, -1) == 1e10 / 1e-200
        assert moments._power_size(1e-200, 1e-190, -1) < math.inf

    @pytest.mark.parametrize("m, M, tol, pd", [
        (1.0, 2.0, 1e-9, True), (0.0, 1.0, 1e-9, False),
        (-1.0, 1.0, 1e-9, False), (1.0, 9.9e8, 1e-9, True),
        (1.0, 1e9, 1e-9, False), (1e-6, 1.0, 1e-7, True),
        (5e-324, 1e300, 1e-9, False)])
    def test_positive_definite_is_m_above_0_and_kappa_tol_below_1(
            self, m, M, tol, pd):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # kappa may overflow to inf
            assert moments.positive_definite(m, M, tol) is pd

    @pytest.mark.parametrize("route", ["spectral", "direct"])
    def test_overflowing_powers_are_a_domain_error(self, route):
        # the direct route is route_agreement's, which builds a table too
        a = 1e100 * linalg.random_hermitian(4, 1)
        tabulate = {"spectral": moments.moment_table,
                    "direct": campaign._route_error}[route]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                tabulate(maps.NormalizedTrace(4), a, 0, 7)

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
        t = moments.moment_table(pulm, a, k_min, 5)
        if route == "direct":
            # the direct route's stack, in the same table
            t = replace(t, blocks=direct_powers(pulm, a, k_min, 5))
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
        vectors = linalg.hermitian_eig(linalg.random_hermitian(4, 14)).eigenvectors
        images = pulm.rank_one_images(vectors)
        expected = projection_images(pulm, vectors)
        k = pulm.codomain_dim
        assert images.shape == (4, k, k)
        if kind in ("identity", "pinching"):
            # the same products v_a conj(v_b), kept or zeroed
            np.testing.assert_array_equal(images, expected)
        else:
            # W = K* V multiplies in another order; entries are at most 1
            assert np.max(np.abs(images - expected)) <= 8 * 4 * np.finfo(float).eps
        # the eigenprojections sum to I, and the map is unital
        np.testing.assert_allclose(images.sum(axis=0), np.eye(k), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(maps.MAP_KINDS), n=st.integers(1, 12),
           k_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_images_of_an_orthonormal_basis(self, kind, n, k_frac, seed):
        k = 1 + int(k_frac * (n - 1))
        pulm = maps.random_map(kind, n, k=k, seed=seed)
        images = pulm.rank_one_images(linalg.random_unitary(n, seed + 1))
        k = pulm.codomain_dim
        assert images.shape == (n, k, k)
        np.testing.assert_allclose(images.sum(axis=0), np.eye(k), atol=1e-12)
        for image in images:
            assert np.linalg.eigvalsh(image)[0] >= -1e-12

    def test_rank_one_images_check_the_shape(self):
        with pytest.raises(ShapeError):
            maps.Identity(3).rank_one_images(np.eye(4))
        with pytest.raises(ShapeError):
            maps.NormalizedTrace(3).rank_one_images(np.ones(3))

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_route_equivalence(self, kind):
        pulm = maps.random_map(kind, 4, k=2, seed=3)
        a = linalg.random_hermitian(4, 5)
        pd = a + (abs(linalg.hermitian_eig(a).min) + 0.3) * np.eye(4)
        for matrix, k_min in ((a, 0), (pd, -1)):
            spectral = moments.moment_table(pulm, matrix, k_min, 6)
            direct = direct_powers(pulm, matrix, k_min, 6)
            for k in range(k_min, 7):
                s, d = spectral.power(k), direct[k - k_min]
                assert np.linalg.norm(s - d) <= 1e-8 * max(1.0, np.linalg.norm(s))


class TestBuildBlock:
    @pytest.mark.parametrize("codomain", [1, 3])
    @pytest.mark.parametrize("k_min", [-1, 0])
    @pytest.mark.parametrize("kind", moments.BLOCK_KINDS)
    def test_gathered_block_equals_entrywise_oracle(self, kind, k_min, codomain):
        lam = np.array([0.3, 0.7, 1.2, 1.9, 2.6])
        a = linalg.hermitian_with_spectrum(lam, 41)
        pulm = maps.random_map("compression", 5, k=codomain, seed=42)
        t = moments.moment_table(pulm, a, k_min, 10)
        pair = lam[1:3]  # read by gap_product alone
        for r in range(5):
            if kind in moments.PD_BLOCK_KINDS and k_min == 0:
                with pytest.raises(ShapeError):
                    moments.build_block(kind, t, r)
                continue
            block = one_block(kind, t, r, pair)
            assert block.scale == pytest.approx(
                operand_scale_oracle(kind, t, r, pair), rel=1e-14)
            assert block.assembled.shape == ((r + 1) * codomain,) * 2
            # bit for bit, signed zeros included
            expected = entry_block(kind, t, r, pair)
            assert block.assembled.tobytes() == expected.tobytes()

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
        assert psd_at_own_norm(block)

    def test_lower_shift_inv_two_point_spectrum(self):
        block = moments.build_block("lower_shift_inv", table12(), 1).assembled
        np.testing.assert_allclose(block.real, [[0.25, 0.5], [0.5, 1.0]],
                                   atol=1e-13)
        assert np.linalg.det(block).real == pytest.approx(0.0, abs=1e-14)
        assert psd_at_own_norm(block)

    def test_range_product_vanishes_on_two_point_spectrum(self):
        # (A - mI)(MI - A) = 0 when the spectrum is exactly {m, M}
        block = moments.build_block("range_product", table12(), 1).assembled
        np.testing.assert_allclose(block, np.zeros((2, 2)), atol=1e-13)

    def test_gap_product_three_point_spectrum(self):
        a = np.diag([0.0, 1.0, 3.0]).astype(np.complex128)
        t = moments.moment_table(TR3, a, 0, 2)
        block = gap_block(t, 0, [0.0, 1.0]).assembled
        # mean of (x - 0)(x - 1) over {0, 1, 3} is 6/3
        np.testing.assert_allclose(block.real, [[2.0]], atol=1e-13)

    def test_gap_product_every_gap_is_psd(self):
        lam = np.array([-1.2, -0.3, 0.4, 1.5])
        a = linalg.hermitian_with_spectrum(lam, 8)
        pulm = maps.random_map("compression", 4, k=2, seed=9)
        t = moments.moment_table(pulm, a, 0, 6)
        family = list(moments.build_blocks(t, 2, eigenvalues=lam))
        assert [kind for kind, _ in family] == ["gap_product"] * 3
        for _, block in family:
            assert psd_at_own_norm(block.assembled)

    def test_gap_product_argument_validation(self):
        # gap blocks come from eigenvalues alone
        t = table12(0, 4)
        with pytest.raises(DomainError, match="eigenvalues"):
            moments.build_block("gap_product", t, 1)
        with pytest.raises(DomainError, match="eigenvalues"):
            moments.build_blocks(t, 1, ("gap_product",), eigenvalues=[1.0, 2.0])
        assert gap_block(t, 1, [1.0, 2.0]) is not None

    def test_a_pair_closer_than_an_eigenvalue_gap_gives_no_block(self):
        # 1.0 and 1.0 + 1e-12 lie within GAP_RTOL of the spectrum [1, 2]:
        # one atom, so the only gap block is that of the atom and 2.0
        t = table12(0, 4)
        family = list(moments.build_blocks(t, 1,
                                           eigenvalues=[1.0, 1.0 + 1e-12, 2.0]))
        atom = moments.distinct_eigenvalues([1.0, 1.0 + 1e-12, 2.0])[0]
        assert [kind for kind, _ in family] == ["gap_product"]
        assert (family[0][1].assembled.tobytes()
                == gap_block(t, 1, [atom, 2.0]).assembled.tobytes())

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
        assert np.linalg.norm(block - direct) <= 1e-9 * max(
            1.0, np.linalg.norm(direct))

    def test_shift_sum_identity(self):
        # lower + upper shifted blocks rebuild (M - m) times the Hankel
        t = table12(0, 6)
        low = moments.build_block("lower_shift", t, 2).assembled
        high = moments.build_block("upper_shift", t, 2).assembled
        hank = moments.build_block("hankel", t, 2).assembled
        np.testing.assert_allclose(low + high, (t.M - t.m) * hank, atol=1e-10)


def _no_apply(self, a):
    raise AssertionError("a map was applied outside the route oracle")


def log_scales(a):
    """The operand scales of the log blocks ``(deficit, upper, lower)`` of a
    positive definite ``A``, as the scalar suite judges them: ``rho^e``
    bounds ``Phi(A^e)``, and ``max(|log m|, |log M|)`` bounds ``log A``."""
    lam = linalg.hermitian_eig(a).eigenvalues
    rho = max(abs(lam[0]), abs(lam[-1]))
    log_m, log_M = np.log(lam[0]), np.log(lam[-1])
    log_size = max(abs(log_m), abs(log_M))
    powers = max(1.0, rho * rho)
    return (max(rho * rho, rho + log_size), (abs(log_M) + log_size) * powers,
            (log_size + abs(log_m)) * powers)


def random_table(k, real, seed, m=-0.7, M=1.3):
    """A table of random Hermitian ``k x k`` powers -1..8 on ``[m, M]``.

    Real tables store imaginary parts of ``+0.0`` and ``-0.0`` at random,
    so the blocks carry signed zeros that a bitwise comparison must match.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((10, k, k))
    if not real:
        g = g + 1j * rng.standard_normal((10, k, k))
    blocks = ((g + g.conj().transpose(0, 2, 1)) / 2.0).astype(np.complex128)
    if real:
        blocks.imag = np.copysign(0.0, rng.standard_normal(blocks.shape))
    return moments.MomentTable(k_min=-1, k_max=8, blocks=blocks, m=m, M=M)


#: Distinct eigenvalues in the interval of :func:`random_table`.
TABLE_SPECTRUM = np.array([-0.7, -0.2, 0.1, 0.9, 1.3])

#: Every kind but ``gap_product``, whose family comes from eigenvalues.
PLAIN_KINDS = tuple(kind for kind in moments.BLOCK_KINDS
                    if kind != "gap_product")


def looped_distinct_eigenvalues(values):
    """The per-value grouping loop that :func:`moments.distinct_eigenvalues`
    replaced: an oracle for its bits."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    if vals.size == 0:
        return vals
    width = max(vals[-1] - vals[0], np.finfo(float).tiny)
    groups = [[vals[0]]]
    for v in vals[1:]:
        if v - groups[-1][-1] <= moments.GAP_RTOL * width:
            groups[-1].append(v)
        else:
            groups.append([v])
    return np.array([np.mean(g) for g in groups])


class TestBuildBlocks:
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_family_equals_entrywise_blocks(self, k, real):
        t = random_table(k, real, seed=10 * k + real)
        lam = TABLE_SPECTRUM
        signed_zeros = 0
        for r in range(4):
            family = list(moments.build_blocks(t, r, PLAIN_KINDS,
                                               eigenvalues=lam))
            assert [kind for kind, _ in family] == (
                list(PLAIN_KINDS) + ["gap_product"] * (lam.size - 1))
            for i, (kind, block) in enumerate(family):
                pair, terms = None, None
                if kind == "gap_product":
                    g = i - len(PLAIN_KINDS)
                    pair = lam[g:g + 2]
                    s, u = float(pair[0]), float(pair[1])
                    terms = ((1, 2, None), (-1, 1, s + u), (1, 0, s * u))
                single = one_block(kind, t, r, pair)
                # an assembled block is the entrywise form itself, exactly
                # Hermitian because the table is: no Hermitian part is taken
                expected = entry_block(kind, t, r, pair)
                # bit for bit, signed zeros included
                assert block.assembled.dtype == expected.dtype
                assert block.assembled.tobytes() == expected.tobytes()
                assert single.assembled.tobytes() == expected.tobytes()
                assert block.scale == single.scale
                assert block.scale == pytest.approx(
                    operand_scale_oracle(kind, t, r, pair), rel=1e-14)
                if terms is not None:
                    # the scalar scale of one pair, as a float expression
                    assert block.scale == t.operand_scale(terms, r)
                zeros = expected.imag == 0.0
                signed_zeros += np.signbit(expected.imag[zeros]).sum()
        assert signed_zeros > 0 or not real

    @pytest.mark.parametrize("name", ["mixed", "chain", "all-equal"])
    def test_raw_eigenvalues_give_the_blocks_of_their_atoms(self, name):
        # build_blocks forms the atoms itself: A's raw eigenvalues and their
        # distinct_eigenvalues give the same family, byte for byte
        t = random_table(2, False, seed=5)
        raw = np.asarray(CLUSTERED[name]) - 0.5  # inside [m, M] = [-0.7, 1.3]
        atoms = moments.distinct_eigenvalues(raw)
        for r in range(3):
            got, want = (list(moments.build_blocks(t, r, ("hankel",),
                                                   eigenvalues=values))
                         for values in (raw, atoms))
            assert len(got) == len(want) == atoms.size
            for (kind, a), (kind2, b) in zip(got, want):
                assert (kind, a.scale) == (kind2, b.scale)
                assert a.assembled.tobytes() == b.assembled.tobytes()

    def test_one_gather_per_family_and_a_budget_of_one_block(self,
                                                             monkeypatch):
        t = random_table(3, False, seed=11)
        kinds = ("hankel", "lower_shift", "range_product_inv")
        gathers = []
        gather = moments._gather

        def counting(sequences, index):
            gathers.append(sequences.shape[0])
            return gather(sequences, index)

        monkeypatch.setattr(moments, "_gather", counting)

        def family():
            return [(kind, block.assembled.copy(), block.scale) for kind, block
                    in moments.build_blocks(t, 2, kinds,
                                            eigenvalues=TABLE_SPECTRUM)]

        whole = family()
        assert gathers == [len(kinds) + TABLE_SPECTRUM.size - 1]
        monkeypatch.setattr(moments, "GATHER_BUDGET", 1)
        gathers.clear()
        chunked = family()
        assert gathers == [1] * len(whole)
        for (kind, a, scale), (kind2, b, scale2) in zip(whole, chunked):
            assert (kind, scale) == (kind2, scale2)
            assert a.tobytes() == b.tobytes()

    def test_the_hankel_index_is_cached_and_read_only(self):
        index = moments._hankel_index(3)
        assert moments._hankel_index(3) is index
        with pytest.raises(ValueError):
            index[0, 0] = 1

    def test_arguments_are_checked_when_called(self):
        t = random_table(2, False, seed=3)
        with pytest.raises(ValueError, match="unknown block kind"):
            moments.build_blocks(t, 1, ("cauchy",))
        with pytest.raises(DomainError, match="non-negative"):
            moments.build_blocks(t, -1, ("hankel",))
        with pytest.raises(DomainError, match="eigenvalues"):
            moments.build_blocks(t, 1, ("gap_product",))

    @pytest.mark.parametrize("kind", moments.BLOCK_KINDS)
    def test_a_short_table_is_rejected_when_called(self, kind):
        # powers 0..4 hold no order-3 block: the family raises at the call,
        # with the error of the kind's block alone
        t = random_table(2, False, seed=3)
        short = replace(t, k_min=0, k_max=4, blocks=t.blocks[1:6])
        gap = kind == "gap_product"
        with pytest.raises(ShapeError) as single:
            one_block(kind, short, 3, TABLE_SPECTRUM[:2])
        with pytest.raises(ShapeError) as family:
            moments.build_blocks(short, 3, () if gap else (kind,),
                                 eigenvalues=TABLE_SPECTRUM if gap else None)
        assert str(family.value) == str(single.value)

    def test_gap_blocks_past_the_table_are_rejected_when_called(self):
        # powers 0..3 hold the order-1 hankel block (0..2) but not the gap
        # blocks, whose T(2) reads 2..4
        t = random_table(2, False, seed=3)
        short = replace(t, k_min=0, k_max=3, blocks=t.blocks[1:5])
        with pytest.raises(ShapeError, match=r"powers 2\.\.4 requested"):
            moments.build_blocks(short, 1, ("hankel",),
                                 eigenvalues=TABLE_SPECTRUM)
        one = list(moments.build_blocks(short, 1, ("hankel",),
                                        eigenvalues=TABLE_SPECTRUM[:1]))
        assert [kind for kind, _ in one] == ["hankel"]


#: Spectra with clusters narrower than ``GAP_RTOL`` times their width.
CLUSTERED = {
    "empty": [],
    "one": [1.5],
    "signed-zeros": [-0.0, 0.0, 0.0],
    "all-equal": [2.0, 2.0, 2.0, 2.0],
    "unsorted": [0.3, -1.0, 0.3 + 1e-12, 0.1],
    "mixed": [1.0, 1.0 + 1e-12, 1.0 + 2e-12, 3.0, 3.0 + 5e-9, 4.0],
    "chain": [0.0, 1e-9, 2e-9, 3e-9, 1.0],
}


class TestDistinctEigenvalues:
    @pytest.mark.parametrize("name", sorted(CLUSTERED))
    def test_same_bits_as_the_grouping_loop(self, name):
        values = CLUSTERED[name]
        assert (moments.distinct_eigenvalues(values).tobytes()
                == looped_distinct_eigenvalues(values).tobytes())

    @pytest.mark.parametrize("seed", range(20))
    def test_random_clusters(self, seed):
        rng = np.random.default_rng(seed)
        atoms = np.sort(rng.uniform(-2.0, 2.0, rng.integers(1, 6)))
        counts = rng.integers(1, 5, atoms.size)
        jitter = rng.uniform(-1e-9, 1e-9, counts.sum()) * rng.integers(0, 2)
        values = np.repeat(atoms, counts) + jitter
        got = moments.distinct_eigenvalues(values)
        assert got.tobytes() == looped_distinct_eigenvalues(values).tobytes()


class TestRefinementChain:
    @pytest.mark.parametrize("codomain", [1, 3])
    def test_gathered_chain_equals_block_form(self, codomain):
        a = linalg.hermitian_with_spectrum([0.4, 0.9, 1.5, 2.2], 51)
        pulm = maps.random_map("mixture", 4, k=codomain, seed=52)
        m = 0.35
        t = replace(moments.moment_table(pulm, a, 0, 4), m=m)
        T0, T1, T2 = (np.block([[t.power(d), t.power(d + 1)],
                                [t.power(d + 1), t.power(d + 2)]])
                      for d in range(3))
        diff, inner = moments.build_refinement_chain(t)
        # the outer block's terms, T2 - 2m T1 + m^2 T0, in order
        assert (diff.assembled.tobytes()
                == (T2 - 2.0 * m * T1 + m * m * T0).tobytes())
        assert (inner.assembled.tobytes()
                == (2.0 * m * T1 - m * m * T0).tobytes())
        # each block at the size of its terms, at degree 0 or 2
        assert diff.scale == t.operand_scale(
            ((1, 2, None), (1, 1, 2 * m), (-1, 0, m * m)), 1)
        assert inner.scale == t.operand_scale(((1, 1, 2 * m), (-1, 0, m * m)),
                                              1)

    @pytest.mark.parametrize("codomain", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_outer_block_is_the_gap_block_at_the_double_root(
            self, codomain, seed, monkeypatch):
        # Phi(A^e (A - mI)^2): build_blocks' gap_product block at s = t = m,
        # the pair its atoms never give, so they are stubbed to (m, m)
        t = random_table(codomain, seed % 2 == 0, seed, m=0.2 + 0.3 * seed)
        monkeypatch.setattr(moments, "distinct_eigenvalues",
                            lambda values: np.array([t.m, t.m]))
        (kind, gap), = moments.build_blocks(t, 1, eigenvalues=[t.m])
        outer, _ = moments.build_refinement_chain(t)
        assert kind == "gap_product"
        assert gap.scale == outer.scale
        assert gap.assembled.tobytes() == outer.assembled.tobytes()

    def test_single_atom_equality(self):
        c = 0.9
        t = moments.moment_table(maps.NormalizedTrace(1), [[c]], 0, 4)
        diff, _ = moments.build_refinement_chain(t)
        np.testing.assert_allclose(diff.assembled, 0.0, atol=1e-13)

    def test_two_point_spectrum_values(self):
        diff, inner = moments.build_refinement_chain(table12(0, 4))
        np.testing.assert_allclose(diff.assembled.real,
                                   [[0.5, 1.0], [1.0, 2.0]], atol=1e-13)
        np.testing.assert_allclose(inner.assembled.real,
                                   [[2.0, 3.5], [3.5, 6.5]], atol=1e-13)
        assert np.linalg.det(inner.assembled).real == pytest.approx(0.75)
        assert psd_at_own_norm(diff.assembled)
        assert psd_at_own_norm(inner.assembled)

    def test_vanishing_endpoint_limit(self):
        t = replace(table12(0, 4), m=1e-9)
        diff, inner = moments.build_refinement_chain(t)
        assert np.linalg.norm(inner.assembled) <= 1e-7
        assert psd_at_own_norm(diff.assembled)

    def test_requires_positive_m(self):
        t = moments.moment_table(TR2, np.diag([0.0, 2.0]), 0, 4)
        with pytest.raises(DomainError):
            moments.build_refinement_chain(t)


class TestLogBlocks:
    def test_deficit_single_atom_at_one(self):
        t1 = maps.NormalizedTrace(1)
        block = moments.build_log_deficit_block(t1, [[1.0]])
        np.testing.assert_allclose(block.assembled.real,
                                   [[1.0, 1.0], [1.0, 1.0]], atol=1e-13)
        assert psd_at_own_norm(block.assembled)

    def test_deficit_two_point_spectrum(self):
        e = np.e
        block = moments.build_log_deficit_block(TR2, np.diag([1.0, e]))
        expected = [[(1 + e * e) / 2, (1 + e) / 2], [(1 + e) / 2, e / 2]]
        np.testing.assert_allclose(block.assembled.real, expected, atol=1e-12)
        assert np.linalg.det(block.assembled).real == pytest.approx(
            2.2445497489494923, abs=1e-10)
        # Phi(A^2) is of size e^2, Phi(A) - Phi(log A) of size e + 1
        assert block.scale == max(e ** 2, e + 1.0)

    def test_deficit_is_psd_on_random_instances(self):
        for seed in range(5):
            a = linalg.hermitian_with_spectrum(
                np.random.default_rng(seed).uniform(0.2, 3.0, 4), seed)
            block = moments.build_log_deficit_block(maps.Identity(4), a)
            assert psd_at_own_norm(block.assembled)

    def test_deficit_requires_positive_definite(self):
        with pytest.raises(DomainError):
            moments.build_log_deficit_block(TR2, np.diag([1.0, -1.0]))

    def test_endpoint_blocks_vanish_at_matching_endpoint(self):
        upper, lower = moments.build_log_endpoint_blocks(TR3, 2.5 * np.eye(3))
        np.testing.assert_allclose(upper.assembled, np.zeros((2, 2)),
                                   atol=1e-12)
        np.testing.assert_allclose(lower.assembled, np.zeros((2, 2)),
                                   atol=1e-12)

    def test_endpoint_blocks_two_point_spectrum(self):
        upper, lower = moments.build_log_endpoint_blocks(TR2, DIAG12)
        l2 = np.log(2.0)
        np.testing.assert_allclose(upper.assembled.real,
                                   (l2 / 2) * np.ones((2, 2)), atol=1e-12)
        np.testing.assert_allclose(
            lower.assembled.real,
            (l2 / 2) * np.array([[1.0, 2.0], [2.0, 4.0]]), atol=1e-12)
        assert psd_at_own_norm(upper.assembled)
        assert psd_at_own_norm(lower.assembled)
        # (|log M| + log 2) rho^2 and (log 2 + |log m|) rho^2, rho = 2
        assert upper.scale == pytest.approx(8 * l2, rel=1e-15)
        assert lower.scale == pytest.approx(4 * l2, rel=1e-15)

    def test_endpoint_blocks_domain_errors(self):
        with pytest.raises(DomainError):
            moments.build_log_endpoint_blocks(TR2, np.diag([-1.0, 3.0]))
        with pytest.raises(DomainError):
            moments.build_log_endpoint_blocks(TR2, np.diag([0.0, 3.0]))

    def test_endpoint_blocks_apply_the_map_once_per_image(self, monkeypatch):
        # the six images are rows of one contraction of the eigenprojections'
        # images, with no apply; the off-diagonal image is shared, and the
        # blocks are the direct route's to rounding
        a = linalg.hermitian_with_spectrum([0.3, 1.1, 2.0, 2.7], 5)
        pulm = maps.random_map("compression", 4, k=2, seed=8)
        _, expected_upper, expected_lower = direct_log_blocks(pulm, a)

        calls = []
        images = maps.Compression.rank_one_images
        monkeypatch.setattr(maps.Compression, "rank_one_images",
                            lambda self, v: calls.append(v) or images(self, v))
        monkeypatch.setattr(maps.Compression, "apply", _no_apply)
        upper, lower = moments.build_log_endpoint_blocks(pulm, a)
        assert len(calls) == 1
        for block, expected, scale in zip((upper, lower),
                                          (expected_upper, expected_lower),
                                          log_scales(a)[1:]):
            block = block.assembled
            assert np.array_equal(block[:2, 2:], block[2:, :2])
            assert np.max(np.abs(block - expected)) <= 1e-12 * scale


class TestOneRoute:
    """Every image of a Hermitian or normal matrix comes from the spectral
    contraction; the direct route, the map applied to multiplied matrices,
    is route_agreement's alone."""

    @pytest.fixture
    def no_apply(self, monkeypatch):
        for kind in maps.MAP_KINDS:
            cls = type(maps.random_map(kind, 3, seed=0))
            monkeypatch.setattr(cls, "apply", _no_apply)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_no_map_is_applied_outside_route_agreement(self, kind, no_apply,
                                                       monkeypatch):
        pulm = maps.random_map(kind, 4, k=2, seed=21)
        a = linalg.random_hermitian(4, 22)
        pd = random_psd(4, 23) + np.eye(4)
        for matrix in (a, pd):
            records = moments.scalar_checks(pulm, matrix)
            assert [r.passed for r in records[:3]] == [True] * 3
        # normal input skips the Hermitian checks, and a functional passes
        # its centered fourth moment
        normal = linalg.random_normal_matrix(4, 24)
        by_check = {r.check: r.passed
                    for r in campaign.single_matrix_records(normal, pulm, 0)}
        assert ([by_check[c] for c in moments.HERMITIAN_SCALAR_CHECKS]
                == [None] * 6)
        assert by_check["centered_fourth_moment"] is (
            True if pulm.is_functional else None)
        moments.build_log_deficit_block(pulm, pd)
        moments.build_log_endpoint_blocks(pulm, pd)
        if pulm.is_functional:
            assert moments.psd_records(
                moments.build_centered_blocks(pulm, a, 2), 0, 1e-9)
        assert all(r.passed for r in campaign.normal_suite(0, normal, pulm))
        # file mode, with route_agreement, the oracle, stubbed
        route_error = campaign._route_error
        monkeypatch.setattr(campaign, "_route_error", lambda *args: 0.0)
        for matrix in (a, normal):
            records = campaign.single_matrix_records(matrix, pulm, 0, 2)
            assert "normal_block" in {r.check for r in records}
        with pytest.raises(AssertionError, match="route oracle"):
            route_error(pulm, a, 0, 4)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_scalar_powers_match_the_direct_route(self, kind):
        # Phi(A^k), k = -1..3, as scalar_checks reads them
        for seed in range(3):
            pulm = maps.random_map(kind, 6, k=3, seed=seed + 31)
            a = random_psd(6, seed + 32) + 0.5 * np.eye(6)
            spectrum = linalg.hermitian_eig(a)
            table = moments._table(
                pulm.rank_one_images(spectrum.eigenvectors),
                spectrum.eigenvalues, -1, 3)
            direct = direct_powers(pulm, a, -1, 3)
            for k in range(-1, 4):
                assert (np.max(np.abs(table.power(k) - direct[k + 1]))
                        <= 1e-12 * table.size(k))

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_log_blocks_match_the_direct_route(self, kind):
        for seed in range(3):
            pulm = maps.random_map(kind, 5, k=2, seed=seed + 40)
            a = random_psd(5, seed + 50) + 0.2 * np.eye(5)
            blocks = (moments.build_log_deficit_block(pulm, a),
                      *moments.build_log_endpoint_blocks(pulm, a))
            for block, expected, scale in zip(
                    blocks, direct_log_blocks(pulm, a), log_scales(a)):
                assert block.scale == pytest.approx(scale, rel=1e-15)
                assert (np.max(np.abs(block.assembled - expected))
                        <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["vector-state", "trace"])
    def test_centered_blocks_apply_the_map_once(self, kind, monkeypatch):
        # the mean and the centered table are contracted from one stack of
        # rank-one images, with no apply, and give bit for bit the blocks of
        # the route that formed a stack for each
        a = linalg.random_hermitian(5, 63)
        functional = maps.random_map(kind, 5, seed=64)
        spectrum = linalg.hermitian_eig(a)
        lam = spectrum.eigenvalues
        mean = float(moments.spectral_images(functional, spectrum,
                                             lam[np.newaxis])[0, 0, 0].real)
        table = moments._table(
            functional.rank_one_images(spectrum.eigenvectors), lam - mean,
            0, 6)
        expected = list(moments.build_blocks(table, 2, ("lower_shift",
                                                        "upper_shift")))

        cls, calls = type(functional), []
        images = cls.rank_one_images
        monkeypatch.setattr(cls, "rank_one_images",
                            lambda self, v: calls.append(v) or images(self, v))
        monkeypatch.setattr(cls, "apply", _no_apply)
        got = list(moments.build_centered_blocks(functional, a, 2))
        assert len(calls) == 1
        assert [name for name, _ in got] == [name for name, _ in expected]
        for (_, block), (_, want) in zip(got, expected):
            assert block.scale == want.scale
            assert block.assembled.tobytes() == want.assembled.tobytes()

    @pytest.mark.parametrize("kind", ["vector-state", "trace"])
    def test_centered_mean_matches_the_functional(self, kind):
        a = linalg.random_hermitian(5, 61)
        functional = maps.random_map(kind, 5, seed=62)
        spectrum = linalg.hermitian_eig(a)
        mean = moments.spectral_images(functional, spectrum,
                                       spectrum.eigenvalues[np.newaxis])
        assert mean.shape == (1, 1, 1)
        assert abs(mean[0, 0, 0] - functional.apply(a)[0, 0]) <= 1e-14 * max(
            abs(spectrum.min), abs(spectrum.max))


class TestNormalBlock:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("normal", [False, True])
    def test_gathered_block_equals_its_block_layout(self, k, normal):
        # the 3 x 3 grid of images laid out by np.block, bit for bit, for
        # the complex spectrum of a normal matrix and the real one of a
        # Hermitian matrix
        for seed in range(3):
            if normal:
                z, u = moments.normal_spectrum(
                    linalg.random_normal_matrix(5, seed))
            else:
                spectrum = linalg.hermitian_eig(linalg.random_hermitian(5,
                                                                        seed))
                z, u = spectrum.eigenvalues, spectrum.eigenvectors
            for kind in ("compression", "mixture"):
                pulm = maps.random_map(kind, 5, k=k, seed=seed + 70)
                x = np.stack([np.ones_like(z), z,
                              z.real * z.real + z.imag * z.imag])
                grid = moments._images(
                    pulm.rank_one_images(u),
                    (x.conj()[:, np.newaxis] * x).reshape(9, -1), "grid")
                layout = np.block([list(grid[p:p + 3]) for p in (0, 3, 6)])
                block = moments.build_normal_block(pulm, z, u)
                assert (block.assembled.tobytes()
                        == linalg.hermitian_part(layout).tobytes())
                assert block.scale == np.linalg.norm(layout)

    def test_hermitian_input_reduces_to_hankel_pattern(self):
        a = linalg.random_hermitian(3, 4)
        pulm = maps.random_map("compression", 3, k=2, seed=6)
        spectrum = linalg.hermitian_eig(a)
        block = moments.build_normal_block(pulm, spectrum.eigenvalues,
                                           spectrum.eigenvectors)
        assert block.scale == np.linalg.norm(block.assembled)
        block = block.assembled
        t = moments.moment_table(pulm, a, 0, 4)
        expected = np.block([
            [t.power(0), t.power(1), t.power(2)],
            [t.power(1), t.power(2), t.power(3)],
            [t.power(2), t.power(3), t.power(4)],
        ])
        assert np.linalg.norm(block - expected) <= 1e-8 * max(
            1.0, np.linalg.norm(expected))
        assert psd_at_own_norm(block)

    def test_conjugate_pair_spectrum(self):
        block = moments.build_normal_block(
            TR2, *moments.normal_spectrum(np.diag([1j, -1j]))).assembled
        expected = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=float)
        np.testing.assert_allclose(block.real, expected, atol=1e-14)
        np.testing.assert_allclose(block.imag, np.zeros((3, 3)), atol=1e-14)
        assert psd_at_own_norm(block)

    def test_random_normal_instances_are_psd(self):
        for seed in range(8):
            a = linalg.random_normal_matrix(4, seed)
            pulm = maps.random_map("vector-state", 4, seed=seed + 1)
            block = moments.build_normal_block(
                pulm, *moments.normal_spectrum(a)).assembled
            assert psd_at_own_norm(block)

    @pytest.mark.parametrize("z", [*CLUSTERED_SPECTRA, [1j, -1j, 0.5j, 2j],
                                   [0.5j, 2, 1 + 0.3j, 1 + 0.3j + 1e-9j]])
    @pytest.mark.parametrize("shift", [0.0, 3.0, 3j])
    @pytest.mark.parametrize("c", [1e-200, 1.0, 1e150])
    def test_joint_eigensolve_diagonalizes_a_clustered_spectrum(self, z,
                                                                shift, c):
        # the atoms of H are solved for K, and the atoms of K in them for H
        # where H spreads more (in the third spectrum K is scalar on a pair
        # of atom-mates of H, in the last H on one of K); the shifts put a
        # multiple of the identity to rounding in the atoms of H or of K,
        # and at c = 1e-200 and 1e150 the squares of the entries underflow
        # or overflow. A unitary U with U diag(z) U* = A gives A's
        # eigenvalues.
        z = c * (np.array(z) + shift)
        u0 = linalg.random_unitary(z.size, 9)
        a = (u0 * z) @ u0.conj().T
        got, u = moments.normal_spectrum(a)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(z.size),
                                   atol=1e-14)
        assert np.max(np.abs((u * got) @ u.conj().T - a)) <= 1e-14 * np.max(
            np.abs(z))

    def test_normal_routes_agree(self):
        # the spectral block and fourth moment against the direct products:
        # entrywise to 1e-12 of the block's scale, the slack to 1e-12 of
        # ||A||_F^4, and the same verdicts; the maps that are not positive
        # make some of them FAIL
        cases = [(c * a, pulm) for c in SCALES
                 for _, a, corpus_map in campaign.normal_corpus(200, 42)
                 for pulm in (corpus_map, ReflectedTrace(len(a)),
                              ReflectedState(len(a)))]
        for z in CLUSTERED_SPECTRA:
            u0 = linalg.random_unitary(len(z), 9)
            for kind in maps.MAP_KINDS:
                cases.append(((u0 * np.array(z)) @ u0.conj().T,
                              maps.random_map(kind, len(z), 2, seed=10)))
        for inst in campaign.corpus(200, 42):
            cases.append((inst.matrix, inst.pulm))
        failed = []
        for a, pulm in cases:
            # the dispatch of file mode: the full solve's symmetrize
            try:
                spectrum = linalg.hermitian_eig(a)
            except NotHermitianError:
                z, u = moments.normal_spectrum(a)
            else:
                z, u = spectrum.eigenvalues, spectrum.eigenvectors
            block, direct = (moments.build_normal_block(pulm, z, u),
                             direct_normal_block(pulm, a))
            assert (np.max(np.abs(block.assembled - direct.assembled))
                    <= 1e-12 * direct.scale)
            (got, expected) = (moments.psd_records([("normal_block", b)], 0,
                                                   1e-9)[0]
                               for b in (block, direct))
            assert got.passed is expected.passed
            failed.append(expected.passed is False)
            if pulm.is_functional:
                passed, slack = moments.centered_fourth_moment(pulm, z, u,
                                                               1e-9)
                scale = np.linalg.norm(a) ** 4
                expected = direct_centered_fourth_moment(pulm, a)
                assert abs(slack - expected) <= 1e-12 * scale
                assert passed is linalg.passes(expected, scale, 1e-9)
                failed.append(not passed)
        assert 0 < sum(failed) < len(failed)

    def test_rejects_non_normal(self):
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotNormalError):
            moments.normal_spectrum(shear)

    @pytest.mark.parametrize("c", [1e-150, 2.0 ** -40, 1.0, 1e100, 1e140])
    def test_normality_is_decided_at_every_scale(self, c):
        # decided on A scaled by a power of two: the commutator's norm can
        # neither overflow (read as "not normal" at 1e100 and 1e140) nor
        # underflow (read as "normal" at 1e-150)
        shear = np.array([[0.0, 1.0], [0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moments.normal_spectrum(c * linalg.random_normal_matrix(6, 5))
            with pytest.raises(NotNormalError,
                               match=r"not normal: \|\|A\*A - AA\*\|\|_F "
                                     r"= 1\.414e\+00 \* \|\|A\|\|_F\^2"):
                moments.normal_spectrum(c * shear)


#: Scales at which the blocks whose sizing moved into ``moments`` are shown
#: able to fail and to be tight.
SCALES = (1e-6, 1.0, 1e6)

_PD_CHECKS = ("refinement_chain_outer", "refinement_chain_inner",
              "log_deficit", "log_endpoint_upper", "log_endpoint_lower",
              "normal_block")

#: At c = 1e-6 no input of the grid fails the log deficit or the normal
#: block: each mixes degrees whose sizes differ by c^2 or more, and a scale
#: set by the largest degree swamps a violation in the smallest. The same
#: holds for centered_lower_shift. These are the gaps of the mixed-degree
#: scale, not of the witnesses.
_NO_WITNESS = {("log_deficit", 1e-6), ("normal_block", 1e-6),
               ("centered_lower_shift", 1e-6)}


def reflected_pd_records(c, n, seed):
    """Records of the positive definite blocks and the normal block of
    ``c (random_psd(n, seed) + 0.1 I)`` under :class:`ReflectedTrace`."""
    a = c * (random_psd(n, seed) + 0.1 * np.eye(n))
    pulm = ReflectedTrace(n)
    spectrum = linalg.hermitian_eig(a)
    blocks = (*moments.build_refinement_chain(moments.moment_table(pulm, a,
                                                                   0, 4)),
              moments.build_log_deficit_block(pulm, a),
              *moments.build_log_endpoint_blocks(pulm, a),
              moments.build_normal_block(pulm, spectrum.eigenvalues,
                                         spectrum.eigenvectors))
    return moments.psd_records(zip(_PD_CHECKS, blocks), 0, 1e-9)


def reflected_centered_records(c, n, seed, r):
    """Records of the centered blocks of ``c random_hermitian(n, seed)``
    under :class:`ReflectedState`."""
    return moments.psd_records(moments.build_centered_blocks(
        ReflectedState(n), c * linalg.random_hermitian(n, seed), r), 0, 1e-9,
        "centered_")


def centered_inputs():
    """``(functional, A, r)`` of the functional instances of the corpus and
    of the :class:`ReflectedState` controls of
    :func:`reflected_centered_records`."""
    for inst in campaign.corpus(200, 42):
        if inst.pulm.is_functional:
            yield inst.pulm, inst.matrix, inst.r
    for n in range(3, 7):
        for seed in range(1, 40):
            for r in (1, 2):
                yield ReflectedState(n), linalg.random_hermitian(n, seed), r


@pytest.mark.parametrize("c", SCALES)
def test_centered_blocks_match_the_centered_solve(c, monkeypatch):
    # A - phi(A) I has A's eigenvectors: contracting A's one solve at the
    # shifted eigenvalues gives the blocks of its own solve to rounding,
    # the same interval and the same verdicts
    tables = []
    build = moments.build_blocks
    monkeypatch.setattr(moments, "build_blocks",
                        lambda table, *args: tables.append(table)
                        or build(table, *args))
    failed = 0
    for pulm, a, r in centered_inputs():
        tables.clear()
        got = list(moments.build_centered_blocks(pulm, c * a, r))
        (table,) = tables
        want_table, want = centered_solve_blocks(pulm, c * a, r)
        assert (table.m, table.M) == (want_table.m, want_table.M)
        assert [kind for kind, _ in got] == [kind for kind, _ in want]
        for (_, block), (_, expected) in zip(got, want):
            assert block.scale == expected.scale
            assert (np.max(np.abs(block.assembled - expected.assembled))
                    <= 1e-12 * block.scale)
        verdicts = [rec.passed for rec in moments.psd_records(got, 0, 1e-9)]
        assert verdicts == [rec.passed
                            for rec in moments.psd_records(want, 0, 1e-9)]
        failed += verdicts.count(False)
    assert failed  # the controls fail under both routes


def test_centered_shift_blocks_are_congruent_to_the_plain_ones():
    # with mu = phi(A) and B = A - mu I, [phi(B^{i+j} (A - m))] = P L P^T
    # for the unipotent P = [C(i, a) (-mu)^{i-a}] and the plain lower_shift
    # block L, and so for upper_shift: the same inequality on a block
    # conditioned differently, so the verdicts agree, FAILs included
    failed = 0
    for n in range(3, 7):
        for seed in range(1, 40):
            pulm, a = ReflectedState(n), linalg.random_hermitian(n, seed)
            for r in (1, 2):
                table = moments.moment_table(pulm, a, 0, 2 * r + 2)
                plain = list(moments.build_blocks(
                    table, r, ("lower_shift", "upper_shift")))
                centered = list(moments.build_centered_blocks(pulm, a, r))
                mu = table.power(1)[0, 0].real
                p = np.array([[math.comb(i, j) * (-mu) ** (i - j) if j <= i
                               else 0.0 for j in range(r + 1)]
                              for i in range(r + 1)])
                for (_, block), (_, expected) in zip(plain, centered):
                    assert (np.max(np.abs(p @ block.assembled @ p.T
                                          - expected.assembled))
                            <= 1e-13 * expected.scale)
                verdicts = [rec.passed
                            for rec in moments.psd_records(plain, 0, 1e-9)]
                assert verdicts == [
                    rec.passed for rec in moments.psd_records(centered, 0, 1e-9)]
                failed += verdicts.count(False)
    assert failed  # 150 of the 624 pairs fail under both


class TestMovedBlockWitnesses:
    """Every block that a builder sizes can fail under a unital map that is
    not positive, and is tight where its inequality is an equality, at
    every scale where an input shows it."""

    @pytest.mark.parametrize("check,c", [
        (check, c) for check in _PD_CHECKS for c in SCALES
        if (check, c) not in _NO_WITNESS])
    def test_pd_block_fails_under_the_reflected_trace(self, check, c):
        # n = 2..5 and seeds 1..29: 116 inputs
        assert any(rec.check == check and rec.passed is False
                   for n in range(2, 6) for seed in range(1, 30)
                   for rec in reflected_pd_records(c, n, seed))

    @pytest.mark.parametrize("check,c", [
        (check, c) for check in ("centered_lower_shift", "centered_upper_shift")
        for c in SCALES if (check, c) not in _NO_WITNESS])
    def test_centered_block_fails_under_a_reflected_state(self, check, c):
        # n = 3..6, seeds 1..39 and r = 1, 2: 312 inputs
        assert any(rec.check == check and rec.passed is False
                   for n in range(3, 7) for seed in range(1, 40)
                   for r in (1, 2)
                   for rec in reflected_centered_records(c, n, seed, r))

    @pytest.mark.parametrize("kind", ["trace", "identity",
                                      "compression"])
    @pytest.mark.parametrize("c", SCALES)
    def test_chain_and_endpoints_are_tight_on_a_multiple_of_identity(
            self, kind, c):
        pulm = maps.random_map(kind, 3, k=2, seed=3)
        a = c * np.eye(3)
        chain = moments.build_refinement_chain(moments.moment_table(pulm, a,
                                                                    0, 4))
        records = moments.psd_records(
            zip(("refinement_chain_outer", "refinement_chain_inner"), chain),
            0, 1e-9)
        for rec, block in zip(records, chain):
            assert rec.passed and abs(rec.margin) <= 1e-15 * block.scale
        # log M - log A and log A - log m vanish exactly
        records = moments.psd_records(
            zip(("log_endpoint_upper", "log_endpoint_lower"),
                moments.build_log_endpoint_blocks(pulm, a)), 0, 1e-9)
        assert [(rec.passed, rec.margin) for rec in records] == [(True, 0.0)] * 2

    def test_centered_blocks_need_a_functional(self):
        # the mean phi(A) is the 1x1 image; a matrix image has none
        with pytest.raises(ShapeError, match="functional"):
            moments.build_centered_blocks(maps.Identity(3), np.eye(3), 1)

    def test_the_centered_fourth_moment_needs_a_functional(self):
        z, u = moments.normal_spectrum(np.diag([1j, -1j]))
        with pytest.raises(ShapeError, match="needs a functional"):
            moments.centered_fourth_moment(maps.Identity(2), z, u, 1e-9)

    @pytest.mark.parametrize("kind", ["trace", "identity",
                                      "compression"])
    def test_log_deficit_is_tight_at_the_identity(self, kind):
        pulm = maps.random_map(kind, 3, k=2, seed=3)
        block = moments.build_log_deficit_block(pulm, np.eye(3))
        (rec,) = moments.psd_records([("log_deficit", block)], 0, 1e-9)
        assert rec.passed and block.scale == 1.0
        # [[I, I], [I, I]]; a compression's V* V is I only to rounding
        if kind == "compression":
            assert abs(rec.margin) <= 1e-15
        else:
            assert rec.margin == 0.0


class TestPsdRecords:
    @pytest.mark.parametrize("argv", [
        ["verify", "--random", "--instances", "12"],
        ["verify", "hermitian.json"],
        ["verify", "normal.json"],
        ["moments", "hermitian.json"],
    ], ids=["random", "hermitian-file", "normal-file", "moments"])
    def test_every_verdict_is_one_is_psd_call(self, tmp_path, monkeypatch,
                                              capsys, argv):
        # each applicable PSD record is the outcome of one linalg.is_psd
        # call, in order, and is_psd judges nothing else
        for name, m in (("hermitian.json", linalg.random_hermitian(6, 1)),
                        ("normal.json", linalg.random_normal_matrix(6, 5))):
            (tmp_path / name).write_text(cli.write_matrix_json(m))
        verdicts, judged = [], []
        is_psd, psd_records = linalg.is_psd, moments.psd_records

        def spy_is_psd(m, tol, scale):
            verdicts.append(is_psd(m, tol, scale))
            return verdicts[-1]

        def spy_psd_records(blocks, seed, tol, prefix=""):
            out = psd_records(blocks, seed, tol, prefix)
            judged.extend(rec for rec in out if rec.passed is not None)
            return out

        monkeypatch.setattr(moments, "is_psd", spy_is_psd)
        for module in (moments, campaign):
            monkeypatch.setattr(module, "psd_records", spy_psd_records)
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(judged) > 0
        assert ([(rec.passed, rec.margin) for rec in judged]
                == [(passed, float(lam)) for passed, lam in verdicts])


class TestScalarChecks:
    def test_an_infinite_tolerance_is_rejected(self):
        # it would pass any slack, the centered fourth moment's included
        with pytest.raises(ValueError, match="tolerance"):
            campaign.normal_suite(0, linalg.random_normal_matrix(3, 1), TR3,
                                  tol=math.inf)

    def test_normal_input_is_not_hermitian(self):
        # a normal matrix has its own route, campaign.normal_suite
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            moments.scalar_checks(TR3, linalg.random_normal_matrix(3, 1))

    @pytest.mark.parametrize("c", [1e100, 1e150])
    def test_overflowing_normal_moments_are_a_domain_error(self, c):
        a = c * np.diag([1j, -1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z, u = moments.normal_spectrum(a)
            with pytest.raises(DomainError, match="overflow"):
                moments.centered_fourth_moment(TR2, z, u, 1e-9)
            with pytest.raises(DomainError, match="overflow"):
                moments.build_normal_block(TR2, z, u)

    def test_a_block_with_an_infinite_scale_is_a_domain_error(self):
        # an infinite scale would pass any block; it is rejected before the
        # eigensolve, whatever the block holds
        block = moments.BlockMatrixSpec(np.full((2, 2), np.inf), math.inf)
        with pytest.raises(DomainError, match="kadison operands overflow"):
            moments.psd_records([("kadison", block)], 0, 1e-9)

    def test_variance_equality_on_symmetric_two_point_spectrum(self):
        results = {r.check: r for r in moments.scalar_checks(TR2, np.diag([0.0, 1.0]))}
        assert results["kadison"].passed
        assert results["kadison"].margin == pytest.approx(0.25, abs=1e-14)
        # both variance bounds are tight: 0.25 = ((1-0)/2)^2 = (0.5)(0.5)
        assert results["variance_range"].margin == pytest.approx(0.0, abs=1e-12)
        assert results["variance_endpoints"].margin == pytest.approx(0.0, abs=1e-12)

    def test_third_moment_single_atom_equality(self):
        # the state sees the one atom c of the spectrum {m, c} = {0.5, 1.3}
        c = 1.3
        state = maps.VectorState([0.0, 1.0])
        results = {r.check: r
                   for r in moments.scalar_checks(state, np.diag([0.5, c]))}
        res = results["third_moment_lower"]
        assert res.passed is True
        # one-point measure: phi(A^3) equals m c^2 + c^2 (c - m) exactly
        assert res.margin == pytest.approx(0.0, abs=1e-12)

    def test_third_moment_two_point_arithmetic(self):
        # weights 1/2 on the atoms 1 and 2 of the spectrum {0.5, 1, 2}
        e = np.eye(3)
        phi = maps.Mixture(((0.5, e[:, 1:2]), (0.5, e[:, 2:3])))
        results = {r.check: r
                   for r in moments.scalar_checks(phi, np.diag([0.5, 1.0, 2.0]))}
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

    @pytest.mark.parametrize("c", [1e60, 1e90])
    def test_an_overflowing_scale_is_a_domain_error(self, c):
        # the Schur term's norm overflows at 1e60, and the variance block's
        # too at 1e90: an error either way, with no numpy warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                moments.scalar_checks(TR3, c * np.diag([-1.0, 0.5, 2.0]))

    @pytest.mark.parametrize("kind, n, c", [("compression", 2, 1e3),
                                            ("vector-state", 3, 1e7)])
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

    @pytest.mark.parametrize("m, pd", [(1e-8, True), (1e-10, False)])
    def test_inverse_moment_needs_kappa_tol_below_1(self, m, pd):
        # kappa = 1/m on [m, 1]: at 1e10 the inverse power is good to only
        # about eps kappa = 2e-6, and no verdict at tol 1e-9 is possible
        results = {r.check: r
                   for r in moments.scalar_checks(TR2, np.diag([m, 1.0]))}
        assert (results["inverse_moment"].passed is not None) is pd
        assert results["inverse_moment"].passed is not False

    def test_inverse_moment_skipped_for_indefinite(self):
        results = {r.check: r
                   for r in moments.scalar_checks(TR2, np.diag([-1.0, 1.0]))}
        res = results["inverse_moment"]
        assert res.passed is None

    def test_centered_fourth_moment_equality(self):
        # B = A, |B|^2 = I: phi(|B|^4) = 1 = 0 + 1^2
        passed, slack = moments.centered_fourth_moment(
            TR2, *moments.normal_spectrum(np.diag([1.0, -1.0])), 1e-9)
        assert passed and slack == pytest.approx(0.0, abs=1e-14)

    def test_centered_fourth_moment_on_normal_input(self):
        a = linalg.random_normal_matrix(4, 6)
        x = maps.random_map("vector-state", 4, seed=7)
        results = {r.check: r
                   for r in campaign.single_matrix_records(a, x, seed=0)}
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
        passed, slack = moments.centered_fourth_moment(
            maps.VectorState(e1), *moments.normal_spectrum(a), 1e-9)
        assert passed and slack == pytest.approx(0.0, abs=1e-14)


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
        assert psd_at_own_norm(out)

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(-3, 3), up=st.floats(0, 2), down=st.floats(0, 2),
           r=st.integers(0, 3))
    def test_bracket_is_psd(self, y, up, down, r):
        out = scalar_bracket_hankel(y + up, y, y - down, r)
        assert psd_at_own_norm(out)

    def test_weighted_scalar_hankels_rebuild_shift_and_range_blocks(self):
        # a functional's lower_shift and range_product blocks are the
        # spectral-weight averages of the scalar oracles at each eigenvalue
        a = linalg.random_hermitian(4, 33)
        x = maps.random_map("vector-state", 4, seed=34)
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
        x = maps.random_map("vector-state", 4, seed=32)
        spectrum = linalg.hermitian_eig(a)
        t = moments.moment_table(x, a, 0, 6)
        hank = moments.build_block("hankel", t, 3).assembled.real
        acc = np.zeros((4, 4))
        for lam, v in zip(spectrum.eigenvalues, spectrum.eigenvectors.T):
            w = x.apply(np.outer(v, v.conj()))[0, 0].real
            pv = np.array([lam ** k for k in range(4)])
            acc += w * np.outer(pv, pv)
        assert np.max(np.abs(acc - hank)) <= 1e-9

import numpy as np
import pytest

from momenta import linalg, maps, moments
from momenta.errors import DomainError, ShapeError

from conftest import (EXAMPLE_3X3, Blend, ReflectedState, ReflectedTrace,
                      direct_images, peak_bytes, psd_at_own_norm, random_psd,
                      rank_one_positivity_failures)


def all_variants(n=4, seed=7):
    return [maps.random_map(kind, n, k=2, seed=seed) for kind in maps.MAP_KINDS]


#: A 4x4 unitary whose columns build the payloads of the keyword test.
U4 = linalg.random_unitary(4, 3)


def _bits(value):
    """``value`` with every array as its shape, dtype and bytes, nested in
    tuples as given, for an exact comparison."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, value.tobytes()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


class TestApply:
    def test_identity_map(self):
        a = linalg.random_hermitian(3, 1)
        np.testing.assert_array_equal(maps.Identity(3).apply(a), a)

    def test_vector_state_picks_corner_entry(self):
        e1 = np.zeros(3)
        e1[0] = 1.0
        out = maps.VectorState(e1).apply(EXAMPLE_3X3)
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(3.0)

    def test_normalized_trace_of_example(self):
        out = maps.NormalizedTrace(3).apply(EXAMPLE_3X3)
        assert out[0, 0] == pytest.approx(0.0, abs=1e-14)  # (3 - 6 + 3)/3

    def test_compression(self):
        v = linalg.random_unitary(4, 3)[:, :2]
        a = linalg.random_hermitian(4, 5)
        np.testing.assert_allclose(maps.Compression(v).apply(a),
                                   v.conj().T @ a @ v)

    def test_pinching_zeroes_off_blocks(self):
        p = maps.Pinching(((0, 2), (1,)))
        a = np.arange(9.0).reshape(3, 3) + 0j
        out = p.apply(a)
        assert out[0, 2] == a[0, 2] and out[2, 0] == a[2, 0]
        assert out[0, 1] == 0.0 and out[1, 2] == 0.0
        np.testing.assert_array_equal(np.diag(out), np.diag(a))

    @pytest.mark.parametrize("kind, k", [("identity", None),
                                         ("pinching", None),
                                         ("compression", 96)])
    def test_a_moment_table_holds_no_stack_of_rank_one_images(self, kind, k):
        # with a warm memo, below half of one (n, n, n) complex stack: the
        # powers are contracted from W = K* V, one (K, k, n) product
        n = 96
        pulm = maps.random_map(kind, n, k=k, seed=3)
        a = linalg.random_hermitian(n, 1)
        moments.moment_table(pulm, a, 0, 8)
        _, peak = peak_bytes(lambda: moments.moment_table(pulm, a, 0, 8))
        assert peak < n ** 3 * 16 / 2

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            maps.NormalizedTrace(3).apply(np.eye(2))

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_hermitian_preservation(self, kind):
        pulm = maps.random_map(kind, 4, k=2, seed=11)
        a = linalg.random_hermitian(4, 13)
        out = pulm.apply(a)
        scale = max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(out - out.conj().T) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_positivity_on_psd(self, kind):
        pulm = maps.random_map(kind, 4, k=3, seed=23)
        for seed in range(5):
            image = pulm.apply(random_psd(4, seed))
            assert psd_at_own_norm(image)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_linearity(self, kind):
        pulm = maps.random_map(kind, 3, k=2, seed=31)
        a = linalg.random_hermitian(3, 41)
        b = linalg.random_hermitian(3, 43)
        alpha, beta = 0.7, -2.5
        left = pulm.apply(alpha * a + beta * b)
        right = alpha * pulm.apply(a) + beta * pulm.apply(b)
        scale = max(1.0, np.linalg.norm(right))
        assert np.linalg.norm(left - right) <= 1e-10 * scale

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_square_moment_dominates(self, kind):
        # Phi(A^2) - Phi(A)^2 is PSD for every variant
        pulm = maps.random_map(kind, 5, k=2, seed=53)
        for seed in range(5):
            a = linalg.random_hermitian(5, 1000 + seed)
            diff = pulm.apply(a @ a) - np.linalg.matrix_power(pulm.apply(a), 2)
            assert psd_at_own_norm(linalg.hermitian_part(diff))


class TestConstruction:
    def test_mixture_unitality_enforced(self):
        v = linalg.random_unitary(4, 1)[:, :2]
        with pytest.raises(DomainError):
            maps.Mixture(((0.9, v), (0.5, v)))

    def test_mixture_weight_sign(self):
        v = linalg.random_unitary(4, 1)[:, :2]
        with pytest.raises(DomainError):
            maps.Mixture(((-1.0, v), (2.0, v)))

    def test_pinching_partition_must_cover(self):
        with pytest.raises(ShapeError):
            maps.Pinching(((0, 2),))
        with pytest.raises(ShapeError):
            maps.Pinching(((0, 1), (1, 2)))

    def test_compression_must_be_tall(self):
        with pytest.raises(ShapeError):
            maps.Compression(np.ones((2, 3)))

    @pytest.mark.parametrize("build, error, message", [
        (lambda: maps.Identity(0), ShapeError, "at least 1"),
        (lambda: maps.NormalizedTrace(0), ShapeError, "at least 1"),
        (lambda: maps.Mixture(()), ShapeError, "at least one term"),
        (lambda: maps.Mixture(((0.5, np.eye(2)), (0.5, np.eye(3)))),
         ShapeError, "share one shape"),
        (lambda: maps.Compression(np.ones(3)), ShapeError, "2-D"),
        (lambda: maps.Compression([[np.nan], [1.0]]), DomainError,
         "non-finite"),
        (lambda: maps.VectorState([]), DomainError, "non-empty and finite"),
        (lambda: maps.VectorState([np.inf, 0.0]), DomainError,
         "non-empty and finite"),
    ], ids=["identity-0", "trace-0", "empty-mixture", "two-shape-mixture",
            "one-dimensional-isometry", "non-finite-isometry",
            "empty-state", "non-finite-state"])
    def test_malformed_payload_is_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    @pytest.mark.parametrize("cls, name, payload", [
        (maps.Identity, "n", 3),
        (maps.Compression, "isometry", U4[:, :2]),
        (maps.Mixture, "terms", ((0.25, U4[:, :2]), (0.75, U4[:, 2:]))),
        (maps.Pinching, "blocks", ((0, 2), (1, 3))),
        (maps.VectorState, "vector", U4[:, 1]),
        (maps.NormalizedTrace, "n", 3),
    ], ids=lambda v: v.__name__ if isinstance(v, type) else None)
    def test_a_keyword_payload_builds_the_positional_map(self, cls, name,
                                                         payload):
        # every field, the factors and a pinching's mask included, bit for bit
        by_position, by_keyword = cls(payload), cls(**{name: payload})
        assert ({k: _bits(v) for k, v in vars(by_keyword).items()}
                == {k: _bits(v) for k, v in vars(by_position).items()})


#: The maps stored as their Kraus operators, and the two that keep their own
#: contractions (n projections, n vectors).
FACTOR_MAPS = (maps.Identity, maps.Compression, maps.Mixture, maps.VectorState)
OWN_CONTRACTION_MAPS = (maps.Pinching, maps.NormalizedTrace)


def kraus_maps():
    """One map of each factor class, built from its payload: the identity,
    a compression, a two-term mixture of unequal weights and a vector
    state."""
    u = linalg.random_unitary(4, 3)
    return {
        "identity": maps.Identity(4),
        "compression": maps.Compression(u[:, :2]),
        "mixture": maps.Mixture(((0.25, u[:, :2]), (0.75, u[:, 2:]))),
        "vector-state": maps.VectorState(u[:, 1]),
    }


class TestFactorForm:
    """``Identity``, ``Compression``, ``Mixture`` and ``VectorState`` are
    their Kraus operators ``K_i``: the base class derives their dimensions
    and images from them, the identity's images aside, and no weight is
    stored."""

    @pytest.mark.parametrize("cls", FACTOR_MAPS + OWN_CONTRACTION_MAPS)
    def test_every_map_defines_its_own_apply(self, cls):
        # the map's definition and route_agreement's direct route, wrapped
        # per class by the benchmark's tracer
        assert "apply" in vars(cls)

    @pytest.mark.parametrize("cls", FACTOR_MAPS[1:])
    def test_a_factor_map_binds_the_base_apply(self, cls):
        # sum_i K_i* A K_i once, for all three; the identity copies A
        assert vars(cls)["apply"] is maps.PositiveUnitalMap.apply

    @pytest.mark.parametrize("cls", FACTOR_MAPS)
    def test_a_factor_map_inherits_its_shape_and_contraction(self, cls):
        # the identity contracts V itself, with no product I* V
        own = {"domain_dim", "codomain_dim", "images"} & set(vars(cls))
        assert own == ({"images"} if cls is maps.Identity else set())

    @pytest.mark.parametrize("name", sorted(kraus_maps()))
    def test_the_kraus_operators_are_unital_and_define_apply(self, name):
        pulm = kraus_maps()[name]
        total = sum(k.conj().T @ k for k in pulm.factors)
        assert (np.linalg.norm(total - np.eye(pulm.codomain_dim))
                <= maps.UNITALITY_TOL)
        a = linalg.random_hermitian(4, 9) + 1j * np.triu(np.ones((4, 4)))
        np.testing.assert_allclose(
            pulm.apply(a), sum(k.conj().T @ a @ k for k in pulm.factors),
            rtol=0, atol=1e-13)

    @pytest.mark.parametrize("name", ["identity", "compression",
                                      "vector-state"])
    def test_one_factor_images_are_one_contraction_bit_for_bit(self, name):
        # of W = K* V, which for the identity is V itself
        pulm = kraus_maps()[name]
        (k,) = pulm.factors
        v = linalg.random_unitary(4, 5)[:, :3]
        values = np.random.default_rng(6).standard_normal((5, 3))
        w = v if name == "identity" else k.conj().T @ v
        np.testing.assert_array_equal(pulm.images(v, values),
                                      maps._contract(w, values))

    def test_mixture_weights_are_folded_into_its_kraus_operators(self):
        # the payload of kraus_maps' mixture; the map keeps no copy of it
        u = linalg.random_unitary(4, 3)
        terms = ((0.25, u[:, :2]), (0.75, u[:, 2:]))
        pulm = kraus_maps()["mixture"]
        assert list(vars(pulm)) == ["factors"]
        for (w, v), k in zip(terms, pulm.factors):
            np.testing.assert_allclose(k, np.sqrt(w) * v, rtol=0, atol=1e-15)
        x = linalg.random_unitary(4, 5)
        expected = sum(w * maps._contract(v.conj().T @ x, np.eye(4))
                       for w, v in terms)
        np.testing.assert_allclose(pulm.images(x, np.eye(4)), expected,
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_a_weight_that_is_not_positive_and_finite_is_rejected(self,
                                                                  weight):
        with pytest.raises(DomainError, match="positive and finite"):
            maps.Mixture(((weight, np.eye(2)),))


#: Every map kind and the three controls of the tests, at n = 5.
IMAGE_MAPS = {
    **{kind: lambda kind=kind: maps.random_map(kind, 5, k=3, seed=21)
       for kind in maps.MAP_KINDS},
    "reflected-trace": lambda: ReflectedTrace(5),
    "reflected-state": lambda: ReflectedState(5),
    "blend": lambda: Blend(maps.NormalizedTrace(5), ReflectedState(5), 0.4),
}


def image_values(case, m):
    """The values of one ``images`` case over ``m`` vectors: real ones, the
    complex ones of ``moments.build_normal_block``, or ``I``."""
    rng = np.random.default_rng(22)
    if case == "real":
        return rng.standard_normal((4, m))
    if case == "complex":
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        x = np.stack([np.ones_like(z), z, z.real * z.real + z.imag * z.imag])
        return (x.conj()[:, np.newaxis] * x).reshape(9, -1)
    return np.eye(m)


class TestImages:
    """``images(V, values)`` of every map is its direct route, the sum of
    ``values[p, j] Phi(v_j v_j*)``, to a few ulps of that sum's size."""

    @pytest.mark.parametrize("case", ["real", "complex", "identity"])
    @pytest.mark.parametrize("m", [5, 3])
    @pytest.mark.parametrize("name", sorted(IMAGE_MAPS))
    def test_images_are_the_direct_route(self, name, m, case):
        pulm = IMAGE_MAPS[name]()
        vectors = linalg.random_unitary(5, 23)[:, :m]
        values = image_values(case, m)
        got = pulm.images(vectors, values)
        k = pulm.codomain_dim
        assert got.shape == (len(values), k, k)
        # the controls' images are at most 3 in size, as 2 tr(v v*)/n + |v|^2
        size = 3.0 * np.abs(values).sum(axis=1).max()
        assert (np.max(np.abs(got - direct_images(pulm, vectors, values)))
                <= 4 * np.finfo(float).eps * size)


#: Every functional of the package, a 1x1 codomain by construction or by
#: size, and the three controls at a 1x1 codomain.
FUNCTIONALS = {
    "trace": lambda: maps.random_map("trace", 4),
    "vector-state": lambda: maps.random_map("vector-state", 4, seed=24),
    "compression:1": lambda: maps.random_map("compression", 4, k=1, seed=24),
    "mixture:1": lambda: maps.random_map("mixture", 4, k=1, seed=24),
    "identity-1": lambda: maps.Identity(1),
    "pinching-1": lambda: maps.random_map("pinching", 1, seed=24),
    "reflected-trace-1": lambda: ReflectedTrace(1),
    "reflected-state": lambda: ReflectedState(4),
    "blend": lambda: Blend(maps.NormalizedTrace(4), ReflectedState(4), 0.4),
}


class TestWeights:
    """``weights(V)`` is a functional's ``images(V, I)``, real and flat."""

    @pytest.mark.parametrize("m", [4, 2])
    @pytest.mark.parametrize("name", sorted(FUNCTIONALS))
    def test_weights_are_the_images_at_the_identity_bit_for_bit(self, name,
                                                                 m):
        pulm = FUNCTIONALS[name]()
        n = pulm.domain_dim
        vectors = linalg.random_unitary(n, 25)[:, :min(m, n)]
        expected = pulm.images(vectors, np.eye(vectors.shape[1])).real.ravel()
        assert _bits(pulm.weights(vectors)) == _bits(expected)

    @pytest.mark.parametrize("kind", ["identity", "pinching", "compression"])
    def test_a_map_with_a_matrix_codomain_has_no_weights(self, kind):
        pulm = maps.random_map(kind, 3, k=2, seed=26)
        with pytest.raises(ShapeError, match="needs a functional"):
            pulm.weights(np.eye(3))


class TestUnitalityAtConstruction:
    """The factor maps raise where they are built unless
    ``sum_i K_i* K_i = I``; there is no after-the-fact validator."""

    def test_scaled_identity_compression_is_rejected(self):
        with pytest.raises(DomainError, match="compression is not unital"):
            maps.Compression(2.0 * np.eye(3))

    def test_non_orthogonal_compression_is_rejected(self):
        # unit columns that are not orthogonal: V*V has off-diagonal 1/2
        v = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)], [0.0, 0.0]])
        with pytest.raises(DomainError, match="compression is not unital"):
            maps.Compression(v)

    @pytest.mark.parametrize("v", [[[1e200, 1e200], [1e200, -1e200]],
                                   [[1e200], [0.0]]],
                             ids=["nan-gram", "inf-gram"])
    def test_an_overflowing_unitality_sum_is_rejected(self, v):
        # K*K overflows to a NaN or an infinite entry; neither is unital
        with pytest.raises(DomainError, match="compression is not unital"):
            maps.Compression(np.array(v))

    def test_unnormalized_vector_state_is_rejected(self):
        with pytest.raises(DomainError, match="vector state is not unital"):
            maps.VectorState(np.array([1.0, 1.0]))

    def test_unitality_is_checked_within_its_tolerance(self):
        # a residual below UNITALITY_TOL is rounding; one above it is not
        x = np.array([1.0, 0.0]) * (1.0 + 0.4 * maps.UNITALITY_TOL)
        assert maps.VectorState(x).domain_dim == 2
        with pytest.raises(DomainError):
            maps.VectorState(np.array([1.0, 0.0]) * (1.0 + maps.UNITALITY_TOL))

    def test_the_identity_is_checked_too(self, monkeypatch):
        checked = []
        monkeypatch.setattr(maps, "_require_unital",
                            lambda what, factors: checked.append(what))
        pulm = maps.Identity(3)
        assert checked == ["identity"]
        assert len(pulm.factors) == 1
        np.testing.assert_array_equal(pulm.factors[0], np.eye(3))

    def test_pinching_is_unital(self):
        pinching = maps.Pinching(((0,), (1, 2)))
        residual = np.linalg.norm(pinching.apply(np.eye(3)) - np.eye(3))
        assert residual <= 1e-14

    def test_complementary_mixture_is_unital(self):
        # two isometries onto complementary column spans, equal weights
        u = linalg.random_unitary(4, 17)
        mix = maps.Mixture(((0.5, u[:, :2]), (0.5, u[:, 2:])))
        np.testing.assert_allclose(mix.apply(np.eye(4)), np.eye(2),
                                   atol=1e-14)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_every_kind_maps_the_identity_to_the_identity(self, kind, n):
        # far inside UNITALITY_TOL: the random maps are unital to rounding
        pulm = maps.random_map(kind, n, k=min(n, 3), seed=77)
        k = pulm.codomain_dim
        residual = np.linalg.norm(pulm.apply(np.eye(n)) - np.eye(k))
        assert residual <= 1e-14


class TestRankOnePositivity:
    """The positivity spot check of the tests: every image ``Phi(v v*)`` of
    the standard basis and of seeded random unit vectors is PSD."""

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_kind_passes(self, kind, n):
        pulm = maps.random_map(kind, n, k=max(1, n // 2), seed=5 + n)
        assert rank_one_positivity_failures(pulm, seed=n) == 0

    @pytest.mark.parametrize("control", [ReflectedTrace, ReflectedState])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_negative_controls_fail(self, control, n):
        # the image of e_0 e_0* has the eigenvalue 2/n - 1 < 0
        assert rank_one_positivity_failures(control(n), seed=n) >= 1

    def test_the_near_positive_blend_is_unital_and_just_not_positive(self):
        # a third of ReflectedState sends e_0 e_0* to 0; a little more, below
        blend = Blend(maps.NormalizedTrace(4), ReflectedState(4),
                      (1.0 + 1e-3) / 3.0)
        assert blend.apply(np.eye(4)) == pytest.approx(1.0, abs=1e-15)
        images = blend.images(np.eye(4), np.eye(4)).ravel()
        assert images[0] == pytest.approx(-2.5e-4, rel=1e-9)
        assert np.all(images[1:] > 0.0)
        np.testing.assert_allclose(
            blend.apply(np.diag([1.0, 0, 0, 0])), [[images[0]]], atol=1e-17)


class TestRandomMap:
    def test_square_compression_is_unitary_conjugation(self):
        pulm = maps.random_map("compression", 3, k=3, seed=2)
        (v,) = pulm.factors
        assert np.linalg.norm(v.conj().T @ v - np.eye(3)) <= 1e-12
        assert np.linalg.norm(v @ v.conj().T - np.eye(3)) <= 1e-12

    def test_vector_state_is_normalized(self):
        pulm = maps.random_map("vector-state", 3, seed=7)
        (x,) = pulm.factors
        assert x.shape == (3, 1)
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-12

    def test_deterministic(self):
        a = maps.random_map("pinching", 6, seed=9)
        b = maps.random_map("pinching", 6, seed=9)
        assert a.blocks == b.blocks

    def test_codomain_exceeding_domain(self):
        with pytest.raises(ShapeError):
            maps.random_map("compression", 2, k=3, seed=0)

    @pytest.mark.parametrize("kind", maps.MAP_KINDS)
    def test_an_empty_domain_is_rejected(self, kind):
        with pytest.raises(ShapeError, match="dimension must be at least 1"):
            maps.random_map(kind, 0, seed=0)

    @pytest.mark.parametrize("kind", ["compression", "mixture"])
    def test_an_empty_codomain_is_rejected(self, kind):
        with pytest.raises(ShapeError,
                           match="codomain dimension must be at least 1"):
            maps.random_map(kind, 3, k=0, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            maps.random_map("squaring", 2, seed=0)

    @pytest.mark.parametrize("kind", ["compression", "mixture"])
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (5, 2), (6, 3)])
    def test_the_codomain_defaults_to_half_the_domain(self, kind, n, k):
        assert maps.random_map(kind, n, seed=4).codomain_dim == k

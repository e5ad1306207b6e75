"""Positive unital linear maps between matrix algebras.

Six concrete models are provided: the identity map, compressions ``V* A V``
by an isometry, convex mixtures of compressions, pinchings (block-diagonal
restriction for a partition of the coordinates), vector states ``x* A x``,
and the normalized trace. The first four have matrix codomain; the last two
are functionals, represented as maps into the 1x1 matrices so that every
variant shares one interface.

Every model is completely positive in Kraus form ``A -> sum_i K_i* A K_i``
(Choi 1975), so a map is positive by construction, and unitality is the
one payload condition left. Construction enforces it with the structure
(shapes, a genuine partition, positive mixture weights): the factor maps --
the identity (the Kraus operator ``I``), compressions (``V``), mixtures
(``K_i = sqrt(w_i) V_i``, each weight folded in once) and vector states
(``x`` as an n x 1 column) -- store their Kraus operators and raise
:class:`DomainError` unless ``sum_i K_i* K_i = I`` within
``UNITALITY_TOL``. Pinchings and the normalized trace are unital by their
structure; their Kraus operators are n projections or n vectors
``e_j / sqrt(n)``, so they keep their own masked and traced contractions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_matrix, random_unitary

#: Frobenius tolerance on ``sum_i K_i* K_i - I`` of a factor map.
UNITALITY_TOL = 1e-10

#: All map kinds, in the order verification campaigns cycle through them;
#: ``--map`` takes each but ``mixture`` by the same name.
MAP_KINDS = ("trace", "vector-state", "compression", "pinching", "identity",
             "mixture")


class PositiveUnitalMap:
    """Common interface of the map variants.

    Every subclass implements a linear ``apply``, the map's definition, which
    takes any complex square matrix; only the direct route of the
    ``route_agreement`` oracle uses it. A map in factor form stores
    ``factors``, the Kraus operators ``K_i`` of ``A -> sum_i K_i* A K_i``,
    each an n-by-k matrix, once they are unital, and inherits
    ``domain_dim``, ``codomain_dim`` and ``rank_one_images`` from them; any
    other map implements those three.
    ``rank_one_images`` maps the rank-one matrices ``v v*`` of many vectors
    at once, from the contraction ``W = K* V`` of the map's factors with the
    vectors, and never forms ``v v*``: every image of a Hermitian or normal
    matrix is contracted from those of its eigenprojections.
    """

    factors: tuple

    @property
    def domain_dim(self) -> int:
        return self.factors[0].shape[0]

    @property
    def codomain_dim(self) -> int:
        return self.factors[0].shape[1]

    def apply(self, a) -> np.ndarray:
        raise NotImplementedError

    def rank_one_images(self, vectors) -> np.ndarray:
        """``Phi(v v*)`` for each column ``v`` of an ``(n, m)`` array, as an
        ``(m, k, k)`` stack: ``sum_i (K_i* v)(K_i* v)*``."""
        x = self._check_vectors(vectors)
        # from the first term, not sum()'s 0, which would flip signed zeros
        k, *rest = self.factors
        images = _outer_stack(k.conj().T @ x)
        for k in rest:
            images = images + _outer_stack(k.conj().T @ x)
        return images

    @property
    def is_functional(self) -> bool:
        return self.codomain_dim == 1

    def _check_input(self, a) -> np.ndarray:
        # shape only: matrices are validated where they enter, not per map
        m = np.asarray(a, dtype=np.complex128)
        n = self.domain_dim
        if m.shape != (n, n):
            raise ShapeError(f"map expects a {n}x{n} matrix, got {m.shape}")
        return m

    def _check_vectors(self, vectors) -> np.ndarray:
        v = np.asarray(vectors, dtype=np.complex128)
        n = self.domain_dim
        if v.ndim != 2 or v.shape[0] != n:
            raise ShapeError(
                f"map expects vectors as the columns of an {n}-row array, "
                f"got shape {v.shape}")
        return v

    def _set_factors(self, what: str, factors) -> None:
        _require_unital(what, factors)
        self.factors = tuple(factors)


def _outer_stack(w: np.ndarray) -> np.ndarray:
    """``w_j w_j*`` for each column ``w_j`` of ``w``, as an ``(m, k, k)`` stack."""
    return w.T[:, :, np.newaxis] * w.T.conj()[:, np.newaxis, :]


def _require_unital(what: str, factors) -> None:
    """Raise :class:`DomainError` unless the Kraus operators ``K_i`` satisfy
    ``sum_i K_i* K_i = I`` within ``UNITALITY_TOL`` in the Frobenius norm."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: fails
        total = sum(k.conj().T @ k for k in factors)
        residual = np.linalg.norm(total - np.eye(total.shape[0]))
    if not residual <= UNITALITY_TOL:
        raise DomainError(f"{what} is not unital: "
                          f"||sum K*K - I||_F = {residual:.3e}")


class Identity(PositiveUnitalMap):
    """The identity map on M(n)."""

    def __init__(self, n: int):
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        self.n = n
        self._set_factors("identity", (np.eye(n, dtype=complex),))

    def apply(self, a) -> np.ndarray:
        return self._check_input(a).copy()


class Compression(PositiveUnitalMap):
    """``A -> V* A V`` for an n-by-k matrix ``V`` with orthonormal columns."""

    def __init__(self, isometry: np.ndarray):
        v = as_matrix(isometry).copy()
        if v.shape[0] < v.shape[1]:
            raise ShapeError(
                f"isometry must be tall or square, got shape {v.shape}"
            )
        self._set_factors("compression", (v,))
        self.isometry = v

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        v = self.isometry
        return v.conj().T @ m @ v


class Mixture(PositiveUnitalMap):
    """``A -> sum_i w_i V_i* A V_i`` for the ``terms`` ``(w_i, V_i)``.

    Each positive weight is folded in once, here: the Kraus operators are
    ``K_i = sqrt(w_i) V_i``. Their unitality sum ``sum_i K_i* K_i = I`` is
    enforced rather than renormalized silently; a payload that misses it is
    a construction bug.
    """

    def __init__(self, terms: tuple):
        if not terms:
            raise ShapeError("mixture needs at least one term")
        kraus = []
        for w, v in terms:
            if not 0.0 < float(w) < math.inf:
                raise DomainError(
                    f"mixture weights must be positive and finite, got {w}")
            kraus.append(math.sqrt(float(w)) * as_matrix(v))
        if len({k.shape for k in kraus}) > 1:
            raise ShapeError("mixture factors must share one shape")
        self.terms = terms
        self._set_factors("mixture", kraus)

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return sum(k.conj().T @ m @ k for k in self.factors)


class Pinching(PositiveUnitalMap):
    """Zero out all entries outside the diagonal blocks of a partition.

    ``blocks`` is a partition of the index set {0, ..., n-1}; the blocks need
    not be contiguous.
    """

    def __init__(self, blocks: tuple):
        blocks = tuple(tuple(int(i) for i in b) for b in blocks)
        flat = [i for b in blocks for i in b]
        n = len(flat)
        if n == 0 or sorted(flat) != list(range(n)):
            raise ShapeError(
                "blocks must form a partition of {0..n-1} without repeats"
            )
        mask = np.zeros((n, n), dtype=bool)
        for b in blocks:
            idx = np.array(b)
            mask[np.ix_(idx, idx)] = True
        self.blocks = blocks
        self._mask = mask

    @property
    def domain_dim(self) -> int:
        return self._mask.shape[0]

    @property
    def codomain_dim(self) -> int:
        return self._mask.shape[0]

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return np.where(self._mask, m, 0.0)

    def rank_one_images(self, vectors) -> np.ndarray:
        images = _outer_stack(self._check_vectors(vectors))
        images[:, ~self._mask] = 0.0
        return images


class VectorState(PositiveUnitalMap):
    """The functional ``A -> x* A x`` for a unit vector ``x``, as a 1x1 map."""

    def __init__(self, vector: np.ndarray):
        x = np.array(vector, dtype=np.complex128, copy=True).reshape(-1)
        if x.size == 0 or not np.all(np.isfinite(x)):
            raise DomainError("state vector must be non-empty and finite")
        self._set_factors("vector state", (x[:, np.newaxis],))
        self.vector = x

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        x = self.vector
        return np.array([[np.vdot(x, m @ x)]], dtype=np.complex128)


class NormalizedTrace(PositiveUnitalMap):
    """The functional ``A -> tr(A)/n``, as a 1x1 map."""

    def __init__(self, n: int):
        if n < 1:
            raise ShapeError("dimension must be at least 1")
        self.n = n

    @property
    def domain_dim(self) -> int:
        return self.n

    @property
    def codomain_dim(self) -> int:
        return 1

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return np.array([[np.trace(m) / self.n]], dtype=np.complex128)

    def rank_one_images(self, vectors) -> np.ndarray:
        v = self._check_vectors(vectors)
        return (np.einsum("ij,ij->j", v.conj(), v) / self.n).reshape(-1, 1, 1)


def random_map(kind: str, n: int, k: int | None = None,
               seed: int = 0) -> PositiveUnitalMap:
    """Seeded construction of a valid map of the requested kind.

    ``k`` (the codomain dimension) only matters for compressions and
    mixtures, where it must not exceed ``n`` and defaults to
    ``max(1, n // 2)``; functionals always end in the 1x1 matrices and the
    identity and pinching keep dimension ``n``.
    """
    if n < 1:
        raise ShapeError("dimension must be at least 1")
    if kind == "identity":
        return Identity(n)
    if kind == "trace":
        return NormalizedTrace(n)
    if kind == "vector-state":
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return VectorState(x / np.linalg.norm(x))
    if kind == "pinching":
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        n_blocks = int(rng.integers(1, n + 1))
        labels = rng.integers(0, n_blocks, size=n)
        blocks = [tuple(int(i) for i in perm[labels == b]) for b in range(n_blocks)]
        return Pinching(tuple(b for b in blocks if b))
    if kind in ("compression", "mixture"):
        k = max(1, n // 2) if k is None else int(k)
        if k > n:
            raise ShapeError(f"compression codomain {k} exceeds domain {n}")
        if k < 1:
            raise ShapeError("codomain dimension must be at least 1")
        if kind == "compression":
            return Compression(random_unitary(n, seed)[:, :k])
        return Mixture((
            (0.5, random_unitary(n, seed)[:, :k]),
            (0.5, random_unitary(n, seed + 1)[:, :k]),
        ))
    raise ValueError(f"unknown map kind {kind!r}; expected one of {MAP_KINDS}")

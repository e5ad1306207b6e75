"""Positive unital linear maps between matrix algebras.

Six concrete models are provided: the identity map, compressions ``V* A V``
by an isometry, convex mixtures of compressions, pinchings (block-diagonal
restriction for a partition of the coordinates), vector states ``x* A x``,
and the normalized trace. The first four have matrix codomain; the last two
are functionals, represented as maps into the 1x1 matrices so that every
variant shares one interface.

Construction enforces structure (shapes, a genuine partition, positive
mixture weights, and the mixture unitality sum, which is a joint property of
the weights and factors). Numeric soundness of a payload -- isometry
residual, unit norm, unitality of the assembled map -- is checked by
:func:`validate`, which reports findings instead of raising so that broken
payloads can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import as_matrix, frobenius, is_psd, random_psd, random_unitary

#: Frobenius tolerance for unitality and isometry residuals.
UNITALITY_TOL = 1e-10

#: Tolerance on | ||x|| - 1 | for vector states.
UNIT_NORM_TOL = 1e-12

#: Number of seeded PSD probes used by the positivity spot check.
POSITIVITY_PROBES = 20

#: All map kinds, in the order verification campaigns cycle through them.
MAP_KINDS = (
    "normalized_trace",
    "vector_state",
    "compression",
    "pinching",
    "identity",
    "mixture",
)


class PositiveUnitalMap:
    """Common interface of the map variants.

    Subclasses expose ``domain_dim``, ``codomain_dim`` and a linear
    ``apply``; ``apply`` accepts arbitrary complex square matrices (not just
    Hermitian ones), which the normal-matrix constructions rely on.
    """

    @property
    def domain_dim(self) -> int:
        raise NotImplementedError

    @property
    def codomain_dim(self) -> int:
        raise NotImplementedError

    def apply(self, a) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, a) -> np.ndarray:
        return self.apply(a)

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


@dataclass(frozen=True, eq=False)
class Identity(PositiveUnitalMap):
    """The identity map on M(n)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError("dimension must be at least 1")

    @property
    def domain_dim(self) -> int:
        return self.n

    @property
    def codomain_dim(self) -> int:
        return self.n

    def apply(self, a) -> np.ndarray:
        return self._check_input(a).copy()


@dataclass(frozen=True, eq=False)
class Compression(PositiveUnitalMap):
    """``A -> V* A V`` for an n-by-k matrix ``V`` with orthonormal columns."""

    isometry: np.ndarray

    def __post_init__(self):
        v = as_matrix(self.isometry)
        if v.shape[0] < v.shape[1]:
            raise ShapeError(
                f"isometry must be tall or square, got shape {v.shape}"
            )
        object.__setattr__(self, "isometry", v)

    @property
    def domain_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def codomain_dim(self) -> int:
        return self.isometry.shape[1]

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        v = self.isometry
        return v.conj().T @ m @ v


@dataclass(frozen=True, eq=False)
class Mixture(PositiveUnitalMap):
    """``A -> sum_i w_i V_i* A V_i`` with jointly unital weighted factors.

    The unitality sum ``sum_i w_i V_i* V_i = I`` is enforced here rather than
    renormalized silently; a payload that misses it is a construction bug.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ShapeError("mixture needs at least one term")
        cooked = []
        for w, v in self.terms:
            if not (float(w) > 0.0):
                raise DomainError(f"mixture weights must be positive, got {w}")
            cooked.append((float(w), as_matrix(v)))
        n, k = cooked[0][1].shape
        for _, v in cooked:
            if v.shape != (n, k):
                raise ShapeError("mixture factors must share one shape")
        total = sum(w * (v.conj().T @ v) for w, v in cooked)
        residual = frobenius(total - np.eye(k))
        if residual > UNITALITY_TOL:
            raise DomainError(
                f"mixture is not unital: ||sum w V*V - I||_F = {residual:.3e}"
            )
        object.__setattr__(self, "terms", tuple(cooked))

    @property
    def domain_dim(self) -> int:
        return self.terms[0][1].shape[0]

    @property
    def codomain_dim(self) -> int:
        return self.terms[0][1].shape[1]

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return sum(w * (v.conj().T @ m @ v) for w, v in self.terms)


@dataclass(frozen=True, eq=False)
class Pinching(PositiveUnitalMap):
    """Zero out all entries outside the diagonal blocks of a partition.

    ``blocks`` is a partition of the index set {0, ..., n-1}; the blocks need
    not be contiguous.
    """

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
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
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_mask", mask)

    @property
    def domain_dim(self) -> int:
        return self._mask.shape[0]

    @property
    def codomain_dim(self) -> int:
        return self._mask.shape[0]

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return np.where(self._mask, m, 0.0)


@dataclass(frozen=True, eq=False)
class VectorState(PositiveUnitalMap):
    """The functional ``A -> x* A x`` for a unit vector ``x``, as a 1x1 map."""

    vector: np.ndarray

    def __post_init__(self):
        x = np.array(self.vector, dtype=np.complex128, copy=True).reshape(-1)
        if x.size == 0 or not np.all(np.isfinite(x)):
            raise DomainError("state vector must be non-empty and finite")
        object.__setattr__(self, "vector", x)

    @property
    def domain_dim(self) -> int:
        return self.vector.size

    @property
    def codomain_dim(self) -> int:
        return 1

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        x = self.vector
        return np.array([[np.vdot(x, m @ x)]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class NormalizedTrace(PositiveUnitalMap):
    """The functional ``A -> tr(A)/n``, as a 1x1 map."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError("dimension must be at least 1")

    @property
    def domain_dim(self) -> int:
        return self.n

    @property
    def codomain_dim(self) -> int:
        return 1

    def apply(self, a) -> np.ndarray:
        m = self._check_input(a)
        return np.array([[np.trace(m) / self.n]], dtype=np.complex128)


def apply(pulm: PositiveUnitalMap, a) -> np.ndarray:
    """Apply a positive unital linear map to a matrix."""
    return pulm.apply(a)


@dataclass(frozen=True)
class MapValidation:
    """Findings of :func:`validate`; ``ok`` means no issue was detected."""

    unital: bool
    unitality_residual: float
    payload_ok: bool
    positivity_failures: int
    issues: tuple

    @property
    def ok(self) -> bool:
        return self.unital and self.payload_ok and self.positivity_failures == 0


def _payload_issues(pulm: PositiveUnitalMap) -> list:
    issues = []
    if isinstance(pulm, Compression):
        v = pulm.isometry
        res = frobenius(v.conj().T @ v - np.eye(v.shape[1]))
        if res > UNITALITY_TOL:
            issues.append(f"compression factor is not an isometry: ||V*V - I||_F = {res:.3e}")
    elif isinstance(pulm, VectorState):
        res = abs(float(np.linalg.norm(pulm.vector)) - 1.0)
        if res > UNIT_NORM_TOL:
            issues.append(f"state vector is not normalized: | ||x|| - 1 | = {res:.3e}")
    return issues


def validate(pulm: PositiveUnitalMap, seed: int = 0) -> MapValidation:
    """Check unitality, payload soundness, and spot-check positivity.

    Positivity is probed by applying the map to ``POSITIVITY_PROBES`` seeded
    random PSD matrices ``C* C``; failures are reported, never raised.
    """
    n, k = pulm.domain_dim, pulm.codomain_dim
    residual = frobenius(pulm.apply(np.eye(n)) - np.eye(k))
    unital = residual <= UNITALITY_TOL
    payload_issues = _payload_issues(pulm)
    failures = 0
    for t in range(POSITIVITY_PROBES):
        image = pulm.apply(random_psd(n, seed + t))
        if not is_psd(image).passed:
            failures += 1
    issues = []
    if not unital:
        issues.append(f"map is not unital: ||Phi(I) - I||_F = {residual:.3e}")
    issues.extend(payload_issues)
    if failures:
        issues.append(f"positivity spot check failed on {failures}/{POSITIVITY_PROBES} probes")
    return MapValidation(
        unital=unital,
        unitality_residual=residual,
        payload_ok=not payload_issues,
        positivity_failures=failures,
        issues=tuple(issues),
    )


def random_map(kind: str, n: int, k: int | None = None,
               seed: int = 0) -> PositiveUnitalMap:
    """Seeded construction of a valid map of the requested kind.

    ``k`` (the codomain dimension) only matters for compressions and
    mixtures, where it must not exceed ``n``; functionals always end in the
    1x1 matrices and the identity and pinching keep dimension ``n``.
    """
    if n < 1:
        raise ShapeError("dimension must be at least 1")
    if kind == "identity":
        return Identity(n)
    if kind == "normalized_trace":
        return NormalizedTrace(n)
    if kind == "vector_state":
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
        k = n if k is None else int(k)
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

import dataclasses
import tracemalloc

import numpy as np
import pytest

from momenta import campaign, linalg, maps, moments

ROOT2 = np.sqrt(2.0)

#: The 3x3 real symmetric matrix used as the worked example throughout the
#: test suite; its eigenvalues are exactly {-12, 0, 12}.
EXAMPLE_3X3 = np.array([
    [3.0, -3.0 * ROOT2, -9.0],
    [-3.0 * ROOT2, -6.0, -3.0 * ROOT2],
    [-9.0, -3.0 * ROOT2, 3.0],
], dtype=np.complex128)


def reconstruct(spectrum):
    """``V diag(lambda) V*`` of a full solve: an oracle for the accuracy of
    ``linalg.hermitian_eig``."""
    v = spectrum.eigenvectors
    return (v * spectrum.eigenvalues) @ v.conj().T


def random_psd(n, seed):
    """Seeded random positive semidefinite matrix ``C* C``, ``C`` a complex
    Gaussian matrix: test input with no structure of its own."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return c.conj().T @ c


def psd_at_own_norm(m):
    """Whether ``m``, checked and symmetrized by ``linalg.symmetrize``, is
    PSD at its own Frobenius norm: ``linalg.is_psd`` at that scale.

    A positivity oracle for matrices that are not cancelling differences,
    or that are Hermitian only to rounding, such as a Kronecker product of
    PSD factors or a map's image."""
    h = linalg.symmetrize(m)
    return linalg.is_psd(h, linalg.DEFAULT_PSD_TOL, np.linalg.norm(h))[0]


def rank_one_positivity_failures(pulm, seed=0):
    """How many images ``Phi(v v*)`` are not PSD (:func:`psd_at_own_norm`),
    over the standard basis and 20 seeded random unit vectors.

    Every PSD matrix is a sum of rank-one ones, so a map is positive exactly
    when every rank-one image is PSD: these are where positivity first
    fails. A positivity spot check for maps built in tests."""
    n = pulm.domain_dim
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 20)) + 1j * rng.standard_normal((n, 20))
    probes = np.hstack([np.eye(n), x / np.linalg.norm(x, axis=0)])
    return sum(not psd_at_own_norm(image)
               for image in pulm.rank_one_images(probes))


def direct_powers(pulm, a, k_min, k_max):
    """``Phi(A^k)`` for ``k = k_min..k_max`` by the direct route: the map
    applied to the explicitly multiplied powers of ``A`` (and its inverse
    for ``k = -1``), Hermitian parts taken, as one ``(K, k, k)`` stack. An
    oracle for the spectral contraction of moment tables and scalar checks.
    """
    h = linalg.hermitian_eig(a).matrix
    acc = {0: np.eye(h.shape[0], dtype=np.complex128)}
    for p in range(1, max(k_max, 1) + 1):
        acc[p] = acc[p - 1] @ h
    if k_min == -1:
        acc[-1] = np.linalg.inv(h)
    return linalg.hermitian_part(np.stack(
        [pulm.apply(linalg.hermitian_part(acc[p]))
         for p in range(k_min, k_max + 1)]))


def direct_log_blocks(pulm, a):
    """``(deficit, upper, lower)`` of a positive definite ``A``, each image
    one ``apply`` on an explicitly multiplied matrix, with ``log A`` formed
    from the eigendecomposition: an oracle for the log blocks' spectral
    images."""
    spectrum = linalg.hermitian_eig(a)
    h, v, part = spectrum.matrix, spectrum.eigenvectors, linalg.hermitian_part
    la = part((v * np.log(spectrum.eigenvalues)) @ v.conj().T)
    h2, hla = part(h @ h), part(h @ la)
    h2la = part(h2 @ la)
    lm, lM = np.log(spectrum.min), np.log(spectrum.max)
    eye, phi = np.eye(h.shape[0]), pulm.apply
    deficit = np.block([[phi(h2), phi(h)], [phi(h), phi(h - la)]])
    upper = np.block([[phi(lM * eye - la), phi(lM * h - hla)],
                      [phi(lM * h - hla), phi(lM * h2 - h2la)]])
    lower = np.block([[phi(la - lm * eye), phi(hla - lm * h)],
                      [phi(hla - lm * h), phi(h2la - lm * h2)]])
    return deficit, upper, lower


def direct_normal_block(pulm, a):
    """The normal-matrix block of ``A`` by the direct route: each image one
    ``apply`` on a multiplied product of ``A`` and ``A*``, Hermitian part
    taken, judged at the Frobenius norm of the products. An oracle for
    ``moments.build_normal_block``."""
    m = np.asarray(a, dtype=np.complex128)
    ms = m.conj().T
    square = pulm.apply(ms @ m)  # at (0, 2) and (2, 0)
    block = np.block([
        [np.eye(pulm.codomain_dim), pulm.apply(m), square],
        [pulm.apply(ms), pulm.apply(m @ ms), pulm.apply(ms @ ms @ m)],
        [square, pulm.apply(ms @ m @ m), pulm.apply(ms @ ms @ m @ m)],
    ])
    return moments.BlockMatrixSpec(linalg.hermitian_part(block),
                                   np.linalg.norm(block))


def centered_solve_blocks(functional, a, r):
    """``(table, blocks)`` of the centered blocks of ``A`` from the
    eigensolve of ``A - phi(A) I`` itself: its moment table, ``[m, M]``
    replaced by ``A``'s extreme eigenvalues less the mean, and that table's
    order-``r`` ``(kind, block)`` pairs. An oracle for
    ``moments.build_centered_blocks``, which contracts ``A``'s own solve at
    the shifted eigenvalues."""
    spectrum = linalg.hermitian_eig(a)
    lam = spectrum.eigenvalues
    mean = float(moments.spectral_images(functional, spectrum,
                                         lam[np.newaxis])[0, 0, 0].real)
    centered = np.asarray(a) - mean * np.eye(lam.size)
    table = dataclasses.replace(
        moments.moment_table(functional, centered, 0, 2 * r + 2),
        m=float(lam[0] - mean), M=float(lam[-1] - mean))
    return table, list(moments.build_blocks(table, r, ("lower_shift",
                                                       "upper_shift")))


def full_solve_measure(functional, a):
    """Eigenvalues, weights ``phi(v_j v_j*)`` and validated matrix of ``A``
    from its full solve, eigenvectors and all: an oracle for the
    eigenvalues-only measure of the normalized trace in
    ``eigenbounds._spectral_measure``."""
    spectrum = linalg.hermitian_eig(a)
    return (spectrum.eigenvalues,
            functional.rank_one_images(spectrum.eigenvectors).real.ravel(),
            spectrum.matrix)


def gamma_value(cm):
    """``b3^2 - b2 b4 + b2^3`` of central moments ``cm``: minus the
    determinant of the moment Hankel, non-positive for the moments of a
    measure. The paper's formula; an oracle for the gamma of
    ``eigenbounds.spectral_bounds``, read off its Jacobi matrix."""
    return cm.b3 ** 2 - cm.b2 * cm.b4 + cm.b2 ** 3


def beta_values(cm):
    """``(beta_1, beta_2, beta_3)`` of central moments ``cm``: the paper's
    cubic coefficients times gamma, defined where gamma vanishes too. An
    oracle for the cubic ``det(xI - J)`` of ``eigenbounds.spectral_bounds``
    and for the cofactors of ``eigenbounds.determinant_oracle``."""
    b2, b3, b4, b5 = cm.b2, cm.b3, cm.b4, cm.b5
    beta1 = -b4 * b3 - b2 ** 2 * b3 + b2 * b5
    beta2 = -b3 * b5 + b4 ** 2 + b3 ** 2 * b2 - b2 ** 2 * b4
    beta3 = 2.0 * b2 * b3 * b4 - b2 ** 2 * b5 - b3 ** 3
    return beta1, beta2, beta3


def direct_centered_fourth_moment(functional, a):
    """The centered fourth-moment slack of ``A`` by the direct route, the
    functional applied to multiplied products of ``B = A - phi(A) I``. An
    oracle for ``moments.centered_fourth_moment``."""
    m = np.asarray(a, dtype=np.complex128)
    mean = functional.apply(m)[0, 0]
    b = m - mean * np.eye(m.shape[0])
    bsq = b.conj().T @ b
    second = functional.apply(bsq)[0, 0].real
    fourth = functional.apply(bsq @ bsq)[0, 0].real
    mixed = functional.apply(b @ bsq)[0, 0]
    vanishes = second <= 1e-15 * np.linalg.norm(b) ** 2
    ratio = 0.0 if vanishes else abs(mixed) ** 2 / second
    return fourth - ratio - second * second


def peak_bytes(call):
    """``call()``'s result and the tracemalloc peak, in bytes, of what it
    allocates above the memory traced when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


class ReflectedTrace(maps.PositiveUnitalMap):
    """``A -> 2 tr(A)/n I - A``: unital, but not positive. A negative control."""

    def __init__(self, n):
        self.n = n

    domain_dim = codomain_dim = property(lambda self: self.n)

    def apply(self, a):
        m = self._check_input(a)
        return 2.0 * np.trace(m) / self.n * np.eye(self.n) - m

    def rank_one_images(self, vectors):
        v = self._check_vectors(vectors)
        squared_norms = np.einsum("ij,ij->j", v.conj(), v)
        outer = v.T[:, :, np.newaxis] * v.T.conj()[:, np.newaxis, :]
        return 2.0 * squared_norms[:, None, None] / self.n * np.eye(self.n) - outer


class ReflectedState(maps.PositiveUnitalMap):
    """``X -> 2 tr(X)/n - X_00``: a unital functional that is not positive.
    A negative control for the checks that need a functional."""

    def __init__(self, n):
        self.n = n

    domain_dim = property(lambda self: self.n)
    codomain_dim = property(lambda self: 1)

    def apply(self, a):
        m = self._check_input(a)
        return np.array([[2.0 * np.trace(m) / self.n - m[0, 0]]])

    def rank_one_images(self, vectors):
        v = self._check_vectors(vectors)
        squared_norms = np.einsum("ij,ij->j", v.conj(), v)
        return (2.0 * squared_norms / self.n
                - np.abs(v[0]) ** 2)[:, np.newaxis, np.newaxis]


class Blend(maps.PositiveUnitalMap):
    """``(1 - eps) Phi + eps Psi`` of two unital maps of one shape: unital,
    and positive wherever both are. Past positivity by a little, from a
    small ``eps`` of a negative control, it is a near-positive control."""

    def __init__(self, phi, psi, eps):
        self.phi, self.psi, self.eps = phi, psi, eps

    domain_dim = property(lambda self: self.phi.domain_dim)
    codomain_dim = property(lambda self: self.phi.codomain_dim)

    def apply(self, a):
        return ((1.0 - self.eps) * self.phi.apply(a)
                + self.eps * self.psi.apply(a))

    def rank_one_images(self, vectors):
        return ((1.0 - self.eps) * self.phi.rank_one_images(vectors)
                + self.eps * self.psi.rank_one_images(vectors))


@pytest.fixture
def example_3x3():
    return EXAMPLE_3X3.copy()


@pytest.fixture(scope="session")
def shared_corpus():
    """The 200-instance corpus shared by the block, scalar, and oracle suites."""
    return campaign.corpus(count=200, seed=42, n_range=(2, 6), r_max=3)


@pytest.fixture
def eigh_inputs(monkeypatch):
    """The bytes of every matrix ``numpy.linalg.eigh`` solves, in order,
    starting from an empty eigensolve memo."""
    linalg._eigh.cache_clear()
    seen = []
    solve = np.linalg.eigh

    def counting(h):
        seen.append(np.ascontiguousarray(h).tobytes())
        return solve(h)

    monkeypatch.setattr(linalg.np.linalg, "eigh", counting)
    return seen


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if getattr(rep, "when", "call") != "call":
                continue
            if "test_acceptance.py" in nodeid:
                name = nodeid.split("::")[-1]
                lines[name] = "PASS" if status == "passed" else "FAIL"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")

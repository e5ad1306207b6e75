"""Input validation at the boundary.

Every public function that takes a Hermitian matrix rejects bad input with
the error of the one Hermitian check, ``linalg.symmetrize``; map
application checks only the shape and never aliases its input.
"""

import numpy as np
import pytest

from momenta import campaign, eigenbounds, linalg, maps, moments
from momenta.errors import DomainError, NotHermitianError, ShapeError

from conftest import reconstruct

TR2 = maps.NormalizedTrace(2)

#: Public functions taking a Hermitian matrix, each as a one-argument call.
HERMITIAN_ENTRY_POINTS = {
    "hermitian_eig": linalg.hermitian_eig,
    "moment_table": lambda a: moments.moment_table(TR2, a),
    "build_log_deficit_block": lambda a: moments.build_log_deficit_block(TR2, a),
    "build_log_endpoint_blocks":
        lambda a: moments.build_log_endpoint_blocks(TR2, a),
    "central_moments": lambda a: eigenbounds.central_moments(TR2, a),
    "wolkowicz_styan": eigenbounds.wolkowicz_styan,
    "spectral_bounds": lambda a: eigenbounds.spectral_bounds(TR2, a),
}

BAD_INPUTS = {
    "non_hermitian": (np.array([[1.0, 1.0], [0.0, 2.0]]), NotHermitianError),
    "nan": (np.array([[np.nan, 0.0], [0.0, 1.0]]), DomainError),
    "inf": (np.array([[np.inf, 0.0], [0.0, 1.0]]), DomainError),
    "non_square": (np.ones((2, 3)), ShapeError),
}


def _error_of(call, a):
    with pytest.raises((DomainError, ShapeError)) as info:
        call(a)
    return info.value


@pytest.mark.parametrize("entry", sorted(HERMITIAN_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(BAD_INPUTS))
def test_entry_point_rejects_bad_input_like_symmetrize(entry, bad):
    a, error = BAD_INPUTS[bad]
    expected = _error_of(linalg.symmetrize, a)
    got = _error_of(HERMITIAN_ENTRY_POINTS[entry], a)
    assert type(got) is error is type(expected)
    assert str(got) == str(expected)


def test_file_mode_rejects_a_non_square_matrix_like_symmetrize():
    a = np.ones((2, 3))
    got = _error_of(lambda a: campaign.single_matrix_records(a, TR2, 0), a)
    assert type(got) is ShapeError
    assert str(got) == str(_error_of(linalg.symmetrize, a))


#: Input that is bad before it is asymmetric: file mode sends only a
#: NotHermitianError to the normal path, so each raises symmetrize's error.
NOT_A_MATRIX = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "norm_overflow": np.array([[1e160, 1e160], [0.0, 1e160]]),
    "one_dimensional": np.ones(2),
}


@pytest.mark.parametrize("bad", sorted(NOT_A_MATRIX))
def test_file_mode_rejects_bad_input_like_symmetrize(bad):
    a = NOT_A_MATRIX[bad]
    expected = _error_of(linalg.symmetrize, a)
    got = _error_of(lambda a: campaign.single_matrix_records(a, TR2, 0), a)
    assert type(got) is type(expected) is not NotHermitianError
    assert str(got) == str(expected)


#: Input that the normal path's joint solve rejects before it decides
#: normality: ``as_matrix``'s three checks.
NOT_A_SQUARE_MATRIX = {
    "inf": (np.array([[np.inf, 0.0], [0.0, 1j]]), DomainError,
            "matrix contains non-finite entries"),
    "non_square": (np.ones((2, 3)), ShapeError,
                   r"expected a square matrix, got shape \(2, 3\)"),
    "one_dimensional": (np.ones(2), ShapeError,
                        "expected a 2-D matrix, got ndim=1"),
    "non_square_nan": (np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                       DomainError, "matrix contains non-finite entries"),
}

#: The two solves that run the matrix check without symmetrizing.
MATRIX_CHECK_ENTRY_POINTS = {
    "eigenvalues_only": lambda a: linalg.hermitian_eig(a, vectors=False),
    "normal_spectrum": moments.normal_spectrum,
}


@pytest.mark.parametrize("entry", sorted(MATRIX_CHECK_ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(NOT_A_SQUARE_MATRIX))
def test_matrix_check_rejects_what_is_not_a_square_matrix_like_symmetrize(
        entry, bad):
    a, error, message = NOT_A_SQUARE_MATRIX[bad]
    with pytest.raises(error, match=f"^{message}$") as info:
        MATRIX_CHECK_ENTRY_POINTS[entry](a)
    expected = _error_of(linalg.symmetrize, a)
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)


@pytest.mark.parametrize("kind", maps.MAP_KINDS)
def test_apply_rejects_wrong_shape(kind):
    pulm = maps.random_map(kind, 3, k=2, seed=1)
    for a in (np.eye(2), np.ones((3, 2)), np.ones(3)):
        with pytest.raises(ShapeError):
            pulm.apply(a)


@pytest.mark.parametrize("kind", maps.MAP_KINDS)
def test_apply_never_aliases_its_input(kind):
    pulm = maps.random_map(kind, 3, k=2, seed=1)
    a = linalg.random_hermitian(3, 2)
    before = a.copy()
    out = pulm.apply(a)
    assert out is not a and not np.shares_memory(out, a)
    out[...] = 0.0
    np.testing.assert_array_equal(a, before)


def test_identity_apply_returns_a_copy():
    a = linalg.random_hermitian(3, 4)
    out = maps.Identity(3).apply(a)
    assert out is not a
    np.testing.assert_array_equal(out, a)


def test_hermitian_eig_returns_the_validated_matrix():
    a = linalg.random_hermitian(4, 0)
    noisy = a.copy()
    noisy[0, 1] += 1e-12
    spectrum = linalg.hermitian_eig(noisy)
    np.testing.assert_array_equal(spectrum.matrix, linalg.symmetrize(noisy))
    np.testing.assert_allclose(reconstruct(spectrum), spectrum.matrix,
                               atol=1e-13)

"""Moment matrices of positive unital linear maps on matrix algebras.

The package computes the images ``Phi(A^k)`` of matrix powers under
positive unital linear maps, assembles the block matrices (Hankel, shifted,
and product-weighted forms) that such moments render positive semidefinite,
verifies the classical scalar consequences (square-moment, variance, and
inverse-moment bounds), and extracts upper/lower bounds on the extreme
eigenvalues of a Hermitian matrix from a cubic in its central moments.
"""

from .errors import DomainError, ShapeError
from .linalg import (
    DEFAULT_PSD_TOL,
    HermitianSpectrum,
    hermitian_eig,
    hermitian_part,
    hermitian_with_spectrum,
    random_hermitian,
    random_normal_matrix,
    random_unitary,
    symmetrize,
)
from .maps import (
    MAP_KINDS,
    Compression,
    Identity,
    Mixture,
    NormalizedTrace,
    Pinching,
    PositiveUnitalMap,
    VectorState,
    random_map,
)
from .moments import (
    BLOCK_KINDS,
    BlockMatrixSpec,
    CheckRecord,
    MomentTable,
    build_block,
    build_blocks,
    build_log_deficit_block,
    build_log_endpoint_blocks,
    build_normal_block,
    build_refinement_chain,
    centered_fourth_moment,
    distinct_eigenvalues,
    moment_table,
    normal_spectrum,
    psd_records,
    scalar_checks,
)
from .eigenbounds import (
    CentralMoments,
    EigenBoundReport,
    central_moments,
    determinant_oracle,
    spectral_bounds,
    wolkowicz_styan,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_KINDS",
    "BlockMatrixSpec",
    "CentralMoments",
    "CheckRecord",
    "Compression",
    "DEFAULT_PSD_TOL",
    "DomainError",
    "EigenBoundReport",
    "HermitianSpectrum",
    "Identity",
    "MAP_KINDS",
    "Mixture",
    "MomentTable",
    "NormalizedTrace",
    "Pinching",
    "PositiveUnitalMap",
    "ShapeError",
    "VectorState",
    "build_block",
    "build_blocks",
    "build_log_deficit_block",
    "build_log_endpoint_blocks",
    "build_normal_block",
    "build_refinement_chain",
    "centered_fourth_moment",
    "central_moments",
    "determinant_oracle",
    "distinct_eigenvalues",
    "hermitian_eig",
    "hermitian_part",
    "hermitian_with_spectrum",
    "moment_table",
    "normal_spectrum",
    "psd_records",
    "random_hermitian",
    "random_map",
    "random_normal_matrix",
    "random_unitary",
    "scalar_checks",
    "spectral_bounds",
    "symmetrize",
    "wolkowicz_styan",
]

"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix is not square, dimensions mismatch, or a size cap is exceeded."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""


class NotNormalError(DomainError):
    """Matrix is not normal: ``A*A`` and ``AA*`` differ beyond round-off."""


class NotHermitianError(DomainError):
    """Matrix is not Hermitian: ``M`` and ``M*`` differ beyond round-off."""

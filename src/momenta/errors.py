"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Matrix is not square, dimensions mismatch, or a size cap is exceeded."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of the operation."""

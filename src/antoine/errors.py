"""Exception types shared across the package."""


class AntoineError(Exception):
    """Base class for all package errors."""


class NoUniqueFixedPoint(AntoineError):
    """Similarity has scale 1, so it has no unique fixed point."""


class InvalidMultiplicity(AntoineError):
    """Requested multiplicity is not an even integer >= 10."""


class MultipleChildren(AntoineError):
    """A point was claimed by two child tori; the necklace is invalid. `index` is its input index."""

    def __init__(self, index: int):
        super().__init__(f"point index {index} claimed by several children at crisp tolerance; invalid necklace")
        self.index = index


class MinSeparationTooSmall(AntoineError):
    """Curves approach closer than the quadrature can tolerate. `index` is the offending pair's position in
    its batch."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class NoGenericProjection(AntoineError):
    """No generic projection direction found after the retry budget."""


class UndefinedAtOrigin(AntoineError):
    """The radial model map is undefined at the origin."""


class NonInvertibleJacobian(AntoineError):
    """Numerical Jacobian is singular to working precision."""


class TooManyTori(AntoineError):
    """Stage would contain more tori than the export cap allows."""


class DegenerateFit(AntoineError):
    """Box counts carry no scale information; slope fit is undefined."""

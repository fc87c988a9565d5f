"""Domain exceptions shared across the package."""


class LatticeError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularBasis(LatticeError):
    """Basis columns are not linearly independent (or not finite)."""


class DeterminantOutOfRange(LatticeError):
    """The basis is well conditioned, but outside the supported scale."""


class UnsupportedDimension(LatticeError):
    """Only 2x2 and 3x3 bases are supported."""


class InvalidCellParameters(LatticeError):
    """Cell parameters do not define a cell of positive volume."""


class ReductionNonConvergence(LatticeError):
    """Basis reduction exceeded its iteration cap (degenerate input)."""


class DegenerateCell(LatticeError):
    """Kept for callers: the superbase Voronoi build cannot fail, so nothing raises it."""


class NotAPrimitiveCell(LatticeError):
    """The cell is not a primitive cell of the given lattice."""


class OracleBudgetExceeded(LatticeError):
    """A brute-force search would exceed the oracle's fixed work budget."""

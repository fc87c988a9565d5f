"""Exact periodic distances and cell geometry for skewed 2D/3D lattices."""

from .core import (
    Basis,
    LatticeVector,
    basis_to_cell_params,
    cart_to_frac,
    cell_params_to_basis,
    frac_to_cart,
    gram_matrix,
    validate_basis,
    wrap_frac,
)
from .errors import (
    DegenerateCell,
    DeterminantOutOfRange,
    InvalidCellParameters,
    LatticeError,
    NotAPrimitiveCell,
    OracleBudgetExceeded,
    ReductionNonConvergence,
    SingularBasis,
    UnsupportedDimension,
)
from .reduction import ReducedBasis, is_reduced, reduce
from .voronoi import RelevantVectorSet, VoronoiCell, frac_extents, relevant_vectors, voronoi_cell
from .copies import CopyCounts, copy_counts, domain_extents, is_3n_sufficient
from .distance import (
    DistanceResult,
    PeriodicPointSet,
    min_image_distance,
    neighbor_arrays,
    neighbors_within,
    pairwise_distances,
)
from .cells import CellBasisCandidate, CellCheckReport, check_cell, enumerate_ps
from .render import render_2d
from . import oracle

__all__ = [
    "Basis",
    "CellBasisCandidate",
    "CellCheckReport",
    "CopyCounts",
    "DegenerateCell",
    "DeterminantOutOfRange",
    "DistanceResult",
    "InvalidCellParameters",
    "LatticeError",
    "LatticeVector",
    "NotAPrimitiveCell",
    "OracleBudgetExceeded",
    "PeriodicPointSet",
    "ReducedBasis",
    "ReductionNonConvergence",
    "RelevantVectorSet",
    "SingularBasis",
    "UnsupportedDimension",
    "VoronoiCell",
    "basis_to_cell_params",
    "cart_to_frac",
    "cell_params_to_basis",
    "check_cell",
    "copy_counts",
    "domain_extents",
    "enumerate_ps",
    "frac_extents",
    "frac_to_cart",
    "gram_matrix",
    "is_3n_sufficient",
    "is_reduced",
    "min_image_distance",
    "neighbor_arrays",
    "neighbors_within",
    "oracle",
    "pairwise_distances",
    "reduce",
    "relevant_vectors",
    "render_2d",
    "validate_basis",
    "voronoi_cell",
    "wrap_frac",
]

__version__ = "0.1.0"

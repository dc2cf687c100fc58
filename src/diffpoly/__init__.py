"""
Exact-arithmetic diffusion polytopes for pairwise-averaging processes on
simple connected graphs: state-space enumeration, certified extreme
points, closed-form solvers for complete and ordered path graphs, and
linear (free-energy) optimization over the polytope.
"""
from .core import (
    BlockOp,
    DiffusionGraph,
    OperationSequence,
    PairOp,
    PopulationVector,
    apply_op,
    apply_sequence,
    complete,
    cycle,
    grid_composition,
    helium_p5,
    path,
    spread,
    uniform_vector,
)
from .enumeration import (
    ClassifiedVertex,
    PolytopeConfig,
    PolytopeResult,
    explore,
    polytope,
    triangle_decomposition,
    triangle_prune,
)
from .geometry import extreme_points, hull_membership, hull_vertices
from .optimize import (
    EnergyReport,
    Objective,
    energy,
    exponential_populations,
    gardner_limit,
    monotone_extremal_check,
    optimize_over,
)
from .structured import (
    fibonacci_nonlocal_count,
    count_commuting_subsets,
    kn_extreme_points,
    pn_polytope,
)

__version__ = "0.1.0"

__all__ = [
    "BlockOp",
    "DiffusionGraph",
    "OperationSequence",
    "PairOp",
    "PopulationVector",
    "apply_op",
    "apply_sequence",
    "complete",
    "cycle",
    "grid_composition",
    "helium_p5",
    "path",
    "spread",
    "uniform_vector",
    "ClassifiedVertex",
    "PolytopeConfig",
    "PolytopeResult",
    "explore",
    "polytope",
    "triangle_decomposition",
    "triangle_prune",
    "extreme_points",
    "hull_membership",
    "hull_vertices",
    "EnergyReport",
    "Objective",
    "energy",
    "exponential_populations",
    "gardner_limit",
    "monotone_extremal_check",
    "optimize_over",
    "fibonacci_nonlocal_count",
    "count_commuting_subsets",
    "kn_extreme_points",
    "pn_polytope",
    "__version__",
]

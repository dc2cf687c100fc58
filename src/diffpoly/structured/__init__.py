"""
Closed-form and theorem-backed solvers.

* ``complete`` -- extreme points of the complete-graph polytope generated
  from commutation classes and certified exactly.
* ``ordered_path`` -- the ordered path-graph polytope: its 2^(n-1) vertices
  indexed by subsets, the hypercube adjacency, exact decomposition
  witnesses for one averaging step, and the Fibonacci counting formulas.
"""
from .complete import kn_candidate_points, kn_extreme_points
from .ordered_path import (
    StepDecomposition,
    count_commuting_subsets,
    decompose_step,
    fibonacci,
    fibonacci_nonlocal_count,
    pn_polytope,
    subset_point,
    subset_sequence,
    counts_csv,
)

__all__ = [
    "kn_candidate_points",
    "kn_extreme_points",
    "StepDecomposition",
    "count_commuting_subsets",
    "decompose_step",
    "fibonacci",
    "fibonacci_nonlocal_count",
    "pn_polytope",
    "subset_point",
    "subset_sequence",
    "counts_csv",
]

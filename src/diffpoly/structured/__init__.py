"""
Closed-form and theorem-backed solvers.

* ``complete`` -- extreme points of the complete-graph polytope generated
  from commutation classes and certified exactly.
* ``ordered_path`` -- the ordered path-graph polytope: its 2^(n-1) vertices
  indexed by subsets, the closed form of the polytope as 2(n-1)
  inequalities, and the Fibonacci counting formulas.
"""
from .complete import kn_candidate_points, kn_extreme_points
from .ordered_path import (
    count_commuting_subsets,
    fibonacci,
    fibonacci_nonlocal_count,
    pn_polytope,
    subset_point,
    subset_sequence,
)

__all__ = [
    "kn_candidate_points",
    "kn_extreme_points",
    "count_commuting_subsets",
    "fibonacci",
    "fibonacci_nonlocal_count",
    "pn_polytope",
    "subset_point",
    "subset_sequence",
]

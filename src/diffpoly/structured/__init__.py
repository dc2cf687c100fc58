"""
Closed-form and theorem-backed solvers.

* ``words`` -- reduced words in the symmetric group and their commutation
  classes, plus stopping permutations for a weight vector.
* ``complete`` -- extreme points of the complete-graph polytope generated
  from commutation classes and certified exactly.
* ``ordered_path`` -- the ordered path-graph polytope: its 2^(n-1) vertices
  indexed by subsets, the hypercube adjacency, exact decomposition
  witnesses for one averaging step, and the Fibonacci counting formulas.
"""
from .words import (
    all_permutations,
    commutation_classes,
    inversions,
    reduced_words,
    stopping_permutation,
    total_commutation_classes,
)
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
    "all_permutations",
    "commutation_classes",
    "inversions",
    "reduced_words",
    "stopping_permutation",
    "total_commutation_classes",
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

"""The public names of the package and its structured solvers."""
import importlib

import pytest

from diffpoly.structured.ordered_path import PnPolytope

SURFACE = {
    "diffpoly": [
        "BlockOp", "DiffusionGraph", "OperationSequence", "PairOp", "PopulationVector",
        "apply_op", "apply_sequence", "complete", "cycle", "grid_composition", "helium_p5",
        "path", "spread", "uniform_vector", "ClassifiedVertex", "PolytopeConfig",
        "PolytopeResult", "explore", "polytope", "triangle_decomposition", "triangle_prune",
        "extreme_points", "hull_membership", "hull_vertices", "EnergyReport", "Objective",
        "energy", "exponential_populations", "gardner_limit", "monotone_extremal_check",
        "optimize_over", "fibonacci_nonlocal_count", "count_commuting_subsets",
        "kn_extreme_points", "pn_polytope", "__version__",
    ],
    "diffpoly.core": [
        "parse_rational", "format_rational", "PopulationVector", "DiffusionGraph", "PairOp",
        "BlockOp", "AveragingOp", "OperationSequence", "apply_op", "apply_sequence", "spread",
        "complete", "path", "cycle", "helium_p5", "grid_composition", "connected_blocks",
        "uniform_vector",
    ],
    "diffpoly.structured": [
        "kn_candidate_points", "kn_extreme_points", "count_commuting_subsets", "fibonacci",
        "fibonacci_nonlocal_count", "pn_polytope", "subset_point", "subset_sequence",
    ],
    "diffpoly.structured.ordered_path": [
        "subset_point", "subset_sequence", "PnVertex", "PnPolytope", "pn_polytope",
        "fibonacci", "triangular", "count_commuting_subsets", "fibonacci_nonlocal_count",
    ],
}

# gone, each with a plain replacement: a test oracle's sweep over `_tree_walk`,
# a label lookup among `vertices`, the one-element flips computed inline, and
# the counting functions themselves
REMOVED = {
    "diffpoly.core": ["sweep_word", "_spanning_walk"],
    "diffpoly.structured": ["counts_csv"],
    "diffpoly.structured.ordered_path": ["counts_csv"],
}


@pytest.mark.parametrize("name", SURFACE)
def test_all_lists_the_public_names(name):
    module = importlib.import_module(name)
    assert module.__all__ == SURFACE[name]
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    star = {}
    exec(f"from {name} import *", star)
    assert set(SURFACE[name]) <= star.keys()


def test_removed_names_are_gone():
    for name, attrs in REMOVED.items():
        module = importlib.import_module(name)
        assert [attr for attr in attrs if hasattr(module, attr)] == [], name
    gone = ("vertex_by_subset", "neighbors", "hypercube_edges", "n")
    assert [attr for attr in gone if hasattr(PnPolytope, attr)] == []

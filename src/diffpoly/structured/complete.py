"""
Extreme points of the complete-graph diffusion polytope.

On the complete graph every extreme point arises from a sequence that only
ever averages pairs whose populations are adjacent in the current ranking.
Reading a reduced word letter by letter -- letter i meaning "average the
two vertices currently ranked i and i+1, then swap their ranks" -- turns
each commutation class into one candidate point, and commuting letter
swaps do not change the point.  The candidate set provably covers every
vertex of the polytope; it is certified and filtered exactly here, because
a few classes (first seen at n = 4, on reverse-permutation words) yield
points that are *not* extreme even for fully generic populations.

Ties are covered too.  Ranks break ties by label, so each candidate is a
fixed linear map, set by its word and that ranking, applied to rho0.  A
tied rho0 is the limit of distinct vectors ranked the same way, for which
the candidates' hull is the polytope; the hull of finitely many points is
closed, so the limit carries that over to the tie.  Sequences omit the
letters that average two equal levels, which leave the point unchanged.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..core import OperationSequence, PairOp, PopulationVector, op_sort_key
from ..geometry import IncrementalHull
from .words import all_permutations, commutation_classes, reduced_words

__all__ = ["word_sequence", "kn_candidate_points", "kn_extreme_points", "is_kn_extreme"]


def word_sequence(word: Sequence[int], rho0: Sequence[Fraction]) -> tuple[PopulationVector, OperationSequence]:
    """
    Run a rank-word from `rho0`: letter i averages the vertices currently
    ranked i and i+1 (ranks by increasing initial population) and swaps
    their rank slots.  Returns the resulting state and the vertex-labeled
    pair sequence that produced it; a letter whose two levels are already
    equal still swaps their ranks but leaves no operator in the sequence.
    """
    n = len(rho0)
    ranking = sorted(range(1, n + 1), key=lambda v: (rho0[v - 1], v))
    state = PopulationVector(rho0)
    ops = []
    for letter in word:
        u, v = ranking[letter - 1], ranking[letter]
        if state[u - 1] != state[v - 1]:
            op = PairOp.of(u, v)
            state = op.apply(state)
            ops.append(op)
        ranking[letter - 1], ranking[letter] = ranking[letter], ranking[letter - 1]
    return state, OperationSequence(ops)


def kn_candidate_points(rho0: Sequence[Fraction]) -> dict[PopulationVector, OperationSequence]:
    """
    One candidate extreme point per commutation class, deduplicated; each
    maps to the pair sequence of the least word in its class, which on ties
    omits the letters that average equal levels (see `word_sequence`).
    """
    rho0 = PopulationVector(rho0)
    n = len(rho0)
    candidates: dict[PopulationVector, OperationSequence] = {}
    for perm in all_permutations(n):
        for cls in commutation_classes(perm):
            point, seq = word_sequence(cls[0], rho0)
            if point not in candidates:
                candidates[point] = seq
    return candidates


def kn_extreme_points(rho0: Sequence[Fraction]) -> list[tuple[PopulationVector, OperationSequence]]:
    """
    The certified extreme points of the complete-graph polytope of `rho0`,
    each with a generating pair sequence, in lexicographic point order.
    On ties each vertex takes its shortest sequence over every reduced
    word, least in the canonical operator order.
    """
    rho0 = PopulationVector(rho0)
    candidates = kn_candidate_points(rho0)
    hull = IncrementalHull(list(candidates))
    vertices = {p: candidates[p] for p in sorted(candidates) if hull.is_extreme_in(p)}
    if len(set(rho0)) != len(rho0):
        def key(seq):
            return len(seq), [op_sort_key(op) for op in seq]
        for perm in all_permutations(len(rho0)):
            for word in reduced_words(perm):
                point, seq = word_sequence(word, rho0)
                if point in vertices and key(seq) < key(vertices[point]):
                    vertices[point] = seq
    return list(vertices.items())


def is_kn_extreme(point: Sequence[Fraction], rho0: Sequence[Fraction]) -> bool:
    """
    Is `point` an extreme point of the complete-graph polytope of `rho0`?

    Any point of that polytope is a convex combination of the candidate
    points, so extremality reduces to membership in the hull of the other
    candidates.
    """
    hull = IncrementalHull(list(kn_candidate_points(rho0)))
    return hull.is_extreme_in(tuple(point))

"""
Extreme points of the complete-graph diffusion polytope.

On the complete graph every extreme point arises from a sequence that only
ever averages pairs whose populations are adjacent in the current ranking.
Reading a reduced word letter by letter -- letter i meaning "average the
two vertices currently ranked i and i+1, then swap their ranks" -- turns
each commutation class into one candidate point, and commuting letter
swaps do not change the point.  The least word of a class is its
lexicographic normal form, so the candidates come from a depth-first search
over normal forms alone, which visits each class once and averages each
prefix once; no other word is listed.  The candidate set provably covers
every vertex of the polytope; it is certified and filtered exactly here,
because a few classes (first seen at n = 4, on reverse-permutation words)
yield points that are *not* extreme even for fully generic populations.

Ties are covered too.  Ranks break ties by label, so each candidate is a
fixed linear map, set by its word and that ranking, applied to rho0.  A
tied rho0 is the limit of distinct vectors ranked the same way, for which
the candidates' hull is the polytope; the hull of finitely many points is
closed, so the limit carries that over to the tie.  Sequences omit the
letters that average two equal levels, which leave the point unchanged.
On ties a vertex takes its shortest sequence over every reduced word,
least in the canonical operator order.  Commuting letters touch disjoint
rank slots, so all words of a class average the same pairs, skip the same
equal levels and reach the same point; only the order of the ops varies.
The words of a class are the linear extensions of its heap (s precedes t
when s < t and |w_s - w_t| <= 1), so the least order is greedy: a free
silent letter goes at once, as it only frees others, else the least free
op goes; the ops are distinct, as a reduced word swaps each pair once.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..core import OperationSequence, PairOp, PopulationVector, op_sort_key
from ..geometry import IncrementalHull

__all__ = ["kn_candidate_points", "kn_extreme_points"]


def _rank_words(rho0: PopulationVector):
    """
    Depth-first walk over the lexicographic normal forms of the reduced
    rank-words from `rho0`, sharing prefixes: yields (permutation, word,
    point, steps) per commutation class, the empty word first.  Letter i
    averages the vertices currently ranked i and i+1 (ranks by increasing
    initial population, ties by label) and swaps their rank slots; steps
    hold that pair op per letter, None where the levels were equal.
    Letter a may follow a prefix when it lengthens the permutation and
    keeps the word the least of its class: no letter greater than a in the
    run of letters commuting with a (|x - a| > 1) that ends the prefix.
    Both rules are prefix-closed, so the walk visits each class once, at
    its least word.
    """
    n = len(rho0)
    ranking = sorted(range(1, n + 1), key=lambda v: (rho0[v - 1], v))
    stack = [((), list(range(1, n + 1)), rho0, ())]
    while stack:
        word, perm, state, steps = stack.pop()
        yield tuple(perm), word, state, steps
        for a in range(n - 1, 0, -1):  # pushed high to low: the least letter comes out first
            if perm[a - 1] > perm[a] or not _least_in_class(word, a):
                continue
            u, v = ranking[perm[a - 1] - 1], ranking[perm[a] - 1]  # slot j holds initial rank perm[j]
            op = PairOp.of(u, v) if state[u - 1] != state[v - 1] else None
            next_perm = perm[:]
            next_perm[a - 1], next_perm[a] = perm[a], perm[a - 1]
            stack.append((word + (a,), next_perm, op.apply(state) if op else state, steps + (op,)))


def _least_in_class(word: tuple[int, ...], a: int) -> bool:
    """May `a` follow `word`, a lexicographic normal form, and keep it one?"""
    for x in reversed(word):
        if abs(x - a) <= 1:
            return True
        if x > a:
            return False
    return True


def _least_order(word: tuple[int, ...], steps: tuple) -> list[PairOp]:
    """The least op order over the class of `word`, by the module docstring's greedy."""
    rest, order = list(zip(word, steps)), []
    while rest:
        seen, free = set(), []
        for t, (a, op) in enumerate(rest):
            if seen.isdisjoint((a - 1, a, a + 1)):  # a waits for no letter left before it
                free.append((op_sort_key(op) if op else (), t))  # silent letters sort first
            seen.add(a)
        order.append(rest.pop(min(free)[1])[1])
    return [op for op in order if op]


def kn_candidate_points(rho0: Sequence[Fraction]) -> dict[PopulationVector, OperationSequence]:
    """
    One candidate extreme point per commutation class, deduplicated; each
    maps to the pair sequence of the least word in its class, which on ties
    omits the letters that average equal levels (see `_rank_words`).

    The least words are generated directly, by a depth-first search over
    lexicographic normal forms (Cartier & Foata; Anisimov & Knuth), so each
    class is visited once and each prefix averaged once.  A point shared by
    several classes keeps the sequence of the least (permutation, word),
    and the points come in that key's order.
    """
    rho0 = PopulationVector(rho0)
    best: dict[PopulationVector, tuple] = {}
    for perm, word, point, steps in _rank_words(rho0):
        key = (perm, word)
        if point not in best or key < best[point][0]:
            best[point] = (key, steps)
    ordered = sorted(best.items(), key=lambda item: item[1][0])
    return {point: OperationSequence(op for op in steps if op) for point, (_key, steps) in ordered}


def _kn_hull(rho0: Sequence[Fraction]):
    """
    The unscanned hull of the candidates of `rho0`, which is the
    complete-graph polytope, and a function that pairs chosen vertices, in
    their order, with sequences.  On ties each takes its shortest sequence
    over every reduced word, least in the canonical operator order: the
    least over the classes of each class's `_least_order` (module docstring).
    """
    rho0 = PopulationVector(rho0)
    candidates = kn_candidate_points(rho0)

    def label(points) -> list[tuple[PopulationVector, OperationSequence]]:
        sequences = {p: candidates[p] for p in points}
        if len(set(rho0)) != len(rho0):
            def key(ops):
                return len(ops), [op_sort_key(op) for op in ops]
            for _perm, word, point, steps in _rank_words(rho0):
                if point in sequences and key(ops := _least_order(word, steps)) < key(sequences[point]):
                    sequences[point] = OperationSequence(ops)
        return list(sequences.items())

    return IncrementalHull(list(candidates)), label


def kn_extreme_points(rho0: Sequence[Fraction]) -> list[tuple[PopulationVector, OperationSequence]]:
    """The certified extreme points of the complete-graph polytope of `rho0`,
    with their `_kn_hull` sequences, in lexicographic point order."""
    hull, label = _kn_hull(rho0)
    return label(hull.vertices())

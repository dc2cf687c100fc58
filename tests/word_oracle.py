"""
Test oracles: for `diffpoly.structured.complete`, reduced words in the
symmetric group, their commutation classes and the rank-word replay; for
block operators, `sweep_word`, a pair word whose repetition converges to
the block average.

Permutations are tuples in one-line notation over 1..n.  A word is a tuple
of letter indices (i_1, ..., i_m), each letter i meaning the adjacent
transposition of positions i, i+1; words act left to right.  A word for a
permutation is *reduced* when its length equals the inversion count.

Two reduced words are in the same commutation class when one turns into
the other by repeatedly swapping neighboring letters i, j with |i-j| > 1.

`reduced_words` and `commutation_classes` list every word and partition
them, which grows fast (the longest element of S_6 alone has 292,864
reduced words), and `word_sequence` replays one word from a population.
Together they are the reference for `complete.kn_candidate_points`, which
generates the least word of each class directly, and for the K_n tie pass,
which reorders that word's operators instead of walking the class.  The
library calls none of these oracles.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _itertools_permutations
from typing import Iterable, Iterator, Sequence

from diffpoly.core import (
    BlockOp,
    DiffusionGraph,
    OperationSequence,
    PairOp,
    PopulationVector,
    _tree_walk,
)

Permutation = tuple[int, ...]
Word = tuple[int, ...]


def inversions(perm: Sequence[int]) -> int:
    """
    Number of out-of-order pairs; the length of any reduced word.

    >>> inversions((3, 2, 1))
    3
    """
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def apply_word(word: Iterable[int], n: int) -> Permutation:
    """
    The permutation realized by a word acting on the identity.

    >>> apply_word((1, 2), 3)
    (2, 3, 1)
    """
    arr = list(range(1, n + 1))
    for i in word:
        if not 0 < i < n:
            raise ValueError(f"letter {i} is outside 1..{n - 1}")
        arr[i - 1], arr[i] = arr[i], arr[i - 1]
    return tuple(arr)


def all_permutations(n: int) -> Iterator[Permutation]:
    return _itertools_permutations(range(1, n + 1))


def reduced_words(perm: Permutation) -> tuple[Word, ...]:
    """
    Every reduced word realizing `perm`, in lexicographic order.

    Built backwards: the last letter of a reduced word must be a descent
    position of the permutation.

    >>> reduced_words((3, 2, 1))
    ((1, 2, 1), (2, 1, 2))
    >>> reduced_words((1, 2, 3))
    ((),)
    """
    if list(perm) == sorted(perm):
        return ((),)
    out: list[Word] = []
    for i in range(len(perm) - 1):
        if perm[i] > perm[i + 1]:
            shorter = list(perm)
            shorter[i], shorter[i + 1] = shorter[i + 1], shorter[i]
            for w in reduced_words(tuple(shorter)):
                out.append(w + (i + 1,))
    return tuple(sorted(out))


def _commutation_neighbors(word: Word) -> Iterator[Word]:
    for t in range(len(word) - 1):
        if abs(word[t] - word[t + 1]) > 1:
            yield word[:t] + (word[t + 1], word[t]) + word[t + 2 :]


def commutation_classes(perm: Permutation) -> tuple[tuple[Word, ...], ...]:
    """
    Partition of the reduced words of `perm` under letter commutation,
    each class sorted, classes ordered by their least word.

    >>> [len(c) for c in commutation_classes((3, 2, 1))]
    [1, 1]
    >>> commutation_classes((3, 1, 2))
    (((2, 1),),)
    """
    remaining = set(reduced_words(perm))
    classes: list[tuple[Word, ...]] = []
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        component = {seed}
        stack = [seed]
        while stack:
            w = stack.pop()
            for v in _commutation_neighbors(w):
                if v in remaining:
                    remaining.discard(v)
                    component.add(v)
                    stack.append(v)
        classes.append(tuple(sorted(component)))
    return tuple(sorted(classes))


def total_commutation_classes(n: int) -> int:
    """
    Commutation classes summed over the whole symmetric group.

    >>> total_commutation_classes(3)
    7
    """
    return sum(len(commutation_classes(p)) for p in all_permutations(n))


def stopping_permutation(weights: Sequence) -> Permutation:
    """
    The population rank pattern from which no averaging can lower the
    objective: vertex indices listed by increasing population, which is
    the reverse of the indices listed by increasing weight.

    >>> stopping_permutation((2, 1, 3))   # w2 < w1 < w3
    (3, 1, 2)
    """
    if len(set(weights)) != len(weights):
        raise ValueError("weights must be pairwise distinct")
    by_weight = sorted(range(1, len(weights) + 1), key=lambda i: weights[i - 1])
    return tuple(reversed(by_weight))


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
        if not 0 < letter < n:
            raise ValueError(f"letter {letter} is outside 1..{n - 1}")
        u, v = ranking[letter - 1], ranking[letter]
        if state[u - 1] != state[v - 1]:
            op = PairOp.of(u, v)
            state = op.apply(state)
            ops.append(op)
        ranking[letter - 1], ranking[letter] = ranking[letter], ranking[letter - 1]
    return state, OperationSequence(ops)


def sweep_word(graph: DiffusionGraph, block: BlockOp) -> OperationSequence:
    """
    One relaxation sweep approximating `block` by pair operators: the edges
    of the depth-first tree inside the block, applied from the last found
    back to the first.  Iterating the sweep converges (geometrically) to
    the exact block average.
    """
    block.validate(graph)
    walk = _tree_walk(graph.adjacency(), set(block.vertices))
    return OperationSequence(PairOp.of(i, j) for i, j in reversed(walk))

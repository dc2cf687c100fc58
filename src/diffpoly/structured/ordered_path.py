"""
The diffusion polytope of the path graph with non-decreasing populations.

With populations sorted along the path, the polytope has one vertex S_A
per subset A of {1, ..., n-1}: wherever A contains a maximal run of
consecutive indices i..i+k-1, the k+1 components i..i+k of S_A equal the
mean of the corresponding initial components, and everything else is
untouched.  The vertex set is therefore a combinatorial (n-1)-hypercube,
with S_A adjacent to the n-1 points whose subsets differ in one element.

For sorted rho0 the polytope is
Q = {x : sum(x) = 1, x_a <= x_{a+1} and P_a(x) >= P_a(rho0), a = 1..n-1},
with P_a the sum of the first a components: the ascending states that
rho0 majorizes.  ``_slacks`` gives Q's 2(n-1) slacks at a state's integer
image, so checking a point against Q is a substitution.  Why Q is the
polytope D, ties included (they only make some S_A coincide):

* D lies in Q.  rho0 is in Q.  Averaging the pair i, i+1 of an ascending
  state keeps it ascending and changes only P_i, which it raises, so each
  pair step maps Q into Q.  A block is a limit of pair steps and Q is
  closed, so blocks map Q into Q too.  In particular every S_A, the image
  of rho0 under its word, lies in Q.
* S_A is a vertex of Q.  In prefix-sum coordinates y_a = P_a(x), with
  y_0 = 0 and y_n = 1, the equation x_a = x_{a+1} makes y_a the mean of
  y_{a-1} and y_{a+1}.  The n-1 equations x_a = x_{a+1} for a in A and
  P_a(x) = P_a(rho0) for a not in A fix y_a at each a not in A and make y
  linear across each maximal run of A.  Their only solution is S_A.  For
  strictly increasing rho0 no other inequality is tight there, so S_A is
  a simple vertex.  Each of its n-1 edges keeps all but one of these
  equations tight; S_{A xor {a}} satisfies those n-2 and lies in Q, so the
  edges end at the flips.
* The subset points are all the vertices.  The graph of a polytope is
  connected, and from rho0, the empty subset's point, the edges reach only
  subset points, so vert(Q) = {S_A}.  Then Q = conv(S), which lies in D,
  since each S_A has a word: D = Q = conv(S).  Q and every S_A move
  continuously with rho0, so the equality carries over to tied rho0.

The number of vertices inherited from the complete-graph problem (the
subsets with no two consecutive elements, reachable by commuting pair
averagings) is the Fibonacci number F(n+1); the counting helpers live
here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from ..core import (
    BlockOp,
    OperationSequence,
    PairOp,
    PopulationVector,
    apply_sequence,
)
from ..geometry import ExtremalityCertificate, _average, _image, _StateImage, extreme_points

__all__ = [
    "subset_point",
    "subset_sequence",
    "PnVertex",
    "PnPolytope",
    "pn_polytope",
    "fibonacci",
    "triangular",
    "count_commuting_subsets",
    "fibonacci_nonlocal_count",
]


def _require_sorted(rho0: Sequence[Fraction]) -> PopulationVector:
    rho0 = PopulationVector(rho0)
    if any(rho0[t] > rho0[t + 1] for t in range(len(rho0) - 1)):
        raise ValueError("populations must be non-decreasing along the path")
    return rho0


def _maximal_runs(subset: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive integers, as (first, last) pairs."""
    items = sorted(set(subset))
    runs = []
    for v in items:
        if runs and v == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return runs


def subset_point(subset: Iterable[int], rho0: Sequence[Fraction]) -> PopulationVector:
    """
    The vertex S_A: block-average `rho0` over each maximal run of A.

    >>> from fractions import Fraction as F
    >>> rho = PopulationVector([F(0), F(1, 10), F(2, 10), F(7, 10)])
    >>> subset_point({1, 2}, rho)
    (Fraction(1, 10), Fraction(1, 10), Fraction(1, 10), Fraction(7, 10))
    """
    rho0 = _require_sorted(rho0)
    n = len(rho0)
    subset = set(subset)
    if any(not (1 <= a <= n - 1) for a in subset):
        raise ValueError(f"subset {sorted(subset)} out of range for n={n}")
    return apply_sequence(subset_sequence(subset), rho0)


def subset_sequence(subset: Iterable[int]) -> OperationSequence:
    """
    A shortest generating word for S_A: one pair or block operator per
    maximal run, mutually commuting.
    """
    ops = []
    for first, last in _maximal_runs(subset):
        if last == first:
            ops.append(PairOp.of(first, first + 1))
        else:
            ops.append(BlockOp(tuple(range(first, last + 2))))
    return OperationSequence(ops)


@dataclass(frozen=True)
class PnVertex:
    """One hypercube vertex: its subset label, point, word and kind."""

    subset: frozenset[int]
    point: PopulationVector
    sequence: OperationSequence
    kind: str  # "nonlocal" (commuting pair word) or "asymptotic" (needs a block)

    def to_json(self) -> dict:
        return {
            "subset": sorted(self.subset),
            "point": self.point.to_json(),
            "sequence": self.sequence.to_json(),
            "kind": self.kind,
        }


@dataclass(frozen=True)
class PnPolytope:
    """The ordered path-graph polytope, fully certified."""

    rho0: PopulationVector
    vertices: tuple[PnVertex, ...]
    generic_count: int  # 2^(n-1): attained exactly when rho0 is strictly increasing
    certificates: tuple[ExtremalityCertificate, ...]
    completeness: str = "proven"

    def to_json(self) -> dict:
        return {
            "rho0": self.rho0.to_json(),
            "completeness": self.completeness,
            "generic_count": self.generic_count,
            "vertices": [v.to_json() for v in self.vertices],
        }


def _subset_images(rho0: Sequence[Fraction]) -> dict[_StateImage, frozenset[int]]:
    """
    The distinct subset points of sorted `rho0` as their primitive images,
    each with its smallest subset: ρ0's image averaged by the search's
    integer step once per maximal run, with no `Fraction` built.
    """
    rho_image = _StateImage(_image(_require_sorted(rho0)))
    n = len(rho_image) - 1
    chosen: dict[_StateImage, frozenset[int]] = {}
    for size in range(n):
        for sub in combinations(range(1, n), size):
            image = rho_image
            for first, last in _maximal_runs(sub):
                image = _average(image, tuple(range(first - 1, last + 1)))
            chosen.setdefault(image, frozenset(sub))
    return chosen


def _subset_points(rho0: Sequence[Fraction]) -> dict[PopulationVector, frozenset[int]]:
    """The distinct subset points of sorted `rho0`, each with its smallest subset."""
    return {image.point(): sub for image, sub in _subset_images(rho0).items()}


def _slacks(image: Sequence[int], rho_image: Sequence[int]) -> list[int]:
    """
    Q's 2(n-1) slacks at the state of integer image (d*x_1, ..., d*x_n, d),
    given `rho_image`, the image (e*rho_1, ..., e) of sorted rho0: first
    d*(x_{a+1} - x_a), then d*e*(P_a(x) - P_a(rho0)), for a = 1..n-1.  A
    state, whose entries sum to 1, is in Q exactly when none is negative.

    >>> _slacks((1, 1, 6, 8), (0, 1, 3, 4))  # S_{1} = (1/8, 1/8, 3/4) of (0, 1/4, 3/4)
    [0, 5, 4, 0]
    """
    *x, d = image
    *r, e = rho_image
    steps = [b - a for a, b in zip(x, x[1:])]
    return steps + [p * e - q * d for p, q in zip(accumulate(x[:-1]), accumulate(r[:-1]))]


def _pn_vertex(point: PopulationVector, sub: frozenset[int]) -> PnVertex:
    kind = "asymptotic" if any(a + 1 in sub for a in sub) else "nonlocal"
    return PnVertex(subset=sub, point=point, sequence=subset_sequence(sub), kind=kind)


def pn_polytope(rho0: Sequence[Fraction]) -> PnPolytope:
    """
    All 2^(n-1) subset vertices of the ordered path-graph polytope,
    deduplicated exactly and certified extreme.

    A vertex whose subset has no two consecutive elements is reachable by
    commuting pair averagings and is inherited from the complete-graph
    problem ("nonlocal"); every other vertex needs a block operator
    ("asymptotic").  With ties in `rho0` some subsets collapse onto each
    other; the smallest subset is kept as the label.
    """
    chosen = _subset_points(rho0)
    rho0 = next(iter(chosen))  # the empty subset's point: rho0, checked
    certs = extreme_points(list(chosen))
    non_extreme = [c for c in certs if not c.is_extreme]
    if non_extreme:  # impossible for sorted populations; fail loudly if ever hit
        raise AssertionError(
            f"subset points failed extremality: {[c.point for c in non_extreme]}"
        )
    return PnPolytope(
        rho0=rho0,
        vertices=tuple(_pn_vertex(c.point, chosen[c.point]) for c in certs),  # in point order
        generic_count=2 ** (len(rho0) - 1),
        certificates=tuple(certs),
    )


# ---------------------------------------------------------------------------
# counting


def fibonacci(m: int) -> int:
    """F(0)=0, F(1)=1, F(2)=1, ...

    >>> [fibonacci(m) for m in range(8)]
    [0, 1, 1, 2, 3, 5, 8, 13]
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def triangular(m: int) -> int:
    """The m-th triangular number m(m+1)/2."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return m * (m + 1) // 2


def count_commuting_subsets(n: int, k: int) -> int:
    """
    Number of k-element sets of mutually commuting pair operators on the
    n-level path: k-subsets of {1..n-1} with no two consecutive elements,
    which is C(n-k, k).

    >>> count_commuting_subsets(6, 3)   # e.g. positions {1, 3, 5}
    1
    """
    if n <= 2:
        raise ValueError("counting needs n > 2")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > n - k:  # no k-subset avoids consecutive elements
        return 0
    return math.comb(n - k, k)


def fibonacci_nonlocal_count(n: int) -> int:
    """
    Number of ordered-path vertices inherited from the complete graph:
    sum over k of C(n-k, k), a shallow Pascal diagonal, equal to F(n+1).

    >>> fibonacci_nonlocal_count(4)
    5
    """
    if n <= 2:
        raise ValueError("counting needs n > 2")
    total = sum(count_commuting_subsets(n, k) for k in range(0, n // 2 + 1))
    if total != fibonacci(n + 1):
        raise AssertionError(f"commuting-subset count {total} is not F({n + 1})")
    return total

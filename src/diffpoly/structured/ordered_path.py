"""
The diffusion polytope of the path graph with non-decreasing populations.

With populations sorted along the path, the polytope has one vertex S_A
per subset A of {1, ..., n-1}: wherever A contains a maximal run of
consecutive indices i..i+k-1, the k+1 components i..i+k of S_A equal the
mean of the corresponding initial components, and everything else is
untouched.  The vertex set is therefore a combinatorial (n-1)-hypercube,
with S_A adjacent to the n-1 points whose subsets differ in one element.

``decompose_step`` is the inductive engine behind that statement: it
expresses one further pair averaging applied to a vertex, S_A B(i,i+1),
as an exact convex combination of (at most) four neighboring vertices,
with closed-form coefficients and a feasibility window whose endpoints
are reported for verification.

The number of vertices inherited from the complete-graph problem (the
subsets with no two consecutive elements, reachable by commuting pair
averagings) is the Fibonacci number F(n+1); the counting helpers live
here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from ..core import (
    BlockOp,
    OperationSequence,
    PairOp,
    PopulationVector,
    apply_sequence,
    format_rational,
)
from ..geometry import ExtremalityCertificate, _is_convex_combination, extreme_points, hull_membership

__all__ = [
    "subset_point",
    "subset_sequence",
    "PnVertex",
    "PnPolytope",
    "pn_polytope",
    "StepDecomposition",
    "decompose_step",
    "fibonacci",
    "triangular",
    "count_commuting_subsets",
    "fibonacci_nonlocal_count",
    "counts_csv",
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

    @property
    def n(self) -> int:
        return len(self.rho0)

    def vertex_by_subset(self, subset: Iterable[int]) -> PnVertex:
        target = subset_point(subset, self.rho0)
        for v in self.vertices:
            if v.point == target:
                return v
        raise KeyError(f"no vertex for subset {sorted(set(subset))}")

    def neighbors(self, subset: Iterable[int]) -> list[frozenset[int]]:
        """The n-1 subsets differing from `subset` in exactly one element."""
        base = frozenset(subset)
        return [base ^ {a} for a in range(1, self.n)]

    def hypercube_edges(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        labels = [v.subset for v in self.vertices]
        return [
            (a, b)
            for a, b in combinations(labels, 2)
            if len(a ^ b) == 1
        ]

    def to_json(self) -> dict:
        return {
            "rho0": self.rho0.to_json(),
            "completeness": self.completeness,
            "generic_count": self.generic_count,
            "vertices": [v.to_json() for v in self.vertices],
        }


def _subset_points(rho0: Sequence[Fraction]) -> dict[PopulationVector, frozenset[int]]:
    """The distinct subset points of sorted `rho0`, each with its smallest subset."""
    rho0 = _require_sorted(rho0)
    chosen: dict[PopulationVector, frozenset[int]] = {}
    for size in range(len(rho0)):
        for sub in combinations(range(1, len(rho0)), size):
            chosen.setdefault(apply_sequence(subset_sequence(sub), rho0), frozenset(sub))
    return chosen


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
        vertices=tuple(_pn_vertex(p, chosen[p]) for p in sorted(chosen)),
        generic_count=2 ** (len(rho0) - 1),
        certificates=tuple(certs),
    )


@dataclass(frozen=True)
class StepDecomposition:
    """
    Exact convex decomposition of S_A B(i,i+1) over neighboring vertices.

    `case` records the run geometry around position i:

    * "identity"     -- i already in A, nothing moves;
    * "all_coincide" -- k = l = 1, the image is itself the vertex S_{A+i};
    * "short_left"   -- k = 1 < l, two distinct vertices suffice;
    * "short_right"  -- k > 1 = l, two distinct vertices suffice;
    * "generic"      -- k, l > 1, the full four-point machinery with the
      closed-form affine coefficients and the feasibility window
      [max(0, r1), min(r2, r3)] for the fourth weight;
    * "flat"         -- all populations around i coincide (non-generic
      input), the image equals S_{A+i}.

    All fields that the run geometry leaves undefined are None.
    """

    subset: frozenset[int]
    position: int
    rho0: PopulationVector
    case: str
    k: int
    l: int
    target: PopulationVector
    points: tuple[PopulationVector, PopulationVector, PopulationVector, PopulationVector]
    lambdas: tuple[Fraction, Fraction, Fraction, Fraction]
    r_values: tuple[Fraction | None, Fraction, Fraction, Fraction | None]
    p_values: tuple[Fraction | None, Fraction, Fraction | None]
    x: Fraction
    y: Fraction
    segment_values: dict
    coeff_c: tuple[Fraction, Fraction, Fraction] | None = None
    coeff_d: tuple[Fraction, Fraction, Fraction] | None = None
    window: tuple[Fraction, Fraction] | None = None
    ratios: tuple[Fraction, Fraction, Fraction] | None = None  # (-D1/C1, -D2/C2, -D3/C3)

    def verify(self) -> bool:
        return _is_convex_combination(self.target, zip(self.points, self.lambdas))

    def to_json(self) -> dict:
        opt = lambda v: None if v is None else format_rational(v)
        return {
            "subset": sorted(self.subset),
            "position": self.position,
            "case": self.case,
            "k": self.k,
            "l": self.l,
            "target": self.target.to_json(),
            "points": [list(p.to_json()) for p in self.points],
            "lambdas": [format_rational(l) for l in self.lambdas],
            "r": [opt(v) for v in self.r_values],
            "p": [opt(v) for v in self.p_values],
            "window": None if self.window is None else [format_rational(w) for w in self.window],
            "ratios": None if self.ratios is None else [format_rational(r) for r in self.ratios],
        }


def _mean(rho: Sequence[Fraction], first: int, last: int) -> Fraction | None:
    """Mean of 1-based positions first..last; None when the range is empty."""
    if last < first:
        return None
    return sum(rho[t - 1] for t in range(first, last + 1)) / (last - first + 1)


def _two_point_weight(target, p_main, p_other) -> Fraction:
    """Solve target = w*p_main + (1-w)*p_other exactly."""
    for t in range(len(target)):
        if p_main[t] != p_other[t]:
            return (target[t] - p_other[t]) / (p_main[t] - p_other[t])
    return Fraction(1)  # the two points coincide; target must equal them


def decompose_step(subset: Iterable[int], position: int,
                   rho0: Sequence[Fraction]) -> StepDecomposition:
    """
    Decompose S_A B(i,i+1) as an exact convex combination of hypercube
    vertices, with the closed-form coefficients in the generic case.

    The construction around position i: S_A carries a run of k equal
    values ending at i and a run of l equal values starting at i+1.
    R1/R4 are the initial-population means flanking positions i, i+1,
    p1..p3 their successive gaps; the four candidate vertices are the
    subset points of A+i with, respectively, nothing removed, i+1
    removed, i-1 removed, and both removed.
    """
    rho0 = _require_sorted(rho0)
    n = len(rho0)
    A = frozenset(subset)
    i = position
    if not (1 <= i <= n - 1):
        raise ValueError(f"position {i} out of range for n={n}")
    if any(not (1 <= a <= n - 1) for a in A):
        raise ValueError(f"subset {sorted(A)} out of range for n={n}")

    def point(sub: Iterable[int]) -> PopulationVector:
        return apply_sequence(subset_sequence(sub), rho0)

    zero = Fraction(0)
    s_a = point(A)
    target = PairOp.of(i, i + 1).apply(s_a)
    r2, r3 = rho0[i - 1], rho0[i]
    if i in A:
        if target != s_a:
            raise AssertionError(f"pair {i},{i + 1} moved the subset point of {sorted(A)}")
        k = l = 0
        r1 = r4 = None
        x, y = s_a[i - 1], s_a[i]
        points = (s_a,) * 4
        segment_values = {}
    else:
        k = 1
        while (i - k) in A:
            k += 1
        l = 1
        while (i + l) in A:
            l += 1
        r1 = _mean(rho0, i - k + 1, i - 1)
        r4 = _mean(rho0, i + 2, i + l)
        x = _mean(rho0, i - k + 1, i)
        y = _mean(rho0, i + 1, i + l)
        B = A | {i}
        points = (point(B), point(B - {i + 1}), point(B - {i - 1}), point(B - {i - 1, i + 1}))
        segment_values = {
            "X": _mean(rho0, i - k + 1, i + l),
            "X1": _mean(rho0, i - k + 1, i + 1),
            "Y1": r4,
            "X2": r1,
            "Y2": _mean(rho0, i, i + l),
            "Z": (r2 + r3) / 2,
        }
    p_values = (None if r1 is None else r2 - r1, r3 - r2, None if r4 is None else r4 - r3)
    s1, s2, s3, _ = points
    closed_form = {}

    if i in A or (k == 1 and l == 1):
        case = "identity" if i in A else "all_coincide"
        lambdas = (Fraction(1), zero, zero, zero)
    elif k == 1:  # S3 == S1 and S4 == S2: a two-point decomposition
        case = "short_left"
        w = _two_point_weight(target, s1, s2)
        lambdas = (w, 1 - w, zero, zero)
    elif l == 1:  # S2 == S1 and S4 == S3
        case = "short_right"
        w = _two_point_weight(target, s1, s3)
        lambdas = (w, zero, 1 - w, zero)
    else:
        p1, p2, p3 = p_values
        den_k = (k - 1) * p1 + k * p2 + (k + 1) * p3
        den_l = (l + 1) * p1 + l * p2 + (l - 1) * p3
        if den_k == 0 or den_l == 0 or (p2 + 2 * p3) == 0 or (p2 + 2 * p1) == 0:
            # ties in rho0 collapsed the frame; fall back to an LP witness
            distinct = sorted(set(points))
            res = hull_membership(target, distinct)
            if not res.inside:
                raise AssertionError("degenerate step escaped the vertex hull")
            weights = dict(zip(distinct, res.coefficients))
            case = "flat"
            lambdas = tuple(weights.pop(s, zero) for s in points)  # repeats weigh 0
        else:
            c1 = (p2 + 2 * p3) * (p2 + 2 * p1) * (k + l) / (2 * den_k * den_l)
            c2 = -(p2 + 2 * p3) * (k + 1) / (2 * den_k)
            c3 = -(p2 + 2 * p1) * (l + 1) / (2 * den_l)

            num_shared = (k - 1) * l * p1 + k * l * p2 + k * (l - 1) * p3
            ratio1 = ((k - 1) * l * p1 * p2 + k * l * p2 * p2 + k * (l - 1) * p2 * p3
                      - 2 * (k + l) * p1 * p3) / ((p2 + 2 * p3) * (p2 + 2 * p1) * k * l)
            ratio2 = num_shared / ((p2 + 2 * p3) * k * l)
            ratio3 = num_shared / ((p2 + 2 * p1) * k * l)

            d1 = -c1 * ratio1
            d2 = -c2 * ratio2
            d3 = -c3 * ratio3

            lo = max(zero, ratio1)
            hi = min(ratio2, ratio3)
            if lo > hi:  # contradicts the feasibility-window theorem
                raise AssertionError(f"empty feasibility window for A={sorted(A)}, i={i}")

            case = "generic"
            lambdas = (c1 * lo + d1, c2 * lo + d2, c3 * lo + d3, lo)
            closed_form = dict(coeff_c=(c1, c2, c3), coeff_d=(d1, d2, d3), window=(lo, hi),
                               ratios=(ratio1, ratio2, ratio3))

    dec = StepDecomposition(
        subset=A, position=i, rho0=rho0, case=case, k=k, l=l, target=target, points=points,
        lambdas=lambdas, r_values=(r1, r2, r3, r4), p_values=p_values, x=x, y=y,
        segment_values=segment_values, **closed_form)
    if not dec.verify():
        raise AssertionError(
            f"{case} step decomposition failed exact verification for A={sorted(A)}, i={i}"
        )
    return dec


# ---------------------------------------------------------------------------
# counting


def fibonacci(m: int) -> int:
    """F(0)=0, F(1)=1, F(2)=1, ...

    >>> [fibonacci(m) for m in range(8)]
    [0, 1, 1, 2, 3, 5, 8, 13]
    """
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def triangular(m: int) -> int:
    """The m-th triangular number m(m+1)/2."""
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


def counts_csv(n_max: int) -> str:
    """CSV table of the commuting-subset counts A_k(n) and their Fibonacci totals."""
    k_max = n_max // 2
    header = ["n"] + [f"A{k}" for k in range(0, k_max + 1)] + ["total", "fibonacci"]
    lines = [",".join(header)]
    for n in range(3, n_max + 1):
        row = [str(n)]
        for k in range(0, k_max + 1):
            row.append(str(count_commuting_subsets(n, k)) if k <= n // 2 else "")
        row.append(str(fibonacci_nonlocal_count(n)))
        row.append(str(fibonacci(n + 1)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

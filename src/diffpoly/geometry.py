"""
Exact rational convex geometry over finite point sets.

Two primitives, both decided in exact arithmetic with verifiable
certificates:

* ``hull_membership`` -- is a point a convex combination of a point set?
  Yes comes with the coefficients, no comes with a strictly separating
  linear functional (from the dual of the infeasible phase-one LP).
* ``extreme_points`` -- the vertices of the convex hull, each certified:
  vertices carry a separating functional, interior points carry an exact
  reconstruction over the vertices.

Both vertex scans and certificates come from one engine,
``IncrementalHull``: a Clarkson walk whose LPs run against the points
confirmed so far, and which returns the witness that decided each answer.

The LP solver is a dense phase-one simplex with Bland's rule, which cannot
cycle; instances here are tiny (dimension <= 10, at most a few hundred
points), so simplicity wins over sparsity tricks.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import PopulationVector, format_rational

__all__ = [
    "SeparatingFunctional",
    "HullMembership",
    "ExtremalityCertificate",
    "hull_membership",
    "hull_vertices",
    "extreme_points",
]


@dataclass(frozen=True)
class SeparatingFunctional:
    """Affine functional with value(x) <= 0 on the hull and > 0 at the point."""

    coefficients: tuple[Fraction, ...]
    offset: Fraction

    def value(self, point: Sequence[Fraction]) -> Fraction:
        return sum(c * x for c, x in zip(self.coefficients, point)) + self.offset

    def separates(self, point: Sequence[Fraction], others: Sequence[Sequence[Fraction]]) -> bool:
        return self.value(point) > 0 and all(self.value(q) <= 0 for q in others)

    def to_json(self) -> dict:
        return {
            "coefficients": [format_rational(c) for c in self.coefficients],
            "offset": format_rational(self.offset),
        }


@dataclass(frozen=True)
class HullMembership:
    """Outcome of an exact hull-membership query."""

    inside: bool
    coefficients: tuple[Fraction, ...] | None = None
    functional: SeparatingFunctional | None = None

    def verify(self, point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
        if self.inside:
            lam = self.coefficients
            if lam is None or len(lam) != len(points):
                return False
            if any(l < 0 for l in lam) or sum(lam) != 1:
                return False
            n = len(point)
            return all(
                sum(l * q[r] for l, q in zip(lam, points)) == point[r] for r in range(n)
            )
        if self.functional is None:
            return not points
        return self.functional.separates(point, points)


def _phase_one(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> HullMembership:
    """
    Decide feasibility of  sum(lam_k * s_k) = p, sum(lam_k) = 1, lam >= 0
    by minimizing the sum of artificial variables (Bland's rule throughout).
    """
    m = len(points)
    n = len(point)
    rows = n + 1

    b = [Fraction(point[r]) for r in range(n)] + [Fraction(1)]
    sign = [1] * rows
    for r in range(rows):
        if b[r] < 0:
            sign[r] = -1
            b[r] = -b[r]

    width = m + rows + 1
    tableau: list[list[Fraction]] = []
    for r in range(rows):
        row = [Fraction(0)] * width
        for j, q in enumerate(points):
            val = q[r] if r < n else Fraction(1)
            row[j] = sign[r] * val
        row[m + r] = Fraction(1)
        row[-1] = b[r]
        tableau.append(row)

    basis = [m + r for r in range(rows)]
    # reduced costs for phase-one objective (artificials cost 1)
    reduced = [Fraction(0)] * width
    for j in range(m + rows):
        cost = Fraction(1) if j >= m else Fraction(0)
        reduced[j] = cost - sum(tableau[r][j] for r in range(rows))
    reduced[-1] = -sum(tableau[r][-1] for r in range(rows))

    while True:
        enter = next((j for j in range(m + rows) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for r in range(rows):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][-1] / coef
                key = (ratio, basis[r])
                if best is None or key < best:
                    best = key
                    leave = r
        if leave is None:  # cannot happen: lam bounded by the normalization row
            raise ArithmeticError("phase-one LP unbounded")
        piv = tableau[leave][enter]
        tableau[leave] = [v / piv for v in tableau[leave]]
        pivot_row = tableau[leave]
        for r in range(rows):
            if r != leave:
                f = tableau[r][enter]
                if f:
                    tableau[r] = [a - f * p for a, p in zip(tableau[r], pivot_row)]
        f = reduced[enter]
        if f:
            reduced = [a - f * p for a, p in zip(reduced, pivot_row)]
        basis[leave] = enter

    objective = -reduced[-1]
    if objective == 0:
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = tableau[r][-1]
        return HullMembership(inside=True, coefficients=tuple(lam))

    # infeasible: dual vector y_r = 1 - reduced(artificial r), un-flip the rows
    y = [sign[r] * (Fraction(1) - reduced[m + r]) for r in range(rows)]
    functional = SeparatingFunctional(tuple(y[:n]), y[n])
    return HullMembership(inside=False, functional=functional)


def hull_membership(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> HullMembership:
    """
    Exact test whether `point` lies in the convex hull of `points`.

    The answer always carries a certificate that `HullMembership.verify`
    checks by direct substitution.  The hull of the empty set is empty.
    """
    pts = list(points)
    if not pts:
        return HullMembership(inside=False)
    n = len(point)
    if any(len(q) != n for q in pts):
        raise ValueError("dimension mismatch in hull membership query")
    result = _phase_one(point, pts)
    if not result.verify(point, pts):
        raise AssertionError("LP produced an invalid certificate")
    return result


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict for one point of a set: vertex of the hull, or reconstruction."""

    point: PopulationVector
    is_extreme: bool
    functional: SeparatingFunctional | None = None
    combination: tuple[tuple[PopulationVector, Fraction], ...] | None = None

    def verify(self, others: Sequence[Sequence[Fraction]]) -> bool:
        if self.is_extreme:
            return self.functional is not None and self.functional.separates(self.point, others)
        if self.combination is None:
            return False
        weights = [w for _, w in self.combination]
        if sum(weights) != 1 or any(w < 0 for w in weights):
            return False
        n = len(self.point)
        return all(
            sum(w * q[r] for q, w in self.combination) == self.point[r] for r in range(n)
        )

    def to_json(self) -> dict:
        data: dict = {
            "point": [format_rational(c) for c in self.point],
            "is_extreme": self.is_extreme,
        }
        if self.functional is not None:
            data["functional"] = self.functional.to_json()
        if self.combination is not None:
            data["combination"] = [
                {"point": [format_rational(c) for c in q], "weight": format_rational(w)}
                for q, w in self.combination
            ]
        return data


def _distinct(points) -> list:
    """The distinct points as tuples, in lexicographic order."""
    return sorted(set(tuple(p) if not isinstance(p, tuple) else p for p in points))


class IncrementalHull:
    """
    Membership and extremality queries against a fixed point set, sharing
    work across queries: LPs only ever run against the small list of
    points confirmed so far, and a failed separation walks to a new
    confirmed point by exact support maximization (Clarkson's
    output-sensitive scheme).  Answers are identical to testing against
    the full set, and the walk that decides an answer also yields its
    witness: a separating functional or a convex combination.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        self.points = _distinct(points)
        self._point_set = frozenset(self.points)
        self._confirmed: dict = {}  # confirmed point -> known to be a hull vertex

    def _outside(self, point, exclude=None):
        """
        Walk to the witness that decides `point` against the hull of the
        set's points other than itself and `exclude`.  Each LP runs against
        the confirmed points.  Inside, the witness is the tuple of nonzero
        (point, weight) pairs of a convex combination of confirmed points.
        Outside, it is the LP's functional with its offset lowered by the
        best score over the points other than `exclude`, returned as soon as
        that score falls below the value at `point`.  Otherwise the
        best-scoring point is confirmed and the walk goes on.  With nothing
        excluded that point is a hull vertex, so the walk ends with None once
        `point` itself is confirmed; None also means there is no other point.
        """
        while exclude is not None or not self._confirmed.get(point):
            others = [q for q in self._confirmed if q != point]
            if others:
                res = _phase_one(point, others)
                if res.inside:
                    return tuple((q, w) for q, w in zip(others, res.coefficients) if w)
                func = res.functional
                score, best = max((func.value(q), q) for q in self.points if q != exclude)
                if score < func.value(point):
                    return SeparatingFunctional(func.coefficients, func.offset - score)
                if best in others:  # the LP just separated these points
                    raise AssertionError("support maximization returned a separated point")
            else:
                # the least point other than `exclude` is a vertex of their hull
                best = next((q for q in self.points if q != exclude), None)
                if best is None:
                    return None  # there are no other points at all
            self._confirmed[best] = exclude is None
        return None

    def vertices(self) -> list:
        """The vertices of the hull, in lexicographic order."""
        return [p for p in self.points if not isinstance(self._outside(p), tuple)]

    def is_extreme_in(self, point) -> bool:
        """Is `point` outside the hull of every *other* point of the set?"""
        point = tuple(point) if not isinstance(point, tuple) else point
        return not isinstance(self._outside(point, exclude=point), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?"""
        point = tuple(point) if not isinstance(point, tuple) else point
        return point in self._point_set or isinstance(self._outside(point), tuple)


def hull_vertices(points: Sequence[Sequence[Fraction]]) -> list:
    """
    Just the vertices of conv(points), in lexicographic order, without
    building certificates.  Exact, like everything else here.
    """
    return IncrementalHull(points).vertices()


def extreme_points(points: Sequence[Sequence[Fraction]]) -> list[ExtremalityCertificate]:
    """
    Certified vertices of the convex hull of a finite point set.

    Duplicates are collapsed exactly.  The output is one certificate per
    distinct point, in lexicographic order: hull vertices come with a
    strictly separating functional (checked against every other point),
    non-vertices with an exact convex reconstruction over the vertices.
    Both come from one hull walk per point, run after the vertex scan has
    confirmed every vertex, so each LP runs against the other vertices.
    """
    hull = IncrementalHull(points)
    pts = hull.points
    if not pts:
        return []
    n = len(pts[0])
    if any(len(q) != n for q in pts):
        raise ValueError("dimension mismatch in extreme_points")

    # certify against the vertices in lexicographic order, so that each
    # certificate depends on the vertex set alone, not on the scan's path
    hull._confirmed = dict.fromkeys(hull.vertices(), True)
    certificates = []
    for p in pts:
        witness = hull._outside(p, exclude=p)
        if isinstance(witness, tuple):
            cert = ExtremalityCertificate(point=p, is_extreme=False, combination=witness)
        else:
            if witness is None:  # p is the only point
                witness = SeparatingFunctional((Fraction(0),) * n, Fraction(1))
            cert = ExtremalityCertificate(point=p, is_extreme=True, functional=witness)
        if cert.is_extreme != (p in hull._confirmed):
            raise AssertionError("certification walk disagrees with the vertex scan")
        if not cert.verify([q for q in pts if q != p]):
            raise AssertionError("certificate failed direct substitution")
        certificates.append(cert)
    return certificates

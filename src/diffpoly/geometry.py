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
points), so simplicity wins over sparsity tricks.  Its tableau holds
integers, scaled column by column from the rationals, and is pivoted
fraction-free (Edmonds/Bareiss, as in lrs): the true tableau is the integer
one divided by the last pivot, and every division is exact.  Positive
column scalings leave every Bland choice, and so every answer, as a
rational tableau would give it; rationals are rebuilt only for the answer.

Separating functionals are scored and checked in integers too: a point
enters as its image (d, d*x) with d the lcm of its denominators, made once
per hull, and a functional as its coefficients and offset times the lcm of
theirs.  Every sign and every comparison of two values is then decided by
integer dot products and cross-multiplication, with the same ties as in
rationals; a `Fraction` is built only for a functional that is returned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import mul
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


def _image(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d*x for x in values]) with d > 0 the lcm of the denominators."""
    d = math.lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


@dataclass(frozen=True)
class SeparatingFunctional:
    """Affine functional with value(x) <= 0 on the hull and > 0 at the point."""

    coefficients: tuple[Fraction, ...]
    offset: Fraction

    def _integers(self) -> tuple[int, list[int], int]:
        """(D, integer coefficients, integer offset): the functional times D."""
        den, ints = _image((*self.coefficients, self.offset))
        return den, ints[:-1], ints[-1]

    def separates(self, point: Sequence[Fraction], others: Sequence[Sequence[Fraction]]) -> bool:
        """value > 0 at `point` and <= 0 at every other point, decided on integers."""
        _, coeffs, offset = self._integers()

        def numerator(q):  # sign of value(q), scaled by positive D and d
            d, xs = _image(q)
            return sum(map(mul, coeffs, xs)) + offset * d

        return numerator(point) > 0 and all(numerator(q) <= 0 for q in others)

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

    The tableau holds integers.  Each point column is scaled by the lcm of
    its denominators and the right-hand side by the lcm of `point`'s; the
    artificial columns stay unit vectors.  Scaling column j by c > 0
    multiplies its reduced cost by c, and every ratio of one ratio test by
    the same positive factor (a basic column's own scaling cancels within its
    row's ratio), so Bland's rule picks the same entering column and the same
    leaving row at every pivot.  Rows are never scaled: that would reweight
    the artificial variables and change the phase-one objective.

    Pivots are fraction-free (Edmonds/Bareiss, as in lrs): the true tableau
    is `tab / det` with `det` the last pivot (1 at the start, always > 0).
    A pivot leaves its own row as it is, turns every other row, objective
    included, into (a*piv - f*p) // det, exact by Sylvester's identity, and
    then sets det = piv.  Rationals come back only in the result.
    """
    m = len(points)
    n = len(point)
    rows = n + 1

    columns = [_image(q) for q in points]
    scale = [d for d, _ in columns]
    bscale, b = _image(point)
    b.append(bscale)
    sign = [-1 if v < 0 else 1 for v in b]

    tab: list[list[int]] = []
    for r in range(rows):
        s = sign[r]
        if r < n:
            row = [s * xs[r] for _, xs in columns]
        else:
            row = list(scale)
        row += [0] * rows
        row[m + r] = 1
        row.append(s * b[r])
        tab.append(row)

    basis = [m + r for r in range(rows)]
    # reduced costs for phase-one objective (artificials cost 1)
    reduced = [-sum(col) for col in zip(*tab)]
    for j in range(m, m + rows):
        reduced[j] += 1
    det = 1

    while True:
        enter = next((j for j in range(m + rows) if reduced[j] < 0), None)
        if enter is None:
            break
        leave = None
        for r in range(rows):
            coef = tab[r][enter]
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                # compare rhs/coef with the best ratio so far, then basis index
                lhs = tab[r][-1] * tab[leave][enter]
                rhs = tab[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:  # cannot happen: lam bounded by the normalization row
            raise ArithmeticError("phase-one LP unbounded")
        pivot_row = tab[leave]
        piv = pivot_row[enter]
        for r in range(rows):
            if r != leave:
                tab[r] = _eliminate(tab[r], pivot_row, enter, piv, det)
        reduced = _eliminate(reduced, pivot_row, enter, piv, det)
        det = piv
        basis[leave] = enter

    if reduced[-1] == 0:
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = Fraction(tab[r][-1] * scale[var], det * bscale)
        return HullMembership(inside=True, coefficients=tuple(lam))

    # infeasible: dual vector y_r = 1 - reduced(artificial r), un-flip the rows
    y = [sign[r] * (1 - Fraction(reduced[m + r], det)) for r in range(rows)]
    functional = SeparatingFunctional(tuple(y[:n]), y[n])
    return HullMembership(inside=False, functional=functional)


def _eliminate(row: list[int], pivot_row: list[int], enter: int, piv: int, det: int) -> list[int]:
    """One fraction-free row update of a pivot on `pivot_row[enter] == piv`."""
    f = row[enter]
    if f:
        return [(a * piv - f * p) // det for a, p in zip(row, pivot_row)]
    return [a * piv // det for a in row]


def _require_rational(points) -> None:
    """Reject any coordinate that is not an exact rational (int or Fraction)."""
    for q in points:
        for x in q:
            if not isinstance(x, Rational):
                raise TypeError(f"coordinate {x!r} is not an exact rational (int or Fraction)")


def hull_membership(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> HullMembership:
    """
    Exact test whether `point` lies in the convex hull of `points`.

    The answer always carries a certificate that `HullMembership.verify`
    checks by direct substitution.  The hull of the empty set is empty.
    Coordinates must be ints or Fractions; anything else is a TypeError.
    """
    pts = list(points)
    _require_rational([point, *pts])
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
        for q in self.points:
            self._query(q)
        self._images = [_image(q) for q in self.points]
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
        best-scoring point (the lexicographically largest among equal
        scores) is confirmed and the walk goes on.  With nothing excluded
        that point is a hull vertex, so the walk ends with None once `point`
        itself is confirmed; None also means there is no other point.

        Scores are compared in integers: with the functional times D as
        integers `coeffs`, `offset` and a point's image (d, xs), its value
        is (coeffs.xs + offset*d) / (D*d).
        """
        point_d, point_xs = _image(point)
        while exclude is not None or not self._confirmed.get(point):
            others = [q for q in self._confirmed if q != point]
            if others:
                res = _phase_one(point, others)
                if res.inside:
                    return tuple((q, w) for q, w in zip(others, res.coefficients) if w)
                den, coeffs, offset = res.functional._integers()
                best, best_num, best_d = None, 0, 1
                for q, (d, xs) in zip(self.points, self._images):
                    if q == exclude:
                        continue
                    num = sum(map(mul, coeffs, xs)) + offset * d
                    # ">=": the points ascend, so the last of equal scores wins
                    if best is None or num * best_d >= best_num * d:
                        best, best_num, best_d = q, num, d
                point_num = sum(map(mul, coeffs, point_xs)) + offset * point_d
                if best_num * point_d < point_num * best_d:
                    # offset - best score = (offset*best_d - best_num) / (D*best_d)
                    lowered = Fraction(offset * best_d - best_num, den * best_d)
                    return SeparatingFunctional(res.functional.coefficients, lowered)
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
        point = self._query(point)
        return not isinstance(self._outside(point, exclude=point), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?"""
        point = self._query(point)
        return point in self._point_set or isinstance(self._outside(point), tuple)

    def _query(self, point) -> tuple:
        """`point` as a tuple, with as many coordinates as the set's points."""
        point = tuple(point) if not isinstance(point, tuple) else point
        if self.points and len(point) != len(self.points[0]):
            raise ValueError(
                f"dimension mismatch: {len(point)} coordinates against {len(self.points[0])}"
            )
        return point


def hull_vertices(points: Sequence[Sequence[Fraction]]) -> list:
    """
    Just the vertices of conv(points), in lexicographic order, without
    building certificates.  Exact, like everything else here.
    """
    points = list(points)
    _require_rational(points)
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
    points = list(points)
    _require_rational(points)
    hull = IncrementalHull(points)
    pts = hull.points
    if not pts:
        return []
    n = len(pts[0])

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

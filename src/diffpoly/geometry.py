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

Both come from one engine, ``IncrementalHull``: a Clarkson walk that
confirms only hull vertices and returns the witness that decided each
answer, and a certification step that decides a point in one LP against
a working set, such as the other vertices.  Its point set can grow in
place, and its membership queries reuse the functionals that separated
earlier queries, which decide later ones outside the hull without an LP.

Everything is decided in integers.  A point enters as its image
(d*x, d), with d the lcm of its denominators, made once per hull; a
functional is held as its coefficients and offset times the lcm D of
theirs, with D beside them, and builds its `Fraction` coefficients and
offset only when a caller first reads them.  Every sign and every
comparison of two values is then an integer dot product or a
cross-multiplication, with the same ties as in rationals, and two points
are equal exactly when their images are.

The LP solver is a phase-one simplex with Bland's rule, which cannot
cycle, in revised form: the LPs are short and wide (dimension + 1 <= 11
rows, up to hundreds of point columns), so it keeps only the basis
inverse, prices the point images in index order against the current dual
vector, and builds only the entering column.  The basis inverse is held as
the integer matrix det*B^-1 and pivoted fraction-free (Edmonds/Bareiss, as
in lrs), where every division is exact.  These are the entries a full
integer tableau would hold, and positive column scalings leave every Bland
choice, so every answer is the one a rational tableau gives.  Rationals are
built only for a convex combination; an infeasible LP's functional comes
straight from the integer dual vector.
"""
from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import Iterable, Sequence

from .core import PopulationVector, format_rational

__all__ = [
    "SeparatingFunctional",
    "HullMembership",
    "ExtremalityCertificate",
    "hull_membership",
    "hull_vertices",
    "extreme_points",
]


def _image(values: Sequence[Fraction]) -> list[int]:
    """[d*x for x in values] + [d], with d > 0 the lcm of the denominators."""
    d = math.lcm(*(x.denominator for x in values))
    image = [x.numerator * (d // x.denominator) for x in values]
    image.append(d)
    return image


class SeparatingFunctional:
    """
    Affine functional with value(x) <= 0 on the hull and > 0 at the point.

    Held in integers: D, the coefficients and the offset times D, with D > 0
    the lcm of their denominators.  That form is unique, so it decides
    equality; the `Fraction` coefficients and offset are built when first read.
    """

    __slots__ = ("_den", "_func", "_rationals")

    def __init__(self, coefficients: Sequence[Fraction], offset: Fraction):
        values = (*coefficients, offset)
        func = _image(values)
        self._set(func.pop(), func, (tuple(values[:-1]), offset))

    @classmethod
    def _from_integers(cls, den: int, func: list[int]) -> "SeparatingFunctional":
        """The functional with coefficients and offset `func` / `den`, `den` > 0."""
        g = math.gcd(den, *func)
        self = cls.__new__(cls)
        self._set(den // g, (v // g for v in func), None)
        return self

    def _set(self, den: int, func: Iterable[int], rationals) -> None:
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_func", tuple(func))
        object.__setattr__(self, "_rationals", rationals)

    def __reduce__(self):
        return type(self)._from_integers, (self._den, list(self._func))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: SeparatingFunctional is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: SeparatingFunctional is immutable")

    def _fractions(self) -> tuple[tuple[Fraction, ...], Fraction]:
        if self._rationals is None:
            values = [Fraction(v, self._den) for v in self._func]
            object.__setattr__(self, "_rationals", (tuple(values[:-1]), values[-1]))
        return self._rationals

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._fractions()[0]

    @property
    def offset(self) -> Fraction:
        return self._fractions()[1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._func == other._func

    def __hash__(self) -> int:
        return hash((self._den, self._func))

    def __repr__(self) -> str:
        return f"SeparatingFunctional(coefficients={self.coefficients!r}, offset={self.offset!r})"

    def separates(self, point: Sequence[Fraction], others: Sequence[Sequence[Fraction]]) -> bool:
        """value > 0 at `point` and <= 0 at every other point, decided on integers."""
        return self._separates(_image(point), (_image(q) for q in others))

    def _separates(self, point_image, other_images) -> bool:
        """`separates` on the points' `_image`s."""
        func = self._func
        # func . image is the value at the point times D*d > 0
        return sum(map(mul, func, point_image)) > 0 and all(
            sum(map(mul, func, image)) <= 0 for image in other_images
        )

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


def _phase_one(
    point: Sequence[Fraction],
    points: Sequence[Sequence[Fraction]],
    *,
    images: Sequence[list[int]] | None = None,
    point_image: list[int] | None = None,
) -> HullMembership:
    """
    Decide feasibility of  sum(lam_k * s_k) = p, sum(lam_k) = 1, lam >= 0
    by minimizing the sum of artificial variables (Bland's rule throughout).
    `images` and `point_image`, if given, are the `_image`s of `points` and
    of `point`; a caller that holds them saves rebuilding them on every call.

    The LP is held in integers.  Column j of the constraint matrix is the
    image (d_j*s_j, d_j) of point j, with row r flipped by sign_r so that
    the right-hand side, `point`'s image, is >= 0; the artificial columns
    are unit vectors.  Scaling column j by d_j > 0 multiplies its reduced
    cost by d_j, and every ratio of one ratio test by the same positive
    factor (a basic column's own scaling cancels within its row's ratio), so
    Bland's rule picks the same entering column and the same leaving row at
    every pivot.  Rows are never scaled: that would reweight the artificial
    variables and change the phase-one objective.

    The simplex is revised (Azulay & Pique's integer form of it).  It holds
    only the basis inverse, as the integer matrix det*B^-1 (the artificial
    columns of the full tableau) beside the right-hand side, and the reduced
    costs of the artificial columns beside the objective value, all times
    det, the last pivot (1 at the start, always > 0).  With
    u_r = det - reduced(artificial r), column j prices at -(u . A_j).
    Columns are priced in index order, the point columns first, and the
    first negative one enters; only that column is built, as det*B^-1*A_e,
    with no division.  Pivots are fraction-free (Edmonds/Bareiss, as in
    lrs): the pivot row stays as it is, every other row, objective
    included, becomes (a*piv - f*p) // det, exact by Sylvester's identity,
    and then det = piv.  These are the entries the full integer tableau
    would hold, so every choice is the one it would make.  Rationals come
    back only in the result.
    """
    m = len(points)
    n = len(point)
    rows = n + 1
    if images is None:
        images = [_image(q) for q in points]
    b = _image(point) if point_image is None else point_image
    sign = [-1 if v < 0 else 1 for v in b]

    # row r: [det*B^-1 row r | rhs_r | entering column's entry]
    tab = [[0] * rows + [abs(v), 0] for v in b]
    for r in range(rows):
        tab[r][r] = 1
    # reduced costs of the artificial columns, the objective, the entering column's
    reduced = [0] * rows + [-sum(abs(v) for v in b), 0]
    basis = [m + r for r in range(rows)]
    det = 1

    while True:
        # w_r = sign_r * u_r: point column j prices at -(w . image_j)
        w = [s * (det - c) for s, c in zip(sign, reduced)]
        enter = next((j for j, im in enumerate(images) if sum(map(mul, w, im)) > 0), None)
        if enter is not None:
            a = list(map(mul, sign, images[enter]))
            column = [sum(map(mul, row, a)) for row in tab]
            cost = -sum(map(mul, w, images[enter]))
        else:
            r = next((r for r in range(rows) if reduced[r] < 0), None)
            if r is None:
                break
            enter = m + r
            column = [row[r] for row in tab]
            cost = reduced[r]
        leave = None
        for r in range(rows):
            coef = column[r]
            if coef > 0:
                if leave is None:
                    leave = r
                    continue
                # compare rhs/coef with the best ratio so far, then basis index
                lhs = tab[r][rows] * column[leave]
                rhs = tab[leave][rows] * coef
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:  # cannot happen: lam bounded by the normalization row
            raise ArithmeticError("phase-one LP unbounded")
        for row, f in zip(tab, column):
            row[-1] = f
        reduced[-1] = cost
        pivot_row = tab[leave]
        piv = column[leave]
        for r in range(rows):
            if r != leave:
                tab[r] = _eliminate(tab[r], pivot_row, -1, piv, det)
        reduced = _eliminate(reduced, pivot_row, -1, piv, det)
        det = piv
        basis[leave] = enter

    if reduced[rows] == 0:
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = Fraction(tab[r][rows] * images[var][-1], det * b[-1])
        return HullMembership(inside=True, coefficients=tuple(lam))

    # infeasible: dual vector y_r = 1 - reduced(artificial r) / det, rows un-flipped
    y = [s * (det - c) for s, c in zip(sign, reduced)]
    functional = SeparatingFunctional._from_integers(det, y)
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


class IncrementalHull:
    """
    Membership and extremality queries against a point set, sharing work
    across queries (Clarkson's output-sensitive scheme): each LP runs
    against the vertices confirmed so far, and a failed separation confirms
    one more vertex by exact support maximization over the whole set.
    Answers are identical to testing against the full set, and the walk
    that decides an answer also yields its witness: a separating functional
    or a convex combination.

    The set can grow (`_extend`), which forgets what the old set decided.
    Until then, `contains` keeps the functional of every query it finds
    outside: each is <= 0 on the whole set, so a later query that one of
    them scores > 0 is outside with no LP.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        self.points = list({tuple(p) if not isinstance(p, tuple) else p for p in points})
        for q in self.points:  # before sorting, which mixed types would fail first
            self._query(q)
        self.points.sort()
        self._images = [_image(q) for q in self.points]
        # keyed by identity: hashing a tuple of Fractions costs more than
        # rebuilding its image; points not of the set get theirs built
        self._image_of = {id(q): im for q, im in zip(self.points, self._images)}
        self._point_set = set(self.points)
        self._confirmed: dict = {}  # the confirmed vertices, as an insertion-ordered set
        self._cuts: list[tuple[int, ...]] = []  # integer functionals <= 0 on the set

    def _extend(self, points) -> None:
        """
        Add `points` to the set, keeping it in lexicographic order.  A new
        point can hide an old vertex and cross an old cut, so the confirmed
        vertices and the cuts are dropped.
        """
        for p in points:
            p = self._query(p)
            if p in self._point_set:
                continue
            i = bisect(self.points, p)
            image = _image(p)
            self.points.insert(i, p)
            self._images.insert(i, image)
            self._image_of[id(p)] = image
            self._point_set.add(p)
        self._confirmed.clear()
        self._cuts.clear()

    def _outside(self, point, point_image=None):
        """
        Walk to the witness that decides `point` against the hull of the
        set: a combination or a strictly separating functional, from
        `_decide` against the confirmed vertices with every point scored.
        Otherwise its best-scoring point is confirmed and the walk goes on,
        until it ends with None: `point` is confirmed, or the set is empty.
        `point_image`, if given, is `point`'s `_image`.
        """
        if point_image is None:
            point_image = self._image_of_point(point)
        confirmed = self._confirmed
        while point not in confirmed:
            if confirmed:
                witness, best = self._decide(point, point_image, list(confirmed))
                if witness is not None:
                    return witness
                if best in confirmed:  # the LP just separated these points
                    raise AssertionError("support maximization returned a separated point")
            elif self.points:
                best = self.points[0]  # the least point is a vertex
            else:
                return None
            confirmed[best] = None
        return None

    def _certify(self, point, working):
        """
        Certify `point` in one LP against `working`, points of the set: a
        combination of `working`, a functional that separates `point`
        strictly from every other point of the set, or None if the LP's
        functional, lowered, does not.  Confirms nothing.
        """
        point_image = self._image_of_point(point)
        return self._decide(point, point_image, working, skip=point_image)[0]

    def _decide(self, point, point_image, working, skip=None):
        """
        One `_phase_one` of `point` against `working` (if empty, the constant
        1 separates), on the cached images.  Inside, returns the nonzero
        (point, weight) pairs and None.  Outside, it scores the set's points
        whose image is not `skip`, and returns the functional with its offset
        lowered by the best score (None if that is not > 0 at `point`) and
        the best-scoring point: the lexicographically largest of equal
        scores, so a vertex if nothing is skipped.  With the functional
        times D as integers `func`, image (d*x, d) scores func.image / (D*d).
        """
        if working:
            images = [self._image_of_point(q) for q in working]
            res = _phase_one(point, working, images=images, point_image=point_image)
            if res.inside:
                return tuple((q, w) for q, w in zip(working, res.coefficients) if w), None
            den, func = res.functional._den, res.functional._func
        else:
            den, func = 1, [0] * (len(point_image) - 1) + [1]
        best, best_num, best_d = None, 0, 1
        for q, image in zip(self.points, self._images):
            if image != skip:
                num, d = sum(map(mul, func, image)), image[-1]
                # ">=": the points ascend, so the last of equal scores wins
                if best is None or num * best_d >= best_num * d:
                    best, best_num, best_d = q, num, d
        if best_num * point_image[-1] >= sum(map(mul, func, point_image)) * best_d:
            return None, best
        # offset - best score = (offset*best_d - best_num) / (D*best_d)
        lowered = [c * best_d for c in func]
        lowered[-1] -= best_num
        return SeparatingFunctional._from_integers(den * best_d, lowered), best

    def _image_of_point(self, point) -> list[int]:
        """`point`'s `_image`, cached for the set's own point objects."""
        return self._image_of.get(id(point)) or _image(point)

    def vertices(self) -> list:
        """The vertices of the hull, in lexicographic order."""
        return [p for p in self.points if not isinstance(self._outside(p), tuple)]

    def is_extreme_in(self, point) -> bool:
        """Is `point` outside the hull of every *other* point of the set?  (A
        member is when it is a vertex, any other point when it is outside.)"""
        return not isinstance(self._outside(self._query(point)), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?  A walk that ends outside keeps
        its functional as a cut; a point that a cut scores > 0 needs no walk."""
        point = self._query(point)
        if point in self._point_set:
            return True
        image = _image(point)
        if any(sum(map(mul, cut, image)) > 0 for cut in self._cuts):
            return False
        witness = self._outside(point, image)
        if isinstance(witness, SeparatingFunctional):
            self._cuts.append(witness._func)
        return isinstance(witness, tuple)

    def _query(self, point) -> tuple:
        """`point` as a tuple of exact rationals, as many as the set's points have."""
        point = tuple(point) if not isinstance(point, tuple) else point
        _require_rational((point,))
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
    return IncrementalHull(points).vertices()


def extreme_points(points: Sequence[Sequence[Fraction]], *,
                   _all_vertices: bool = False) -> list[ExtremalityCertificate]:
    """
    Certified vertices of the convex hull of a finite point set.

    Duplicates are collapsed exactly.  The output is one certificate per
    distinct point, in lexicographic order: hull vertices come with a
    strictly separating functional (checked against every other point),
    non-vertices with an exact convex reconstruction over the vertices.
    After the vertex scan, each point is decided by one certification LP
    (`IncrementalHull._certify`) against the other vertices in
    lexicographic order, so each certificate depends on the vertex set
    alone, not on the scan's path.

    `_all_vertices` is for a caller that already holds a vertex list (the
    polytope search): the scan is skipped, and a point that is not a
    vertex fails the check that certification and vertex list agree.
    """
    hull = IncrementalHull(points)
    pts = hull.points
    vertices = pts if _all_vertices else hull.vertices()
    images = hull._images
    certificates = []
    for i, p in enumerate(pts):
        others = [v for v in vertices if v is not p]
        witness = hull._certify(p, others)
        if isinstance(witness, tuple):
            cert = ExtremalityCertificate(point=p, is_extreme=False, combination=witness)
            verified = cert.verify(())  # a reconstruction needs no other point
        else:
            cert = ExtremalityCertificate(point=p, is_extreme=True, functional=witness)
            # cert.verify on the cached images of p and of every other point
            rest = images[:i] + images[i + 1:]
            verified = witness is not None and witness._separates(images[i], rest)
        if cert.is_extreme != (len(others) < len(vertices)):
            raise AssertionError("certification disagrees with the vertex scan")
        if not verified:
            raise AssertionError("certificate failed direct substitution")
        certificates.append(cert)
    return certificates

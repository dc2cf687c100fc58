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
place, by points from outside its hull, and its membership queries reuse
earlier witnesses to skip the LP.  The final basis of every LP that ended
inside is kept as a cell, which proves a later query inside with one
integer matrix-vector product, and a point of the set hidden by other
points, which the vertex scan then drops with no walk; cells survive the
growth of the set.  The functionals that separated earlier queries are
kept as cuts, which decide later ones outside; a new point can cross a
cut, so growth drops them.  Each confirmed vertex keeps the functional
that confirmed it: given the hull of a search, ``extreme_points`` lowers
that functional over the other points to certify the vertex, and runs
the certification LP only where that fails.

Everything is decided in integers.  A point is checked once, where it
enters (ints and Fractions, as many as the set's points have), and
enters as its image (d*x, d), with d the lcm of its denominators, made
once per hull; a functional holds only its coefficients and offset times
the lcm D of theirs, with D beside them.  Every sign and every comparison
of two values is then an integer dot product or a cross-multiplication,
with the same ties as in rationals, and two points are equal exactly
when their images are.  A convex combination is checked in `Fraction`s,
by `_is_convex_combination` alone.

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


def _image(values: Sequence[Fraction]) -> list[int]:
    """[d*x for x in values] + [d], with d > 0 the lcm of the denominators."""
    d = math.lcm(*(x.denominator for x in values))
    image = [x.numerator * (d // x.denominator) for x in values]
    image.append(d)
    return image


@dataclass(frozen=True, init=False)
class SeparatingFunctional:
    """
    Affine functional with value(x) <= 0 on the hull and > 0 at the point.

    Held only in integers: D, and the coefficients and offset times D, with
    D > 0 the lcm of their denominators.  That form is unique, so it decides
    equality; `coefficients` and `offset` are built as `Fraction`s.
    """

    _den: int
    _func: tuple[int, ...]

    def __init__(self, coefficients: Sequence[Fraction], offset: Fraction):
        *func, den = _image((*coefficients, offset))
        self.__dict__.update(_den=den, _func=tuple(func))  # frozen: no __setattr__

    @classmethod
    def _from_integers(cls, den: int, func: list[int]) -> "SeparatingFunctional":
        """The functional with coefficients and offset `func` / `den`, `den` > 0."""
        g = math.gcd(den, *func)
        self = cls.__new__(cls)
        self.__dict__.update(_den=den // g, _func=tuple(v // g for v in func))
        return self

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self._den) for v in self._func[:-1])

    @property
    def offset(self) -> Fraction:
        return Fraction(self._func[-1], self._den)

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


def _is_convex_combination(point: Sequence[Fraction], pairs) -> bool:
    """Do the (q, w) `pairs`, each q as long as `point`, combine to `point` with
    weights w >= 0 that sum to 1?  Checked in `Fraction`s, by direct substitution."""
    pairs = list(pairs)
    if any(w < 0 or len(q) != len(point) for q, w in pairs) or sum(w for _, w in pairs) != 1:
        return False
    return all(sum(w * q[r] for q, w in pairs) == x for r, x in enumerate(point))


@dataclass(frozen=True)
class HullMembership:
    """Outcome of an exact hull-membership query."""

    inside: bool
    coefficients: tuple[Fraction, ...] | None = None
    functional: SeparatingFunctional | None = None

    def verify(self, point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> bool:
        if self.inside:
            lam = self.coefficients
            return (lam is not None and len(lam) == len(points)
                    and _is_convex_combination(point, zip(points, lam)))
        if self.functional is None:
            return not points
        return self.functional.separates(point, points)


def _phase_one(
    point: Sequence[Fraction],
    points: Sequence[Sequence[Fraction]],
    *,
    images: Sequence[list[int]] | None = None,
    point_image: list[int] | None = None,
    cells: list | None = None,
) -> HullMembership:
    """
    Decide feasibility of  sum(lam_k * s_k) = p, sum(lam_k) = 1, lam >= 0
    by minimizing the sum of artificial variables (Bland's rule throughout).
    `images` and `point_image`, if given, are the `_image`s of `points` and
    of `point`; a caller that holds them saves rebuilding them on every call.
    `cells`, if given, is a list that an LP ending inside appends its final
    basis to, as one cell: det*B^-1 with the row signs folded in, split into
    the rows whose basic variable is a point column and the rows whose basic
    variable is artificial, and the basic points.  For any image b', row . b'
    is det times that basic variable in the solution of the same basis for
    b'; if it is >= 0 on every point row and 0 on every artificial row, b'
    is a non-negative combination of the basic points' images, and the
    normalization row makes it a convex combination, so b' is inside the
    hull of the basic points.

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
        if cells is not None:
            inverse = [list(map(mul, row, sign)) for row in tab]
            cells.append((
                [row for row, var in zip(inverse, basis) if var < m],
                [row for row, var in zip(inverse, basis) if var >= m],
                [points[var] for var in basis if var < m],
            ))
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


def _exact_point(point, dim: int | None = None) -> tuple:
    """`point` as a tuple of ints and Fractions, `dim` long if given.  A tuple is kept
    as it is; a `PopulationVector`, built from Fractions, has only its length checked."""
    point = point if isinstance(point, tuple) else tuple(point)
    if not isinstance(point, PopulationVector):
        for x in point:
            if not isinstance(x, Rational):
                raise TypeError(f"coordinate {x!r} is not an exact rational (int or Fraction)")
    if dim is not None and len(point) != dim:
        raise ValueError(f"dimension mismatch: {len(point)} coordinates against {dim}")
    return point


def hull_membership(point: Sequence[Fraction], points: Sequence[Sequence[Fraction]]) -> HullMembership:
    """
    Exact test whether `point` lies in the convex hull of `points`.

    The answer always carries a certificate that `HullMembership.verify`
    checks by direct substitution.  The hull of the empty set is empty.
    Coordinates must be ints or Fractions; anything else is a TypeError.
    """
    point = _exact_point(point)
    pts = [_exact_point(q, len(point)) for q in points]
    if not pts:
        return HullMembership(inside=False)
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
        return (self.combination is not None
                and _is_convex_combination(self.point, self.combination))

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
    or a convex combination.  Each confirmed vertex keeps the functional
    that confirmed it, which it maximizes over the set.

    Both kinds of witness are reused.  Every LP that ends inside leaves a
    cell, the final basis of its LP (see `_phase_one`): a later query that a
    cell proves inside is inside with one integer matrix-vector product and
    no LP, and a point of the set that a cell proves inside the hull of
    other basic points is hidden by them, so `vertices` drops it with no
    walk.  The cells prove combinations of points of the set, which only
    grows, so they survive `_extend`.  A point is checked once, when it
    joins; the search adds only points from outside the hull, which no older
    cell proves hidden.  `contains` also keeps the functional of every query
    it finds outside, as a cut: each is <= 0 on the whole set, so a later
    query that one of them scores > 0 is outside with no LP.  A new point
    can cross a cut, so `_extend` drops the cuts.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        points = list(points)
        dim = len(points[0]) if points else None
        # checked before sorting, which mixed types would fail first
        self.points = sorted({_exact_point(p, dim) for p in points})
        self._images = [_image(q) for q in self.points]
        self._image_of = dict(zip(self.points, self._images))  # point -> image
        # the confirmed vertices, in confirmation order, each with its
        # confirming functional as (D, func), or None for the least point
        self._confirmed: dict = {}
        self._cuts: list[tuple[int, ...]] = []  # integer functionals <= 0 on the set
        self._cells: list = []  # final bases of the LPs that ended inside

    def _extend(self, points) -> None:
        """
        Add `points` to the set, keeping it in lexicographic order.  A new
        point can hide an old vertex and cross an old cut, so the confirmed
        vertices and the cuts are dropped.  The cells stay: what they prove
        inside the old set is inside the grown one.
        """
        for p in points:
            p = self._query(p)
            if p in self._image_of:
                continue
            i = bisect(self.points, p)
            image = _image(p)
            self.points.insert(i, p)
            self._images.insert(i, image)
            self._image_of[p] = image
        self._confirmed.clear()
        self._cuts.clear()

    def _outside(self, point, point_image=None):
        """
        Walk to the witness that decides `point` against the hull of the
        set: a combination or a strictly separating functional, from
        `_decide` against the confirmed vertices with every point scored.
        Otherwise its best-scoring point is confirmed, with the LP's
        functional, and the walk goes on, until it ends with None: `point`
        is confirmed, or the set is empty.  `point_image`, if given, is
        `point`'s `_image`.
        """
        if point_image is None:
            point_image = self._image_of_point(point)
        confirmed = self._confirmed
        while point not in confirmed:
            if confirmed:
                witness, best, functional = self._decide(point, point_image, list(confirmed))
                if witness is not None:
                    return witness
                if best in confirmed:  # the LP just separated these points
                    raise AssertionError("support maximization returned a separated point")
            elif self.points:
                best, functional = self.points[0], None  # the least point is a vertex
            else:
                return None
            confirmed[best] = functional
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
        (point, weight) pairs, None and None.  Outside, returns `_lower`'s
        pair for the LP's functional, then that functional as (D, func).
        """
        if working:
            images = [self._image_of_point(q) for q in working]
            res = _phase_one(point, working, images=images, point_image=point_image,
                             cells=self._cells)
            if res.inside:
                return tuple((q, w) for q, w in zip(working, res.coefficients) if w), None, None
            den, func = res.functional._den, res.functional._func
        else:
            den, func = 1, [0] * (len(point_image) - 1) + [1]
        return (*self._lower(point_image, den, func, skip), (den, func))

    def _lower(self, point_image, den, func, skip=None):
        """
        The functional with coefficients and offset `func` / `den`, its
        offset lowered by its `_support` over the set less `skip` (None if
        that is not > 0 at the point of `point_image`), and the last point
        of that support, a vertex if nothing is skipped.
        """
        best_num, best_d, support = self._support(func, skip)
        best = support[-1] if support else None
        if best_num * point_image[-1] >= sum(map(mul, func, point_image)) * best_d:
            return None, best
        # offset - best score = (offset*best_d - best_num) / (den*best_d)
        lowered = [c * best_d for c in func]
        lowered[-1] -= best_num
        return SeparatingFunctional._from_integers(den * best_d, lowered), best

    def _support(self, func, skip=None):
        """
        The best score num / d of the integer functional `func` over the
        set's points whose image is not `skip`, as num, d and the points that
        attain it, in lexicographic order.  Image (d*x, d) scores func.image
        / d; a `func` without an offset is one shorter than the images.
        """
        best_num, best_d, best = 0, 1, []
        for q, image in zip(self.points, self._images):
            if image != skip:
                num, d = sum(map(mul, func, image)), image[-1]
                gap = num * best_d - best_num * d
                if gap > 0 or not best:
                    best_num, best_d, best = num, d, [q]
                elif gap == 0:
                    best.append(q)
        return best_num, best_d, best

    def least(self, weights: Sequence[Fraction]) -> tuple[Fraction, list]:
        """
        The least value of sum_i weights_i * x_i over the set, which is its
        least over the hull, and the vertices that attain it, in
        lexicographic order.
        """
        *scaled, scale = _image(weights)
        num, d, tied = self._support([-w for w in scaled])
        if len(tied) > 1:  # together they span the optimal face: keep its vertices
            tied = [p for p in tied if self.is_extreme_in(p)]
        return Fraction(-num, d * scale), tied

    def _image_of_point(self, point) -> list[int]:
        """`point`'s `_image`, cached for the set's points."""
        return self._image_of.get(point) or _image(point)

    def _in_a_cell(self, image, exclude=None) -> bool:
        """
        Does a cell, the most recent first, prove the point of `image` inside
        the hull of its basic points?  Cells in which `exclude` is basic are
        passed over: they prove only that `exclude` is itself.
        """
        for point_rows, artificial_rows, basic in reversed(self._cells):
            for row in point_rows:  # a plain loop costs less per cell than all() on a generator
                if sum(map(mul, row, image)) < 0:
                    break
            else:
                if exclude not in basic and not any(sum(map(mul, row, image))
                                                    for row in artificial_rows):
                    return True
        return False

    def vertices(self) -> list:
        """The vertices of the hull, in lexicographic order.  A point that a cell
        proves inside the hull of other points is not a vertex, and needs no walk."""
        confirmed = self._confirmed
        return [
            p for p, image in zip(self.points, self._images)
            if p in confirmed or (not self._in_a_cell(image, p)
                                  and not isinstance(self._outside(p, image), tuple))
        ]

    def is_extreme_in(self, point) -> bool:
        """Is `point` outside the hull of every *other* point of the set?  (A
        member is when it is a vertex, any other point when it is outside.)"""
        return not isinstance(self._outside(self._query(point)), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?  A walk that ends outside keeps
        its functional as a cut; a point that a cut scores > 0, or that a
        cell proves inside, needs no walk."""
        point = self._query(point)
        if point in self._image_of:
            return True
        image = _image(point)
        if any(sum(map(mul, cut, image)) > 0 for cut in self._cuts):
            return False
        if self._in_a_cell(image):
            return True
        witness = self._outside(point, image)
        if isinstance(witness, SeparatingFunctional):
            self._cuts.append(witness._func)
        return isinstance(witness, tuple)

    def _query(self, point) -> tuple:
        """`point` as a tuple of exact rationals, as many as the set's points have."""
        return _exact_point(point, len(self.points[0]) if self.points else None)


def hull_vertices(points: Sequence[Sequence[Fraction]]) -> list:
    """
    Just the vertices of conv(points), in lexicographic order, without
    building certificates.  Exact, like everything else here.
    """
    return IncrementalHull(points).vertices()


def extreme_points(points: Sequence[Sequence[Fraction]], *,
                   _hull: IncrementalHull | None = None) -> list[ExtremalityCertificate]:
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

    `_hull` is for the polytope search, which hands over its hull after
    `vertices()` and that vertex list as `points`: the scan is skipped, and
    the certificates come from the search's own witnesses.  Each vertex's
    confirming functional, lowered by the best score over every other point
    of the hull, is its certificate if it is still > 0 at the vertex; the
    least point, confirmed without an LP, and a vertex that ties take the
    certification LP.  Each certificate separates its vertex from every
    other point of the hull, and is checked by substitution against the
    other vertices; a point that is not a vertex fails the check that
    certification and vertex list agree.
    """
    if _hull is None:
        hull = IncrementalHull(points)
        pts, vertices = hull.points, hull.vertices()
    else:
        hull, pts = _hull, list(points)
        vertices = pts
    images = [hull._image_of_point(p) for p in pts]
    certificates = []
    for i, p in enumerate(pts):
        image = images[i]
        others = [v for v in vertices if v is not p]
        confirming = hull._confirmed.get(p) if _hull is not None else None
        witness = None if confirming is None else hull._lower(image, *confirming, skip=image)[0]
        if witness is None:
            witness = hull._certify(p, others)
        if isinstance(witness, tuple):
            cert = ExtremalityCertificate(point=p, is_extreme=False, combination=witness)
            verified = cert.verify(())  # a reconstruction needs no other point
        else:
            cert = ExtremalityCertificate(point=p, is_extreme=True, functional=witness)
            # cert.verify on the cached images of p and of every other point
            rest = images[:i] + images[i + 1:]
            verified = witness is not None and witness._separates(image, rest)
        if cert.is_extreme != (len(others) < len(vertices)):
            raise AssertionError("certification disagrees with the vertex scan")
        if not verified:
            raise AssertionError("certificate failed direct substitution")
        certificates.append(cert)
    return certificates

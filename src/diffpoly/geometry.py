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

``hull_membership`` runs one phase-one LP over all the points, on
purpose: it is the independent reference that the tests check
``IncrementalHull.contains`` against.  ``extreme_points`` comes from the
engine, ``IncrementalHull``: a Clarkson walk that confirms only hull
vertices and returns the witness that decided each answer, and a
certification step that decides a point in one LP against a working
set, such as the other vertices.  Its point set can grow in
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
the certification LP only where that fails.  Its per-point state is kept
by index into its sorted points: a walk, scan or certification LP hashes
and compares no point.

A support scan scores the set's points against a functional: for the
next vertex of a walk, and to lower a functional into a certificate.
After an LP that ends outside, it scores only the points that are not
the LP's columns.  No column prices in at the end, so the LP's
functional is <= 0 on each of them, and exactly 0 on a basic one: their
best score is 0.  So a walk's LP scores only the points not yet
confirmed, and a certification LP against every other point of the set
scores none.  Only an LP with the query or a column off the simplex can
end with every basic variable artificial (on it, every point column
prices in at that basis); it has no such column, and its scan scores
every point.

Everything is decided in integers.  A point is checked once, where it
enters (ints and Fractions, as many as the set's points have), and
enters as its image (d*x, d), with d the lcm of its denominators, made
once per hull; a search state may come as that image already, a
`_StateImage`, stepped by `_average`, and then needs no check and no
`Fraction`s unless a walk runs.  A functional holds only its coefficients
and offset times the lcm D of theirs, with D beside them.  Every sign and
every comparison of two values is then an integer dot product or a
cross-multiplication, with the same ties as in rationals, and two points
are equal exactly when their images are.  A convex combination is checked
in `Fraction`s, by `_is_convex_combination` alone.

The LP solver is a phase-one simplex with Bland's rule, which cannot
cycle, in revised form: the LPs are short and wide (dimension <= 10
rows, up to hundreds of point columns), so its rows hold only the basis
inverse, as the integer matrix det*B^-1, and the right-hand side, pivoted
fraction-free (Edmonds/Bareiss, as in lrs), where every division is exact.
On the simplex, where every state lies, the normalization row
sum(lam) = 1 is the sum of the coordinate rows, so the LP drops it and
takes the same pivots; off the simplex it has dimension + 1 rows.
One dual row u, det minus the reduced costs of the artificial columns,
rides along under the same step.  The point images are sign-flipped once
per LP, only for a query with a negative coordinate, and priced in index
order against u, the basic ones skipped (their price is 0); only the
entering column is built.  These are the entries a full integer tableau
would hold, and positive column scalings leave every Bland choice, so
every answer is the one a rational tableau gives.  Rationals are built
only for a convex combination; an infeasible LP's functional is u with
the row signs folded back in.

An LP of a point can resume from the final basis of an earlier LP of the
same point against a prefix of its columns: a phase-one basis stays
feasible when columns are added, and Bland's rule terminates from any
feasible basis.  Within one walk, each LP after the first is the last one
plus one column, the vertex that the last one's functional confirmed, so
it resumes from the last one's final basis: the new column is the only one
that prices in, and it enters first.  A certification LP starts near its
answer: it prices the other points nearest first, by exact squared
Euclidean distance in integers, and a vertex that its own walk confirmed
resumes from that walk's last LP, whose columns come first.  Column order
and start change only which pivots Bland's rule takes, not an answer.
An LP that ends inside then pivots every artificial variable still
basic, at level 0, out for a point column where one has a nonzero entry
in its row.  These degenerate pivots leave the combination as it is and
add a basic point to its cell each, which then proves more points inside.
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


def _image(values: Sequence[Fraction]) -> tuple[int, ...]:
    """
    The tuple (d*x_1, ..., d*x_n, d) of `values`, with d > 0 the lcm of the
    denominators.  Its entries have gcd 1, since for each prime p of d the
    denominator holding p's full power in d leaves its numerator, prime to
    p, unscaled by p: the one primitive image.
    """
    d = math.lcm(*(x.denominator for x in values))
    return (*(x.numerator * (d // x.denominator) for x in values), d)


class _StateImage(tuple):
    """
    A search state held as its `_image`: the primitive integer tuple
    (d*x_1, ..., d*x_n, d), d > 0.  `IncrementalHull.contains` takes one as
    it is, with no check and no `Fraction`s; `_average` steps it, and
    `point` builds the state.
    """

    __slots__ = ()

    def point(self) -> PopulationVector:
        *numerators, d = self
        return PopulationVector._trusted([Fraction(a, d) for a in numerators])


def _average(image: _StateImage, block: tuple[int, ...]) -> _StateImage:
    """The primitive image of the state of `image` after averaging the entries
    at the 0-based indices `block`, the block of size k and sum s: every entry
    times k / gcd(s, k), the block's entries s / gcd(s, k), then the whole
    divided by its gcd.  The one integer step of the search and the ordered path."""
    k = len(block)
    s = 0
    for v in block:  # a plain loop costs less than sum() on a generator
        s += image[v]
    g = math.gcd(s, k)
    mean, scale = s // g, k // g
    out = list(image) if scale == 1 else [a * scale for a in image]
    for v in block:
        out[v] = mean
    if math.gcd(mean, out[-1]) > 1:  # a common divisor divides both
        h = math.gcd(*out)
        out = [a // h for a in out]
    return _StateImage(out)


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


def _on_simplex(image) -> bool:
    """Does the point of `image` (d*x, d) lie on the simplex: x >= 0, sum(x) = 1?"""
    return min(image) >= 0 and sum(image[:-1]) == image[-1]


def _phase_one(
    point: Sequence[Fraction],
    points: Sequence[Sequence[Fraction]],
    *,
    images: Sequence[list[int]] | None = None,
    point_image: list[int] | None = None,
    columns: Sequence[list[int]] | None = None,
    cells: list | None = None,
    warm: list | None = None,
) -> HullMembership:
    """
    Decide feasibility of  sum(lam_k * s_k) = p, sum(lam_k) = 1, lam >= 0
    by minimizing the sum of artificial variables (Bland's rule throughout).
    `images` and `point_image`, if given, are the `_image`s of `points` and
    of `point`; a caller that holds them saves rebuilding them on every call.

    When `point` and every point lie on the simplex, the normalization row
    sum(lam_k) = 1 is the sum of the n coordinate rows, and the LP drops
    it: n rows, not n + 1.  It takes the same pivots.  On every feasible
    point the dropped row's artificial is the sum of the others, so the
    n + 1-row objective is twice the n-row one and every reduced cost keeps
    its sign; that row's ratio is a mediant of the others', and its
    artificial, the last index, never leaves on a tie.  A lam that solves
    the coordinate rows sums to 1 anyway, and the infeasible LP's
    functional is u with offset 0.  `columns`, if given, are the LP's
    columns: `images`, which must then be given too, or, when the LP drops
    the normalization row, the images less d; a caller that holds them
    decides the form once per point rather than once per LP.

    `cells`, if given, is a list that an LP ending inside appends its final
    basis to, as one cell: det*B^-1 with the row signs folded in, split into
    the rows whose basic variable is a point column and the rows whose basic
    variable is artificial, and the basic points.  For any image b', row . b'
    is det times that basic variable in the solution of the same basis for
    b'; if it is >= 0 on every point row and 0 on every artificial row, b'
    is a non-negative combination of the basic points' images.  The
    normalization row's artificial makes it a convex combination: in the
    n + 1-row form its row is one of the artificial rows, and an LP that
    dropped it appends its check, sum(b'[:-1]) - b'[-1], as one more.  So
    b' is inside the hull of the basic points.

    The LP is held in integers.  Column j of the constraint matrix is the
    image (d_j*s_j, d_j) of point j, less d_j if the LP dropped the
    normalization row, with row r flipped by sign_r so that the right-hand
    side, `point`'s image, is >= 0; the columns are flipped once, and only
    if a coordinate of `point` is negative.  The artificial columns are unit
    vectors.  Scaling column j by d_j > 0 multiplies its reduced cost by
    d_j, and every ratio of one ratio test by the same positive factor (a
    basic column's own scaling cancels within its row's ratio), so Bland's
    rule picks the same entering column and the same leaving row at every
    pivot.  Rows are never scaled: that would reweight the artificial
    variables and change the phase-one objective.

    The simplex is revised (Azulay & Pique's integer form of it).  Its rows
    are det*B^-1 | rhs, the artificial columns of the full tableau and its
    right-hand side, all times det, the last pivot (1 at the start, always
    > 0).  Below them is the dual row u | z, carried from pivot to pivot:
    u_r is det minus the tableau's reduced cost of artificial r, and z is
    det times the objective, minus the tableau's objective entry.  Point
    column j prices at -(u . A_j); a basic one prices at exactly 0, so it
    is skipped.  Columns are priced in index order, the point columns
    first, and the first negative one enters.  Only that column is built,
    as det*B^-1*A_e beside its price u . A_e, with no division.  Pivots are
    fraction-free (Edmonds/Bareiss, as in lrs): the pivot row stays as it
    is, every other row, the dual row included, becomes
    (a*piv - f*p) // det, exact by Sylvester's identity, and then
    det = piv.  These are the entries the full integer tableau would hold,
    so every choice is the one it would make.  Rationals come back only in
    the result.

    `warm`, if given, is a list that an LP ending outside leaves its final
    (tableau, basis, det, m) in, m its number of point columns.  If it holds
    one, the LP resumes from it: it must come from an LP of the same `point`
    against a prefix of `points`, the first m0, in the same form.  A
    phase-one basis stays feasible when columns are added, and Bland's rule
    terminates from any feasible basis.  Its tableau is unchanged, and not
    changed in place, the new columns added as nonbasic, and the artificial
    indices move up by m - m0.  A walk's next LP adds one column, the
    best-scoring point of the last functional, which prices in, so Bland's
    rule goes on from there, where a cold start would first redo the last
    LP's pivots; a certification LP adds the other vertices to the last LP
    of the point's own walk (`IncrementalHull._certify`).

    An LP that ends inside keeps no artificial basic that a point column can
    replace: each artificial row, in row order, pivots out for the first
    nonbasic point column, in index order, with a nonzero entry in it.  Its
    level is 0, so the pivot is degenerate and lam does not change, and a
    negative pivot negates the whole tableau, to keep det > 0.  Each such
    pivot adds a basic point to the cell, which then proves inside the cone
    of one more point column.
    """
    m = len(points)
    if images is None:
        images = [_image(q) for q in points]
    image = _image(point) if point_image is None else point_image
    if columns is None:
        on_simplex = _on_simplex(image) and all(map(_on_simplex, images))
        columns = [im[:-1] for im in images] if on_simplex else images
    rows = len(columns[0])
    b = image[:rows]
    sign = [-1 if v < 0 else 1 for v in b]
    if -1 in sign:
        columns = [list(map(mul, sign, a)) for a in columns]

    if warm:  # a final basis of this point against a prefix of these points
        tab, basis, det, m0 = warm
        tab = tab[:]  # rows are replaced, never changed: the kept basis stays as it is
        basis = [var + (m - m0) * (var >= m0) for var in basis]
    else:
        # rows 0..rows-1: [det*B^-1 row r | rhs_r]; the last row: [u | z]
        tab = [[int(r == c) for c in range(rows)] + [abs(v)] for r, v in enumerate(b)]
        tab.append([1] * rows + [sum(abs(v) for v in b)])
        basis = [m + r for r in range(rows)]
        det = 1
    dual = tab[rows]
    basic = set(basis)

    while True:
        for enter, a in enumerate(columns):
            if enter not in basic and sum(map(mul, dual, a)) > 0:
                column = [sum(map(mul, row, a)) for row in tab]
                break
        else:
            r = next((r for r in range(rows) if dual[r] > det), None)
            if r is None:
                break
            enter = m + r
            column = [row[r] for row in tab]
            column[rows] -= det
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
        if leave is None:  # cannot happen: the normalization row, or the rows' sum, bounds lam
            raise ArithmeticError("phase-one LP unbounded")
        det = _pivot(tab, column, leave, det)
        dual = tab[rows]
        basic.remove(basis[leave])
        basic.add(enter)
        basis[leave] = enter

    if dual[rows] == 0:
        # each artificial still basic is at level 0: pivot it out, degenerately,
        # for the first nonbasic point column with a nonzero entry in its row
        for leave, var in enumerate(basis):
            if var >= m:
                row = tab[leave]
                for enter, a in enumerate(columns):
                    if enter not in basic and sum(map(mul, row, a)):
                        det = _pivot(tab, [sum(map(mul, r, a)) for r in tab], leave, det)
                        if det < 0:  # keep det > 0: the same rationals, every sign flipped
                            tab[:] = [[-v for v in r] for r in tab]
                            det = -det
                        basic.remove(var)
                        basic.add(enter)
                        basis[leave] = enter
                        break
        if cells is not None:
            inverse = [list(map(mul, row, sign)) for row in tab[:rows]]
            artificial_rows = [row for row, var in zip(inverse, basis) if var >= m]
            if rows < len(image):  # the dropped normalization row, as its check
                artificial_rows.append([1] * rows + [-1])
            cells.append((
                [row for row, var in zip(inverse, basis) if var < m],
                artificial_rows,
                [points[var] for var in basis if var < m],
            ))
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = Fraction(tab[r][rows] * images[var][-1], det * image[-1])
        return HullMembership(inside=True, coefficients=tuple(lam))

    if warm is not None:
        warm[:] = tab, basis, det, m
    # infeasible: dual vector y_r = u_r / det, rows un-flipped; with no
    # normalization row, the offset is 0
    func = list(map(mul, sign, dual))
    func += [0] * (len(image) - rows)
    return HullMembership(inside=False, functional=SeparatingFunctional._from_integers(det, func))


def _pivot(tab: list[list[int]], column: list[int], leave: int, det: int) -> int:
    """
    Pivot the integer tableau `tab` (see `_phase_one`) on row `leave` of the
    entering `column`, its entries in `tab`'s rows, fraction-free: the pivot
    row stays, every other row becomes (a*piv - f*p) // det, exact by
    Sylvester's identity (a*piv // det if f = 0).  Returns the new det, the pivot entry.
    """
    pivot_row = tab[leave]
    piv = column[leave]
    for r, f in enumerate(column):
        if r != leave:
            tab[r] = ([(a * piv - f * p) // det for a, p in zip(tab[r], pivot_row)] if f
                      else [a * piv // det for a in tab[r]])
    return piv


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
    one more vertex by exact support maximization over the rest of the set:
    the LP's functional is <= 0 on the confirmed vertices, and 0 on each
    basic one, so the scan scores only the others, unless the final basis
    is all artificial (see `_lower`).
    Answers are identical to testing against the full set, and the walk
    that decides an answer also yields its witness: a separating functional
    or a convex combination.  Each confirmed vertex keeps the functional
    that confirmed it, which it maximizes over the set.

    The hull knows whether all its points lie on the simplex, and keeps
    each point's image less d beside its image: an LP of a query on the
    simplex then drops the normalization row and runs on those columns.

    Both kinds of witness are reused.  Every LP that ends inside leaves a
    cell, the final basis of its LP (see `_phase_one`): a later query that a
    cell proves inside is inside with one integer matrix-vector product and
    no LP, and a point of the set that a cell proves inside the hull of
    other basic points is hidden by them, so `vertices` drops it with no
    walk.  A cell of an LP without the normalization row keeps that row's
    check: without it, the cell would prove inside every query in the cone
    of its basic points, 2p for each p it proves.  The cells prove
    combinations of points of the set, which only grows, so they survive
    `_extend`.  A point is checked once, when it joins; the search adds
    only points from outside the hull, which no older cell proves hidden.
    `contains` also keeps the functional of every query it finds outside,
    as a cut: each is <= 0 on the whole set, so a later query that one of
    them scores > 0 is outside with no LP.  A new point can cross a cut, so
    `_extend` drops the cuts.

    A walk whose last LP confirms the queried point itself keeps that LP,
    its columns and final basis, in `_kept`: the certification LP of the
    point (`_certify`) resumes from it.  `_extend` drops the kept LPs, as it
    drops the confirmed vertices.

    The search hands `contains` and `_extend` its states as `_StateImage`s.
    A state's point is built once: by the walk that finds it outside, kept
    until `_extend` takes it, or else by `_extend`.

    Per-point state is kept by index into `points`, and a point is found by
    its image, in `_index_of`, so walks, scans and certification hash and
    compare no point.  Points stay at the boundary: in the public queries,
    in each LP's `points` and as each cell's basic points, since cells
    survive `_extend`, which shifts the indices.
    """

    def __init__(self, points: Sequence[Sequence[Fraction]]):
        points = list(points)
        dim = len(points[0]) if points else None
        # checked before sorting, which mixed types would fail first
        self.points = sorted({_exact_point(p, dim) for p in points})
        self._images = [_image(q) for q in self.points]
        # do all the points lie on the simplex?  Then an LP of a query on it
        # drops the normalization row, and runs on each point's image less d
        self._all_on_simplex = all(map(_on_simplex, self._images))
        self._columns = [image[:-1] for image in self._images]
        # the indices of the confirmed vertices, in confirmation order, each
        # with its confirming functional as (D, func), or None for the least point
        self._confirmed: dict = {}
        self._cuts: list[tuple[int, ...]] = []  # integer functionals <= 0 on the set
        self._cells: list = []  # final bases of the LPs that ended inside
        self._walked: dict = {}  # _StateImage -> its point, built for a walk that ended outside
        # the index of a point its own walk confirmed -> that walk's last LP,
        # as its columns and its final basis (`_phase_one`'s `warm`), for `_certify`
        self._kept: dict = {}
        # per point, (D*x, its squared norm), D the lcm of the set's d, built by `_certify`
        self._scaled: list | None = None
        # each point's index, by its image; `_extend` rebuilds it
        self._index_of = {image: q for q, image in enumerate(self._images)}

    def _extend(self, points) -> None:
        """
        Add `points` to the set, keeping it in lexicographic order.  A
        search state may come as its `_StateImage`, as to `contains`: its
        point is the one its walk built, if it walked, else built here.  A
        point already in the set sorts just after its equal, and is skipped.
        A new point can hide an old vertex and cross an old cut, so the
        confirmed vertices and the cuts are dropped, and with them the kept
        walk LPs and the scaled points; the image -> index map is rebuilt.
        The cells stay: what they prove inside the old set is inside the
        grown one.
        """
        for p in points:
            if type(p) is _StateImage:
                image, p = p, self._walked.pop(p, None) or p.point()
            else:
                p = self._query(p)
                image = _image(p)
            i = bisect(self.points, p)
            if i and self._images[i - 1] == image:
                continue
            self.points.insert(i, p)
            self._images.insert(i, image)
            self._columns.insert(i, image[:-1])
            self._all_on_simplex = self._all_on_simplex and _on_simplex(image)
        self._confirmed.clear()
        self._cuts.clear()
        self._kept.clear()
        self._scaled = None
        self._index_of = {image: q for q, image in enumerate(self._images)}

    def _outside(self, point, point_image=None, q=None):
        """
        Walk to the witness that decides `point` against the hull of the
        set: a combination or a strictly separating functional, from
        `_decide` against the confirmed vertices with every point scored.
        Otherwise its best-scoring point is confirmed, with the LP's
        functional, and the walk goes on, until it ends with None: `point`
        is confirmed, or the set is empty.  Each LP after the walk's first is
        the last one plus that point, so it resumes from the last one's final
        basis.  When an LP confirms `point` itself, its columns and final
        basis are kept for `_certify`.  `point_image`, if given, is `point`'s
        `_image`, and `q` its index, None if it is not in the set; if not
        given, both are found.
        """
        if point_image is None:
            point_image = _image(point)
            q = self._index_of.get(point_image)
        confirmed = self._confirmed
        warm = []  # the final basis of the walk's last LP
        while q not in confirmed:
            if confirmed:
                working = list(confirmed)
                witness, best, functional = self._decide(point, point_image, working,
                                                         confirmed, warm)
                if witness is not None:
                    return witness
                if best in confirmed:  # the LP just separated these points
                    raise AssertionError("support maximization returned a separated point")
                if best == q:
                    self._kept[q] = working, warm
            elif self.points:
                best, functional = 0, None  # the least point is a vertex
            else:
                return None
            confirmed[best] = functional
        return None

    def _certify(self, q, working):
        """
        Certify point `q` of the set in one LP against `working`, other
        points of the set in lexicographic order, all given by index: a
        combination of `working`, a functional that separates the point
        strictly from every other point of the set, or None if the LP's
        functional, lowered, does not.  Confirms nothing.

        The LP starts near its answer.  It prices `working` nearest first,
        by exact squared Euclidean distance to the point, ties in the order
        given.  If the point's own walk confirmed it and `working` holds that
        walk's columns, they come first, and the LP resumes from the walk's
        last basis.  Only the order and the start change: every answer is
        the exact one, whatever they are.  The lowering scores only the
        points outside `working` (see `_lower`).
        """
        walked, warm = self._kept.get(q, ((), None))
        kept = set(walked)
        bounded = set(working)
        rest = [i for i in working if i not in kept]
        if len(rest) + len(walked) != len(working):  # not every walk column is in working
            walked, warm, rest = (), None, list(working)
        if self._scaled is None:
            scale = math.lcm(*(image[-1] for image in self._images))
            vectors = ([a * (scale // image[-1]) for a in image[:-1]] for image in self._images)
            self._scaled = [(v, sum(map(mul, v, v))) for v in vectors]
        scaled, (origin, _) = self._scaled, self._scaled[q]

        def distance(i):  # |q_i - q|^2 less |q|^2, the same for every i
            v, norm = scaled[i]
            return norm - 2 * sum(map(mul, v, origin))

        rest.sort(key=distance)
        # a copy of the kept basis, or a fresh list: either way the final basis comes back
        return self._decide(self.points[q], self._images[q], [*walked, *rest], bounded,
                            list(warm or ()), skip=q)[0]

    def _decide(self, point, point_image, working, bounded, warm, skip=None):
        """
        One `_phase_one` of `point` against the points `working` indexes (if
        none, the constant 1 separates), on the cached images, resumed from
        the list `warm` as there, which the LP leaves its final basis in;
        with no normalization row, on the cached columns, if `point` and the
        set lie on the simplex.  Inside, returns the nonzero (point, weight)
        pairs, None and None.  Outside, returns `_lower`'s pair for the LP's
        functional, then that functional as (D, func).  `bounded` holds the
        indices in `working`: unless the final basis is all artificial,
        `_lower` scores none of them.
        """
        if working:
            points = [self.points[i] for i in working]
            images = [self._images[i] for i in working]
            columns = images
            if self._all_on_simplex and _on_simplex(point_image):
                columns = [self._columns[i] for i in working]
            res = _phase_one(point, points, images=images, point_image=point_image,
                             columns=columns, cells=self._cells, warm=warm)
            if res.inside:
                return tuple((p, w) for p, w in zip(points, res.coefficients) if w), None, None
            den, func = res.functional._den, res.functional._func
            if all(var >= len(working) for var in warm[1]):  # no point column attains 0
                bounded = ()
        else:
            den, func = 1, [0] * (len(point_image) - 1) + [1]
        return (*self._lower(point_image, den, func, skip, bounded), (den, func))

    def _lower(self, point_image, den, func, skip=None, bounded=()):
        """
        The functional with coefficients and offset `func` / `den`, its
        offset lowered by its `_support` over the set less the point of index
        `skip` (None if that is not > 0 at the point of `point_image`), and
        the index of the last point of that support, a vertex if nothing is
        skipped.

        `bounded`, if not empty, holds the columns of the LP that `func`
        comes from, whose final basis holds a point column.  No column
        prices in at the end, so `func` is <= 0 on each of them, and a basic
        one prices at exactly 0: their best score is 0, and `_support` scores
        only the points outside them.  That gives the same lowered functional
        and, whenever the point is read, the same point: it is read only at a
        score >= the value at the point, which is > 0, and no column ties there.
        """
        best_num, best_d, support = self._support(func, skip, bounded)
        best = support[-1] if support else None
        if best_num * point_image[-1] >= sum(map(mul, func, point_image)) * best_d:
            return None, best
        # offset - best score = (offset*best_d - best_num) / (den*best_d)
        lowered = [c * best_d for c in func]
        lowered[-1] -= best_num
        return SeparatingFunctional._from_integers(den * best_d, lowered), best

    def _support(self, func, skip=None, bounded=()):
        """
        The best score num / d of the integer functional `func` over the
        set's points but the one of index `skip`, as num, d and the indices
        that attain it, in order.  Image (d*x, d) scores func.image / d; a
        `func` without an offset is one shorter than the images.

        Points indexed in `bounded`, which the caller knows to score at most
        0, and exactly 0 at one of them at least, are not scored: the best
        score is then 0 or more, and the points listed are those outside
        `bounded`, none at once if `bounded` and `skip` cover the set.
        """
        if len(bounded) + (skip is not None and skip not in bounded) == len(self._images):
            return 0, 1, []
        best_num, best_d, best = 0, 1, []
        for q, image in enumerate(self._images):
            if q != skip and q not in bounded:
                num, d = sum(map(mul, func, image)), image[-1]
                gap = num * best_d - best_num * d
                if gap > 0 or not (best or bounded):
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
            tied = [q for q in tied if self.is_extreme_in(self.points[q])]
        return Fraction(-num, d * scale), [self.points[q] for q in tied]

    def _in_a_cell(self, image, exclude=None) -> bool:
        """
        Does a cell, the most recent first, prove the point of `image` inside
        the hull of its basic points?  Cells in which `exclude`, a point of the
        set, is basic (`is` finds it) are passed over: they prove only that it
        is itself.  A cell that proves it moves to the most recent end, where
        the next scan starts.
        """
        cells = self._cells
        for k, (point_rows, artificial_rows, basic) in enumerate(reversed(cells), 1):
            for row in point_rows:  # a plain loop costs less per cell than all() on a generator
                if sum(map(mul, row, image)) < 0:
                    break
            else:
                if all(p is not exclude for p in basic) and not any(
                        sum(map(mul, row, image)) for row in artificial_rows):
                    cells.append(cells.pop(-k))
                    return True
        return False

    def vertices(self) -> list:
        """The vertices of the hull, in lexicographic order.  A point that a cell
        proves inside the hull of other points is not a vertex, and needs no walk."""
        confirmed = self._confirmed
        return [
            p for q, (p, image) in enumerate(zip(self.points, self._images))
            if q in confirmed or (not self._in_a_cell(image, p)
                                  and not isinstance(self._outside(p, image, q), tuple))
        ]

    def is_extreme_in(self, point) -> bool:
        """Is `point` outside the hull of every *other* point of the set?  (A
        member is when it is a vertex, any other point when it is outside.)"""
        return not isinstance(self._outside(self._query(point)), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?  A walk that ends outside keeps
        its functional as a cut; a point that a cut scores > 0, or that a
        cell proves inside, needs no walk.  A search state may come as its
        `_StateImage`, whose point is built only for a walk, and kept in
        `_walked` for `_extend` if the walk ends outside."""
        if type(point) is _StateImage:
            image, point = point, None
        else:
            point = self._query(point)
            image = _image(point)
        if image in self._index_of:
            return True
        if any(sum(map(mul, cut, image)) > 0 for cut in self._cuts):
            return False
        if self._in_a_cell(image):
            return True
        if point is None:
            point = image.point()
        witness = self._outside(point, image)  # not in the set: no index
        if isinstance(witness, SeparatingFunctional):
            self._cuts.append(witness._func)
            if type(image) is _StateImage:
                self._walked[image] = point
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
    (`IncrementalHull._certify`) against the other vertices, nearest first;
    a vertex that the scan's walk confirmed for itself resumes from that
    walk's last LP.  The certificates are deterministic, but they depend on
    the scan's path, not on the vertex set alone.

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
    hull = IncrementalHull(points) if _hull is None else _hull
    vertices = [hull._index_of[_image(p)] for p in (hull.vertices() if _hull is None else points)]
    indices = range(len(hull.points)) if _hull is None else vertices
    images = hull._images
    certificates = []
    for q in indices:
        p, image = hull.points[q], images[q]
        others = [v for v in vertices if v != q]
        confirming = hull._confirmed.get(q) if _hull is not None else None
        witness = None if confirming is None else hull._lower(image, *confirming, skip=q)[0]
        if witness is None:
            witness = hull._certify(q, others)
        if isinstance(witness, tuple):
            cert = ExtremalityCertificate(point=p, is_extreme=False, combination=witness)
            verified = cert.verify(())  # a reconstruction needs no other point
        else:
            cert = ExtremalityCertificate(point=p, is_extreme=True, functional=witness)
            # cert.verify on the cached images of p and of every other point
            rest = [images[i] for i in indices if i != q]
            verified = witness is not None and witness._separates(image, rest)
        if cert.is_extreme != (len(others) < len(vertices)):
            raise AssertionError("certification disagrees with the vertex scan")
        if not verified:
            raise AssertionError("certificate failed direct substitution")
        certificates.append(cert)
    return certificates

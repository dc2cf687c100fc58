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
purpose: it is the independent reference that the tests check both
engines against.

``IncrementalHull`` is a Clarkson walk over a fixed point set: it
confirms only hull vertices and returns the witness that decided each
answer, and a certification step decides a point in one LP against a
working set, such as the other vertices.  ``extreme_points``, the ordered
path and the complete-graph reference run on it.  Its per-point state is
kept by index into its sorted points: a walk, scan or certification LP
hashes and compares no point.

``FacetHull`` holds the hull of a polytope search's states as its facets,
grown state by state by the double-description step.  Membership is
substitution, a vertex is a state alone in the meet of the tight sets
that contain it, and a vertex's certificate is the sum of its facets,
lowered below every other state.  It runs no LP.

A support scan (`IncrementalHull._support`, which both engines share)
scores the set's points against a functional: for the next vertex of a
walk, to lower a functional into a certificate, and for the least points
of an objective.  After an LP that ends outside, it skips the LP's
columns, on which the LP's functional is at most 0 (see `_lower`).

Everything is decided in integers.  A point is checked once, where it
enters (ints and Fractions, as many as the set's points have), and
enters as its image (d*x, d), with d the lcm of its denominators, made
once per hull; a search state comes as that image already, a
`_StateImage`, stepped by `_average`, and then needs no check and no
`Fraction`s unless it is listed.  A functional holds only its coefficients
and offset times the lcm D of theirs, with D beside them.  Every sign and
every comparison of two values is then an integer dot product or a
cross-multiplication, with the same ties as in rationals, and two points
are equal exactly when their images are.  A convex combination is checked
in `Fraction`s, by `_is_convex_combination` alone.

The LP solver, `_phase_one`, is a phase-one simplex with Bland's rule,
which cannot cycle, in revised form, pivoted fraction-free (Edmonds/
Bareiss, as in lrs): every entry is one a rational tableau gives, times
a positive integer, so every answer is the rational one.  On the
simplex, where every state lies, it drops the normalization row.  An LP
of a point can resume from the final basis of an earlier LP of the same
point against a prefix of its columns: each LP of a walk resumes from the
walk's last one, and a certification LP, its columns nearest first, from
the last LP of its point's own walk.  Column order and start change only
which pivots Bland's rule takes, not an answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from numbers import Rational
from operator import and_, mul
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
    (d*x_1, ..., d*x_n, d), d > 0.  `FacetHull` takes one as it is, with no
    check and no `Fraction`s; `_average` steps it, and `point` builds the
    state.
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
    or a convex combination.

    The hull knows whether all its points lie on the simplex, and keeps
    each point's image less d beside its image: an LP of a query on the
    simplex then drops the normalization row and runs on those columns.

    A walk whose last LP confirms the queried point itself keeps that LP,
    its columns and final basis, in `_kept`: the certification LP of the
    point (`_certify`) resumes from it.

    Per-point state is kept by index into `points`, and a point is found by
    its image, in `_index_of`, so walks, scans and certification hash and
    compare no point.  Points stay at the boundary: in the public queries
    and in each LP's `points`.
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
        self._confirmed: dict = {}  # the confirmed vertices' indices, in order, as keys
        # the index of a point its own walk confirmed -> that walk's last LP,
        # as its columns and its final basis (`_phase_one`'s `warm`), for `_certify`
        self._kept: dict = {}
        # per point, (D*x, its squared norm), D the lcm of the set's d, built by `_certify`
        self._scaled: list | None = None
        self._index_of = {image: q for q, image in enumerate(self._images)}

    def _outside(self, point, point_image=None, q=None):
        """
        Walk to the witness that decides `point` against the hull of the
        set: a combination or a strictly separating functional, from
        `_decide` against the confirmed vertices with every point scored.
        Otherwise its best-scoring point is confirmed, and the walk goes on,
        until it ends with None: `point` is confirmed, or the set is empty.  Each LP after the walk's first is
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
                witness, best = self._decide(point, point_image, working, confirmed, warm)
                if witness is not None:
                    return witness
                if best in confirmed:  # the LP just separated these points
                    raise AssertionError("support maximization returned a separated point")
                if best == q:
                    self._kept[q] = working, warm
            elif self.points:
                best = 0  # the least point is a vertex
            else:
                return None
            confirmed[best] = None
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
        pairs and None.  Outside, returns `_lower`'s pair for the LP's
        functional.  `bounded` holds the indices in `working`: unless the
        final basis is all artificial, `_lower` scores none of them.
        """
        if working:
            points = [self.points[i] for i in working]
            images = [self._images[i] for i in working]
            columns = images
            if self._all_on_simplex and _on_simplex(point_image):
                columns = [self._columns[i] for i in working]
            res = _phase_one(point, points, images=images, point_image=point_image,
                             columns=columns, warm=warm)
            if res.inside:
                return tuple((p, w) for p, w in zip(points, res.coefficients) if w), None
            den, func = res.functional._den, res.functional._func
            if all(var >= len(working) for var in warm[1]):  # no point column attains 0
                bounded = ()
        else:
            den, func = 1, [0] * (len(point_image) - 1) + [1]
        return self._lower(point_image, den, func, skip, bounded)

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

    def vertices(self) -> list:
        """The vertices of the hull, in lexicographic order."""
        confirmed = self._confirmed
        return [
            p for q, (p, image) in enumerate(zip(self.points, self._images))
            if q in confirmed or not isinstance(self._outside(p, image, q), tuple)
        ]

    def is_extreme_in(self, point) -> bool:
        """Is `point` outside the hull of every *other* point of the set?  (A
        member is when it is a vertex, any other point when it is outside.)"""
        return not isinstance(self._outside(self._query(point)), tuple)

    def contains(self, point) -> bool:
        """Is `point` in the hull of the set?  A member is; any other point walks."""
        point = self._query(point)
        image = _image(point)
        return image in self._index_of or isinstance(self._outside(point, image), tuple)

    def _query(self, point) -> tuple:
        """`point` as a tuple of exact rationals, as many as the set's points have."""
        return _exact_point(point, len(self.points[0]) if self.points else None)


def _bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _combine(x, cx, y, cy) -> list[int]:
    """The primitive integer vector along cx*x - cy*y."""
    out = [cx * s - cy * t for s, t in zip(x, y)]
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


class FacetHull:
    """
    The hull of a search's states, held as its facets and grown one state
    at a time by the double-description step (Motzkin et al. 1953; Fukuda &
    Prodon, "Double description method revisited", 1996).  It runs no LP.

    States come as distinct `_StateImage`s v = (d*x, d), kept in the order
    added, state q as bit q of a bitmask.  The hull is the cone of their
    images, held as equations e, with e.v = 0 on every state, and facets a,
    with a.v >= 0 on every state, each under an id, with the bitmask T(a) of
    the states tight on it (a.v = 0); per state, the bitmask of the ids of
    its tight facets.  Every vector is integer and primitive.  Before the
    first state, every unit vector is an equation.

    `add` puts state p in.  If an equation e has e.p != 0, p raises the
    dimension: e, signed so that e.p > 0, becomes a facet tight on every
    old state, and every other equation and facet f becomes
    (e.p)*f - (f.p)*e, which is 0 at p, so p joins every old tight set.
    Otherwise the facets with a.p >= 0 stay, p joining the tight sets of
    those with a.p = 0, the others go, and each adjacent pair with
    a.p > 0 > b.p gives the facet (a.p)*b - (b.p)*a, tight on
    T(a) & T(b) and on p.  Adjacency is combinatorial: the pair shares the
    dim - 2 states at least that a ridge of the cone holds (counted for
    all of b's pairs at once, bit-parallel over the ids), and no other
    facet is tight on every state of T(a) & T(b).

    `contains` substitutes a state into every row, the facets, the
    equations and their negations (= 0 is two tests of >= 0), with one
    packed product: column j is the big integer sum_r r_j * 2^(W*r), so
    sum_j t_j * column_j is sum_r (r.t) * 2^(W*r).  W is chosen so that
    every |r.t| < 2^(W-1), for queries up to twice the sum |t_j| that
    packed; adding G = sum_r 2^(W-1) * 2^(W*r) then leaves each field
    r.t + 2^(W-1) in [0, 2^W), with no carry, and its top bit set exactly
    when r.t >= 0: t is inside when (sum + G) & G == G.

    A state is a vertex exactly when it is alone in the meet of the tight
    sets that contain it.  A vertex's certificate is the sum of its tight
    facets, 0 at the vertex and > 0 at every other state, negated and
    lowered by `_lower` over the other states.
    """

    # the one support scan and its lowering, shared with the walk engine
    _support = IncrementalHull._support
    _lower = IncrementalHull._lower

    def __init__(self, images: Sequence[_StateImage]):
        self._images: list[_StateImage] = []
        self._equations = [[int(i == j) for j in range(len(images[0]))]
                           for i in range(len(images[0]))]
        self._facets: dict[int, list[int]] = {}  # id -> facet
        self._tight: dict[int, int] = {}  # id -> the bitmask of the states tight on the facet
        self._on: list[int] = []  # per state, the bitmask of the ids of its tight facets
        self._live = 0  # the bitmask of the ids in use
        self._packed = None  # (bound, columns, G), built by `contains`
        for image in images:
            self.add(image)

    def _facet(self, a: list[int], tight: int) -> None:
        """Hold facet `a`, tight on the states of the bitmask `tight`, under the least free id."""
        free = ~self._live & (self._live + 1)
        j = free.bit_length() - 1
        self._facets[j], self._tight[j] = a, tight
        self._live |= free
        for q in _bits(tight):
            self._on[q] |= free

    def add(self, image: _StateImage) -> None:
        """Put the state of `image`, not yet in the hull's states, in."""
        bit = 1 << len(self._images)
        self._images.append(image)
        self._on.append(0)
        self._packed = None
        facets, tight, on = self._facets, self._tight, self._on
        for k, e in enumerate(self._equations):
            ep = sum(map(mul, e, image))
            if ep:  # the state raises the dimension
                if ep < 0:
                    e, ep = [-v for v in e], -ep
                del self._equations[k]
                self._equations = [_combine(f, ep, e, sum(map(mul, f, image)))
                                   for f in self._equations]
                for j, a in facets.items():
                    facets[j] = _combine(a, ep, e, sum(map(mul, a, image)))
                    tight[j] |= bit
                on[-1] = self._live
                self._facet(e, bit - 1)
                return
        values = {j: sum(map(mul, a, image)) for j, a in facets.items()}
        positive, negative, new = 0, [], []
        for j, v in values.items():
            if v > 0:
                positive |= 1 << j
            elif v:
                negative.append(j)
            else:
                tight[j] |= bit
                on[-1] |= 1 << j
        need = len(image) - len(self._equations) - 2  # the states a ridge holds, at least
        for b in negative:
            shared = [-1] + [0] * need  # shared[k]: the facets tight on k states of b at least
            for q in _bits(tight[b]):
                for k in range(need, 0, -1):
                    shared[k] |= shared[k - 1] & on[q]
            for a in _bits(positive & shared[-1]):
                z, held = tight[a] & tight[b], self._live  # held: the facets tight on all of z
                for q in _bits(z):
                    held &= on[q]
                if held == 1 << a | 1 << b:
                    new.append((_combine(facets[b], values[a], facets[a], values[b]), z | bit))
        for b in negative:
            del facets[b]
            for q in _bits(tight.pop(b)):
                on[q] ^= 1 << b
            self._live ^= 1 << b
        for a, t in new:
            self._facet(a, t)

    def contains(self, image: _StateImage) -> bool:
        """Is the state of `image` in the hull?"""
        bound = sum(map(abs, image))
        if self._packed is None or bound >= self._packed[0]:
            self._pack(2 * bound)
        _, columns, total = self._packed
        guards = total
        for t, column in zip(image, columns):
            total += t * column
        return total & guards == guards

    def _pack(self, bound: int) -> None:
        """Pack the rows for queries t with sum |t_j| < `bound` (see the class docstring)."""
        rows = [*self._facets.values(), *self._equations, *([-v for v in e] for e in self._equations)]
        top = max(abs(v) for row in rows for v in row)
        size = ((top * bound).bit_length() + 8) // 8  # bytes per field: W = 8 * size > bits(top * bound)
        half = 1 << (8 * size - 1)
        ones = ((1 << (8 * size * len(rows))) - 1) // ((1 << (8 * size)) - 1)  # 1 in every field
        # each column_j as sum (r_j + half) * 2^(W*r), every field in [0, 2^W), less half * ones
        columns = [int.from_bytes(b"".join((v + half).to_bytes(size, "little") for v in column),
                                  "little") - half * ones
                   for column in zip(*rows)]
        self._packed = bound, columns, half * ones

    def _vertices(self) -> dict[int, list[int]]:
        """Each vertex's index, in the order added, with the ids of its tight facets."""
        everyone, vertices = (1 << len(self._images)) - 1, {}
        for q, on in enumerate(self._on):
            ids = list(_bits(on))
            if reduce(and_, map(self._tight.__getitem__, ids), everyone) == 1 << q:
                vertices[q] = ids
        return vertices

    def certificates(self) -> list[ExtremalityCertificate]:
        """The hull's vertices, in lexicographic order, each with its certificate
        (see the class docstring), checked by substitution against the other vertices."""
        images, vertices = self._images, self._vertices()
        certificates = []
        for q, ids in vertices.items():
            func = [-sum(c) for c in zip([0] * len(images[q]), *map(self._facets.get, ids))]
            func[-1] += 1  # > 0 at the vertex even with no facet: a hull of one state
            functional = self._lower(images[q], 1, func, skip=q)[0]
            if functional is None or not functional._separates(
                    images[q], (images[v] for v in vertices if v != q)):
                raise AssertionError("certificate failed direct substitution")
            certificates.append(ExtremalityCertificate(
                point=images[q].point(), is_extreme=True, functional=functional))
        return sorted(certificates, key=lambda c: c.point)

    def least(self, weights: Sequence[Fraction]) -> tuple[Fraction, list]:
        """
        The least value of sum_i weights_i * x_i over the states, which is its
        least over the hull, and the vertices that attain it, in
        lexicographic order.
        """
        *scaled, scale = _image(weights)
        num, d, tied = self._support([-w for w in scaled])
        if len(tied) > 1:  # together they span the optimal face: keep its vertices
            tied = list(filter(self._vertices().__contains__, tied))
        return Fraction(-num, d * scale), sorted(self._images[q].point() for q in tied)


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
    After the vertex scan, each point is decided by one certification LP
    (`IncrementalHull._certify`) against the other vertices, nearest first;
    a vertex that the scan's walk confirmed for itself resumes from that
    walk's last LP.  The certificates are deterministic, but they depend on
    the scan's path, not on the vertex set alone.
    """
    hull = IncrementalHull(points)
    vertices = [hull._index_of[_image(p)] for p in hull.vertices()]
    images = hull._images
    certificates = []
    for q, (p, image) in enumerate(zip(hull.points, images)):
        others = [v for v in vertices if v != q]
        witness = hull._certify(q, others)
        if isinstance(witness, tuple):
            cert = ExtremalityCertificate(point=p, is_extreme=False, combination=witness)
            verified = cert.verify(())  # a reconstruction needs no other point
        else:
            cert = ExtremalityCertificate(point=p, is_extreme=True, functional=witness)
            # cert.verify on the cached images of p and of every other point
            rest = images[:q] + images[q + 1:]
            verified = witness is not None and witness._separates(image, rest)
        if cert.is_extreme != (len(others) < len(vertices)):
            raise AssertionError("certification disagrees with the vertex scan")
        if not verified:
            raise AssertionError("certificate failed direct substitution")
        certificates.append(cert)
    return certificates

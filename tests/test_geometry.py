import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from diffpoly.core import PairOp, PopulationVector, apply_sequence, uniform_vector
from diffpoly.geometry import (
    HullMembership,
    IncrementalHull,
    SeparatingFunctional,
    _image,
    _phase_one,
    extreme_points,
    hull_membership,
    hull_vertices,
)
from diffpoly.optimize import exponential_populations
from diffpoly.structured.complete import kn_candidate_points
from diffpoly.structured.ordered_path import subset_point

from conftest import random_population


def pv(*comps):
    return PopulationVector(comps)


K3_VERTICES = [
    pv("0", "2/7", "5/7"),
    pv("1/7", "1/7", "5/7"),
    pv("0", "1/2", "1/2"),
    pv("3/7", "1/7", "3/7"),
    pv("1/4", "1/2", "1/4"),
    pv("3/7", "2/7", "2/7"),
    pv("3/8", "3/8", "1/4"),
]


def brute_force_vertices(points):
    """Quadratic LP filter, the slow oracle."""
    pts = sorted(set(points))
    return [p for p in pts if not hull_membership(p, [q for q in pts if q != p]).inside]


def simplex_lattice(levels, denominator):
    return [
        PopulationVector.normalized(c)
        for c in product(range(denominator + 1), repeat=levels)
        if sum(c) == denominator
    ]


class TestHullMembership:
    def test_uniform_inside_k3_hull(self):
        res = hull_membership(uniform_vector(3), K3_VERTICES)
        assert res.inside
        assert res.verify(uniform_vector(3), K3_VERTICES)

    def test_member_is_inside(self, rho3):
        res = hull_membership(rho3, K3_VERTICES)
        assert res.inside

    def test_empty_set(self, rho3):
        res = hull_membership(rho3, [])
        assert not res.inside and res.functional is None

    def test_outside_gets_verified_functional(self, rho3):
        others = [p for p in K3_VERTICES if p != rho3]
        res = hull_membership(rho3, others)
        assert not res.inside
        assert res.functional.separates(rho3, others)

    def test_triangle_identity_with_exact_weight(self, rho3):
        # averaging the outer pair of (0, 2/7, 5/7) lands at weight 3/4
        # between the uniform point and the lower-pair two-step average
        outer = PairOp.of(1, 3).apply(rho3)
        two_step = apply_sequence([PairOp.of(1, 2), PairOp.of(1, 3)], rho3)
        res = hull_membership(outer, [uniform_vector(3), two_step])
        assert res.inside
        assert res.coefficients == (Fraction(3, 4), Fraction(1, 4))

    def test_wrong_branch_pair_fails(self, rho3):
        # with the upper-pair two-step point instead, the combination
        # needs weight 9/7 > 1: not a convex combination
        outer = PairOp.of(1, 3).apply(rho3)
        upper = apply_sequence([PairOp.of(2, 3), PairOp.of(1, 3)], rho3)
        res = hull_membership(outer, [uniform_vector(3), upper])
        assert not res.inside

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull_membership(uniform_vector(3), [uniform_vector(4)])

    def test_float_coordinates_rejected(self):
        with pytest.raises(TypeError, match="0.1"):
            hull_membership([0.1, 0.9], [[0, 1], [1, 0]])
        with pytest.raises(TypeError, match="0.5"):
            hull_membership([Fraction(1, 2), Fraction(1, 2)], [[0, 1], [0.5, 0.5]])
        with pytest.raises(TypeError, match="0.25"):
            hull_vertices([[0, 1], [0.25, 0.75], [1, 0]])
        with pytest.raises(TypeError, match="'1/2'"):
            extreme_points([[0, 1], ["1/2", "1/2"]])
        # ints and Fractions are exact and stay accepted
        assert hull_membership([Fraction(1, 2), Fraction(1, 2)], [[0, 1], [1, 0]]).inside


class TestExtremePoints:
    def test_single_point(self, rho3):
        certs = extreme_points([rho3])
        assert len(certs) == 1 and certs[0].is_extreme

    def test_known_vertex_list_skips_the_scan_with_the_same_certificates(self):
        rnd = random.Random(3)
        for _ in range(10):
            cloud = [random_population(rnd, 4) for _ in range(12)]
            vertices = hull_vertices(cloud)
            certs = extreme_points(vertices, _all_vertices=True)
            assert certs == extreme_points(vertices)
            assert [c.to_json() for c in certs] == [c.to_json() for c in extreme_points(vertices)]
        # a point that is not a vertex still fails the walk-against-scan check
        square = [(0, 0), (0, 1), (1, 0), (1, 1), (Fraction(1, 2), Fraction(1, 2))]
        with pytest.raises(AssertionError, match="disagrees with the vertex scan"):
            extreme_points(square, _all_vertices=True)

    def test_k3_reachable_states_give_seven_vertices(self, rho3):
        from diffpoly.enumeration import explore
        from diffpoly.core import complete

        reach = explore(complete(3), rho3, max_depth=3)
        certs = extreme_points(reach.points())
        vertices = [c.point for c in certs if c.is_extreme]
        assert vertices == sorted(K3_VERTICES)
        for c in certs:
            others = [p for p in reach.points() if p != c.point]
            assert c.verify(others)

    def test_generators_recovered_from_combinations(self):
        rnd = random.Random(5)
        gens = [
            pv("1", "0", "0", "0"),
            pv("0", "1", "0", "0"),
            pv("0", "0", "1", "0"),
            pv("1/4", "1/4", "1/4", "1/4"),
        ]
        cloud = list(gens)
        for _ in range(100):
            w = [rnd.randrange(0, 20) for _ in gens]
            if sum(w) == 0:
                w[0] = 1
            total = sum(w)
            combo = PopulationVector(
                sum(Fraction(wi, total) * g[t] for wi, g in zip(w, gens))
                for t in range(4)
            )
            cloud.append(combo)
        certs = extreme_points(cloud)
        assert [c.point for c in certs if c.is_extreme] == sorted(gens)
        extreme = {c.point for c in certs if c.is_extreme}
        for c in certs:
            if not c.is_extreme:
                assert {q for q, _ in c.combination} <= extreme

    def test_substitution_check_covers_the_point_and_every_other(self, monkeypatch):
        # (0, 1) is a vertex of the square; hand extreme_points a wrong
        # functional for it and the certificate check must refuse it
        square = [(0, 0), (0, 1), (1, 0), (1, 1)]
        half = Fraction(1, 2)
        step = IncrementalHull._certify
        for wrong in (
            # y - 1/2 is > 0 at (1, 1), the last other point; 1/2 - y is < 0 at (0, 1) itself
            SeparatingFunctional((Fraction(0), Fraction(1)), -half),
            SeparatingFunctional((Fraction(0), Fraction(-1)), half),
        ):
            def certify(hull, point, working, wrong=wrong):
                return wrong if point == (0, 1) else step(hull, point, working)

            monkeypatch.setattr(IncrementalHull, "_certify", certify)
            with pytest.raises(AssertionError, match="direct substitution"):
                extreme_points(square)
        monkeypatch.undo()
        assert [c.is_extreme for c in extreme_points(square)] == [True] * 4

    def test_invariant_under_permutation_and_duplication(self):
        rnd = random.Random(9)
        cloud = [random_population(rnd, 4) for _ in range(25)]
        base = [c.point for c in extreme_points(cloud) if c.is_extreme]
        shuffled = list(cloud)
        rnd.shuffle(shuffled)
        doubled = shuffled + cloud
        again = [c.point for c in extreme_points(doubled) if c.is_extreme]
        assert base == again

    def test_matches_brute_force_oracle(self):
        rnd = random.Random(17)
        for trial in range(10):
            cloud = [random_population(rnd, rnd.randrange(2, 5)) for _ in range(18)]
            dim = len(cloud[0])
            cloud = [p for p in cloud if len(p) == dim]
            fast = [c.point for c in extreme_points(cloud) if c.is_extreme]
            assert fast == brute_force_vertices(cloud)
            assert fast == hull_vertices(cloud)


class TestIncrementalHull:
    def test_agrees_with_direct_queries(self):
        rnd = random.Random(23)
        cloud = [random_population(rnd, 4) for _ in range(30)]
        hull = IncrementalHull(cloud)
        slow = set(brute_force_vertices(cloud))
        for p in sorted(set(cloud)):
            assert hull.is_extreme_in(p) == (p in slow)
        probe = random_population(rnd, 4)
        assert hull.contains(probe) == hull_membership(probe, sorted(set(cloud))).inside


    def test_ties_on_simplex_lattices(self):
        # lattice points tie with their neighbours along many functionals:
        # a walk may stop only when the query point scores strictly highest
        for points in (simplex_lattice(3, 6), simplex_lattice(4, 4)):
            corners = [p for p in points if max(p) == 1]
            for cloud in (
                points,
                [p for p in points if p not in corners],
                [p for p in points if max(p) <= Fraction(1, 2)],
            ):
                hull = IncrementalHull(cloud)
                slow = set(brute_force_vertices(cloud))
                for p in cloud:
                    assert hull.is_extreme_in(p) == (p in slow)

    def test_dimension_mismatch(self):
        for cloud in ([(1, 0), (0, 1, 0)], [(1, 0, 0), (0, 1)], [(1,), (0, 1)]):
            with pytest.raises(ValueError, match="dimension mismatch"):
                hull_vertices(cloud)
            with pytest.raises(ValueError, match="dimension mismatch"):
                extreme_points(cloud)
        hull = IncrementalHull([(1, 0), (0, 1)])
        for query in ((1, 0, 0), (1,)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                hull.contains(query)
            with pytest.raises(ValueError, match="dimension mismatch"):
                hull.is_extreme_in(query)
        assert hull.contains([Fraction(1, 2), Fraction(1, 2)])
        assert hull.is_extreme_in((1, 0))
        assert not IncrementalHull([]).contains((1, 0, 0))  # nothing to compare with

    def test_float_queries_rejected(self):
        hull = IncrementalHull([(0, 1), (1, 0)])
        for query in ((0.5, 0.5), [Fraction(1, 2), 0.5]):
            with pytest.raises(TypeError, match="0.5"):
                hull.contains(query)
            with pytest.raises(TypeError, match="0.5"):
                hull.is_extreme_in(query)
        with pytest.raises(TypeError, match="0.5"):
            IncrementalHull([(0, 1), (0.5, 0.5)])
        assert hull.contains((Fraction(1, 2), Fraction(1, 2)))

    def test_vertices_after_extremality_queries(self):
        # extremality queries run the same walk as vertices() and leave
        # their confirmed vertices behind; the midpoint of the line is
        # never among them, and a later vertex scan reuses them unchanged
        line = [pv("0", "1"), pv("1/2", "1/2"), pv("1", "0")]
        hull = IncrementalHull(line)
        assert hull.is_extreme_in(line[2])
        assert hull.vertices() == [line[0], line[2]] == hull_vertices(line)

        rnd = random.Random(31)
        cloud = [random_population(rnd, 3, bound=6) for _ in range(20)]
        hull = IncrementalHull(cloud)
        for p in rnd.sample(cloud, 8):
            hull.is_extreme_in(p)
        assert hull.vertices() == brute_force_vertices(cloud)

    def test_confirmed_points_are_vertices(self):
        # every point the walk confirms is a vertex of the whole set, after
        # any mix of membership, extremality and vertex queries
        line = [pv("0", "1"), pv("1/2", "1/2"), pv("1", "0")]
        hull = IncrementalHull(line)
        assert hull.is_extreme_in(line[2]) and not hull.is_extreme_in(line[1])
        assert set(hull._confirmed) <= {line[0], line[2]}

        rnd = random.Random(41)
        clouds = [[random_population(rnd, dim, bound=6) for _ in range(18)] for dim in (3, 4)]
        clouds += [simplex_lattice(3, 4), [p for p in simplex_lattice(3, 4) if max(p) < 1]]
        for cloud in clouds:
            hull = IncrementalHull(cloud)
            slow = brute_force_vertices(cloud)
            probes = [random_population(rnd, len(cloud[0])) for _ in range(4)]
            queries = rnd.sample(cloud, min(8, len(cloud))) + probes
            for i, q in enumerate(queries):
                if i % 2:
                    hull.contains(q)
                else:
                    hull.is_extreme_in(q)
                assert set(hull._confirmed) <= set(slow)
            assert hull.vertices() == slow
            assert set(hull._confirmed) == set(slow)

    def test_extend_matches_a_fresh_hull(self):
        # the set grows in three batches (with repeats); after each, every
        # answer is that of a hull built from scratch on the same points,
        # although the grown hull carries cuts and walks from earlier batches
        rnd = random.Random(53)
        for dim in (3, 3, 4, 4):
            cloud = [random_population(rnd, dim, bound=6) for _ in range(24)]
            batches = [cloud[:8], cloud[8:16] + cloud[:2], cloud[16:]]
            probes = [random_population(rnd, dim) for _ in range(6)]
            probes += [_combination(rnd, rnd.sample(cloud, 3)) for _ in range(6)] + cloud[8:]
            hull, seen = IncrementalHull([]), []
            for batch in batches:
                hull._extend(batch)
                seen += batch
                assert hull._confirmed == {}
                assert hull.points == sorted(set(seen))
                fresh = IncrementalHull(seen)
                assert [hull.contains(q) for q in probes] == [fresh.contains(q) for q in probes]
                assert ([hull.is_extreme_in(p) for p in hull.points]
                        == [fresh.is_extreme_in(p) for p in fresh.points])
                assert hull.vertices() == fresh.vertices()

    def test_extend_drops_cuts(self):
        # the centroid is outside the hull of two corners, and its cut
        # scores it > 0; once the third corner joins, it is inside
        corners = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        centroid = (Fraction(1, 3),) * 3
        hull = IncrementalHull(corners[:2])
        assert not hull.contains(centroid)
        assert hull._cuts
        hull._extend(corners[2:])
        assert hull.contains(centroid)

    def test_cut_decides_a_later_query(self, monkeypatch):
        # the hull is the corner x >= 3/4 of the simplex; `near` is outside,
        # and lies between the corner (1, 0, 0) and `far`, so the cut that
        # separates `near` separates `far` too, and no LP runs for it
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return _phase_one(*args, **kwargs)

        monkeypatch.setattr("diffpoly.geometry._phase_one", counting)
        q = Fraction(1, 4)
        hull = IncrementalHull([(1, 0, 0), (1 - q, q, 0), (1 - q, 0, q)])
        near, far = (Fraction(1, 2), q, q), (0, Fraction(1, 2), Fraction(1, 2))
        assert not hull.contains(near) and calls
        calls.clear()
        assert not hull.contains(far) and not calls
        assert not IncrementalHull(hull.points).contains(far) and calls


def reference_phase_one(point, points, entered=None):
    """
    The phase-one simplex on a tableau of `Fraction`s, with the same Bland
    rule: the reference the integer kernel must agree with exactly.  Each
    entering column's index is appended to `entered`, if given.
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
    tableau = []
    for r in range(rows):
        row = [Fraction(0)] * width
        for j, q in enumerate(points):
            val = Fraction(q[r]) if r < n else Fraction(1)
            row[j] = sign[r] * val
        row[m + r] = Fraction(1)
        row[-1] = b[r]
        tableau.append(row)

    basis = [m + r for r in range(rows)]
    reduced = [Fraction(0)] * width
    for j in range(m + rows):
        cost = Fraction(1) if j >= m else Fraction(0)
        reduced[j] = cost - sum(tableau[r][j] for r in range(rows))
    reduced[-1] = -sum(tableau[r][-1] for r in range(rows))

    while True:
        enter = next((j for j in range(m + rows) if reduced[j] < 0), None)
        if enter is None:
            break
        if entered is not None:
            entered.append(enter)
        leave = None
        best = None
        for r in range(rows):
            coef = tableau[r][enter]
            if coef > 0:
                key = (tableau[r][-1] / coef, basis[r])
                if best is None or key < best:
                    best = key
                    leave = r
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

    if reduced[-1] == 0:
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = tableau[r][-1]
        return HullMembership(inside=True, coefficients=tuple(lam))
    y = [sign[r] * (Fraction(1) - reduced[m + r]) for r in range(rows)]
    return HullMembership(inside=False, functional=SeparatingFunctional(tuple(y[:n]), y[n]))


def _combination(rnd, points):
    weights = [rnd.randrange(0, 4) for _ in points]
    if not any(weights):
        weights[0] = 1
    total = sum(weights)
    return tuple(
        sum(Fraction(w, total) * q[r] for w, q in zip(weights, points))
        for r in range(len(points[0]))
    )


def phase_one_cases():
    """Seeded (point, points) inputs: signs, ties, m = 1 and 40-digit rationals."""
    rnd = random.Random(2016)

    def coord():
        # zeros and small denominators give degenerate ratio ties;
        # the 7-digit prime denominator gives large scalings
        den = rnd.choice([1, 1, 2, 3, 4, 6, 9999991])
        return Fraction(rnd.randint(-3 * den, 3 * den), den)

    def query(points):
        kind = rnd.randrange(4)
        if kind == 0:
            return tuple(coord() for _ in points[0])
        if kind == 1:
            return rnd.choice(points)
        return _combination(rnd, rnd.sample(points, rnd.randint(1, len(points))))

    cases = []
    for _ in range(120):  # general position, negative coordinates
        dim = rnd.randint(1, 5)
        points = [tuple(coord() for _ in range(dim)) for _ in range(rnd.randint(1, 8))]
        cases.append((query(points), points))
    for _ in range(100):  # duplicates, collinear points and combinations
        dim = rnd.randint(1, 4)
        a, b = (tuple(coord() for _ in range(dim)) for _ in range(2))
        line = [
            tuple(x + t * (y - x) for x, y in zip(a, b))
            for t in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2))
        ]
        base = line + [tuple(coord() for _ in range(dim)) for _ in range(2)]
        points = [rnd.choice(base) for _ in range(rnd.randint(2, 9))]
        points += [_combination(rnd, points) for _ in range(rnd.randrange(3))]
        cases.append((query(points), points))
    for _ in range(40):  # m = 1
        q = tuple(coord() for _ in range(rnd.randint(1, 4)))
        cases.append((q if rnd.random() < 0.3 else tuple(coord() for _ in q), [q]))
    rho = exponential_populations(4)
    pairs = [PairOp.of(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(60):  # 40-digit rationals
        states = [
            apply_sequence(rnd.choices(pairs, k=rnd.randrange(4)), rho)
            for _ in range(rnd.randint(1, 10))
        ]
        point = (
            apply_sequence(rnd.choices(pairs, k=rnd.randrange(5)), rho)
            if rnd.random() < 0.5 else _combination(rnd, states)
        )
        cases.append((point, states))
    return cases


def test_integer_kernel_matches_fraction_reference():
    cases = phase_one_cases()
    assert len(cases) >= 300
    outcomes = set()
    for point, points in cases:
        result = _phase_one(point, points)
        assert result == reference_phase_one(point, points), (point, points)
        outcomes.add(result.inside)
    assert outcomes == {True, False}


def reference_value(func, point):
    """A functional's value at a point, in `Fraction` arithmetic."""
    return sum(c * x for c, x in zip(func.coefficients, point)) + func.offset


def reference_separates(func, point, others):
    return reference_value(func, point) > 0 and all(reference_value(func, q) <= 0 for q in others)


def reference_outside(hull, point):
    """
    `IncrementalHull._outside` with every score a `Fraction`: the reference
    the integer scoring must agree with, witness by witness and in the order
    it confirms points.
    """
    while point not in hull._confirmed:
        working = list(hull._confirmed)
        if working:
            res = _phase_one(point, working)
            if res.inside:
                return tuple((q, w) for q, w in zip(working, res.coefficients) if w)
            func = res.functional
            score, best = max((reference_value(func, q), q) for q in hull.points)
            if score < reference_value(func, point):
                return SeparatingFunctional(func.coefficients, func.offset - score)
            if best in working:
                raise AssertionError("support maximization returned a separated point")
        elif hull.points:
            best = hull.points[0]
        else:
            return None
        hull._confirmed[best] = None
    return None


def reference_certify(hull, point, working):
    """`IncrementalHull._certify` with every score a `Fraction`."""
    if working:
        res = _phase_one(point, working)
        if res.inside:
            return tuple((q, w) for q, w in zip(working, res.coefficients) if w)
        func = res.functional
    else:  # nothing to run an LP against: the constant 1
        func = SeparatingFunctional((Fraction(0),) * len(point), Fraction(1))
    score = max((reference_value(func, q) for q in hull.points if q != point), default=0)
    if score < reference_value(func, point):
        return SeparatingFunctional(func.coefficients, func.offset - score)
    return None


def walk_clouds():
    """Seeded clouds: mixed denominators, lattice ties, integers, 40-digit rationals."""
    rnd = random.Random(2024)
    clouds = []
    for _ in range(12):
        dim = rnd.randint(2, 5)
        bound = rnd.choice([4, 7, 50, 10 ** 6])
        size = rnd.randint(2, 24)
        clouds.append([random_population(rnd, dim, bound=bound) for _ in range(size)])
    for points in (simplex_lattice(3, 6), simplex_lattice(4, 4)):
        corners = [p for p in points if max(p) == 1]
        clouds.append(points)
        clouds.append([p for p in points if p not in corners])
        clouds.append([p for p in points if max(p) <= Fraction(1, 2)])
    for _ in range(6):  # integer coordinates, not populations
        dim = rnd.randint(1, 4)
        clouds.append(
            [tuple(rnd.randint(-4, 4) for _ in range(dim)) for _ in range(rnd.randint(1, 15))]
        )
    rho = exponential_populations(4)
    pairs = [PairOp.of(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(3):
        clouds.append(
            [apply_sequence(rnd.choices(pairs, k=rnd.randrange(5)), rho) for _ in range(20)]
        )
    return rnd, clouds


def test_walk_matches_fraction_reference():
    rnd, clouds = walk_clouds()
    witnesses, kinds = 0, set()
    for cloud in clouds:
        pts = sorted(set(cloud))
        dim = len(pts[0])
        probes = [tuple(Fraction(rnd.randint(-2, 9), 7) for _ in range(dim)) for _ in range(5)]
        probes += [_combination(rnd, rnd.sample(pts, rnd.randint(1, len(pts))))]
        # extremality queries and probes on a fresh hull, then the vertex
        # scan and more probes on the same hull, then one certification LP
        # per point against the other vertices (as in extreme_points)
        fast, slow = IncrementalHull(cloud), IncrementalHull(cloud)
        queries = rnd.sample(pts, min(5, len(pts))) + probes[:3] + pts + probes[3:]
        for point in queries:
            witness = fast._outside(point)
            assert witness == reference_outside(slow, point)
            assert list(fast._confirmed) == list(slow._confirmed)
            witnesses += 1
            kinds.add(type(witness))
        vertices = fast.vertices()
        for p in pts:
            others = [v for v in vertices if v != p]
            witness = fast._certify(p, others)
            assert witness == reference_certify(slow, p, others)
            assert isinstance(witness, tuple) == (p not in vertices)
            witnesses += 1
        assert list(fast._confirmed) == list(slow._confirmed)
        assert sorted(fast._confirmed) == vertices
    assert witnesses > 1000
    assert kinds == {tuple, SeparatingFunctional, type(None)}


def test_certify_returns_none_without_strict_separation():
    # against a working set that misses the vertex (1, 1), the LP separates
    # (0, 1) from (0, 0) and (1, 0), but no lowering separates it from (1, 1)
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hull = IncrementalHull(square)
    working = [(0, 0), (1, 0)]
    assert hull._certify((0, 1), working) is None is reference_certify(hull, (0, 1), working)
    assert hull._confirmed == {}  # certification confirms nothing


def test_separates_matches_fraction_reference():
    rnd = random.Random(77)

    def coord():
        den = rnd.choice([1, 2, 3, 5, 9999991])
        return Fraction(rnd.randint(-3 * den, 3 * den), den)

    verdicts = set()
    for _ in range(200):
        dim = rnd.randint(1, 4)
        func = SeparatingFunctional(tuple(coord() for _ in range(dim)), coord())
        points = [tuple(coord() for _ in range(dim)) for _ in range(rnd.randint(0, 6))]
        points += [tuple(rnd.randint(-3, 3) for _ in range(dim)) for _ in range(2)]
        point, others = points[0], points[1:]
        verdict = func.separates(point, others)
        assert verdict == reference_separates(func, point, others)
        verdicts.add(verdict)
        # exactly 0 at another point counts as <= 0; exactly 0 at the point does not separate
        q = others[0]
        zero = SeparatingFunctional(func.coefficients, func.offset - reference_value(func, q))
        assert zero.separates(point, [q]) == (reference_value(zero, point) > 0)
        assert not zero.separates(q, [point])
        verdicts.add(zero.separates(point, [q]))
    assert verdicts == {True, False}

    # x - y on the line x + y = 1: (1, 0) scores 1, (1/2, 1/2) scores 0, (0, 1) scores -1
    func = SeparatingFunctional((Fraction(1), Fraction(-1)), Fraction(0))
    half = (Fraction(1, 2), Fraction(1, 2))
    assert func.separates((1, 0), [half, (0, 1)])
    assert not func.separates(half, [(0, 1)])  # exactly 0 at the point
    assert not func.separates((0, 1), [])
    assert func.separates((1, 0), [])  # nothing else to separate from
    assert not func.separates((1, 0), [(2, 1), (3, 1)])  # 1 at another point


def wide_phase_one_cases():
    """
    LPs of the workloads' shape, 8 rows by 63 columns and 5 by 42, entering
    late: each ordered-P_7 subset point against the other 63, each K_4
    candidate against the other candidates, and random convex combinations
    against all of them.
    """
    rnd = random.Random(7)
    rho = PopulationVector.normalized([2, 3, 5, 7, 11, 13, 17])
    cube = [subset_point(sub, rho) for k in range(7) for sub in combinations(range(1, 7), k)]
    cloud = sorted(kn_candidate_points(PopulationVector.normalized([1, 3, 5, 8])))
    cases = []
    for points in (cube, cloud):
        cases += [(p, points[:i] + points[i + 1:]) for i, p in enumerate(points)]
        cases += [(_combination(rnd, rnd.sample(points, 4)), points) for _ in range(8)]
    return cases


def reentry_phase_one_cases(count=40):
    """Small integer LPs, degenerate with ties, in which an artificial column re-enters."""
    rnd = random.Random(6)
    cases = []
    while len(cases) < count:
        dim = rnd.randint(2, 4)
        points = [tuple(rnd.randint(-2, 2) for _ in range(dim)) for _ in range(rnd.randint(2, 6))]
        point = (
            tuple(rnd.randint(-2, 2) for _ in range(dim))
            if rnd.random() < 0.5 else _combination(rnd, points)
        )
        entered = []
        reference_phase_one(point, points, entered)
        if any(j >= len(points) for j in entered):
            cases.append((point, points))
    return cases


def test_wide_and_reentry_lps_match_fraction_reference():
    wide, reentry = wide_phase_one_cases(), reentry_phase_one_cases()
    assert len(wide) == 64 + 43 + 2 * 8
    outcomes = set()
    for point, points in wide + reentry:
        result = _phase_one(point, points)
        assert result == reference_phase_one(point, points), (point, points)
        assert _phase_one(point, points, images=[_image(q) for q in points]) == result
        assert _phase_one(point, points, point_image=_image(point)) == result
        outcomes.add(result.inside)
    assert outcomes == {True, False}


def test_functional_from_integers_matches_fraction_form():
    rnd = random.Random(31)
    cases = [
        (6, [3, -2, 0]),          # 1/2, -1/3, 0
        (12, [6, -4, 0]),         # the same, not reduced
        (5, [0, 0, 0]),           # all zeros: D = 1
        (7, [0, 0, 14]),          # integer offset
        (1, [-3, 4, -5]),         # integers, negative entries
    ]
    for _ in range(200):
        den = rnd.choice([1, 2, 6, 9999991, 10 ** 12])
        values = [rnd.randint(-3 * den, 3 * den) * rnd.choice([0, 1, 1]) for _ in range(rnd.randint(1, 5))]
        scale = rnd.choice([1, 2, 35])
        cases.append((den * scale, [v * scale for v in values]))
    for den, func in cases:
        values = [Fraction(v, den) for v in func]
        ints = SeparatingFunctional._from_integers(den, func)
        fracs = SeparatingFunctional(tuple(values[:-1]), values[-1])
        assert ints == fracs and not ints != fracs
        assert hash(ints) == hash(fracs)
        assert (ints.coefficients, ints.offset) == (fracs.coefficients, fracs.offset)
        assert all(type(c) is Fraction for c in (*ints.coefficients, ints.offset))
        assert repr(ints) == repr(fracs)
        assert ints.to_json() == fracs.to_json()
        assert repr(fracs) == (
            f"SeparatingFunctional(coefficients={tuple(values[:-1])!r}, offset={values[-1]!r})"
        )
    one = SeparatingFunctional((Fraction(1), Fraction(-1, 2)), Fraction(0))
    assert one != SeparatingFunctional((Fraction(1), Fraction(1, 2)), Fraction(0))
    assert one != SeparatingFunctional((Fraction(1), Fraction(-1, 2), Fraction(0)), Fraction(0))
    assert one != (one.coefficients, one.offset)
    assert len({one, SeparatingFunctional._from_integers(4, [4, -2, 0])}) == 1


def test_functional_is_immutable():
    func = SeparatingFunctional((Fraction(1, 2), Fraction(-1, 3)), Fraction(1))
    for name, value in (("offset", Fraction(0)), ("coefficients", ()), ("_func", (0, 0, 0)),
                        ("_den", 1), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(func, name, value)
    with pytest.raises(AttributeError):
        del func.offset
    assert func == SeparatingFunctional((Fraction(1, 2), Fraction(-1, 3)), Fraction(1))
    assert pickle.loads(pickle.dumps(func)) == func

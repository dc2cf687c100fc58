import hashlib
import math
import operator
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from diffpoly import geometry
from diffpoly.cli import canonical_json
from diffpoly.core import (
    PairOp,
    PopulationVector,
    apply_sequence,
    cycle,
    format_rational,
    helium_p5,
    uniform_vector,
)
from diffpoly.enumeration import explore, polytope, triangle_decomposition
from diffpoly.geometry import (
    ExtremalityCertificate,
    FacetHull,
    HullMembership,
    IncrementalHull,
    SeparatingFunctional,
    _image,
    _phase_one,
    _StateImage,
    extreme_points,
    hull_membership,
    hull_vertices,
)
from diffpoly.optimize import exponential_populations
from diffpoly.packing import PackedRows
from diffpoly.structured.complete import kn_candidate_points
from diffpoly.structured.ordered_path import pn_polytope, subset_point

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
        # with no functional, "outside" is a witness against the empty set only
        assert res.verify(rho3, []) and not res.verify(rho3, [uniform_vector(3)])

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

    def test_interior_certificate_json(self):
        certs = extreme_points(K3_VERTICES + [uniform_vector(3)])
        (cert,) = [c for c in certs if not c.is_extreme]
        data = cert.to_json()
        assert data["point"] == ["1/3", "1/3", "1/3"] and data["is_extreme"] is False
        assert "functional" not in data
        assert data["combination"] == [
            {"point": [format_rational(c) for c in q], "weight": format_rational(w)}
            for q, w in cert.combination
        ]

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
            def certify(hull, q, working, wrong=wrong):
                return wrong if hull.points[q] == (0, 1) else step(hull, q, working)

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
        assert set(confirmed_points(hull)) <= {line[0], line[2]}

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
                assert set(confirmed_points(hull)) <= set(slow)
            assert hull.vertices() == slow
            assert set(confirmed_points(hull)) == set(slow)

    def test_state_images_answer_as_their_points(self):
        # a search state joins the facet hull as its `_StateImage`; after
        # each of three batches, it answers as a hull of the points so far
        # does, and as the LP on them
        rnd = random.Random(71)
        for dim in (3, 4):
            cloud = list(dict.fromkeys(random_population(rnd, dim, bound=6) for _ in range(24)))
            probes = [random_population(rnd, dim) for _ in range(12)]
            probes += [_combination(rnd, rnd.sample(cloud, 3)) for _ in range(12)] + cloud
            by_image, seen = facet_hull(cloud[:8]), cloud[:8]
            for batch in (cloud[8:16], cloud[16:]):
                for p in batch:
                    by_image.add(_StateImage(_image(p)))
                seen += batch
                by_point = IncrementalHull(seen)
                answers = [hull_membership(q, seen).inside for q in probes]
                assert [facet_contains(by_image, q) for q in probes] == answers
                assert [by_point.contains(q) for q in probes] == answers
                assert True in answers and False in answers
                assert [c.point for c in by_image.certificates()] == by_point.vertices()

    def test_cells_agree_with_membership_while_the_set_grows(self):
        # every query is checked against the LP on all points so far; the
        # clouds are populations, populations with a last level of 0 and
        # 40-digit states, grown in three batches; a third of the queries is
        # shifted off the affine hull of the set
        rnd = random.Random(67)
        rho = exponential_populations(4)
        pairs = [PairOp.of(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        clouds = [
            [random_population(rnd, 4, bound=6) for _ in range(24)],
            [(*random_population(rnd, 3, bound=6), 0) for _ in range(24)],
            [apply_sequence(rnd.choices(pairs, k=rnd.randrange(6)), rho) for _ in range(24)],
        ]
        answers = set()
        for cloud in clouds:
            cloud = list(dict.fromkeys(cloud))
            grown, seen = facet_hull(cloud[:8]), cloud[:8]
            for batch in ((), cloud[8:16], cloud[16:]):
                for p in batch:
                    grown.add(_StateImage(_image(p)))
                seen += batch
                hull = IncrementalHull(seen)
                for _ in range(40):
                    q = list(_combination(rnd, rnd.sample(seen, 3)))
                    if rnd.random() < 1 / 3:
                        q[rnd.randrange(len(q))] += Fraction(1, 97)
                    inside = hull_membership(q, seen).inside
                    assert hull.contains(q) == facet_contains(grown, q) == inside, q
                    answers.add(inside)
        assert answers == {True, False}

    def test_cell_decides_a_later_query(self):
        # the set is a triangle in the plane z = 0: points in the triangle
        # are inside and points above it outside, before and after the set
        # grows, whether the hull is built at once or grown
        triangle = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]
        grown = facet_hull(triangle)

        def grown_contains(q):
            return facet_contains(grown, q)

        for contains in (IncrementalHull(triangle).contains, grown_contains):
            assert contains((1, 1, 0)) and contains((1, 2, 0))
            assert not contains((1, 2, 1))
        grown.add(_StateImage(_image((-4, -4, 0))))
        for contains in (IncrementalHull([*triangle, (-4, -4, 0)]).contains, grown_contains):
            assert contains((2, 1, 0)) and not contains((2, 1, 1))
            assert contains((-3, -3, 0)) and not contains((-5, -5, 0))

    def test_cell_drops_a_point_hidden_by_a_later_batch(self):
        # (1, 1) joins first and is hidden when the triangle joins: it is
        # not a vertex, and each corner's certificate separates it
        corners = [(0, 0), (0, 4), (4, 0)]
        hull = IncrementalHull([(1, 1), *corners])
        assert hull.contains((1, 2)) and not hull.is_extreme_in((1, 1))
        assert hull.vertices() == corners
        grown = facet_hull([(1, 1)])
        for p in corners:
            grown.add(_StateImage(_image(p)))
        certs = grown.certificates()
        assert [c.point for c in certs] == corners
        for c in certs:
            assert c.verify([q for q in hull.points if q != c.point])

    def test_cell_does_not_hide_its_own_basic_points(self):
        # (1, 1) is a combination of all three corners; that says nothing
        # about whether a corner is a vertex, and once (1, 2) joins, all
        # three still are
        corners = [(0, 0), (0, 4), (4, 0)]
        assert IncrementalHull(corners).contains((1, 1))
        cloud = [*corners, (1, 1), (1, 2)]
        assert IncrementalHull(cloud).vertices() == corners
        certs = facet_hull(cloud).certificates()
        assert [c.point for c in certs] == corners
        for c in certs:
            assert c.verify([q for q in cloud if q != c.point])

    def test_cells_prove_no_point_off_the_simplex(self):
        # the inside LPs over population vectors drop the normalization row,
        # which the cone of the points does not: 2p must still be outside
        # for each p inside, as must p moved off the simplex
        points = sorted(kn_candidate_points(PopulationVector.normalized([1, 3, 5, 8])))
        rnd = random.Random(4)
        inside = [_combination(rnd, rnd.sample(points, 4)) for _ in range(6)]
        hull, facets = IncrementalHull(points), facet_hull(points)
        for p in inside:
            assert hull.contains(p) and facet_contains(facets, p)
            for q in (tuple(2 * x for x in p), p[:1] + (p[1] + Fraction(1, 10),) + p[2:]):
                assert not hull.contains(q) and not facet_contains(facets, q)
                witness = hull._outside(q)
                assert isinstance(witness, SeparatingFunctional)
                assert witness.separates(q, hull.points)
                assert not hull_membership(q, points).inside


def facet_hull(points):
    """A `FacetHull` of the distinct `points`, added in the order given."""
    return FacetHull([_StateImage(_image(p)) for p in dict.fromkeys(points)])


def facet_contains(hull, point):
    return hull.contains(_StateImage(_image(point)))


def rank(rows):
    """The rank of the rows, by elimination in `Fraction`s."""
    rows, r = [[Fraction(x) for x in row] for row in rows], 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is not None:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            for i in range(r + 1, len(rows)):
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
    return r


def facet_clouds():
    """Seeded clouds: mixed denominators, lattice ties, lower-dimensional,
    collinear and 40-digit states."""
    rnd = random.Random(2026)
    clouds = [[random_population(rnd, dim, bound) for _ in range(rnd.randint(1, 24))]
              for dim, bound in product((2, 3, 4, 5), (4, 50))]
    for points in (simplex_lattice(3, 6), simplex_lattice(4, 4)):
        clouds += [points, [p for p in points if max(p) <= Fraction(1, 2)]]
    clouds += [[(*random_population(rnd, 3, 6), 0) for _ in range(16)] for _ in range(2)]
    for dim in (2, 3, 4):  # on a line, each beyond the last, then back inside
        a, b = random_population(rnd, dim), random_population(rnd, dim)
        line = [tuple(x + Fraction(t, 8) * (y - x) for x, y in zip(a, b)) for t in range(9)]
        clouds.append(line[4:6] + line[6:] + line[:4])
    rho = exponential_populations(4)
    pairs = [PairOp.of(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    clouds += [[apply_sequence(rnd.choices(pairs, k=rnd.randrange(5)), rho) for _ in range(20)]
               for _ in range(2)]
    return rnd, [list(dict.fromkeys(cloud)) for cloud in clouds]


class TestFacetHull:
    def test_agrees_with_hull_membership_while_the_set_grows(self):
        # each cloud grows in three batches; after each, every probe gets
        # the LP's answer against all points so far, and the vertices are
        # `hull_vertices`'; a third of the probes are shifted off the
        # affine hull of the set
        rnd, clouds = facet_clouds()
        answers = set()
        for cloud in clouds:
            hull, seen = None, []
            for batch in (cloud[:len(cloud) // 3], cloud[len(cloud) // 3:-2], cloud[-2:]):
                for p in batch:
                    if hull is None:
                        hull = facet_hull([p])
                    else:
                        hull.add(_StateImage(_image(p)))
                    seen.append(p)
                if not seen:
                    continue
                assert [c.point for c in hull.certificates()] == hull_vertices(seen)
                probes = [random_population(rnd, len(seen[0])) for _ in range(4)]
                probes += [_combination(rnd, rnd.sample(seen, min(3, len(seen)))) for _ in range(8)]
                for q in probes:
                    q = list(q)
                    if rnd.random() < 1 / 3:
                        q[rnd.randrange(len(q))] += Fraction(1, 97)
                    inside = facet_contains(hull, q)
                    assert inside == hull_membership(q, seen).inside, (q, seen)
                    answers.add(inside)
        assert answers == {True, False}

    def test_facets_are_tight_on_a_set_of_rank_one_below_the_hull(self):
        # every facet is >= 0 on every state and tight on exactly the states
        # its bitmask holds, which span one dimension less than the states
        # (an affine rank of d - 1 for a hull of dimension d); every equation
        # is 0 on every state, and they fill the rest
        _, clouds = facet_clouds()
        for cloud in clouds:
            hull = facet_hull(cloud)
            images, dim = hull._images, rank(hull._images)
            assert len(hull._equations) == len(images[0]) - dim
            assert all(sum(map(operator.mul, e, v)) == 0 for e in hull._equations for v in images)
            for j, a in hull._facets.items():
                values = [sum(map(operator.mul, a, v)) for v in images]
                assert min(values) >= 0
                tight = [q for q, value in enumerate(values) if value == 0]
                assert hull._tight[j] == sum(1 << q for q in tight)
                assert rank([images[q] for q in tight]) == dim - 1
            for q in range(len(images)):  # per state, the ids of its tight facets
                assert hull._on[q] == sum(1 << j for j, t in hull._tight.items() if t >> q & 1)

    def test_growth_order_does_not_change_the_hull(self):
        # the search's order, layer by layer, and any other give the same
        # facets (as their values on the states), vertices and answers
        from diffpoly.enumeration import _saturating_bfs, graph_ops

        rnd, clouds = facet_clouds()
        for graph, populations in ((cycle(4), [1, 2, 3, 4]), (helium_p5(), [1, 2, 4, 7, 11])):
            rho = PopulationVector.normalized(populations)
            _, _, searched = _saturating_bfs(graph, rho, graph_ops(graph, True), 15, False)
            clouds.append([image.point() for image in searched._images])  # in the order added

        def facets(hull):
            images = sorted(hull._images)
            out = set()
            for a in hull._facets.values():
                values = [sum(map(operator.mul, a, v)) for v in images]
                g = math.gcd(*values)
                out.add(tuple(v // g for v in values))
            return out

        for cloud in clouds:
            probes = [_combination(rnd, rnd.sample(cloud, min(3, len(cloud)))) for _ in range(6)]
            probes += [random_population(rnd, len(cloud[0])) for _ in range(6)]
            orders = [cloud, cloud[::-1], sorted(cloud), rnd.sample(cloud, len(cloud))]
            hulls = [facet_hull(order) for order in orders]
            first = hulls[0]
            for hull in hulls[1:]:
                assert facets(hull) == facets(first)
                assert hull.certificates() == first.certificates()
                assert ([facet_contains(hull, q) for q in probes]
                        == [facet_contains(first, q) for q in probes])

    def test_certificates_separate_each_vertex_from_every_other_state(self):
        _, clouds = facet_clouds()
        for cloud in clouds:
            certs = facet_hull(cloud).certificates()
            assert [c.point for c in certs] == hull_vertices(cloud)
            for c in certs:
                assert c.is_extreme and c.verify([q for q in cloud if q != c.point])

    def test_point_beyond_a_segment_end_makes_a_ridge_tight_on_nothing(self):
        # the segment's facets are tight on one end each; the point beyond
        # (1, 0) meets the pair with T(a) & T(b) empty, which a ridge of a
        # segment may be, and the new facet is tight on that point alone
        line = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 4), Fraction(1, 4)), (1, 0)]
        hull = facet_hull(line)
        assert sorted(hull._tight.values()) == [0b001, 0b100]
        assert [c.point for c in hull.certificates()] == [line[0], line[2]]
        assert facet_contains(hull, (Fraction(7, 8), Fraction(1, 8)))
        assert not facet_contains(hull, (Fraction(1, 4), Fraction(3, 4)))


def test_least_matches_the_fraction_minimum_and_the_lp_vertices():
    # per cloud, equal weights, which every state ties on, weights equal
    # but at one level, which the states least at that level tie on, and
    # weights of 1..4: the value is the least score in `Fraction`s, and the
    # vertices are the walk engine's vertices of the tied states, which are
    # the optimal vertices of the whole cloud
    rnd, clouds = facet_clouds()
    tied = 0
    for cloud in clouds:
        images = [_StateImage(_image(p)) for p in cloud]
        hull = hull_vertices(cloud)
        n = len(cloud[0])
        weights = [[1 + (i == r) for i in range(n)] for r in range(n)]
        weights += [[1] * n, [rnd.randint(1, 4) for _ in range(n)]]
        for w in weights:
            scores = [sum(map(operator.mul, map(Fraction, w), p)) for p in cloud]
            best = min(scores)
            ties = [p for p, score in zip(cloud, scores) if score == best]
            value, vertices = geometry._least(images, w)
            assert value == best
            assert vertices == hull_vertices(ties) == [v for v in hull if v in ties]
            tied += len(ties) > 2
    assert tied > 2 * len(clouds)


def on_simplex(point):
    return min(point) >= 0 and sum(point) == 1


def reference_phase_one(point, points, entered=None, final=None, normalization=False):
    """
    The phase-one simplex on a tableau of `Fraction`s, with the same Bland
    rule: the reference the integer kernel must agree with exactly.
    As in the kernel, the normalization row is dropped when `point` and
    every point lie on the simplex, unless `normalization` is set.  Each
    entering column's index is appended to `entered`, if given, and the
    final basis and tableau become the two items of `final`, if given.
    """
    m = len(points)
    n = len(point)
    dropped = not normalization and all(map(on_simplex, [point, *points]))
    rows = n if dropped else n + 1

    b = [Fraction(point[r]) for r in range(n)] + [Fraction(1)] * (rows - n)
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

    def pivot(leave, enter):
        nonlocal reduced
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
        pivot(leave, enter)

    if final is not None:
        final[:] = basis, tableau
    if reduced[-1] == 0:
        lam = [Fraction(0)] * m
        for r, var in enumerate(basis):
            if var < m:
                lam[var] = tableau[r][-1]
        return HullMembership(inside=True, coefficients=tuple(lam))
    y = [sign[r] * (Fraction(1) - reduced[m + r]) for r in range(rows)] + [Fraction(0)]
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


def assert_normalization_row_changes_no_pivot(point, points, result, entered):
    """
    On the simplex, the LP with the normalization row enters the same
    columns as the reference's `result`, which dropped it and entered
    `entered`, with the same answer and lam; the integer kernel with that
    row kept (every image its own column) matches the reference with it.
    """
    assert all(map(on_simplex, [point, *points]))
    kept = []
    full = reference_phase_one(point, points, kept, normalization=True)
    assert entered == kept, (point, points)
    assert result.inside == full.inside and result.coefficients == full.coefficients
    images = [_image(q) for q in points]
    assert _phase_one(point, points, images=images, columns=images) == full


def test_lps_drop_the_normalization_row_exactly_on_the_simplex(monkeypatch):
    # every tableau holds its constraint rows and the dual row
    tableau_rows, pivot = [], geometry._pivot

    def recording(tab, column, leave, det):
        tableau_rows.append(len(tab))
        return pivot(tab, column, leave, det)

    monkeypatch.setattr(geometry, "_pivot", recording)
    polytope(cycle(4), PopulationVector.normalized([1, 2, 3, 4]))
    assert tableau_rows and set(tableau_rows) == {4 + 1}
    tableau_rows.clear()
    rnd = random.Random(12)
    IncrementalHull([tuple(rnd.randint(-4, 4) for _ in range(3)) for _ in range(15)]).vertices()
    assert tableau_rows and set(tableau_rows) == {3 + 2}


def test_integer_kernel_matches_fraction_reference():
    cases = phase_one_cases()
    assert len(cases) >= 300
    outcomes, simplex_cases = set(), 0
    for point, points in cases:
        entered = []
        result = _phase_one(point, points)
        assert result == reference_phase_one(point, points, entered), (point, points)
        outcomes.add(result.inside)
        if all(map(on_simplex, [point, *points])):
            assert_normalization_row_changes_no_pivot(point, points, result, entered)
            simplex_cases += 1
    assert outcomes == {True, False}
    assert simplex_cases >= 60


def confirmed_points(hull):
    """The hull's confirmed vertices, in confirmation order, as points."""
    return [hull.points[q] for q in hull._confirmed]


def reference_value(func, point):
    """A functional's value at a point, in `Fraction` arithmetic."""
    return sum(c * x for c, x in zip(func.coefficients, point)) + func.offset


def reference_separates(func, point, others):
    return reference_value(func, point) > 0 and all(reference_value(func, q) <= 0 for q in others)


def hull_lp(hull, point, working):
    """
    `_phase_one` of `point` against `working`, in the hull's form: without
    the normalization row exactly when `point` and every point of the hull
    lie on the simplex, as the reference decides it in `Fraction`s.
    """
    images = [_image(q) for q in working]
    dropped = all(map(on_simplex, [point, *hull.points]))
    return _phase_one(point, working, images=images,
                      columns=[image[:-1] for image in images] if dropped else images)


def reference_outside(hull, point):
    """
    `IncrementalHull._outside` with every score a `Fraction`: the reference
    the integer scoring must agree with, witness by witness and in the order
    it confirms points, each by its index in `hull.points`.
    """
    index = hull.points.index(point) if point in hull.points else None
    while index not in hull._confirmed:
        working = confirmed_points(hull)
        if working:
            res = hull_lp(hull, point, working)
            if res.inside:
                return tuple((q, w) for q, w in zip(working, res.coefficients) if w)
            func = res.functional
            score, best = max((reference_value(func, q), i) for i, q in enumerate(hull.points))
            if score < reference_value(func, point):
                return SeparatingFunctional(func.coefficients, func.offset - score)
            if best in hull._confirmed:
                raise AssertionError("support maximization returned a separated point")
        elif hull.points:
            best = 0
        else:
            return None
        hull._confirmed[best] = None
    return None


def nearest_first(point, points):
    """`points` by squared Euclidean distance to `point`, in `Fraction`s, ties lexicographic."""
    return sorted(points, key=lambda q: (sum((Fraction(a) - b) ** 2 for a, b in zip(q, point)), q))


def reference_certify(hull, point, working):
    """`IncrementalHull._certify` started cold, with every score a `Fraction`."""
    working = nearest_first(point, working)
    if working:
        res = hull_lp(hull, point, working)
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


def test_walk_matches_fraction_reference(certification_lps):
    rnd, clouds = walk_clouds()
    witnesses, kinds, resumed = 0, set(), 0
    for cloud in clouds:
        pts = sorted(set(cloud))
        dim = len(pts[0])
        probes = [tuple(Fraction(rnd.randint(-2, 9), 7) for _ in range(dim)) for _ in range(5)]
        probes += [_combination(rnd, rnd.sample(pts, rnd.randint(1, len(pts))))]
        # extremality queries and probes on a fresh hull, then the vertex
        # scan and more probes on the same hull, then one certification LP
        # per point against the other vertices (as in extreme_points); one
        # that resumes its point's own walk is checked against a cold LP
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
            certification_lps.clear()
            witness = fast._certify(pts.index(p), [pts.index(v) for v in others])
            if certification_lps and certification_lps[0][3]:
                assert_certification_lps_match_cold_ones(certification_lps)
                assert reference_separates(witness, p, [q for q in pts if q != p])
                resumed += 1
            else:
                assert witness == reference_certify(slow, p, others)
            assert isinstance(witness, tuple) == (p not in vertices)
            witnesses += 1
        assert list(fast._confirmed) == list(slow._confirmed)
        assert [pts[i] for i in sorted(fast._confirmed)] == vertices
    assert witnesses > 1000 and resumed > 50
    assert kinds == {tuple, SeparatingFunctional, type(None)}


def test_certify_returns_none_without_strict_separation():
    # against a working set that misses the vertex (1, 1), the LP separates
    # (0, 1) from (0, 0) and (1, 0), but no lowering separates it from (1, 1)
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    hull = IncrementalHull(square)
    working = [(0, 0), (1, 0)]
    q, indices = hull.points.index((0, 1)), [hull.points.index(p) for p in working]
    assert hull._certify(q, indices) is None is reference_certify(hull, (0, 1), working)
    assert hull._confirmed == {}  # certification confirms nothing
    # after the vertex scan, the last LP of (0, 1)'s own walk ran against
    # (0, 0) and (1, 1): without (1, 1) in the working set it is not resumed
    hull.vertices()
    assert [hull.points[i] for i in hull._kept[q][0]] == [(0, 0), (1, 1)]
    assert hull._certify(q, indices) is None


def scan_and_certify(cloud):
    """The vertex scan's confirmations, in order, each point's certification
    witness against the other vertices, and `extreme_points`' certificates."""
    hull = IncrementalHull(cloud)
    vertices = hull.vertices()
    index = hull.points.index
    witnesses = [hull._certify(index(p), [index(v) for v in vertices if v != p])
                 for p in hull.points]
    confirmed = [(hull.points[q], functional) for q, functional in hull._confirmed.items()]
    return confirmed, witnesses, extreme_points(cloud)


def test_bounded_support_scan_matches_full_scan(monkeypatch):
    # after an LP that ends outside, the scan skips the LP's columns; with
    # the skip disabled every point is scored, and nothing may change
    _, clouds = walk_clouds()
    support, skipped = geometry._support, []

    def recording(images, func, skip=None, bounded=()):
        skipped.append(len(bounded))
        return support(images, func, skip, bounded)

    monkeypatch.setattr(geometry, "_support", recording)
    bounded = [scan_and_certify(cloud) for cloud in clouds]
    assert sum(skipped) > 1000
    monkeypatch.setattr(geometry, "_support",
                        lambda images, func, skip=None, bounded=(): support(images, func, skip))
    assert [scan_and_certify(cloud) for cloud in clouds] == bounded


def test_all_artificial_outside_lp_scans_the_whole_set(monkeypatch):
    # the LP of (5,) against the least point (-20,) ends at once with both
    # artificials basic: its functional x + 1 is -19 there, not 0, so the
    # scan scores (-20,) too, and the best score is -9, at (-10,)
    support, skipped = geometry._support, []

    def recording(images, func, skip=None, bounded=()):
        skipped.append(bounded)
        return support(images, func, skip, bounded)

    monkeypatch.setattr(geometry, "_support", recording)
    points = [(-20,), (-10,)]
    witness = IncrementalHull(points)._outside((5,))
    assert skipped == [()]
    assert witness == SeparatingFunctional((Fraction(1),), Fraction(10))
    assert witness == reference_outside(IncrementalHull(points), (5,))


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
    for k, (point, points) in enumerate(wide + reentry):
        final, entered = [], []
        result = _phase_one(point, points)
        assert result == reference_phase_one(point, points, entered, final), (point, points)
        assert _phase_one(point, points, images=[_image(q) for q in points]) == result
        assert _phase_one(point, points, point_image=_image(point)) == result
        outcomes.add(result.inside)
        if k < len(wide):  # every wide case lies on the simplex, no re-entry case does
            assert_normalization_row_changes_no_pivot(point, points, result, entered)
        else:
            assert len(final[1]) == len(point) + 1
    assert outcomes == {True, False}


@pytest.fixture
def resumed_lps(monkeypatch):
    """(point, working, result) of every LP resumed from a walk's last basis
    while the fixture is active, in call order."""
    calls = []

    def recording(point, points, **kwargs):
        resumed = bool(kwargs.get("warm"))
        result = _phase_one(point, points, **kwargs)
        if resumed:
            calls.append((point, list(points), result))
        return result

    monkeypatch.setattr(geometry, "_phase_one", recording)
    return calls


def assert_resumed_lps_match_cold_ones(calls):
    """Each resumed LP answers as a cold one of the same (point, working), with a
    witness that passes substitution."""
    for point, working, result in calls:
        assert result.inside == _phase_one(point, working).inside, (point, working)
        assert result.verify(point, working), (point, working)


def test_resumed_walk_lps_on_walk_clouds_match_cold_ones(resumed_lps):
    rnd, clouds = walk_clouds()
    for cloud in clouds:
        pts = sorted(set(cloud))
        dim = len(pts[0])
        hull = IncrementalHull(cloud)
        probes = [tuple(Fraction(rnd.randint(-2, 9), 7) for _ in range(dim)) for _ in range(5)]
        probes += [_combination(rnd, rnd.sample(pts, rnd.randint(1, len(pts))))]
        for point in rnd.sample(pts, min(5, len(pts))) + probes:
            hull._outside(point)
        hull.vertices()
    assert_resumed_lps_match_cold_ones(resumed_lps)
    assert len(resumed_lps) > 50
    assert {result.inside for _, _, result in resumed_lps} == {True, False}


def explored(graph, populations, depth):
    """The states a search of `graph` from ∝`populations` reaches within `depth` steps."""
    return explore(graph, PopulationVector.normalized(populations), depth).points()


# the polytope search runs no walk: its hull is a `FacetHull`; the walks
# run on the states it explores, and in the ordered path's certification
@pytest.mark.parametrize("search", [
    lambda: hull_vertices(explored(cycle(4), [1, 2, 3, 4], 4)),
    lambda: hull_vertices(explored(helium_p5(), [1, 2, 4, 7, 11], 4)),
    lambda: pn_polytope(PopulationVector.normalized([2, 3, 5, 7, 11, 13])),
], ids=["c4", "helium", "pn-6"])
def test_resumed_walk_lps_of_searches_match_cold_ones(resumed_lps, search):
    search()
    assert_resumed_lps_match_cold_ones(resumed_lps)
    assert len(resumed_lps) > 10


@pytest.fixture
def certification_lps(monkeypatch):
    """(point, working, result, the columns of the point's own walk that it
    resumed after, or ()) of every certification LP (`_phase_one` inside
    `IncrementalHull._certify`) while the fixture is active, in call order."""
    calls, walked = [], []
    certify, phase_one = IncrementalHull._certify, geometry._phase_one

    def certifying(hull, q, working):
        walked.append([hull.points[i] for i in hull._kept.get(q, ((),))[0]])
        try:
            return certify(hull, q, working)
        finally:
            walked.pop()

    def recording(point, points, **kwargs):
        result = phase_one(point, points, **kwargs)
        if walked:
            calls.append((point, list(points), result, walked[-1] if kwargs.get("warm") else ()))
        return result

    monkeypatch.setattr(IncrementalHull, "_certify", certifying)
    monkeypatch.setattr(geometry, "_phase_one", recording)
    return calls


def assert_certification_lps_match_cold_ones(calls):
    """Each certification LP answers as a cold one of the same (point, working),
    with a witness that passes substitution; its columns are the columns of
    the walk it resumed, if any, then the rest nearest first."""
    for point, working, result, walked in calls:
        assert result.inside == _phase_one(point, working).inside, (point, working)
        assert result.verify(point, working), (point, working)
        assert working[:len(walked)] == list(walked)
        assert working[len(walked):] == nearest_first(point, working[len(walked):])


@pytest.mark.parametrize("search, resumed", [
    (lambda: pn_polytope(PopulationVector.normalized([2, 3, 5, 7, 11, 13])), 9),
    # every point of the explored states takes a certification LP, and a
    # vertex that its own walk confirmed resumes from that walk's last LP
    (lambda: extreme_points(explored(cycle(4), [1, 2, 3, 4], 4)), 9),
    (lambda: extreme_points(explored(helium_p5(), [1, 2, 4, 7, 11], 4)), 14),
], ids=["pn-6", "c4", "helium"])
def test_resumed_certification_lps_match_cold_ones(certification_lps, search, resumed):
    search()
    assert_certification_lps_match_cold_ones(certification_lps)
    assert len(certification_lps) > 5
    assert sum(bool(walked) for *_, walked in certification_lps) == resumed


@pytest.fixture
def certification_pivots(monkeypatch):
    """[LPs, pivots inside `IncrementalHull._certify`] while the fixture is active."""
    counts, certifying = [0, 0], []
    certify, phase_one, pivot = IncrementalHull._certify, geometry._phase_one, geometry._pivot

    def counted_certify(*args):
        certifying.append(None)
        try:
            return certify(*args)
        finally:
            certifying.pop()

    def counted_phase_one(*args, **kwargs):
        counts[0] += 1
        return phase_one(*args, **kwargs)

    def counted_pivot(*args):
        counts[1] += bool(certifying)
        return pivot(*args)

    monkeypatch.setattr(IncrementalHull, "_certify", counted_certify)
    monkeypatch.setattr(geometry, "_phase_one", counted_phase_one)
    monkeypatch.setattr(geometry, "_pivot", counted_pivot)
    return counts


@pytest.mark.parametrize("search, lps, pivots", [
    (lambda: pn_polytope(PopulationVector.normalized(
        sorted(random.Random(7).sample(range(100000, 1000000), 7)))), 127, 237),
    (lambda: polytope(cycle(4), PopulationVector.normalized([1, 2, 3, 4])), 12, 0),
], ids=["pn-7", "c4"])
def test_certification_pivots(certification_pivots, search, lps, pivots):
    # LPs, and the pivots of the certification LPs, pinned at their current
    # values; a change that lowers one updates it here and says so, none may
    # rise.  Certification LPs priced in lexicographic order from a cold
    # start took 657 and 65 pivots.  The c4 search certifies its vertices
    # by their facets, with no LP; its 12 LPs classify, against the K_4
    # candidates
    search()
    assert certification_pivots == [lps, pivots]


def test_pn_certification_scores_no_point(monkeypatch):
    # every point is a vertex, so each certification LP's columns are every
    # other point, and its scan scores none; each walk LP's scan scores only
    # the points not yet confirmed.  Scanning every point, the walks scored
    # 4,032 points and certification 4,032
    scored, certifying = [0, 0], []
    certify, support = IncrementalHull._certify, geometry._support

    def counted_certify(*args):
        certifying.append(None)
        try:
            return certify(*args)
        finally:
            certifying.pop()

    def counted_support(images, func, skip=None, bounded=()):
        scored[bool(certifying)] += sum(q != skip and q not in bounded
                                        for q in range(len(images)))
        return support(images, func, skip, bounded)

    monkeypatch.setattr(IncrementalHull, "_certify", counted_certify)
    monkeypatch.setattr(geometry, "_support", counted_support)
    pn_polytope(PopulationVector.normalized(
        sorted(random.Random(7).sample(range(100000, 1000000), 7))))
    assert scored == [2016, 0]


def rho_7():
    return PopulationVector.normalized(sorted(random.Random(7).sample(range(100000, 1000000), 7)))


def test_walks_scans_and_certification_hash_and_compare_no_point(monkeypatch):
    # per-point state is keyed by position: once the hull is built, the
    # vertex scan and one certification LP per point against the other
    # vertices neither hash nor compare a `PopulationVector`; the K_4
    # candidates come with points inside
    rnd = random.Random(2)
    candidates = sorted(kn_candidate_points(PopulationVector.normalized([1, 3, 5, 8])))
    clouds = [[subset_point(a, rho_7()) for k in range(7) for a in combinations(range(1, 7), k)],
              candidates + [PopulationVector(_combination(rnd, rnd.sample(candidates, 3)))
                            for _ in range(8)]]
    calls, sizes = [], []

    def counted(name, method):
        def wrapper(*args):
            calls.append(name)
            return method(*args)
        return wrapper

    for cloud in clouds:
        hull = IncrementalHull(cloud)
        assert all(type(p) is PopulationVector for p in hull.points)
        monkeypatch.setattr(PopulationVector, "__hash__", counted("hash", PopulationVector.__hash__))
        monkeypatch.setattr(PopulationVector, "__eq__", counted("eq", tuple.__eq__))
        vertices = hull.vertices()
        listed = {id(v) for v in vertices}
        indices = [q for q, p in enumerate(hull.points) if id(p) in listed]
        witnesses = [hull._certify(q, [v for v in indices if v != q])
                     for q in range(len(hull.points))]
        monkeypatch.undo()
        assert calls == []
        assert vertices == hull_vertices(cloud)
        assert [not isinstance(w, tuple) for w in witnesses] == [id(p) in listed for p in hull.points]
        sizes.append((len(hull.points), len(vertices)))
    assert sizes[0] == (64, 64) and sizes[1][1] < sizes[1][0]


def reference_support(images, func, skip, bounded):
    """`geometry._support` as a full loop in `Fraction`s: the best score
    over the images neither skipped nor bounded, at least 0 if any is
    bounded, and the indices of the images that attain it."""
    scores = {q: Fraction(sum(map(operator.mul, func, image)), image[-1])
              for q, image in enumerate(images) if q != skip and q not in bounded}
    best = max([*scores.values(), *([0] if bounded else [])], default=0)
    return best, [q for q, score in scores.items() if score == best]


def test_support_that_scores_no_point_returns_at_once(monkeypatch):
    # a certification LP of the ordered path runs against every other
    # point, which then bounds them all, and skips the point itself:
    # `_support` returns (0, 1, []) without its loop; every scan, that one
    # or not, gives what a full loop gives
    support, covered = geometry._support, []

    def checked(images, func, skip=None, bounded=()):
        num, d, best = result = support(images, func, skip, bounded)
        assert (Fraction(num, d), best) == reference_support(images, func, skip, bounded)
        covered.append({*bounded, skip} >= set(range(len(images))))
        assert result == (0, 1, []) or not covered[-1]
        return result

    monkeypatch.setattr(geometry, "_support", checked)
    pn_polytope(rho_7())
    assert sum(covered) == 64  # one certification LP per subset point; no walk LP
    for cloud in walk_clouds()[1]:
        scan_and_certify(cloud)
    assert 64 < sum(covered) < len(covered)


def test_packed_checks_and_keys_match_the_scalar_reference():
    # every certificate of every cloud, substituted into every point by one
    # packed product, agrees with the Fraction reference; tampered ones are
    # rejected, and a functional that outgrows the field width repacks
    checked = tampered = 0
    for cloud in walk_clouds()[1]:
        hull = IncrementalHull(cloud)
        pts, packed = hull.points, PackedRows(hull._images)
        for q, cert in enumerate(extreme_points(cloud)):
            if not cert.is_extreme:
                continue
            func, p, others = cert.functional, pts[q], pts[:q] + pts[q + 1:]
            assert packed.holds([-v for v in func._func], q) is reference_separates(func, p, others) is True
            fresh = PackedRows(hull._images)
            assert fresh.holds([-v for v in func._func], q)
            bound = fresh._bound
            assert fresh.holds([-(v << 200) for v in func._func], q)  # the same functional, repacked
            assert fresh._bound > bound << 199
            checked += 1
            wrong = [SeparatingFunctional(func.coefficients, func.offset - reference_value(func, p))]
            for other in others[:2]:  # > 0 at a second point, and so with coefficients 2^200 larger
                wrong.append(SeparatingFunctional(func.coefficients, func.offset - reference_value(func, other) + 1))
                big = [c * 2 ** 200 for c in func.coefficients]
                wrong.append(SeparatingFunctional(big, 1 - sum(c * x for c, x in zip(big, other))))
            for bad in wrong:
                assert not reference_separates(bad, p, others)
                assert not packed.holds([-v for v in bad._func], q)
                tampered += 1
        # the nearest-first keys of each point, against Fractions scaled by D^2
        scale = math.lcm(*(image[-1] for image in hull._images))
        for q, origin in enumerate(pts):
            keys = [scale ** 2 * sum(Fraction(a) ** 2 - 2 * Fraction(a) * b for a, b in zip(x, origin))
                    for x in pts]
            assert hull._distances(q) == keys
    assert checked > 150 and tampered > 3 * checked


def test_readme_p7_pivots_and_certificates_are_pinned(monkeypatch):
    # the README's ordered P_7: every LP, pivot and certificate, pinned at
    # the values of the pricing that scans every column in every round.  A
    # resumed LP's first round prices none of the columns it kept, which
    # priced <= 0 under the dual it starts from; later rounds do
    phase_one, pivot = geometry._phase_one, geometry._pivot
    counts = {"lps": 0, "pivots": 0, "kept first": 0, "kept later": 0}
    first_round = []

    class Kept(tuple):
        def __iter__(self):
            counts["kept first" if first_round[-1] else "kept later"] += 1
            return super().__iter__()

    def watched(point, points, **kwargs):
        counts["lps"] += 1
        warm = kwargs.get("warm")
        if warm:
            m0 = warm[3]
            kwargs["columns"] = [*map(Kept, kwargs["columns"][:m0]), *kwargs["columns"][m0:]]
        first_round.append(True)
        try:
            return phase_one(point, points, **kwargs)
        finally:
            first_round.pop()

    def counted(*args):
        counts["pivots"] += 1
        first_round[-1] = False
        return pivot(*args)

    monkeypatch.setattr(geometry, "_phase_one", watched)
    monkeypatch.setattr(geometry, "_pivot", counted)
    certificates = pn_polytope(rho_7()).certificates
    text = canonical_json([c.to_json() for c in certificates])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ba6869e13c8cee4ba1b4a5f0a4c266687fc8158d692c92ed6b5aaada2d64ee1d")
    assert (counts["lps"], counts["pivots"], counts["kept first"]) == (127, 565, 0)
    assert counts["kept later"] > 1000


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


# The unit square.  Its centre is (q1 + q2) / 2; q0 is the origin and
# q0 - q1 - q2 + q3 = 0, so weight moved along (1, -1, -1, 1) breaks only
# the signs, and weight put on q0 breaks only the sum.
SQUARE = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
          (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))]
HALF = Fraction(1, 2)
SQUARE_WEIGHTS = {
    None: (0, HALF, HALF, 0),
    "negative_weight": (-HALF, 1, 1, -HALF),
    "weight_sum": (HALF, HALF, HALF, 0),
    "target": (0, HALF, HALF, 0),
}


def _square_target(tamper):
    return (HALF, Fraction(1, 4)) if tamper == "target" else (HALF, HALF)


def _hull_membership(tamper):
    membership = HullMembership(inside=True, coefficients=SQUARE_WEIGHTS[tamper])
    return membership.verify(_square_target(tamper), SQUARE)


def _reconstruction(tamper):
    cert = ExtremalityCertificate(point=_square_target(tamper), is_extreme=False,
                                  combination=tuple(zip(SQUARE, SQUARE_WEIGHTS[tamper])))
    return cert.verify(SQUARE)


def _triangle(tamper):
    # the weights are lam and 1 - lam: they cannot sum to anything but 1
    dec = triangle_decomposition(Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))
    return replace(dec, **{
        None: {},
        "negative_weight": {"lam": dec.lam - 1},
        "target": {"outer_average": dec.two_step},
    }[tamper]).verify()


WITNESS_CHECKS = {"hull_membership": _hull_membership, "reconstruction": _reconstruction,
                  "triangle": _triangle}


@pytest.mark.parametrize("check, tamper", [
    (check, tamper)
    for check in WITNESS_CHECKS
    for tamper in (None, "negative_weight", "weight_sum", "target")
    if (check, tamper) != ("triangle", "weight_sum")
])
def test_witness_check_rejects_a_tampered_combination(check, tamper):
    assert WITNESS_CHECKS[check](tamper) is (tamper is None)


def test_hull_membership_rejects_a_wrong_coefficient_count():
    weights = SQUARE_WEIGHTS[None]
    assert HullMembership(inside=True, coefficients=weights).verify((HALF, HALF), SQUARE)
    # the first three weights alone still combine to the centre
    assert not HullMembership(inside=True, coefficients=weights[:3]).verify((HALF, HALF), SQUARE)
    assert not HullMembership(inside=True, coefficients=weights + (0,)).verify((HALF, HALF), SQUARE)


def test_combination_check_rejects_points_of_another_dimension():
    one = (Fraction(1),)
    for point, points in (((Fraction(0),), [(Fraction(0), Fraction(5))]),
                          ((Fraction(0), Fraction(0)), [(Fraction(0),)])):
        assert not HullMembership(inside=True, coefficients=one).verify(point, points)
        cert = ExtremalityCertificate(point=point, is_extreme=False,
                                      combination=((points[0], Fraction(1)),))
        assert not cert.verify(())


def test_hull_membership_refuses_an_lp_answer_that_fails_substitution(monkeypatch):
    # the LP's weights, reversed, combine the two points to another point
    def reversed_weights(point, points, **kwargs):
        res = _phase_one(point, points, **kwargs)
        return replace(res, coefficients=res.coefficients[::-1])

    monkeypatch.setattr(geometry, "_phase_one", reversed_weights)
    with pytest.raises(AssertionError, match="LP produced an invalid certificate"):
        hull_membership((Fraction(1, 3), Fraction(2, 3)), [(1, 0), (0, 1)])


def test_walk_refuses_a_support_point_that_the_lp_separated(monkeypatch):
    # a support scan that also lists a confirmed point, which the walk's LP
    # has just separated from the point it walks to
    support = geometry._support
    hull = IncrementalHull([pv("1", "0", "0"), pv("0", "1", "0"), pv("0", "0", "1")])

    def with_a_confirmed_point(images, func, skip=None, bounded=()):
        num, d, best = support(images, func, skip, bounded)
        if hull._confirmed:
            best = best + [next(iter(hull._confirmed))]
        return num, d, best

    monkeypatch.setattr(geometry, "_support", with_a_confirmed_point)
    with pytest.raises(AssertionError, match="support maximization returned a separated point"):
        hull.vertices()

import random
from fractions import Fraction
from itertools import product

import pytest

from diffpoly.core import PairOp, PopulationVector, apply_sequence, uniform_vector
from diffpoly.geometry import (
    IncrementalHull,
    extreme_points,
    hull_membership,
    hull_vertices,
)

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


class TestExtremePoints:
    def test_single_point(self, rho3):
        certs = extreme_points([rho3])
        assert len(certs) == 1 and certs[0].is_extreme

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
        def lattice(levels, denominator):
            return [
                PopulationVector.normalized(c)
                for c in product(range(denominator + 1), repeat=levels)
                if sum(c) == denominator
            ]

        for points in (lattice(3, 6), lattice(4, 4)):
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

    def test_vertices_after_extremality_queries(self):
        # leaving the query point out lets the walk confirm a point that is
        # not a vertex of the whole set (here the midpoint); vertices() must
        # not count it
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

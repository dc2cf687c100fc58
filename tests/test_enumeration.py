import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from diffpoly.cli import canonical_json
from diffpoly.core import (
    BlockOp,
    DiffusionGraph,
    PairOp,
    PopulationVector,
    apply_sequence,
    complete,
    cycle,
    path,
    uniform_vector,
)
from diffpoly.enumeration import (
    PolytopeConfig,
    explore,
    polytope,
    triangle_decomposition,
    triangle_prune,
)
from diffpoly.geometry import hull_membership, hull_vertices

from conftest import random_population, random_sorted_population


def pv(*comps):
    return PopulationVector(comps)


def brute_force_states(rho0, ops, depth):
    """Oracle: all distinct states over words up to `depth`, by raw loops."""
    seen = {tuple(rho0)}
    for length in range(1, depth + 1):
        for word in product(ops, repeat=length):
            state = list(rho0)
            for kind, payload in word:
                if kind == "p":
                    i, j = payload
                    m = (state[i - 1] + state[j - 1]) / 2
                    state[i - 1] = m
                    state[j - 1] = m
                else:
                    m = sum(state[v - 1] for v in payload) / len(payload)
                    for v in payload:
                        state[v - 1] = m
            seen.add(tuple(state))
    return seen


class TestExplore:
    def test_depth_zero(self, rho3):
        reach = explore(complete(3), rho3, max_depth=0)
        assert reach.points() == [rho3]
        assert reach.truncated

    def test_k3_depth3_matches_brute_force(self, rho3):
        reach = explore(complete(3), rho3, max_depth=3)
        oracle = brute_force_states(rho3, [("p", e) for e in [(1, 2), (1, 3), (2, 3)]], 3)
        assert {tuple(p) for p in reach.points()} == oracle
        assert len(reach) == 19
        from test_structured import K3_EXPECTED

        assert set(K3_EXPECTED) <= set(reach.points())

    def test_blocks_reach_the_uniform_point(self, rho3):
        reach = explore(path(3), rho3, max_depth=2, use_blocks=True)
        assert uniform_vector(3) in reach
        assert list(reach.states[uniform_vector(3)]) == [BlockOp((1, 2, 3))]

    def test_provenance_replays(self, rho3):
        reach = explore(cycle(4), pv("1/10", "2/10", "3/10", "4/10"), 3, use_blocks=True)
        assert reach.replay_ok()

    def test_provenance_is_shortest_then_lexicographic(self, rho3):
        reach = explore(complete(3), rho3, max_depth=4)
        for point, seq in reach.states.items():
            assert len(seq) <= 4
        # rho0 B12 B23 is also reachable in two ops starting with B12 only
        target = apply_sequence([PairOp.of(1, 2), PairOp.of(2, 3)], rho3)
        assert list(reach.states[target]) == [PairOp.of(1, 2), PairOp.of(2, 3)]

    def test_exhaustion_clears_truncated(self):
        rho = uniform_vector(3)
        reach = explore(complete(3), rho, max_depth=5)
        assert len(reach) == 1 and not reach.truncated


class TestTrianglePrune:
    def test_k3_outer_pair_pruned(self, rho3):
        assert triangle_prune(complete(3), rho3, PairOp.of(1, 3))
        assert not triangle_prune(complete(3), rho3, PairOp.of(1, 2))
        assert not triangle_prune(complete(3), rho3, PairOp.of(2, 3))

    def test_no_triangle_never_prunes(self, rho3):
        graph = path(3)
        for op in (PairOp.of(1, 2), PairOp.of(2, 3)):
            assert not triangle_prune(graph, rho3, op)

    def test_tie_does_not_prune(self):
        rho = pv("1/4", "1/4", "1/2")
        assert not triangle_prune(complete(3), rho, PairOp.of(2, 3))
        assert not triangle_prune(complete(3), rho, PairOp.of(1, 3))

    def test_pruning_preserves_vertices_on_small_graphs(self):
        rnd = random.Random(30)
        for trial in range(6):
            n = 3 if trial < 3 else 4
            graph = complete(n) if trial % 2 else cycle(max(n, 3))
            rho = random_population(rnd, graph.n)
            base = polytope(graph, rho, PolytopeConfig(classify=False))
            pruned = polytope(
                graph, rho, PolytopeConfig(classify=False, triangle_pruning=True)
            )
            assert base.points() == pruned.points()


class TestTriangleDecomposition:
    def test_reference_value(self):
        dec = triangle_decomposition(Fraction(0), Fraction(2, 7), Fraction(5, 7))
        assert dec.branch == "lower"
        assert dec.lam == Fraction(3, 4)
        assert dec.verify()

    def test_boundary_case(self):
        # outer values symmetric around the middle: both identities apply,
        # the upper branch is reported
        dec = triangle_decomposition(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))
        assert dec.branch == "upper"
        assert dec.verify()

    def test_upper_branch(self):
        dec = triangle_decomposition(Fraction(1, 10), Fraction(4, 10), Fraction(5, 10))
        assert dec.branch == "upper"
        assert 0 <= dec.lam <= 1 and dec.verify()

    def test_random_property(self):
        rnd = random.Random(19)
        for _ in range(300):
            vals = sorted(rnd.sample(range(1, 10 ** 4), 3))
            total = sum(vals)
            dec = triangle_decomposition(*(Fraction(v, total) for v in vals))
            assert dec.verify() and 0 <= dec.lam <= 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            triangle_decomposition(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        with pytest.raises(ValueError):
            triangle_decomposition(Fraction(1, 7), Fraction(2, 7), Fraction(3, 7))


class TestPolytope:
    def test_uniform_start_is_a_point(self):
        res = polytope(complete(4), uniform_vector(4))
        assert res.points() == [uniform_vector(4)]
        assert res.completeness == "proven"

    def test_p3_case_c_vertices(self, rho3):
        graph = DiffusionGraph.from_edges(3, [(1, 3), (2, 3)])
        res = polytope(graph, rho3)
        expected = sorted([
            rho3,
            pv("5/14", "2/7", "5/14"),
            pv("0", "1/2", "1/2"),
            pv("5/14", "9/28", "9/28"),
            pv("1/4", "1/2", "1/4"),
        ])
        assert res.points() == expected
        kinds = {v.point: v.kind for v in res.vertices}
        assert kinds[pv("5/14", "2/7", "5/14")] == "local_finite"
        assert kinds[pv("5/14", "9/28", "9/28")] == "local_finite"

    def test_vertices_certified_and_replayable(self, rho3):
        res = polytope(cycle(4), pv("1/10", "2/10", "3/10", "4/10"))
        assert all(c.is_extreme for c in res.certificates)
        for v in res.vertices:
            assert apply_sequence(v.sequence, res.rho0) == v.point

    def test_depth_bound_reports_truncation(self, rho3):
        res = polytope(path(3), rho3, PolytopeConfig(max_depth=1, use_blocks=False))
        assert res.completeness == "depth-bounded"
        assert res.truncated

    def test_helium_saturates(self):
        from diffpoly.core import helium_p5

        rnd = random.Random(3)
        rho = random_sorted_population(rnd, 5)
        res = polytope(helium_p5(), rho, PolytopeConfig(classify=False))
        assert res.completeness == "proven"
        assert len(res.vertices) == 30

    def test_every_reachable_state_inside_hull(self, rho3):
        res = polytope(path(3), rho3)
        reach = explore(path(3), rho3, max_depth=6)
        for state in reach.points():
            assert hull_membership(state, res.points()).inside

    def test_json_shape(self, rho3):
        res = polytope(path(3), rho3)
        data = res.to_json()
        assert data["completeness"] == "proven"
        kinds = {tuple(v["point"]): v["kind"] for v in data["vertices"]}
        assert kinds[("1/3", "1/3", "1/3")] == "asymptotic"
        seqs = [v["sequence"] for v in data["vertices"]]
        assert [["block", [1, 2, 3]]] in seqs

    def test_mismatched_rho_rejected(self, rho3):
        with pytest.raises(ValueError):
            polytope(complete(4), rho3)

    def test_matches_explore_oracle_on_random_graphs(self):
        # explore to the longest vertex word reaches every vertex, and all
        # it finds lies in the polytope, so its hull has the same vertices
        rnd = random.Random(41)
        for trial in range(30):
            n = 3 if trial < 20 else 4
            pairs = list(combinations(range(1, n + 1), 2))
            while True:
                try:
                    graph = DiffusionGraph.from_edges(n, rnd.sample(pairs, rnd.randint(n - 1, 3)))
                    break
                except ValueError:
                    continue
            rho = random_population(rnd, n)
            res = polytope(graph, rho, PolytopeConfig(classify=False))
            assert res.completeness == "proven"
            depth = max(len(v.sequence) for v in res.vertices)
            reach = explore(graph, rho, depth, use_blocks=True)
            assert res.points() == hull_vertices(reach.points())


class TestAsymptoticApproach:
    def test_asymptotic_vertices_are_pair_word_limits(self):
        # replace every block in an asymptotic vertex's word by repeated
        # relaxation sweeps: the pair-only word converges to the vertex
        from diffpoly.core import spread, sweep_word

        rho = pv("1/10", "2/10", "3/10", "4/10")
        graph = cycle(4)
        res = polytope(graph, rho)
        checked = 0
        for v in res.vertices:
            if v.kind != "asymptotic":
                continue
            threshold = spread(rho) / 2 ** 50
            state = rho
            for op in v.sequence:
                if isinstance(op, PairOp):
                    state = op.apply(state)
                    continue
                word = sweep_word(graph, op)
                exact = op.apply(state)
                sweeps = 0
                while max(abs(a - b) for a, b in zip(state, exact)) > threshold:
                    state = apply_sequence(word, state)
                    sweeps += 1
                    assert sweeps <= 600
            assert max(abs(a - b) for a, b in zip(state, v.point)) <= len(rho) * threshold
            checked += 1
        assert checked == 12

    def test_complete_graph_words_are_short_pair_words(self, rho3):
        from math import comb

        for n, rho in [(3, rho3), (4, pv("1/10", "2/10", "3/10", "4/10"))]:
            res = polytope(complete(n), rho, PolytopeConfig(classify=False))
            for v in res.vertices:
                assert all(isinstance(op, PairOp) for op in v.sequence)
                assert len(v.sequence) <= comb(n, 2)


class TestDyadicScreen:
    def test_three_block_means_are_unreachable(self):
        from diffpoly.enumeration import _pair_word_possible

        rho = pv("0", "1/10", "3/10", "6/10")
        blocked = BlockOp((1, 2, 3)).apply(rho)  # mean 2/15: not in the dyadic lattice
        assert not _pair_word_possible(blocked, rho)
        paired = PairOp.of(1, 2).apply(rho)
        assert _pair_word_possible(paired, rho)

    def test_screen_passes_when_block_mean_hits_the_lattice(self):
        from diffpoly.enumeration import _pair_word_possible

        # evenly spaced levels: the first three sum to a multiple of three,
        # so their mean is a lattice point and only the word search can
        # settle reachability
        rho = pv("1/10", "2/10", "3/10", "4/10")
        blocked = BlockOp((1, 2, 3)).apply(rho)
        assert _pair_word_possible(blocked, rho)

    def test_four_block_mean_needs_the_search(self):
        from diffpoly.enumeration import _pair_word_possible

        rho = pv("1/10", "2/10", "3/10", "4/10")
        blocked = BlockOp((1, 2, 3, 4)).apply(rho)
        assert _pair_word_possible(blocked, rho)  # dyadic: screen cannot rule it out

    def test_targeted_search_depends_on_graph(self):
        # the cycle word B12 B34 B23 B14 equalizes all four levels exactly,
        # so the full mean is a pair-word point there; the path has no such
        # word and its uniform vertex stays asymptotic
        from diffpoly.enumeration import _pair_reachable_targets

        rho = pv("1/10", "2/10", "3/10", "4/10")
        target = uniform_vector(4)
        word = [PairOp.of(1, 2), PairOp.of(3, 4), PairOp.of(2, 3), PairOp.of(1, 4)]
        assert apply_sequence(word, rho) == target
        assert _pair_reachable_targets(cycle(4), rho, [target], 4, False) == {target}
        assert _pair_reachable_targets(path(4), rho, [target], 6, False) == set()

        pat = polytope(path(4), rho)
        pat_kinds = {v.point: v.kind for v in pat.vertices}
        assert pat_kinds[target] == "asymptotic"


class TestGoldenOutput:
    """Canonical-JSON digests pinned across versions, default config."""

    @pytest.mark.parametrize(
        "graph, rho, digest",
        [
            # pair-word search for block means
            (cycle(4), pv("1/10", "2/10", "3/10", "4/10"),
             "f5a7c5756c402f47b883c2f95dc19c985516b343f40e3c68c8238dcb4467a56e"),
            # tied populations: the K_n reference comes from the saturating BFS
            (cycle(4), PopulationVector.normalized([1, 1, 2, 3]),
             "34792418080af90192ea4365641045aeaa2504cb7270483ad86aa944c62ac24e"),
            (DiffusionGraph.from_edges(3, [(1, 3), (2, 3)]), pv("0", "2/7", "5/7"),
             "ac6b3b019eb148e0a9d877f1814044355ba44d2eefd23429c0d64d5f998f8dbb"),
        ],
        ids=["c4-even", "c4-tied", "p3-star"],
    )
    def test_canonical_json_digest(self, graph, rho, digest):
        text = canonical_json(polytope(graph, rho).to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest

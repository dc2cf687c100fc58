import hashlib
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from diffpoly import enumeration
from diffpoly.cli import canonical_json
from diffpoly.core import (
    BlockOp,
    DiffusionGraph,
    PairOp,
    PopulationVector,
    apply_sequence,
    complete,
    cycle,
    helium_p5,
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
from diffpoly.geometry import IncrementalHull, hull_membership, hull_vertices
from diffpoly.optimize import exponential_populations, optimize_over
from diffpoly.structured import kn_candidate_points

from conftest import random_population, random_sorted_population


def pv(*comps):
    return PopulationVector(comps)


def brute_force_states(rho0, ops, depth):
    """
    Oracle: all distinct states over words up to `depth`, by raw loops,
    each with its first word by length, then in `product` order over `ops`.
    """
    seen = {tuple(rho0): ()}
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
            seen.setdefault(tuple(state), word)
    return seen


def oracle_ops(n, edges, use_blocks):
    """The operators of explore's canonical order, as `brute_force_states`
    takes them: pairs, then blocks on connected subsets by size."""
    ops = [("p", e) for e in sorted(edges)]
    if use_blocks:
        for size in range(3, n + 1):
            for sub in combinations(range(1, n + 1), size):
                reached = {sub[0]}
                for _ in sub:
                    reached |= {b for a, b in edges if a in reached and b in sub}
                    reached |= {a for a, b in edges if b in reached and a in sub}
                if reached == set(sub):
                    ops.append(("b", sub))
    return ops


def oracle_word(seq):
    return tuple(("p", (op.i, op.j)) if isinstance(op, PairOp) else ("b", op.vertices)
                 for op in seq)


class TestExplore:
    def test_depth_zero(self, rho3):
        reach = explore(complete(3), rho3, max_depth=0)
        assert reach.points() == [rho3]
        assert reach.truncated

    def test_k3_depth3_matches_brute_force(self, rho3):
        reach = explore(complete(3), rho3, max_depth=3)
        oracle = brute_force_states(rho3, [("p", e) for e in [(1, 2), (1, 3), (2, 3)]], 3)
        assert {tuple(p) for p in reach.points()} == oracle.keys()
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

    @pytest.mark.parametrize("use_blocks", [False, True])
    def test_words_match_brute_force(self, use_blocks):
        # the first word of each state, by length and then in canonical
        # operator order, from raw loops that share no code with the search
        rnd = random.Random(17)
        for _ in range(10):
            n = rnd.choice((3, 4))
            while True:
                edges = [e for e in combinations(range(1, n + 1), 2) if rnd.random() < 0.6]
                try:
                    graph = DiffusionGraph.from_edges(n, edges)
                    break
                except ValueError:  # disconnected: draw again
                    pass
            rho = random_population(rnd, n, bound=8)
            reach = explore(graph, rho, 3, use_blocks=use_blocks)
            oracle = brute_force_states(rho, oracle_ops(n, edges, use_blocks), 3)
            assert {tuple(p): oracle_word(seq) for p, seq in reach.states.items()} == oracle

    def test_population_size_must_match_the_graph(self):
        with pytest.raises(ValueError, match="population vector does not match the graph size"):
            explore(path(2), pv("1/2", "1/3", "1/6"), 3)

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

    def test_identity_is_verified_exactly(self, monkeypatch):
        # another centre than the uniform state breaks the identity
        monkeypatch.setattr(enumeration, "uniform_vector",
                            lambda n: PopulationVector(["1/2", "1/4", "1/4"]))
        with pytest.raises(AssertionError, match="triangle identity failed exact verification"):
            triangle_decomposition(Fraction(1, 7), Fraction(2, 7), Fraction(4, 7))


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

    def test_tied_depth_bound_is_classified(self):
        # the complete-graph reference needs no search, so a depth bound
        # on the graph does not stop classification of tied populations
        rho = PopulationVector.normalized([1, 1, 2, 3])
        res = polytope(cycle(4), rho, PolytopeConfig(max_depth=2))
        assert res.completeness == "depth-bounded"
        kinds = res.kinds()
        assert "unclassified" not in kinds and kinds["nonlocal"] > 0
        kn_vertices = set(hull_vertices(list(kn_candidate_points(rho))))
        for v in res.vertices:
            assert (v.kind == "nonlocal") == (v.point in kn_vertices)

    @pytest.mark.parametrize("graph, rho", [
        (cycle(4), PopulationVector([Fraction(k, 10) for k in (1, 2, 3, 4)])),
        (cycle(4), PopulationVector.normalized([314159, 265358, 979323, 846264])),
        (cycle(4), exponential_populations(4)),
        (path(4), PopulationVector.normalized([1, 1, 2, 3])),
        (helium_p5(), PopulationVector.normalized([1, 2, 4, 7, 11])),
    ], ids=["c4-even", "c4-generic", "c4-energy", "p4-tied", "helium"])
    def test_classify_needs_lps_only_for_candidates(self, graph, rho):
        # a vertex of the candidates' hull is a candidate, so testing every
        # point against that hull marks the same points nonlocal
        res = polytope(graph, rho)
        hull = IncrementalHull(list(kn_candidate_points(rho)))
        assert [v.point for v in res.vertices if v.kind == "nonlocal"] == [
            p for p in res.points() if hull.is_extreme_in(p)
        ]

    @pytest.mark.parametrize("rho", [
        PopulationVector([Fraction(k, 10) for k in (1, 2, 3, 4)]),
        PopulationVector.normalized([314159, 265358, 979323, 846264]),
        PopulationVector.normalized([1, 1, 2, 3]),
    ], ids=["even", "generic", "tied"])
    def test_confirming_functionals_certify_most_vertices(self, monkeypatch, rho):
        # the search certifies most vertices by the functionals that
        # confirmed them, with no LP; every certificate separates its
        # vertex from every state the search kept
        from diffpoly import enumeration

        hulls, certified = [], []
        search, step = enumeration._saturating_bfs, IncrementalHull._certify

        def keep_hull(*args):
            found = search(*args)
            hulls.append(found[-1])
            return found

        def certify(hull, point, working):
            certified.append(point)
            return step(hull, point, working)

        monkeypatch.setattr(enumeration, "_saturating_bfs", keep_hull)
        monkeypatch.setattr(IncrementalHull, "_certify", certify)
        res = polytope(cycle(4), rho)
        (hull,) = hulls
        assert len(certified) < len(res.vertices)
        assert [c.point for c in res.certificates] == res.points()
        for c in res.certificates:
            assert c.is_extreme and c.verify([q for q in hull.points if q != c.point])

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

    def test_negative_depth_rejected(self, rho3):
        for depth in (-1, -2):
            with pytest.raises(ValueError, match="max_depth must be >= 0"):
                PolytopeConfig(max_depth=depth)
        res = polytope(path(3), rho3, PolytopeConfig(max_depth=0))
        assert res.points() == [rho3] and res.completeness == "depth-bounded"

    def test_one_vertex_graph(self):
        # one level: the polytope is the single point, complete and nonlocal
        res = polytope(DiffusionGraph(1, frozenset()), [1])
        assert res.points() == [pv(1)] and res.completeness == "proven"
        assert res.kinds() == {"nonlocal": 1}
        assert [c.is_extreme for c in res.certificates] == [True]

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
        from diffpoly.core import spread
        from word_oracle import sweep_word

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

    def test_pair_search_finds_a_block_vertex(self, monkeypatch):
        # the uniform vertex comes from the block word B1234, which the
        # lattice screen cannot rule out; only the pair search finds that
        # B13 and then B24 reach it, which makes it local_finite
        searched = []
        search = enumeration._pair_reachable_targets

        def recorded(*args):
            found = search(*args)
            searched.append(found)
            return found

        monkeypatch.setattr(enumeration, "_pair_reachable_targets", recorded)
        graph = DiffusionGraph.from_edges(4, [(1, 3), (1, 4), (2, 4)])
        rho = PopulationVector.normalized([2, 1, 5, 6])
        res = polytope(graph, rho)
        assert res.completeness == "proven" and len(res.vertices) == 12
        assert res.kinds() == {"nonlocal": 3, "local_finite": 9}
        (uniform,) = [v for v in res.vertices if v.point == uniform_vector(4)]
        assert list(uniform.sequence) == [BlockOp((1, 2, 3, 4))]
        assert uniform.kind == "local_finite"
        assert searched == [{uniform_vector(4)}]
        assert apply_sequence([PairOp.of(1, 3), PairOp.of(2, 4)], rho) == uniform_vector(4)


class TestGoldenOutput:
    """Canonical-JSON digests pinned across versions, default config."""

    @pytest.mark.parametrize(
        "graph, rho, digest",
        [
            # pair-word search for block means
            (cycle(4), pv("1/10", "2/10", "3/10", "4/10"),
             "f5a7c5756c402f47b883c2f95dc19c985516b343f40e3c68c8238dcb4467a56e"),
            # tied populations: the K_n reference is the rank-word candidates' hull
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


def reference_majorizes(s, t):
    """Is t below s in the majorization order?  Sorted and accumulated in `Fraction`s."""
    ss, tt = sorted(s, reverse=True), sorted(t, reverse=True)
    acc_s = acc_t = Fraction(0)
    for a, b in zip(ss, tt):
        acc_s += a
        acc_t += b
        if acc_t > acc_s:
            return False
    return True


def test_prefix_sum_majorization_matches_reference():
    from diffpoly.enumeration import _majorizes, _prefix_sums

    rnd = random.Random(12)
    verdicts = set()
    for _ in range(400):
        n = rnd.randint(2, 5)
        bound = rnd.choice([2, 3, 8])  # small bounds give ties within and across vectors
        s, t = random_population(rnd, n, bound), random_population(rnd, n, bound)
        for a, b in ((s, t), (t, s), (s, s)):
            verdict = _majorizes(_prefix_sums(a), _prefix_sums(b))
            assert verdict == reference_majorizes(a, b), (a, b)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_pair_reachable_targets_match_explore_oracle():
    from diffpoly.enumeration import _pair_reachable_targets

    rnd = random.Random(4)
    for graph in (path(4), cycle(4), complete(4)):
        rho = random_population(rnd, 4, bound=6)
        reach = explore(graph, rho, 4)
        pool = sorted(explore(graph, rho, 4, use_blocks=True).states)
        targets = rnd.sample(pool, min(12, len(pool)))
        expected = {t for t in targets if t in reach}
        assert _pair_reachable_targets(graph, rho, targets, 4, False) == expected


def test_integer_step_matches_the_operators():
    # the search's integer step on a state's image is the image of the
    # operator's result, and stays primitive, along random words too
    from math import gcd

    from diffpoly.enumeration import _average
    from diffpoly.geometry import _image, _StateImage

    rnd = random.Random(25)
    for n in range(2, 7):
        subsets = [b for size in range(2, n + 1) for b in combinations(range(1, n + 1), size)]
        ops = [BlockOp(b) for b in subsets] + [PairOp(*b) for b in subsets if len(b) == 2]
        states = [random_population(rnd, n, bound) for bound in (2, 3, 50) for _ in range(3)]
        states += [uniform_vector(n), exponential_populations(n)]
        assert any(0 in s for s in states) and any(len(set(s)) < n for s in states)
        for state in states:
            image = _StateImage(_image(state))
            for op in ops:
                step = _average(image, tuple(v - 1 for v in op.support))
                assert step == _image(op.apply(state)) and gcd(*step) == 1, (state, op)
            for _ in range(8):  # a random word: denominators grow
                op = rnd.choice(ops)
                state, image = op.apply(state), _average(image, tuple(v - 1 for v in op.support))
                assert type(image) is _StateImage and image.point() == state
                assert image == _image(state) and gcd(*image) == 1, (state, op)


def test_search_builds_each_state_point_once(monkeypatch):
    # a state that a walk finds outside joins the hull with the point the
    # walk built, so no state of one search builds its point twice
    from diffpoly.enumeration import _saturating_bfs, graph_ops
    from diffpoly.geometry import _StateImage

    built = []
    point = _StateImage.point

    def counted(image):
        built.append(image)
        return point(image)

    monkeypatch.setattr(_StateImage, "point", counted)
    graph, rho = helium_p5(), PopulationVector.normalized([1, 2, 4, 7, 11])
    _, saturated, hull = _saturating_bfs(graph, rho, graph_ops(graph, True), 15, True)
    assert saturated and hull._walked == {}
    assert len(built) == len(set(built)) >= len(hull.points) - 1  # all but rho


@pytest.mark.parametrize("run", [
    lambda: polytope(cycle(6), PopulationVector.normalized([1, 2, 3, 5, 8, 13]),
                     PolytopeConfig(classify=False)),
    lambda: optimize_over(cycle(4), PopulationVector.normalized([1, 2, 3, 4]), (1, 2, 3, 4)),
], ids=["polytope-c6", "optimize-c4"])
def test_search_keys_states_by_image(monkeypatch, run):
    # the search and its hull find a state by its integer image, never by
    # its point: only rho0 is hashed, once, when the hull is built
    hashed = []
    point_hash = PopulationVector.__hash__

    def counted(self):
        hashed.append(self)
        return point_hash(self)

    monkeypatch.setattr(PopulationVector, "__hash__", counted)
    run()
    assert len(hashed) <= 1


class TestLPCounts:
    """
    LPs (`_phase_one` calls) a search runs, pinned at their current values.
    A change that lowers one updates it here and says so; none may rise.
    """

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        from diffpoly import geometry

        calls = []
        phase_one = geometry._phase_one

        def counted(*args, **kwargs):
            calls.append(None)
            return phase_one(*args, **kwargs)

        monkeypatch.setattr(geometry, "_phase_one", counted)
        return calls

    @pytest.mark.parametrize("graph, rho, classify, lps", [
        (cycle(4), (1, 2, 3, 4), False, 78),
        (helium_p5(), (1, 2, 4, 7, 11), False, 125),
        (cycle(4), (1, 2, 3, 4), True, 90),
        (helium_p5(), (1, 2, 4, 7, 11), True, 135),
    ], ids=["c4", "helium", "c4-classified", "helium-classified"])
    def test_polytope(self, lp_calls, graph, rho, classify, lps):
        polytope(graph, PopulationVector.normalized(rho), PolytopeConfig(classify=classify))
        assert len(lp_calls) == lps

    def test_optimize_over(self, lp_calls):
        from diffpoly.optimize import optimize_over

        optimize_over(complete(4), PopulationVector.normalized([3, 1, 4, 1]), (1, 2, 3, 4),
                      config=PolytopeConfig(classify=False))
        assert len(lp_calls) == 148

import json
import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from diffpoly.core import (
    BlockOp,
    OperationSequence,
    PairOp,
    PopulationVector,
    apply_sequence,
    complete,
    format_rational,
    op_sort_key,
    path,
    uniform_vector,
)
from diffpoly.enumeration import PolytopeConfig, polytope
from diffpoly.geometry import hull_membership, hull_vertices
from diffpoly.structured import (
    count_commuting_subsets,
    counts_csv,
    decompose_step,
    fibonacci,
    fibonacci_nonlocal_count,
    kn_candidate_points,
    kn_extreme_points,
    pn_polytope,
    subset_point,
    subset_sequence,
)
from diffpoly.structured.complete import _least_order, _rank_words, word_sequence
from diffpoly.structured.ordered_path import triangular
from diffpoly.structured.words import (
    all_permutations,
    apply_word,
    commutation_classes,
    reduced_words,
    total_commutation_classes,
)

from conftest import random_sorted_population


def pv(*comps):
    return PopulationVector(comps)


def tie_patterns(n):
    """Every tie pattern of values 0..2, sorted and rotated by one label."""
    patterns = set()
    for values in combinations_with_replacement(range(3), n):
        if len(set(values)) < n and any(values):
            patterns.add(PopulationVector.normalized(list(values)))
            patterns.add(PopulationVector.normalized(list(values[1:] + values[:1])))
    return sorted(patterns)


K3_EXPECTED = sorted([
    pv("0", "2/7", "5/7"),
    pv("1/7", "1/7", "5/7"),
    pv("0", "1/2", "1/2"),
    pv("3/7", "1/7", "3/7"),
    pv("1/4", "1/2", "1/4"),
    pv("3/7", "2/7", "2/7"),
    pv("3/8", "3/8", "1/4"),
])


class TestCompleteGraph:
    def test_k3_vertices(self, rho3):
        got = kn_extreme_points(rho3)
        assert [p for p, _ in got] == K3_EXPECTED
        for point, seq in got:
            assert apply_sequence(seq, rho3) == point

    def test_two_levels(self):
        rho = pv("1/4", "3/4")
        got = kn_extreme_points(rho)
        assert [p for p, _ in got] == [pv("1/4", "3/4"), pv("1/2", "1/2")]

    def test_word_sequence_tracks_ranks(self, rho3):
        # letter 1 then 2: average the two lowest, then the new second
        # lowest with the highest
        point, seq = word_sequence((1, 2), rho3)
        assert list(seq) == [PairOp.of(1, 2), PairOp.of(1, 3)]
        assert point == pv("3/7", "1/7", "3/7")

    @pytest.mark.parametrize("letter", [0, 3])
    def test_word_sequence_rejects_letters_outside_1_to_n_minus_1(self, rho3, letter):
        with pytest.raises(ValueError, match=f"letter {letter} is outside 1..2"):
            word_sequence((1, letter), rho3)

    def test_k4_matches_enumeration(self):
        rnd = random.Random(14)
        rho = random_sorted_population(rnd, 4)
        structured = kn_extreme_points(rho)
        enum = polytope(complete(4), rho, PolytopeConfig(use_blocks=False, classify=False))
        assert [p for p, _ in structured] == enum.points()
        for point, seq in structured:
            assert apply_sequence(seq, rho) == point

    def test_candidate_classes_exceed_vertices_at_n4(self):
        # the class-to-point map is one-to-one on S4 (43 classes, 43
        # points), but a couple of reverse-permutation classes land inside
        # the hull: the vertex count is strictly below the class count
        rnd = random.Random(14)
        rho = random_sorted_population(rnd, 4)
        candidates = kn_candidate_points(rho)
        assert len(candidates) == total_commutation_classes(4) == 43
        vertex_count = len(kn_extreme_points(rho))
        assert vertex_count < 43
        vertices = set(hull_vertices(list(candidates)))
        interior = [p for p in candidates if p not in vertices]
        assert len(interior) == 43 - vertex_count

    def test_bijection_holds_at_n3(self, rho3):
        assert len(kn_extreme_points(rho3)) == total_commutation_classes(3) == 7

    @pytest.mark.parametrize("n", [3, 4])
    def test_tied_candidates_give_the_polytope(self, n):
        # ranks break ties by label, and the candidates' hull still is DP(K_n)
        for rho in tie_patterns(n):
            candidates = kn_candidate_points(rho)
            vertices = hull_vertices(list(candidates))
            enum = polytope(complete(n), rho, PolytopeConfig(use_blocks=False, classify=False))
            assert vertices == enum.points(), rho

    @pytest.mark.parametrize("n", [3, 4])
    def test_tied_words_match_enumeration(self, n):
        # the pair-only search is the oracle: each vertex keeps its shortest
        # word, least in the canonical operator order, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in tie_patterns(n):
                enum = polytope(complete(n), rho, PolytopeConfig(use_blocks=False, classify=False))
                expected = [(v.point, v.sequence) for v in enum.vertices]
                assert kn_extreme_points(rho) == expected, rho

    @pytest.mark.parametrize("values", [
        (0, 4, 0, 0, 0), (1, 1, 4, 7, 11), (1, 2, 2, 7, 7), (0, 1, 1, 3, 3), (1, 1, 1, 1, 1), (1, 1, 2, 2),
    ], ids=lambda v: "-".join(map(str, v)))
    def test_tie_pass_matches_the_unpruned_walk(self, values):
        # the tie pass reorders one word per class; replaying every reduced
        # word of every permutation must give the same sequences
        rho = PopulationVector.normalized(list(values))
        got = kn_extreme_points(rho)
        candidates = kn_candidate_points(rho)
        expected = {p: candidates[p] for p, _ in got}

        def key(ops):
            return len(ops), [op_sort_key(op) for op in ops]
        for perm in all_permutations(len(rho)):
            for word in reduced_words(perm):
                point, ops = word_sequence(word, rho)
                if point in expected and key(ops) < key(expected[point]):
                    expected[point] = ops
        assert [(p, tuple(seq)) for p, seq in got] == [(p, tuple(expected[p])) for p, _ in got]

    @pytest.mark.parametrize("vectors", [
        pytest.param(list(product(range(4), repeat=3))[1:], id="n3-levels-0-to-3"),
        pytest.param(list(product(range(3), repeat=4))[1:], id="n4-levels-0-to-2"),
        pytest.param([(0, 4, 0, 0, 0), (1, 2, 2, 7, 7), (2, 2, 2, 5, 5)], id="n5-ties"),
    ])
    def test_class_reorder_is_least_over_the_class(self, vectors):
        # every word of a class replays to the class's point, and the
        # greedy reorder of the least word's steps is the least op order
        # over the class's words
        def key(ops):
            return len(ops), [op_sort_key(op) for op in ops]
        classes = all_classes(len(vectors[0]))
        for rho in sorted({PopulationVector.normalized(list(v)) for v in vectors}):
            walked = {word: (point, steps) for _perm, word, point, steps in _rank_words(rho)}
            for cls in classes:
                point, steps = walked[cls[0]]
                replays = [word_sequence(word, rho) for word in cls]
                assert {p for p, _ in replays} == {point}, (rho, cls)
                assert _least_order(cls[0], steps) == list(min((ops for _, ops in replays), key=key)), (rho, cls)

    @pytest.mark.parametrize("values", [
        (1, 5, 9), (1, 2, 3), (2, 3, 7, 11), (1, 2, 3, 4), (1, 3, 5, 8, 14), (1, 2, 3, 4, 5),
    ], ids=lambda v: "-".join(map(str, v)))
    def test_distinct_words_keep_every_letter(self, values):
        # on distinct populations no letter of a class's least word averages
        # equal levels, so no operator is dropped from a candidate sequence
        rho = PopulationVector.normalized(list(values))
        for perm in all_permutations(len(rho)):
            for cls in commutation_classes(perm):
                _, seq = word_sequence(cls[0], rho)
                assert len(seq) == len(cls[0]), (values, cls[0])


def oracle_candidates(rho, classes):
    """The all-words route: the least word of every class, replayed, in
    (permutation, class) order, first point wins."""
    candidates = {}
    for cls in classes:
        point, seq = word_sequence(cls[0], rho)
        candidates.setdefault(point, seq)
    return candidates


def all_classes(n):
    return [cls for perm in all_permutations(n) for cls in commutation_classes(perm)]


class TestNormalFormCandidates:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_tie_pattern_matches_the_oracle(self, n):
        # values 0..3 in every order: distinct, tied and zero levels
        classes = all_classes(n)
        patterns = {PopulationVector.normalized(list(v)) for v in product(range(4), repeat=n) if any(v)}
        for rho in sorted(patterns):
            assert list(kn_candidate_points(rho).items()) == list(oracle_candidates(rho, classes).items()), rho

    def test_seeded_n5_vectors_match_the_oracle(self):
        classes = all_classes(5)
        rnd = random.Random(55)
        vectors = [random_sorted_population(rnd, 5) for _ in range(2)]
        vectors.append(PopulationVector.normalized(rnd.sample(range(1, 100), 5)))
        vectors += [PopulationVector.normalized(v) for v in ([3, 1, 3, 0, 2], [1, 1, 4, 7, 11], [2, 2, 2, 5, 5])]
        for rho in vectors:
            assert list(kn_candidate_points(rho).items()) == list(oracle_candidates(rho, classes).items()), rho

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_walk_visits_each_class_at_its_least_word(self, n):
        rho = PopulationVector.normalized(range(1, n + 1))
        least = sorted((perm, cls[0]) for perm in all_permutations(n) for cls in commutation_classes(perm))
        visited = [(perm, word) for perm, word, _, _ in _rank_words(rho)]
        assert sorted(visited) == least
        assert all(apply_word(word, n) == perm for perm, word in visited)

    def test_walk_replays_each_word(self):
        # one step per letter, None where it meets equal levels; the steps
        # replay to the point and are the ops `word_sequence` keeps
        rho = PopulationVector.normalized([2, 0, 2, 1])
        silent = 0
        for _perm, word, point, steps in _rank_words(rho):
            ops = OperationSequence(op for op in steps if op is not None)
            assert len(steps) == len(word), word
            assert apply_sequence(ops, rho) == point, word
            assert (point, ops) == word_sequence(word, rho), word
            silent += steps.count(None)
        assert silent > 0

    def test_n6_candidates_in_seconds(self):
        # the all-words route took about 45 s here; the longest element of
        # S_6 alone has 292,864 reduced words
        rho = PopulationVector.normalized([1, 3, 5, 8, 14, 23])
        start = time.perf_counter()
        candidates = kn_candidate_points(rho)
        assert len(candidates) == 9661
        assert time.perf_counter() - start < 30


class TestSubsetPoints:
    def test_seven_level_example(self):
        rho = PopulationVector.normalized([0, 1, 2, 5, 6, 9, 12])
        point = subset_point({1, 2, 3, 6}, rho)
        x = sum(rho[:4]) / 4
        z = (rho[5] + rho[6]) / 2
        assert point == PopulationVector([x, x, x, x, rho[4], z, z])

    def test_empty_set_is_initial(self, rho3):
        assert subset_point(set(), rho3) == rho3

    def test_full_set_is_uniform(self, rho3):
        assert subset_point({1, 2}, rho3) == uniform_vector(3)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            subset_point({1}, pv("5/7", "2/7", "0"))

    def test_sequence_one_op_per_run(self):
        seq = subset_sequence({1, 2, 3, 6})
        assert list(seq) == [BlockOp((1, 2, 3, 4)), PairOp.of(6, 7)]

    def test_components_stay_sorted(self):
        rnd = random.Random(2)
        for _ in range(25):
            n = rnd.randrange(3, 8)
            rho = random_sorted_population(rnd, n)
            subset = {a for a in range(1, n) if rnd.random() < 0.5}
            point = subset_point(subset, rho)
            assert list(point) == sorted(point)


class TestPnPolytope:
    def test_three_levels(self, rho3):
        pn = pn_polytope(rho3)
        assert sorted(v.point for v in pn.vertices) == sorted([
            rho3, pv("1/7", "1/7", "5/7"), pv("0", "1/2", "1/2"), uniform_vector(3),
        ])

    def test_four_level_cube(self):
        rnd = random.Random(6)
        rho = random_sorted_population(rnd, 4)
        pn = pn_polytope(rho)
        assert len(pn.vertices) == 8
        labels = {v.subset for v in pn.vertices}
        for v in pn.vertices:
            neighbors = [s for s in pn.neighbors(v.subset) if s in labels]
            assert len(neighbors) == 3
        assert len(pn.hypercube_edges()) == 8 * 3 // 2

    def test_vertex_sequences_replay(self):
        rnd = random.Random(61)
        rho = random_sorted_population(rnd, 6)
        pn = pn_polytope(rho)
        for v in pn.vertices:
            assert apply_sequence(v.sequence, rho) == v.point

    def test_degenerate_tie_collapses(self):
        rho = pv("1/4", "1/4", "1/4", "1/4")
        pn = pn_polytope(rho)
        assert len(pn.vertices) == 1
        assert pn.generic_count == 8
        rho2 = pv("0", "0", "1/2", "1/2")
        pn2 = pn_polytope(rho2)
        assert 1 < len(pn2.vertices) < 8

    def test_kind_matches_kn_membership_small(self):
        rnd = random.Random(13)
        for n in (3, 4):
            rho = random_sorted_population(rnd, n)
            pn = pn_polytope(rho)
            kn_vertices = set(hull_vertices(list(kn_candidate_points(rho))))
            for v in pn.vertices:
                assert (v.kind == "nonlocal") == (v.point in kn_vertices)

    def test_json(self):
        rho = PopulationVector.normalized([2, 3, 5, 11])
        pn = pn_polytope(rho)
        data = json.loads(json.dumps(pn.to_json()))
        assert set(data) == {"rho0", "completeness", "generic_count", "vertices"}
        assert data["rho0"] == ["2/21", "1/7", "5/21", "11/21"]
        assert data["completeness"] == "proven" and data["generic_count"] == 8
        assert len(data["vertices"]) == 8
        for v, vertex in zip(data["vertices"], pn.vertices):
            assert set(v) == {"subset", "point", "sequence", "kind"}
            assert v["subset"] == sorted(vertex.subset)
            assert all("/" in c for c in v["point"])
            assert PopulationVector.from_json(v["point"]) == vertex.point
            assert OperationSequence.from_json(v["sequence"]) == vertex.sequence
            assert v["kind"] == vertex.kind
        assert sorted(map(tuple, (v["subset"] for v in data["vertices"]))) == [
            (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]
        assert {"subset": [1, 2, 3], "point": ["1/4"] * 4, "sequence": [["block", [1, 2, 3, 4]]],
                "kind": "asymptotic"} in data["vertices"]

    def test_no_subset_point_reconstructs_from_others(self):
        rnd = random.Random(50)
        rho = random_sorted_population(rnd, 6)
        pn = pn_polytope(rho)
        points = [v.point for v in pn.vertices]
        for p in points:
            others = [q for q in points if q != p]
            assert not hull_membership(p, others).inside


class TestStepDecomposition:
    def test_identity_case(self):
        rnd = random.Random(21)
        rho = random_sorted_population(rnd, 5)
        dec = decompose_step({2}, 2, rho)
        assert dec.case == "identity"
        assert dec.target == subset_point({2}, rho)

    def test_all_coincide_case(self):
        rnd = random.Random(22)
        rho = random_sorted_population(rnd, 5)
        dec = decompose_step(set(), 2, rho)
        assert dec.case == "all_coincide"
        assert dec.lambdas == (1, 0, 0, 0)
        assert dec.target == subset_point({2}, rho)
        assert len(set(dec.points)) == 1

    def test_short_left_and_right(self):
        rnd = random.Random(23)
        rho = random_sorted_population(rnd, 5)
        left = decompose_step({3}, 2, rho)   # k=1 < l=2
        assert left.case == "short_left" and left.k == 1 and left.l == 2
        right = decompose_step({2}, 3, rho)  # k=2 > l=1
        assert right.case == "short_right" and right.k == 2 and right.l == 1
        for dec in (left, right):
            assert dec.verify()
            assert sum(1 for l in dec.lambdas if l > 0) <= 2

    def test_generic_case_with_window(self):
        rnd = random.Random(24)
        rho = random_sorted_population(rnd, 6)
        dec = decompose_step({2, 4}, 3, rho)  # k = l = 2
        assert dec.case == "generic"
        assert dec.verify()
        r1, r2, r3 = dec.ratios
        assert r2 > r1 and r3 > r1
        lo, hi = dec.window
        assert lo == max(Fraction(0), r1) and hi == min(r2, r3) and lo <= hi
        assert dec.lambdas[3] == lo

    @pytest.mark.parametrize("case", [
        "identity", "all_coincide", "short_left", "short_right", "generic", "flat",
    ])
    def test_points_are_neighboring_subset_points(self, case):
        A, i = {"identity": ({2}, 2), "all_coincide": (set(), 2), "short_left": ({3}, 2),
                "short_right": ({2}, 3), "generic": ({2, 3, 5, 6}, 4), "flat": ({1, 3}, 2)}[case]
        if case == "flat":  # the tie r2 = r3 = r4 collapses the closed form
            rho = PopulationVector.normalized([1, 3, 3, 3])
        else:
            rho = random_sorted_population(random.Random(25), 7)
        dec = decompose_step(A, i, rho)
        assert dec.case == case
        assert dec.points == (
            subset_point(A | {i}, rho),
            subset_point((A - {i + 1}) | {i}, rho),
            subset_point((A - {i - 1}) | {i}, rho),
            subset_point((A - {i - 1, i + 1}) | {i}, rho),
        )
        if case == "flat":
            # the LP weighs distinct points; a repeated point carries weight
            # only at its first position
            assert dec.points[2] == dec.points[3]
            assert dec.lambdas == (0, Fraction(3, 4), Fraction(1, 4), 0)

    def test_segment_values_match_direct_means(self):
        rnd = random.Random(26)
        rho = random_sorted_population(rnd, 7)
        dec = decompose_step({2, 3, 5, 6}, 4, rho)
        r1, r2, r3, r4 = dec.r_values
        k, l = dec.k, dec.l
        assert dec.x == ((k - 1) * r1 + r2) / k
        assert dec.y == (r3 + (l - 1) * r4) / l
        seg = dec.segment_values
        assert seg["X"] == ((k - 1) * r1 + r2 + r3 + (l - 1) * r4) / (k + l)
        assert seg["X1"] == ((k - 1) * r1 + r2 + r3) / (k + 1)
        assert seg["Y1"] == r4 and seg["X2"] == r1
        assert seg["Y2"] == (r2 + r3 + (l - 1) * r4) / (l + 1)
        assert seg["Z"] == (r2 + r3) / 2

    def test_agrees_with_lp_oracle(self):
        # the witness reconstruction must agree with an independent exact
        # feasibility solve over the four candidate vertices
        rnd = random.Random(27)
        for _ in range(30):
            n = rnd.randrange(4, 8)
            rho = random_sorted_population(rnd, n)
            A = {a for a in range(1, n) if rnd.random() < 0.5}
            options = [i for i in range(1, n) if i not in A]
            if not options:
                continue
            i = rnd.choice(options)
            dec = decompose_step(A, i, rho)
            assert dec.verify()
            res = hull_membership(dec.target, sorted(set(dec.points)))
            assert res.inside

    def test_tied_input_with_single_runs_coincides(self):
        # k = l = 1 around i = 1: the image is S_{1} itself, however tied rho0 is
        rho = pv("1/6", "1/6", "1/6", "1/2")
        dec = decompose_step(set(), 1, rho)
        assert dec.case == "all_coincide"
        assert dec.verify()

    def test_json_generic_and_identity(self):
        rho = PopulationVector.normalized([1, 2, 3, 5, 8, 13])
        generic = decompose_step({2, 4}, 3, rho)
        data = generic.to_json()
        assert data["case"] == "generic" and data["subset"] == [2, 4] and data["position"] == 3
        assert data["window"] == [format_rational(w) for w in generic.window]
        assert data["ratios"] == [format_rational(r) for r in generic.ratios]
        assert data["lambdas"] == [format_rational(w) for w in generic.lambdas]
        assert [PopulationVector.from_json(p) for p in data["points"]] == list(generic.points)
        assert PopulationVector.from_json(data["target"]) == generic.target
        identity = decompose_step({2}, 2, rho).to_json()
        assert identity["case"] == "identity"
        assert identity["window"] is None and identity["ratios"] is None
        assert identity["r"][0] is None and identity["r"][3] is None
        assert None not in identity["r"][1:3]

    def test_bad_inputs_rejected(self):
        rho = pv("0", "1/2", "1/2")
        with pytest.raises(ValueError):
            decompose_step(set(), 5, rho)
        with pytest.raises(ValueError):
            decompose_step({9}, 1, rho)

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the exact checks must still run
        import diffpoly

        script = textwrap.dedent("""
            from fractions import Fraction
            from diffpoly.core import PopulationVector
            from diffpoly.structured import ordered_path as op

            assert False, "this assert must be stripped by -O"
            op.StepDecomposition.verify = lambda self: False
            rho = PopulationVector.normalized([1, 2, 4, 7, 11, 16])
            flat = PopulationVector([Fraction(1, 6)] * 3 + [Fraction(1, 2)])
            tied = PopulationVector.normalized([1, 3, 3, 3])
            cases = [({2}, 2, rho), (set(), 2, rho), ({3}, 2, rho), ({2}, 3, rho),
                     ({2, 4}, 3, rho), (set(), 1, flat), ({1, 3}, 2, tied)]
            unchecked = []
            for subset, i, r in cases:
                try:
                    op.decompose_step(subset, i, r)
                except AssertionError:
                    continue
                unchecked.append((sorted(subset), i))
            op.fibonacci = lambda m: -1
            try:
                op.fibonacci_nonlocal_count(5)
            except AssertionError:
                pass
            else:
                unchecked.append("fibonacci_nonlocal_count")
            raise SystemExit(f"unchecked under -O: {unchecked}" if unchecked else 0)
        """)
        src = os.path.dirname(os.path.dirname(diffpoly.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestCounts:
    def test_pair_count_is_triangular(self):
        for n in range(3, 13):
            assert count_commuting_subsets(n, 2) == triangular(n - 3)

    def test_fibonacci_totals(self):
        assert fibonacci_nonlocal_count(3) == 3
        assert fibonacci_nonlocal_count(4) == 5
        assert fibonacci_nonlocal_count(6) == 13

    def test_counts_against_direct_enumeration(self):
        for n in range(3, 10):
            for k in range(0, n // 2 + 1):
                direct = sum(
                    1
                    for sub in combinations(range(1, n), k)
                    if all(b - a > 1 for a, b in zip(sub, sub[1:]))
                )
                assert count_commuting_subsets(n, k) == direct

    def test_six_level_triple(self):
        assert count_commuting_subsets(6, 3) == 1
        rnd = random.Random(66)
        rho = random_sorted_population(rnd, 6)
        pn = pn_polytope(rho)
        triple = pn.vertex_by_subset({1, 3, 5})
        assert triple.kind == "nonlocal"
        assert list(triple.sequence) == [PairOp.of(1, 2), PairOp.of(3, 4), PairOp.of(5, 6)]

    def test_csv_table(self):
        table = counts_csv(8)
        lines = table.strip().splitlines()
        assert lines[0].startswith("n,A0,A1,")
        last = lines[-1].split(",")
        assert last[0] == "8" and last[-1] == str(fibonacci(9)) == last[-2]

    def test_validation(self):
        with pytest.raises(ValueError):
            count_commuting_subsets(2, 0)
        with pytest.raises(ValueError):
            count_commuting_subsets(5, -1)

import json
import os
import random
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import replace
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
    op_sort_key,
    path,
    uniform_vector,
)
from diffpoly import verify
from diffpoly.enumeration import PolytopeConfig, _average, polytope
from diffpoly.geometry import _image, _StateImage, hull_membership, hull_vertices
from diffpoly.structured import (
    count_commuting_subsets,
    fibonacci,
    fibonacci_nonlocal_count,
    kn_candidate_points,
    kn_extreme_points,
    ordered_path,
    pn_polytope,
    subset_point,
    subset_sequence,
)
from diffpoly.structured.complete import _least_order, _rank_words
from diffpoly.structured.ordered_path import _slacks, _subset_points, triangular

from conftest import random_sorted_population
from word_oracle import (
    all_permutations,
    apply_word,
    commutation_classes,
    reduced_words,
    total_commutation_classes,
    word_sequence,
)


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
        assert labels == {frozenset(sub) for k in range(4) for sub in combinations((1, 2, 3), k)}

    def test_refuses_a_subset_point_that_is_not_extreme(self, monkeypatch):
        # the midpoint of two subset points, slipped in among them
        def with_a_midpoint(rho0):
            chosen = _subset_points(rho0)
            a, b = list(chosen)[:2]
            chosen[PopulationVector((x + y) / 2 for x, y in zip(a, b))] = frozenset()
            return chosen

        monkeypatch.setattr(ordered_path, "_subset_points", with_a_midpoint)
        with pytest.raises(AssertionError, match="subset points failed extremality"):
            pn_polytope(random_sorted_population(random.Random(6), 4))

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


def slacks_of(point, rho):
    return _slacks(_image(point), _image(rho))


def pair_images(point):
    image = _StateImage(_image(point))
    return [_average(image, (i, i + 1)) for i in range(len(point) - 1)]


def midpoint(p, q):
    return PopulationVector([(a + b) / 2 for a, b in zip(p, q)])


class TestClosedForm:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_membership_matches_the_lp(self, n):
        # a point meets Q's inequalities exactly when it is a convex
        # combination of the subset points: checked on the subset points,
        # their pair images, random mixtures and perturbations of these
        rnd = random.Random(40 + n)
        rho = random_sorted_population(rnd, n)
        vertices = sorted(_subset_points(rho))
        images = [image.point() for p in vertices for image in pair_images(p)]
        mixtures = []
        for _ in range(12):
            chosen = rnd.sample(vertices, min(3, len(vertices)))
            weights = [rnd.randrange(1, 10) for _ in chosen]
            mixtures.append(PopulationVector(
                [sum(w * p[t] for w, p in zip(weights, chosen)) / sum(weights) for t in range(n)]))
        perturbed = []
        for base in rnd.sample(vertices + images + mixtures, 24):
            j, k = rnd.sample(range(n), 2)
            delta = Fraction(1, rnd.choice([100, 10 ** 4, 10 ** 7]))
            perturbed.append(tuple(x + delta if t == j else x - delta if t == k else x
                                   for t, x in enumerate(base)))
        outcomes = set()
        for point in vertices + rnd.sample(images, min(20, len(images))) + mixtures + perturbed:
            inside = min(slacks_of(point, rho)) >= 0
            assert inside == hull_membership(point, vertices).inside, point
            outcomes.add(inside)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_tied_pair_images_stay_in_q(self, n):
        # every tie pattern of the values 0..3: every pair image of every
        # distinct subset point lies in Q
        for values in combinations_with_replacement(range(4), n):
            if not any(values):
                continue
            rho = PopulationVector.normalized(values)
            rho_image = _image(rho)
            for point in _subset_points(rho):
                assert min(slacks_of(point, rho)) >= 0, (values, point)
                for image in pair_images(point):
                    assert min(_slacks(image, rho_image)) >= 0, (values, point, image)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_subset_points_match_their_words(self, n):
        # built on integer images, the subset points are the points of their
        # words, in the same order, each labelled with its smallest subset
        for values in combinations_with_replacement(range(4), n):
            if not any(values):
                continue
            rho = PopulationVector.normalized(values)
            expected = {}
            for size in range(n):
                for subset in combinations(range(1, n), size):
                    expected.setdefault(subset_point(subset, rho), frozenset(subset))
            assert list(_subset_points(rho).items()) == list(expected.items()), values

    def test_vertex_slacks_give_the_cube_incidence(self):
        # x_a = x_{a+1} holds at S_A exactly for a in A, P_a tight exactly
        # for a not in A
        rho = PopulationVector.normalized([1, 2, 4, 7, 11])
        for size in range(5):
            for subset in combinations(range(1, 5), size):
                slacks = slacks_of(subset_point(subset, rho), rho)
                assert len(slacks) == 8 and min(slacks) >= 0
                assert [s == 0 for s in slacks] == (
                    [a in subset for a in range(1, 5)] + [a not in subset for a in range(1, 5)])

    def test_moved_vertex_fails_the_hypercube_check(self, monkeypatch):
        def moved(rho0):
            pn = pn_polytope(rho0)
            first, second, *rest = pn.vertices
            return replace(pn, vertices=(replace(first, point=midpoint(first.point, second.point)),
                                         second, *rest))

        monkeypatch.setattr(verify, "pn_polytope", moved)
        result = verify.check_pn(4)
        assert not result.passed and "not tight on exactly its label's" in result.detail

    def test_added_non_vertex_fails_the_hypercube_check(self, monkeypatch):
        def padded(rho0):
            pn = pn_polytope(rho0)
            first, second = pn.vertices[:2]
            return replace(pn, vertices=pn.vertices + (
                replace(second, point=midpoint(first.point, second.point)),))

        monkeypatch.setattr(verify, "pn_polytope", padded)
        result = verify.check_pn(4)
        assert not result.passed and "not tight on exactly its label's" in result.detail

    @pytest.mark.parametrize("dropped", range(6))
    def test_dropped_inequality_fails_the_hypercube_check(self, monkeypatch, dropped):
        def fewer(image, rho_image):
            slacks = _slacks(image, rho_image)
            return slacks[:dropped] + slacks[dropped + 1:]

        monkeypatch.setattr(verify, "_slacks", fewer)
        assert not verify.check_pn(4).passed

    def test_image_outside_q_fails_the_pair_image_check(self, monkeypatch):
        def swapped(image, block):  # an ascending pair swapped, not averaged
            i, j = block
            out = list(image)
            out[i], out[j] = out[j], out[i]
            return _StateImage(out)

        monkeypatch.setattr(verify, "_average", swapped)
        result = verify.check_pair_images(4)
        assert not result.passed and "out of Q" in result.detail

    def test_checks_survive_optimized_mode(self):
        # python -O strips assert statements; the exact checks must still run
        import diffpoly

        script = textwrap.dedent("""
            from diffpoly import verify
            from diffpoly.geometry import _StateImage
            from diffpoly.structured import ordered_path as op

            assert False, "this assert must be stripped by -O"
            if not (verify.check_pn(5).passed and verify.check_pair_images(5).passed):
                raise SystemExit("the closed-form checks fail under -O")
            unchecked = []
            slacks = verify._slacks
            verify._slacks = lambda image, rho_image: slacks(image, rho_image)[1:]
            if verify.check_pn(5).passed:
                unchecked.append("check_pn")
            verify._slacks = slacks

            def swapped(image, block):
                out = list(image)
                out[block[0]], out[block[1]] = out[block[1]], out[block[0]]
                return _StateImage(out)

            verify._average = swapped
            if verify.check_pair_images(5).passed:
                unchecked.append("check_pair_images")
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
        triple = next(v for v in pn.vertices if v.subset == {1, 3, 5})
        assert triple.kind == "nonlocal"
        assert list(triple.sequence) == [PairOp.of(1, 2), PairOp.of(3, 4), PairOp.of(5, 6)]

    @pytest.mark.parametrize("n", [2, -2])
    def test_nonlocal_count_needs_three_levels(self, n):
        # at n = -2 the sum over k is empty and F(n+1) is 0: only the guard refuses it
        with pytest.raises(ValueError, match="counting needs n > 2"):
            fibonacci_nonlocal_count(n)

    def test_nonlocal_count_is_checked_against_fibonacci(self, monkeypatch):
        monkeypatch.setattr(ordered_path, "fibonacci", lambda m: -1)
        with pytest.raises(AssertionError, match=r"commuting-subset count 8 is not F\(6\)"):
            fibonacci_nonlocal_count(5)

    @pytest.mark.parametrize("m", [-1, -5])
    def test_fibonacci_refuses_a_negative_index(self, m):
        with pytest.raises(ValueError, match="m must be non-negative"):
            fibonacci(m)

    @pytest.mark.parametrize("m", [-1, -3])
    def test_triangular_refuses_a_negative_index(self, m):
        with pytest.raises(ValueError, match="m must be non-negative"):
            triangular(m)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_commuting_subsets(2, 0)
        with pytest.raises(ValueError):
            count_commuting_subsets(5, -1)

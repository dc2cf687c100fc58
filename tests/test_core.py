import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffpoly.core import (
    BlockOp,
    DiffusionGraph,
    OperationSequence,
    PairOp,
    PopulationVector,
    apply_op,
    apply_sequence,
    complete,
    connected_blocks,
    cycle,
    format_rational,
    grid_composition,
    helium_p5,
    op_from_json,
    parse_rational,
    path,
    spread,
    uniform_vector,
)
from diffpoly.enumeration import explore
from diffpoly.structured.ordered_path import subset_point
from word_oracle import sweep_word


def pv(*comps):
    return PopulationVector(comps)


populations = st.builds(
    lambda vals: PopulationVector.normalized([v + 1 for v in vals[:1]] + vals[1:]),
    st.lists(st.integers(0, 40), min_size=2, max_size=6),
)


class TestPopulationVector:
    def test_valid(self, rho3):
        assert sum(rho3) == 1
        assert rho3[2] == Fraction(5, 7)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PopulationVector([Fraction(-1, 2), Fraction(3, 2)])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PopulationVector([Fraction(1, 2), Fraction(1, 3)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PopulationVector([])

    def test_a_state_is_checked_once(self, rho3):
        assert PopulationVector(rho3) is rho3

    def test_normalized_constructor(self):
        assert PopulationVector.normalized([2, 2, 4]) == pv("1/4", "1/4", "1/2")

    def test_rejects_floats(self):
        # a float holds a binary fraction, not the decimal it prints as
        with pytest.raises(TypeError, match="0.5"):
            PopulationVector([0.5, 0.3, 0.2])
        with pytest.raises(TypeError, match="0.1"):
            PopulationVector([0.1, 0.9])
        with pytest.raises(TypeError, match="0.9"):
            PopulationVector([Fraction(1, 10), 0.9])
        with pytest.raises(TypeError, match="2.0"):
            PopulationVector.normalized([1, 2.0])
        with pytest.raises(TypeError, match="0.25"):
            PopulationVector.normalized([Fraction(3, 4), 0.25])

    def test_exact_inputs_accepted(self):
        from decimal import Decimal

        half = PopulationVector([Fraction(1, 2), "1/4", Decimal("0.25")])
        assert half == pv("1/2", "1/4", "1/4")
        assert PopulationVector([1, 0]) == pv("1", "0")
        assert PopulationVector.normalized([2, "2", Decimal("4"), Fraction(8)]) == pv(
            "1/8", "1/8", "1/4", "1/2"
        )
        assert all(type(c) is Fraction for c in half)

    def test_float_populations_rejected_at_entry_points(self):
        from diffpoly.enumeration import polytope
        from diffpoly.optimize import optimize_over
        from diffpoly.structured.ordered_path import pn_polytope

        with pytest.raises(TypeError, match="0.1"):
            polytope(cycle(4), [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(TypeError, match="0.125"):
            pn_polytope([0.125, 0.125, 0.25, 0.5])
        with pytest.raises(TypeError, match="0.25"):
            optimize_over(path(3), [0.25, 0.25, 0.5], [1, 2, 3])

    def test_json_round_trip(self, rho3):
        assert PopulationVector.from_json(rho3.to_json()) == rho3
        assert rho3.to_json() == ["0/1", "2/7", "5/7"]

    def test_rational_formats(self):
        assert parse_rational(" 2/7 ") == Fraction(2, 7)
        assert parse_rational("0.25") == Fraction(1, 4)
        assert format_rational(Fraction(3)) == "3/1"

    def test_zero_denominator_is_a_value_error(self):
        from diffpoly.optimize import Objective

        with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
            PopulationVector(["1/0", "1"])
        with pytest.raises(ValueError, match="weight '1/0' has a zero denominator"):
            Objective(("1/0", 2))
        with pytest.raises(ValueError, match="'3/0' has a zero denominator"):
            parse_rational("3/0")


class TestGraph:
    def test_complete_edge_count(self):
        assert len(complete(4).edges) == 6

    def test_cycle3_equals_complete3(self):
        assert cycle(3).edges == complete(3).edges

    def test_path_edges(self):
        assert path(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_helium_edges(self):
        assert helium_p5().edges == frozenset({(1, 3), (1, 5), (3, 4), (2, 5)})

    def test_grid_composition_counts(self):
        g = grid_composition(3, 2)
        assert (g.n, len(g.edges)) == (6, 11)

    def test_grid_composition_is_composition(self):
        # independent adjacency rule: outer indices adjacent, or equal
        # outer and adjacent inner
        m, n = 4, 3
        g = grid_composition(m, n)

        def num(i, j):
            return (i - 1) * n + j

        expected = set()
        for i1 in range(1, m + 1):
            for j1 in range(1, n + 1):
                for i2 in range(1, m + 1):
                    for j2 in range(1, n + 1):
                        if (i1, j1) >= (i2, j2):
                            continue
                        if abs(i1 - i2) == 1 or (i1 == i2 and abs(j1 - j2) == 1):
                            a, b = num(i1, j1), num(i2, j2)
                            expected.add((min(a, b), max(a, b)))
        assert g.edges == frozenset(expected)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="graph must be connected"):
            DiffusionGraph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="graph must be connected"):
            DiffusionGraph.from_edges(3, [(1, 2)])

    def test_single_vertex_is_connected(self):
        assert DiffusionGraph.from_edges(1, []).n == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            DiffusionGraph.from_edges(3, [(1, 1), (1, 2), (2, 3)])

    @pytest.mark.parametrize("n, edges, message", [
        (0, frozenset(), "at least one vertex"),
        (3, frozenset({(2, 1)}), "bad edge"),
        (3, frozenset({(1, 4)}), "bad edge"),
    ])
    def test_malformed_graph_rejected(self, n, edges, message):
        with pytest.raises(ValueError, match=message):
            DiffusionGraph(n, edges)

    def test_long_path_builds_without_recursion(self):
        # far beyond the default recursion limit: the connectivity walk keeps its own stack
        g = path(5000)
        assert g.induced_connected(g.vertices())
        assert not g.induced_connected(v for v in g.vertices() if v != 2500)

    def test_builders_reject_small(self):
        with pytest.raises(ValueError):
            path(1)
        with pytest.raises(ValueError):
            cycle(2)

    def test_json_round_trip(self):
        g = helium_p5()
        assert DiffusionGraph.from_json(json.loads(json.dumps(g.to_json()))) == g


class TestApply:
    def test_pair_average(self, rho3):
        assert apply_op(PairOp.of(1, 2), rho3) == pv("1/7", "1/7", "5/7")

    def test_pair_fixed_point(self):
        u = uniform_vector(3)
        assert apply_op(PairOp.of(1, 2), u) == u

    def test_block_full_average(self, rho3):
        assert apply_op(BlockOp((1, 2, 3)), rho3) == uniform_vector(3)

    def test_invalid_edge_rejected(self, rho3):
        with pytest.raises(ValueError):
            apply_op(PairOp.of(1, 3), rho3, graph=path(3))

    def test_disconnected_block_rejected(self, rho3):
        graph = DiffusionGraph.from_edges(3, [(1, 3), (2, 3)])
        with pytest.raises(ValueError):
            apply_op(BlockOp((1, 2)), rho3, graph=graph)

    @pytest.mark.parametrize("op", [PairOp(1, 5), PairOp(3, 4), BlockOp((2, 5))],
                             ids=str)
    def test_label_beyond_state_rejected(self, op):
        with pytest.raises(ValueError, match=f"{op} needs level .*length 3"):
            apply_op(op, uniform_vector(3))

    @pytest.mark.parametrize("apply", [
        lambda rho: apply_op(PairOp.of(1, 2), rho),
        PairOp.of(1, 2).apply,
        BlockOp((1, 2)).apply,
    ], ids=["apply_op", "PairOp.apply", "BlockOp.apply"])
    def test_input_checked_not_image(self, apply):
        # the image (1/2, 1/2) is a valid state; the input is not
        with pytest.raises(ValueError, match="negative population"):
            apply((Fraction(-1, 2), Fraction(3, 2)))

    @pytest.mark.parametrize("call", [
        lambda: apply_sequence([PairOp.of(1, 2)], uniform_vector(3), path(2)),
        lambda: apply_sequence([], uniform_vector(2), path(3)),
        lambda: apply_op(PairOp.of(1, 2), uniform_vector(3), graph=path(2)),
    ], ids=["sequence", "empty-sequence", "apply_op"])
    def test_state_size_checked_against_graph(self, call):
        with pytest.raises(ValueError, match="population vector does not match the graph size"):
            call()

    def test_sequence_composition(self, rho3):
        seq = [PairOp.of(1, 2), PairOp.of(1, 3)]
        assert apply_sequence(seq, rho3) == pv("3/7", "1/7", "3/7")

    def test_sequence_identity(self, rho3):
        assert apply_sequence([], rho3) == rho3

    def test_full_reversal_sequence(self, rho3):
        seq = [PairOp.of(2, 3), PairOp.of(1, 3), PairOp.of(1, 2)]
        assert apply_sequence(seq, rho3) == pv("3/8", "3/8", "1/4")

    def test_sequence_matches_step_by_step_oracle(self, rho3):
        # recompute with plain fraction arithmetic, no library calls
        state = [Fraction(0), Fraction(2, 7), Fraction(5, 7)]
        for i, j in [(2, 3), (1, 3), (1, 2)]:
            m = (state[i - 1] + state[j - 1]) / 2
            state[i - 1] = m
            state[j - 1] = m
        seq = [PairOp.of(2, 3), PairOp.of(1, 3), PairOp.of(1, 2)]
        assert list(apply_sequence(seq, rho3)) == state


class TestSpread:
    def test_examples(self, rho3):
        assert spread(rho3) == Fraction(5, 7)
        assert spread(uniform_vector(4)) == 0

    @given(populations)
    def test_conservation_and_idempotence(self, rho):
        n = len(rho)
        ops = [PairOp.of(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        ops.append(BlockOp(tuple(range(1, n + 1))))
        for op in ops:
            image = op.apply(rho)
            assert sum(image) == 1
            assert op.apply(image) == image
            assert spread(image) <= spread(rho)

    @given(populations)
    def test_extreme_pair_contracts(self, rho):
        # averaging a min with a max strictly shrinks the spread when either
        # extreme value is unique; duplicated extremes outside the pair keep
        # the spread (only a full sweep removes them)
        i = min(range(len(rho)), key=lambda t: (rho[t], t)) + 1
        j = max(range(len(rho)), key=lambda t: (rho[t], t)) + 1
        if rho[i - 1] == rho[j - 1]:
            return
        image = PairOp.of(min(i, j), max(i, j)).apply(rho)
        unique_min = rho.count(min(rho)) == 1
        unique_max = rho.count(max(rho)) == 1
        if unique_min or unique_max:
            assert spread(image) < spread(rho)
        else:
            assert spread(image) <= spread(rho)

    @given(populations)
    def test_no_inversion(self, rho):
        # after averaging, the touched pair is exactly equal: order never flips
        n = len(rho)
        for i in range(1, n):
            image = PairOp.of(i, i + 1).apply(rho)
            assert image[i - 1] == image[i]


class TestSweep:
    def test_sweep_word_is_reversed_walk(self):
        g = path(4)
        word = sweep_word(g, BlockOp((1, 2, 3, 4)))
        assert list(word) == [PairOp.of(3, 4), PairOp.of(2, 3), PairOp.of(1, 2)]

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7])
    def test_sweeps_converge_to_block_average(self, size):
        rnd = random.Random(size)
        g = path(size)
        block = BlockOp(tuple(range(1, size + 1)))
        rho = PopulationVector.normalized(sorted(rnd.randrange(1, 1000) for _ in range(size)))
        target = block.apply(rho)
        assert all(c == sum(rho) / size for c in target)

        word = sweep_word(g, block)
        state = rho
        initial = spread(rho)
        previous = initial
        sweeps = 0
        # geometric but not factor-2 per sweep for blocks of 4+; the gap
        # strictly decreases every sweep and passes any threshold
        while spread(state) > initial / 2 ** 50:
            state = apply_sequence(word, state)
            sweeps += 1
            assert spread(state) < previous
            previous = spread(state)
            assert sweeps <= 400
        assert max(abs(a - b) for a, b in zip(state, target)) <= initial / 2 ** 50

    def test_sweep_on_non_path_block(self):
        g = cycle(4)
        block = BlockOp((1, 2, 4))  # connected through vertex 1
        word = sweep_word(g, block)
        rho = pv("1/10", "2/10", "3/10", "4/10")
        state = rho
        for _ in range(200):
            state = apply_sequence(word, state)
        target = block.apply(rho)
        assert max(abs(a - b) for a, b in zip(state, target)) < Fraction(1, 2 ** 60)

    def test_sweep_without_spanning_path(self):
        # a star has no spanning path, so the sweep cannot run along one
        g = DiffusionGraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        block = BlockOp((1, 2, 3, 4))
        word = sweep_word(g, block)
        assert list(word) == [PairOp.of(1, 4), PairOp.of(1, 3), PairOp.of(1, 2)]
        # the tree walk starts at the least vertex, takes neighbours in
        # increasing order and backtracks: 12, 23, 24, 45, then 16
        tree = DiffusionGraph.from_edges(6, [(1, 2), (2, 3), (2, 4), (4, 5), (1, 6)])
        assert str(sweep_word(tree, BlockOp(tuple(range(1, 7))))) == "B16B45B24B23B12"
        rho = pv("1/10", "2/10", "3/10", "4/10")
        state = rho
        for _ in range(200):
            state = apply_sequence(word, state)
        target = block.apply(rho)
        assert max(abs(a - b) for a, b in zip(state, target)) < Fraction(1, 2 ** 60)

    def test_long_block_sweeps_without_recursion(self):
        word = sweep_word(path(5000), BlockOp(tuple(range(1, 5001))))
        assert len(word) == 4999
        assert word[0] == PairOp(4999, 5000) and word[-1] == PairOp(1, 2)


class TestOps:
    def test_pair_op_validation(self):
        with pytest.raises(ValueError):
            PairOp(2, 2)
        assert PairOp.of(3, 1) == PairOp(1, 3)

    def test_block_requires_two(self):
        with pytest.raises(ValueError):
            BlockOp((2,))

    @pytest.mark.parametrize("labels", [(0, 1), (-1, 2), (0, 2, 3)])
    def test_block_rejects_labels_below_one(self, labels):
        # label 0 would average component n through negative indexing
        with pytest.raises(ValueError, match="labeled from 1"):
            BlockOp(labels)
        with pytest.raises(ValueError, match="labeled from 1"):
            op_from_json(["block", list(labels)])

    def test_block_canonical_order(self):
        assert BlockOp((3, 1, 2)).vertices == (1, 2, 3)

    def test_json_round_trip(self):
        seq = OperationSequence([PairOp.of(1, 2), BlockOp((1, 2, 3))])
        assert OperationSequence.from_json(seq.to_json()) == seq
        assert op_from_json(["pair", 2, 1]) == PairOp.of(1, 2)

    @pytest.mark.parametrize("kind, data", [
        ("op", ["pair", 1.5, 2]),
        ("op", ["pair", True, 2]),
        ("op", ["pair", 1, 2, 3]),
        ("op", ["pair", 1]),
        ("op", ("pair", 1, 2)),
        ("op", []),
        ("op", ["block", 5]),
        ("op", ["block", [1, 2.0]]),
        ("op", ["swap", 1, 2]),
        ("op", None),
        ("graph", {"n": 4.7, "edges": [[1, 2], [2, 3], [3, 4]]}),
        ("graph", {"n": 3, "edges": [[1, 2, 3]]}),
        ("graph", {"n": 2, "edges": [(1, 2)]}),
        ("graph", {"n": 2}),
        ("graph", [2, [[1, 2]]]),
        ("rho", "12"),
        ("rho", [1, 1]),
        ("rho", ("1/2", "1/2")),
        ("word", "B12"),
        ("word", None),
        ("word", [["pair", 1, 2], ["pair", 2]]),
    ])
    def test_json_decoders_reject_malformed_input(self, kind, data):
        decode = {"op": op_from_json, "graph": DiffusionGraph.from_json,
                  "rho": PopulationVector.from_json, "word": OperationSequence.from_json}[kind]
        with pytest.raises(ValueError, match="expected"):
            decode(data)

    @pytest.mark.parametrize("build", [
        lambda: PairOp.of(True, 2),
        lambda: PairOp(1.5, 2.5),
        lambda: BlockOp((1, 2.5)),
        lambda: BlockOp((True, 2)),
        lambda: DiffusionGraph.from_edges(3, [(1.0, 2.0), (2, 3)]),
        lambda: DiffusionGraph.from_edges(2.0, [(1, 2)]),
    ], ids=["pair-bool", "pair-float", "block-float", "block-bool", "graph-edge-float",
            "graph-n-float"])
    def test_labels_must_be_ints(self, build):
        # each would build, and then write JSON that its own decoder refuses
        with pytest.raises(ValueError, match="must be ints"):
            build()

    def test_str_forms(self):
        assert str(PairOp.of(1, 2)) == "B12"
        assert str(BlockOp((1, 2, 3))) == "B123"
        assert str(PairOp.of(9, 10)) == "B(9,10)"
        assert str(BlockOp((9, 10))) == "B(9,10)"
        assert str(OperationSequence()) == "id"

    def test_connected_blocks_on_cycle(self):
        blocks = connected_blocks(cycle(4))
        assert [b.vertices for b in blocks] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4),
        ]

    def test_one_neighbour_map_per_search(self, monkeypatch):
        g = complete(6)
        calls = []
        adjacency = DiffusionGraph.adjacency
        monkeypatch.setattr(DiffusionGraph, "adjacency",
                            lambda self: calls.append(1) or adjacency(self))
        assert len(connected_blocks(g)) == 42
        assert len(calls) == 1


def ops(n):
    """Pair and block operators on the labels 1..n."""
    labels = st.integers(1, n)
    return st.one_of(
        st.tuples(labels, labels).filter(lambda p: p[0] != p[1]).map(lambda p: PairOp.of(*p)),
        st.sets(labels, min_size=2).map(lambda vs: BlockOp(tuple(vs))),
    )


class TestTrustedImages:
    @given(populations.flatmap(lambda rho: st.tuples(st.just(rho), ops(len(rho)))))
    def test_image_equals_validated_vector(self, case):
        rho, op = case
        image = op.apply(rho)
        assert type(image) is PopulationVector
        assert image == PopulationVector(list(image))
        assert hash(image) == hash(PopulationVector(list(image)))
        # a plain tuple input takes the validating path and lands on the same state
        assert op.apply(tuple(rho)) == image

    @pytest.mark.parametrize("op", [PairOp.of(1, 2), BlockOp((1, 2, 3))])
    @pytest.mark.parametrize("bad", [
        (Fraction(1, 2), Fraction(1, 2), Fraction(1), Fraction(-1)),  # a negative component
        (Fraction(1, 2),) * 4,                                        # sums to 2
    ])
    def test_invalid_plain_inputs_still_raise(self, op, bad):
        with pytest.raises(ValueError):
            op.apply(bad)
        with pytest.raises(ValueError):
            op.apply(list(bad))

    @given(populations)
    def test_memoized_hash_is_the_tuple_hash(self, rho):
        fresh = PopulationVector(list(rho))
        assert hash(tuple(fresh)) == hash(fresh) == hash(fresh) == hash(tuple(fresh))
        image = PairOp.of(1, 2).apply(fresh)
        assert hash(image) == hash(tuple(image))

    def test_plain_tuples_find_equal_vectors(self, rho3):
        key = tuple(rho3)
        vec = PopulationVector(key)
        hash(vec)
        assert key in {vec} and vec in {key}
        assert {vec: "state"}[key] == "state" and {key: "tuple"}[vec] == "tuple"
        assert len({vec, key, PopulationVector(list(key))}) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: explore(path(3), pv("1/6", "1/3", "1/2"), max_depth=-1), "max_depth must be >= 0"),
    (lambda: BlockOp((3, 5)).validate(path(4)), r"block \(3, 5\) exceeds vertex range"),
    (lambda: subset_point({5}, PopulationVector.normalized([1, 2, 3, 4])),
     r"subset \[5\] out of range for n=4"),
    (lambda: PopulationVector.normalized([0, 0]), "cannot normalize a non-positive total"),
    (lambda: complete(1), "complete graph needs n >= 2"),
    (lambda: grid_composition(1, 2), "grid composition needs m >= 2, n >= 1"),
], ids=["explore-depth", "block-range", "subset-range", "normalize-zero", "complete-1",
        "grid-1x2"])
def test_input_errors_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()

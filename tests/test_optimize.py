import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from diffpoly.core import (
    DiffusionGraph,
    PairOp,
    PopulationVector,
    complete,
    cycle,
    format_rational,
    helium_p5,
    path,
    uniform_vector,
)
from diffpoly import enumeration, geometry, optimize
from diffpoly.enumeration import ClassifiedVertex, PolytopeConfig, polytope
from diffpoly.geometry import FacetHull, IncrementalHull
from diffpoly.optimize import (
    EnergyReport,
    Objective,
    energy,
    exponential_populations,
    gardner_limit,
    monotone_extremal_check,
    optimize_over,
)

from diffpoly.structured import kn_extreme_points, pn_polytope

from conftest import random_population, random_sorted_population


def pv(*comps):
    return PopulationVector(comps)


class TestObjective:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Objective((0, 1, 2))

    def test_rejects_ties(self):
        with pytest.raises(ValueError):
            Objective((1, 1, 2))

    def test_rejects_float_weights(self, rho3):
        # 0.1 would become 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError, match="0.1"):
            Objective((0.1, 2, 3))
        with pytest.raises(TypeError, match="2.5"):
            energy((1, 2.5, 3), rho3)
        with pytest.raises(TypeError, match="0.3"):
            gardner_limit((1, 2, 0.3), rho3)
        with pytest.raises(TypeError, match="0.1"):
            optimize_over(path(3), rho3, (0.1, 0.2, 0.3))
        with pytest.raises(TypeError, match="3.0"):
            monotone_extremal_check([PairOp.of(1, 2)], (1, 2, 3.0), rho3)

    def test_exact_weights_accepted(self):
        from decimal import Decimal

        w = Objective((1, Fraction(3, 2), Decimal("2.5"), "7/2"))
        assert w.weights == (1, Fraction(3, 2), Fraction(5, 2), Fraction(7, 2))
        assert all(type(x) is Fraction for x in w.weights)


class TestEnergy:
    def test_uniform_state(self):
        assert energy((1, 2, 3), uniform_vector(3)) == 2

    def test_direct_value(self, rho3):
        assert energy((1, 2, 3), rho3) == Fraction(19, 7)

    def test_dimension_mismatch(self, rho3):
        with pytest.raises(ValueError):
            energy((1, 2), rho3)

    @pytest.mark.parametrize("call, error, match", [
        (lambda: energy((1, 2), [0.5, 0.5]), TypeError, "0.5"),
        (lambda: energy((1, 2), [Fraction(3), Fraction(-2)]), ValueError, "negative population"),
        (lambda: gardner_limit((1, 2), [5, -3]), ValueError, "negative population"),
    ], ids=["energy-float", "energy-negative", "gardner-negative"])
    def test_state_is_checked(self, call, error, match):
        # a state is what PopulationVector accepts: no float, nothing negative
        with pytest.raises(error, match=match):
            call()

    def test_gardner_is_rearrangement_minimum(self):
        rnd = random.Random(40)
        for n in (3, 4, 5):
            rho = random_population(rnd, n)
            w = tuple(rnd.sample(range(1, 60), n))
            brute = min(
                sum(a * b for a, b in zip(w, perm)) for perm in permutations(rho)
            )
            assert gardner_limit(w, rho) == brute

    def test_gardner_trivial_cases(self, rho3):
        assert gardner_limit((1, 2, 3), rho3) == energy((1, 2, 3), pv("5/7", "2/7", "0"))
        u = uniform_vector(4)
        assert gardner_limit((1, 2, 3, 4), u) == energy((1, 2, 3, 4), u)


class TestExponentialPopulations:
    def test_exact_normalization_and_order(self):
        rho = exponential_populations(4)
        assert sum(rho) == 1
        assert list(rho) == sorted(rho)

    def test_matches_float_ratio(self):
        import math

        rho = exponential_populations(4)
        total = sum(math.e ** i for i in range(1, 5))
        for i, c in enumerate(rho, start=1):
            assert abs(float(c) - math.e ** i / total) < 1e-12

    def test_deterministic(self):
        assert exponential_populations(4) == exponential_populations(4)

    def test_minimum_digits(self):
        with pytest.raises(ValueError):
            exponential_populations(4, digits=10)

    def test_minimum_levels(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            exponential_populations(0)


class TestOptimizeOver:
    def test_report_refuses_energies_out_of_order(self, monkeypatch, rho3):
        # a Gardner bound above the optimum breaks gardner <= optimal <= initial
        monkeypatch.setattr(optimize, "gardner_limit", lambda w, rho0: energy(w, rho0) + 1)
        with pytest.raises(AssertionError, match="energy ordering violated"):
            optimize_over(path(3), rho3, (1, 2, 3))

    def test_report_refuses_a_recovered_fraction_outside_the_unit_interval(self, rho3):
        # energies in order give optimize_over a fraction in [0, 1]: only a
        # report built with another fraction reaches this check
        report = optimize_over(path(3), rho3, (1, 2, 3))
        with pytest.raises(AssertionError, match=r"recovered fraction out of \[0, 1\]"):
            replace(report, recovered_fraction=Fraction(3, 2))

    def test_uniform_start_recovers_nothing(self):
        report = optimize_over(complete(3), uniform_vector(3), (1, 2, 3))
        assert report.recovered_fraction == 0
        assert report.optimal_energy == report.initial_energy

    def test_stopping_state_recovers_nothing(self):
        # anti-sorted populations against increasing weights: already optimal
        rho = pv("6/10", "3/10", "1/10")
        report = optimize_over(complete(3), rho, (1, 2, 3))
        assert report.recovered_fraction == 0

    def test_ordered_path_optimum_is_uniform(self):
        rnd = random.Random(41)
        rho = random_sorted_population(rnd, 4)
        for method in ("enumerate", "structured"):
            report = optimize_over(path(4), rho, (1, 2, 3, 4), method=method)
            assert [v.point for v in report.optimal_vertices] == [uniform_vector(4)]

    def test_methods_agree_on_the_complete_graph(self):
        rnd = random.Random(42)
        rho = random_sorted_population(rnd, 4)
        w = (3, 5, 7, 11)
        a = optimize_over(complete(4), rho, w, method="enumerate",
                          config=PolytopeConfig(use_blocks=False, classify=False))
        b = optimize_over(complete(4), rho, w, method="structured")
        assert a.optimal_energy == b.optimal_energy
        assert [v.point for v in a.optimal_vertices] == [v.point for v in b.optimal_vertices]

    def test_energy_ordering_invariant(self):
        rnd = random.Random(43)
        for _ in range(20):
            n = rnd.randrange(2, 5)
            rho = random_population(rnd, n)
            w = tuple(rnd.sample(range(1, 40), n))
            report = optimize_over(complete(n), rho, w,
                                   config=PolytopeConfig(use_blocks=False, classify=False))
            assert report.gardner_energy <= report.optimal_energy <= report.initial_energy
            assert 0 <= report.recovered_fraction <= 1

    def test_truncated_run_is_flagged(self, rho3):
        report = optimize_over(path(3), rho3, (1, 2, 3),
                               config=PolytopeConfig(max_depth=1, use_blocks=False,
                                                     classify=False))
        assert report.lower_bound_only
        assert report.completeness == "depth-bounded"

    def test_helium_report_is_certified_complete(self):
        rnd = random.Random(44)
        rho = random_sorted_population(rnd, 5)
        w = (1, 2, 3, 4, 5)
        report = optimize_over(helium_p5(), rho, w)
        assert report.completeness == "proven"
        assert not report.lower_bound_only
        assert report.gardner_energy <= report.optimal_energy < report.initial_energy

    def test_one_vertex_graph(self):
        graph = DiffusionGraph(1, frozenset())
        for method in ("enumerate", "structured"):
            report = optimize_over(graph, [1], (1,), method=method)
            assert [v.point for v in report.optimal_vertices] == [pv(1)]
            assert report.optimal_energy == report.initial_energy == 1
            assert report.completeness == "proven"
        assert report.optimal_vertices[0].kind == "nonlocal"

    def test_structured_path_needs_sorted_populations(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            optimize_over(path(3), pv("1/2", "1/3", "1/6"), (1, 2, 3), method="structured")

    def test_structured_needs_known_graph(self, rho3):
        with pytest.raises(ValueError):
            optimize_over(helium_p5(), uniform_vector(5), (1, 2, 3, 4, 5),
                          method="structured")

    def test_interior_samples_never_beat_the_optimum(self):
        rnd = random.Random(45)
        rho = random_sorted_population(rnd, 4)
        w = (1, 2, 3, 4)
        report = optimize_over(cycle(4), rho, w)
        points = [v.point for v in report.optimal_vertices]
        verts = polytope(cycle(4), rho, PolytopeConfig(classify=False)).points()
        for _ in range(100):
            weights = [rnd.randrange(0, 10) for _ in verts]
            if sum(weights) == 0:
                weights[0] = 1
            total = sum(weights)
            mix = PopulationVector(
                sum(Fraction(wi, total) * v[t] for wi, v in zip(weights, verts))
                for t in range(4)
            )
            assert energy(w, mix) >= report.optimal_energy

    @pytest.mark.parametrize("method", ["enumerate", "structured"])
    def test_population_size_checked_before_any_search(self, monkeypatch, method):
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(enumeration, "_saturating_bfs", no_search)
        with pytest.raises(ValueError, match="population vector does not match the graph size"):
            optimize_over(complete(4), pv("1/3", "1/3", "1/3"), (1, 2, 3, 4), method=method)

    def test_weight_size_checked(self, rho3):
        with pytest.raises(ValueError, match="weight/state dimension mismatch"):
            optimize_over(path(3), rho3, (1, 2))

    def test_unknown_method(self, rho3):
        with pytest.raises(ValueError, match="unknown method"):
            optimize_over(path(3), rho3, (1, 2, 3), method="simplex")

    def test_structured_takes_no_config(self, rho3):
        with pytest.raises(ValueError, match="takes no config"):
            optimize_over(complete(3), rho3, (1, 2, 3), method="structured",
                          config=PolytopeConfig(max_depth=2))

    def test_tied_least_points_keep_only_the_vertices(self, monkeypatch):
        # three states of the search's hull attain the optimum 2; the
        # midpoint of the other two is hidden and must not be reported.
        # Only the tie reads the hull's vertices, once
        tied = []
        vertices = FacetHull._vertices

        def counting(hull):
            found = vertices(hull)
            tied.append(sorted(hull._images[q].point() for q in found))
            return found

        monkeypatch.setattr(FacetHull, "_vertices", counting)
        report = optimize_over(path(3), PopulationVector.normalized([0, 5, 4]), (1, 3, 2))
        assert report.optimal_energy == 2
        assert [v.point for v in report.optimal_vertices] == [
            pv("1/4", "1/4", "1/2"), pv("1/3", "1/3", "1/3"),
        ]
        (listed,) = tied
        assert pv("5/18", "5/18", "4/9") not in listed
        assert {pv("1/4", "1/4", "1/2"), pv("1/3", "1/3", "1/3")} <= set(listed)

    def test_search_is_looked_up_on_the_enumeration_module(self, monkeypatch):
        # per-layer instrumentation wraps these module attributes: a name
        # bound at import time would bypass the wrapper
        calls = []
        search, classify = enumeration._saturating_bfs, enumeration._classify

        def counting_search(*args):
            calls.append("search")
            return search(*args)

        def counting_classify(*args):
            calls.append("classify")
            return classify(*args)

        monkeypatch.setattr(enumeration, "_saturating_bfs", counting_search)
        monkeypatch.setattr(enumeration, "_classify", counting_classify)
        optimize_over(cycle(4), pv("1/10", "2/10", "3/10", "4/10"), (1, 2, 3, 4),
                      config=PolytopeConfig(classify=True))
        assert calls == ["search", "classify"]

    def test_matches_the_argmin_of_the_polytope_vertex_list(self):
        # minimizing over the search's hull reports what the certified
        # vertex list gives: the same optimum, points, words and kinds
        rnd = random.Random(46)
        fractions = sorted({Fraction(a, b) for a in range(1, 8) for b in (1, 2, 3)})
        for i in range(40):
            n = rnd.choice((3, 4))
            while True:
                edges = [e for e in combinations(range(1, n + 1), 2) if rnd.random() < 0.6]
                try:
                    graph = DiffusionGraph.from_edges(n, edges)
                    break
                except ValueError:  # disconnected: draw again
                    pass
            bound = 4 if i % 3 else 50  # small bounds tie populations
            rho = random_population(rnd, n, bound)
            w = tuple(rnd.sample(fractions, n))
            cfg = PolytopeConfig(max_depth=rnd.choice((None, None, 2)), classify=i % 2 == 0)
            report = optimize_over(graph, rho, w, config=cfg).to_json()
            result = polytope(graph, rho, cfg)
            values = [energy(w, v.point) for v in result.vertices]
            best = min(values)
            assert report["optimal_energy"] == format_rational(best)
            assert report["optimal_vertices"] == [
                v.to_json() for v, val in zip(result.vertices, values) if val == best
            ]
            assert report["completeness"] == result.completeness

    def test_structured_matches_the_argmin_of_the_certified_vertex_lists(self):
        # the structured route minimizes over a spanning set; the reference
        # report takes the argmin over the certified vertex list instead
        cases = [
            (graph, PopulationVector.normalized(pops), w)
            for pops in product(range(3), repeat=3) if any(pops)
            for w in permutations((1, 2, 3))
            for graph in [complete(3)] + ([path(3)] if list(pops) == sorted(pops) else [])
        ]
        rnd = random.Random(48)
        for i in range(40):
            pops = [rnd.randrange(0, 3) for _ in range(4)]
            pops[i % 4] += 1
            graph = complete(4) if i % 2 else path(4)
            pops = pops if i % 2 else sorted(pops)
            cases.append((graph, PopulationVector.normalized(pops), tuple(rnd.sample((1, 2, 3, 4), 4))))
        tied = 0
        for graph, rho, w in cases:
            if graph == complete(graph.n):
                vertices = [ClassifiedVertex(point=p, sequence=seq, kind="nonlocal")
                            for p, seq in kn_extreme_points(rho)]
            else:
                vertices = [ClassifiedVertex(point=v.point, sequence=v.sequence, kind=v.kind)
                            for v in pn_polytope(rho).vertices]
            values = [energy(w, v.point) for v in vertices]
            best = min(values)
            optimal = tuple(v for v, val in zip(vertices, values) if val == best)
            tied += len(optimal) > 1
            e0, gardner = energy(w, rho), gardner_limit(w, rho)
            expected = EnergyReport(
                graph=graph, rho0=rho, weights=tuple(map(Fraction, w)), initial_energy=e0,
                optimal_energy=best, gardner_energy=gardner,
                recovered_fraction=Fraction(0) if e0 == gardner else (e0 - best) / (e0 - gardner),
                optimal_vertices=optimal, method="structured", completeness="proven",
                lower_bound_only=False,
            )
            report = optimize_over(graph, rho, w, method="structured")
            assert json.dumps(report.to_json()) == json.dumps(expected.to_json())
        assert tied >= 20

    @pytest.mark.parametrize("graph, pops, w, optimal", [
        (complete(5), (1, 3, 5, 8, 14), (1, 2, 3, 4, 5), 1),
        (path(8), (1, 2, 3, 5, 8, 13, 21, 34), (3, 1, 4, 8, 5, 7, 2, 6), 1),
        (complete(4), (3, 2, 0, 2), (3, 2, 1, 4), 2),
        (path(5), (0, 1, 1, 3, 4), (4, 3, 1, 5, 2), 2),
    ], ids=[f"graph{i}-pops{i}-w{i}" for i in range(4)])  # ids by position, without the count
    def test_structured_route_builds_no_vertex_list(self, monkeypatch, graph, pops, w, optimal):
        # a unique least point of a spanning set is a vertex; tied ones are
        # sorted by the facet hull of the ties: no walk hull, no scan, no LP
        calls = []
        init, vertices = IncrementalHull.__init__, IncrementalHull.vertices
        phase_one = geometry._phase_one

        def counting_init(hull, points):
            calls.append("hull")
            init(hull, points)

        def counting_vertices(hull):
            calls.append("vertices")
            return vertices(hull)

        def counting_phase_one(*args, **kwargs):
            calls.append("lp")
            return phase_one(*args, **kwargs)

        monkeypatch.setattr(IncrementalHull, "__init__", counting_init)
        monkeypatch.setattr(IncrementalHull, "vertices", counting_vertices)
        monkeypatch.setattr(geometry, "_phase_one", counting_phase_one)
        report = optimize_over(graph, PopulationVector.normalized(pops), w, method="structured")
        assert len(report.optimal_vertices) == optimal
        assert calls == []

    def test_json_fields(self, rho3):
        report = optimize_over(complete(3), rho3, (1, 2, 3))
        data = report.to_json()
        assert data["recovered_fraction"].count("/") == 1
        assert set(data["display"]) == {
            "initial_energy", "optimal_energy", "gardner_energy", "recovered_fraction",
        }
        assert data["optimal_vertices"][0]["sequence"] is not None


class TestMonotoneCheck:
    def test_reference_sequence(self, rho3):
        seq = [PairOp.of(2, 3), PairOp.of(1, 3), PairOp.of(1, 2)]
        # prefix energies with w=(1,2,3): 19/7 > 5/2 > 2 > 15/8
        energies = [Fraction(19, 7), Fraction(5, 2), Fraction(2), Fraction(15, 8)]
        state = rho3
        got = [energy((1, 2, 3), state)]
        for op in seq:
            state = op.apply(state)
            got.append(energy((1, 2, 3), state))
        assert got == energies
        assert monotone_extremal_check(seq, (1, 2, 3), rho3)

    def test_empty_sequence(self, rho3):
        assert monotone_extremal_check([], (1, 2, 3), rho3)

    def test_weights_validated_once(self, monkeypatch, rho3):
        built = []
        post_init = Objective.__post_init__

        def counting(obj):
            built.append(obj)
            post_init(obj)

        monkeypatch.setattr(Objective, "__post_init__", counting)
        seq = [PairOp.of(2, 3), PairOp.of(1, 3), PairOp.of(1, 2)]
        assert monotone_extremal_check(seq, (1, 2, 3), rho3)
        assert len(built) == 1
        optimize_over(complete(3), rho3, (1, 2, 3), method="structured")
        assert len(built) == 2

    def test_energy_raising_op_detected(self):
        rho = pv("6/10", "3/10", "1/10")  # anti-sorted: averaging raises f
        assert not monotone_extremal_check([PairOp.of(1, 3)], (1, 2, 3), rho)

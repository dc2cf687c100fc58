"""
Named verification suites: every quantitative claim the library is built
around, run end to end with exact arithmetic.  The CLI exposes them as
``diffpoly verify <suite>``; the test suite runs the same functions.

A subtlety worth knowing: the classical 18-entry vertex table for the
four-cycle is exact for evenly spaced initial populations (the instance
`c4-reference-table` pins down), but for strictly generic increasing
populations the polytope has 19 to 21 vertices -- extra extreme points
whose generating sequences are absent from the table, with membership in
the vertex set switching on sign conditions in the initial gaps.  The
`c4-analysis` check certifies that behavior explicitly.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import (
    BlockOp,
    DiffusionGraph,
    PairOp,
    PopulationVector,
    apply_sequence,
    complete,
    cycle,
    path,
    spread,
    uniform_vector,
)
from .enumeration import (
    PolytopeConfig,
    explore,
    graph_ops,
    polytope,
    triangle_decomposition,
)
from .geometry import hull_membership
from .optimize import (
    energy,
    exponential_populations,
    monotone_extremal_check,
    optimize_over,
)
from .structured import (
    count_commuting_subsets,
    decompose_step,
    fibonacci,
    fibonacci_nonlocal_count,
    kn_extreme_points,
    pn_polytope,
)
from .structured.ordered_path import triangular

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, True, detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, False, detail)


def _random_sorted_rho(rnd: random.Random, n: int, lo: int = 1, hi: int = 10 ** 6,
                       strict: bool = True) -> PopulationVector:
    while True:
        vals = sorted(rnd.sample(range(lo, hi), n) if strict else
                      [rnd.randrange(lo, hi) for _ in range(n)])
        if sum(vals) > 0:
            return PopulationVector.normalized(vals)


def _pv(*comps: str) -> PopulationVector:
    return PopulationVector(comps)


# --- three-level complete graph ------------------------------------------

K3_RHO0 = _pv("0", "2/7", "5/7")

# the seven vertices, as words over the initial state's labels
K3_VERTEX_WORDS = [
    [],
    [(1, 2)],
    [(2, 3)],
    [(1, 2), (1, 3)],
    [(2, 3), (1, 3)],
    [(1, 2), (1, 3), (2, 3)],
    [(2, 3), (1, 3), (1, 2)],
]

K3_VERTICES = [
    _pv("0", "2/7", "5/7"),
    _pv("1/7", "1/7", "5/7"),
    _pv("0", "1/2", "1/2"),
    _pv("3/7", "1/7", "3/7"),
    _pv("1/4", "1/2", "1/4"),
    _pv("3/7", "2/7", "2/7"),
    _pv("3/8", "3/8", "1/4"),
]


def check_k3(n: int | None = None) -> CheckResult:
    name = "k3-vertices"
    t0 = time.monotonic()
    expected = sorted(K3_VERTICES)
    for word, point in zip(K3_VERTEX_WORDS, K3_VERTICES):
        seq = [PairOp.of(i, j) for i, j in word]
        if apply_sequence(seq, K3_RHO0) != point:
            return _fail(name, f"vertex word {word} does not reproduce {point}")
    enum = polytope(complete(3), K3_RHO0)
    structured = kn_extreme_points(K3_RHO0)
    elapsed = time.monotonic() - t0
    if enum.points() != expected:
        return _fail(name, f"enumeration produced {len(enum.vertices)} vertices, wanted 7")
    if sorted(p for p, _ in structured) != expected:
        return _fail(name, "commutation-class construction disagrees")
    if enum.completeness != "proven":
        return _fail(name, "completeness not certified")
    if elapsed >= 1.0:
        return _fail(name, f"took {elapsed:.2f}s (budget 1s)")
    return _ok(name, f"7 vertices, both routes agree, {elapsed:.2f}s")


# --- three-level restricted graphs ----------------------------------------

P3_CASES = {
    "a": ([(1, 2), (2, 3)], 4, {"asymptotic": 1, "nonlocal": 3}),
    "b": ([(1, 2), (1, 3)], 4, {"asymptotic": 1, "nonlocal": 3}),
    "c": ([(1, 3), (2, 3)], 5, {"local_finite": 2, "nonlocal": 3}),
}

P3_EXPECTED_POINTS = {
    "a": [_pv("0", "2/7", "5/7"), _pv("1/7", "1/7", "5/7"), _pv("0", "1/2", "1/2"),
          _pv("1/3", "1/3", "1/3")],
    "b": [_pv("0", "2/7", "5/7"), _pv("1/7", "1/7", "5/7"), _pv("3/7", "1/7", "3/7"),
          _pv("1/3", "1/3", "1/3")],
    "c": [_pv("0", "2/7", "5/7"), _pv("5/14", "2/7", "5/14"), _pv("0", "1/2", "1/2"),
          _pv("5/14", "9/28", "9/28"), _pv("1/4", "1/2", "1/4")],
}


def check_p3_cases(n: int | None = None) -> CheckResult:
    name = "p3-cases"
    t0 = time.monotonic()
    for label, (edges, count, kinds) in P3_CASES.items():
        graph = DiffusionGraph.from_edges(3, edges)
        result = polytope(graph, K3_RHO0)
        if result.points() != sorted(P3_EXPECTED_POINTS[label]):
            return _fail(name, f"case ({label}) vertex set mismatch")
        if len(result.vertices) != count or result.kinds() != kinds:
            return _fail(name, f"case ({label}): got {result.kinds()}, wanted {kinds}")
        if result.completeness != "proven":
            return _fail(name, f"case ({label}) not certified complete")
        uniform = uniform_vector(3)
        has_uniform = uniform in set(result.points())
        if label in ("a", "b") and not has_uniform:
            return _fail(name, f"case ({label}) lost the uniform vertex")
    elapsed = time.monotonic() - t0
    if elapsed >= 1.0:
        return _fail(name, f"took {elapsed:.2f}s (budget 1s)")
    return _ok(name, f"cases a/b/c give 4/4/5 vertices with expected kinds, {elapsed:.2f}s")


# --- ordered path hypercube -----------------------------------------------


def check_pn(n: int | None = None) -> CheckResult:
    name = "ordered-path-hypercube"
    n_max = n or 7
    rnd = random.Random(20260808)
    t0 = time.monotonic()
    for size in range(3, n_max + 1):
        rho0 = _random_sorted_rho(rnd, size)
        pn = pn_polytope(rho0)
        if len(pn.vertices) != 2 ** (size - 1):
            return _fail(name, f"n={size}: {len(pn.vertices)} vertices != 2^{size-1}")
        if not all(c.is_extreme for c in pn.certificates):
            return _fail(name, f"n={size}: certification failed")
        labels = {v.subset for v in pn.vertices}
        for v in pn.vertices:
            neighbors = [other for other in pn.neighbors(v.subset) if other in labels]
            if len(neighbors) != size - 1:
                return _fail(name, f"n={size}: vertex {sorted(v.subset)} has "
                                   f"{len(neighbors)} neighbors, wanted {size - 1}")
        if size <= 5:
            enum = polytope(path(size), rho0, PolytopeConfig(classify=False))
            if enum.points() != sorted(v.point for v in pn.vertices):
                return _fail(name, f"n={size}: enumeration oracle disagrees")
            if enum.completeness != "proven":
                return _fail(name, f"n={size}: enumeration not certified complete")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        return _fail(name, f"took {elapsed:.1f}s (budget 60s)")
    return _ok(name, f"2^(n-1) certified vertices with flip adjacency for n=3..{n_max}, "
                     f"oracle match for n<=5, {elapsed:.1f}s")


# --- counting --------------------------------------------------------------


def check_counts(n: int | None = None) -> CheckResult:
    name = "fibonacci-counts"
    n_max = max(n or 12, 8)
    rnd = random.Random(4)
    for size in range(3, 9):
        if fibonacci_nonlocal_count(size) != fibonacci(size + 1):
            return _fail(name, f"closed form broke at n={size}")
    for size in range(3, 7):
        pn = pn_polytope(_random_sorted_rho(rnd, size))
        direct = sum(1 for v in pn.vertices if v.kind == "nonlocal")
        if direct != fibonacci(size + 1):
            return _fail(name, f"direct classification at n={size}: {direct} != F({size+1})")
    for size in range(3, n_max + 1):
        if count_commuting_subsets(size, 2) != triangular(size - 3):
            return _fail(name, f"pair count at n={size} is not T({size-3})")
    return _ok(name, f"F(n+1) for n=3..8 (direct n<=6), triangular identity to n={n_max}")


# --- four-cycle ------------------------------------------------------------

C4_RHO0 = _pv("1/10", "2/10", "3/10", "4/10")

C4_REFERENCE_TABLE = {
    "complete-graph": [
        [], [(1, 2)], [(2, 3)], [(3, 4)], [(1, 2), (3, 4)], [(1, 2), (3, 4), (1, 4)],
    ],
    "shared-path": [[(1, 2, 3)], [(2, 3, 4)]],
    "cycle-only": [
        [(1, 2, 3), (1, 4)],
        [(2, 3, 4), (1, 4)],
        [(1, 2, 3), (1, 2, 4)],
        [(2, 3, 4), (1, 3, 4)],
        [(1, 2), (3, 4), (1, 3, 4)],
        [(1, 2), (3, 4), (1, 2, 4)],
        [(2, 3, 4), (1, 4), (1, 2)],
        [(1, 2, 3), (1, 4), (2, 3, 4)],
        [(2, 3, 4), (1, 4), (1, 2, 3)],
        [(1, 2, 3), (2, 3), (1, 4), (3, 4)],
    ],
}


def _c4_table_points(rho0: PopulationVector) -> dict[str, list[PopulationVector]]:
    out: dict[str, list[PopulationVector]] = {}
    for group, words in C4_REFERENCE_TABLE.items():
        pts = []
        for word in words:
            ops = [PairOp.of(*w) if len(w) == 2 else BlockOp(w) for w in word]
            pts.append(apply_sequence(ops, rho0))
        out[group] = pts
    return out


def check_c4_table(n: int | None = None) -> CheckResult:
    """Evenly spaced populations reproduce the 18-entry table, split 6/2/10."""
    name = "c4-reference-table"
    t0 = time.monotonic()
    result = polytope(cycle(4), C4_RHO0)
    table = _c4_table_points(C4_RHO0)
    table_all = sorted(p for pts in table.values() for p in pts)
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        return _fail(name, f"took {elapsed:.1f}s (budget 120s)")
    if len(table_all) != 18:
        return _fail(name, "reference table did not produce 18 distinct points")
    if result.completeness != "proven":
        return _fail(name, "search did not saturate")
    if len(result.vertices) != 18 or result.points() != table_all:
        extra = sorted(set(result.points()) - set(table_all))
        missing = sorted(set(table_all) - set(result.points()))
        return _fail(
            name,
            f"search found {len(result.vertices)} certified vertices, not 18 "
            f"({len(extra)} beyond the table, {len(missing)} table entries interior); "
            f"see c4-analysis",
        )
    kind_of = {v.point: v.kind for v in result.vertices}
    if sorted(kind_of[p] for p in table["complete-graph"]) != ["nonlocal"] * 6:
        return _fail(name, "the 6 complete-graph rows are not all nonlocal vertices")
    pn_points = {v.point for v in pn_polytope(C4_RHO0).vertices}
    for p in table["shared-path"]:
        if kind_of[p] != "asymptotic" or p not in pn_points:
            return _fail(name, "shared-path rows must be asymptotic path-polytope vertices")
    others = [p for p in table["cycle-only"]]
    if len(others) != 10 or any(p in pn_points for p in others):
        return _fail(name, "cycle-only rows leaked into the path polytope")
    return _ok(name, f"18 vertices matching the reference table (6/2/10), {elapsed:.1f}s")


def check_c4_analysis(n: int | None = None) -> CheckResult:
    """
    Strictly generic gaps: the table misses extreme points.  Certified on a
    fixed sample where the only change is one extra vertex, the image of
    two overlapping blocks followed by a pair averaging.
    """
    name = "c4-analysis"
    t0 = time.monotonic()
    rho0 = PopulationVector.normalized([139717, 187488, 241448, 260500])
    result = polytope(cycle(4), rho0)
    table = _c4_table_points(rho0)
    table_all = {p for pts in table.values() for p in pts}
    points = set(result.points())

    if result.completeness != "proven":
        return _fail(name, "search did not saturate")
    if not table_all <= points:
        return _fail(name, "table points stopped being vertices on this sample")
    extras = sorted(points - table_all)
    extra_word = [BlockOp((2, 3, 4)), BlockOp((1, 3, 4)), PairOp.of(1, 2)]
    known_extra = apply_sequence(extra_word, rho0)
    if extras != [known_extra]:
        return _fail(name, f"expected exactly the doubled-block extra vertex, got {len(extras)}")
    v = next(v for v in result.vertices if v.point == known_extra)
    if v.kind != "asymptotic":
        return _fail(name, f"extra vertex classified {v.kind}")

    # evenly spaced gaps sit on the boundary where that point degenerates:
    even = _c4_table_points(C4_RHO0)
    even_pts = sorted(p for pts in even.values() for p in pts)
    degenerate = apply_sequence(extra_word, C4_RHO0)
    if not hull_membership(degenerate, even_pts).inside:
        return _fail(name, "doubled-block point should be interior for even spacing")
    elapsed = time.monotonic() - t0
    return _ok(
        name,
        f"generic gaps: 19 certified vertices = table + doubled-block point; "
        f"even spacing: that point is interior, {elapsed:.1f}s",
    )


# --- step decomposition witnesses ------------------------------------------


def check_step_witnesses(n: int | None = None) -> CheckResult:
    name = "step-witnesses"
    n_max = n or 6
    rnd = random.Random(31)
    t0 = time.monotonic()
    windows = 0
    total = 0
    for size in range(3, n_max + 1):
        positions = range(1, size)
        subsets = [frozenset(c) for k in range(size) for c in combinations(positions, k)]
        for trial in range(50):
            rho0 = _random_sorted_rho(rnd, size)
            for subset in subsets:
                for i in positions:
                    if i in subset:
                        continue
                    total += 1
                    dec = decompose_step(subset, i, rho0)
                    if not dec.verify():
                        return _fail(name, f"witness failed at n={size}, A={sorted(subset)}, i={i}")
                    if dec.case == "generic":
                        windows += 1
                        r1, r2, r3 = dec.ratios
                        if not (r2 > r1 and r3 > r1):
                            return _fail(
                                name,
                                f"window inequality failed at n={size}, A={sorted(subset)}, i={i}",
                            )
                        lo, hi = dec.window
                        if not (lo <= hi and all(0 <= l <= 1 for l in dec.lambdas)):
                            return _fail(name, f"window produced bad weights at n={size}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        return _fail(name, f"took {elapsed:.1f}s (budget 120s)")
    return _ok(name, f"{total} exact witnesses, {windows} with strict windows, {elapsed:.1f}s")


# --- triangle identities ----------------------------------------------------


def check_triangles(n: int | None = None) -> CheckResult:
    name = "triangle-identities"
    rnd = random.Random(12)
    t0 = time.monotonic()
    done = 0
    while done < 1000:
        vals = sorted(rnd.sample(range(1, 10 ** 6), 3))
        total = sum(vals)
        a, b, c = (Fraction(v, total) for v in vals)
        dec = triangle_decomposition(a, b, c)
        if not dec.verify():
            return _fail(name, f"identity failed for {(a, b, c)}")
        expected_branch = "upper" if a + c <= 2 * b else "lower"
        if dec.branch != expected_branch:
            return _fail(name, f"wrong branch for {(a, b, c)}")
        done += 1

    for graph in (complete(3), complete(4)):
        rho0 = _random_sorted_rho(rnd, graph.n)
        base = PolytopeConfig(use_blocks=False, classify=False)
        pruned = PolytopeConfig(use_blocks=False, classify=False, triangle_pruning=True)
        a_res = polytope(graph, rho0, base)
        b_res = polytope(graph, rho0, pruned)
        if a_res.points() != b_res.points():
            return _fail(name, f"pruning changed the vertex set on K{graph.n}")
        known = triangle_decomposition(*K3_RHO0)
        if known.branch != "lower" or known.lam != Fraction(3, 4):
            return _fail(name, "known decomposition value drifted")
    elapsed = time.monotonic() - t0
    return _ok(name, f"1000 identities exact, pruning-safe on K3/K4, {elapsed:.1f}s")


# --- energy recovery --------------------------------------------------------


def check_energy(n: int | None = None) -> CheckResult:
    name = "energy-recovery"
    t0 = time.monotonic()
    rho_e = exponential_populations(4)
    weights = (1, 2, 3, 4)
    runs = [
        ("complete", complete(4), "structured", 68),
        ("cycle", cycle(4), "enumerate", 63),
        ("path", path(4), "structured", 50),
    ]
    details = []
    for label, graph, method, expected in runs:
        report = optimize_over(graph, rho_e, weights, method=method)
        percent = report.recovered_fraction * 100
        if abs(percent - expected) > 1:
            return _fail(name, f"{label}: recovered {float(percent):.2f}%, wanted {expected}±1")
        if label == "path":
            if [v.point for v in report.optimal_vertices] != [uniform_vector(4)]:
                return _fail(name, "path optimum is not the uniform vector")
        details.append(f"{label} {float(percent):.1f}%")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        return _fail(name, f"took {elapsed:.1f}s (budget 120s)")
    return _ok(name, ", ".join(details) + f", {elapsed:.1f}s")


# --- randomized property suites ---------------------------------------------


def _random_connected_graph(rnd: random.Random, n: int) -> DiffusionGraph:
    all_edges = list(combinations(range(1, n + 1), 2))
    while True:
        edges = [e for e in all_edges if rnd.random() < 0.6]
        try:
            return DiffusionGraph.from_edges(n, edges)
        except ValueError:
            continue


def _random_rho(rnd: random.Random, n: int) -> PopulationVector:
    vals = [rnd.randrange(0, 50) for _ in range(n)]
    if sum(vals) == 0:
        vals[0] = 1
    return PopulationVector.normalized(vals)


def check_local_properties(n: int | None = None) -> CheckResult:
    """Conservation, idempotence, spread monotonicity, no inversion."""
    name = "properties-operators"
    rnd = random.Random(77)
    for _ in range(500):
        size = rnd.randrange(2, 6)
        graph = _random_connected_graph(rnd, size)
        rho = _random_rho(rnd, size)
        op = rnd.choice(graph_ops(graph, use_blocks=True))
        image = op.apply(rho)
        if sum(image) != 1:
            return _fail(name, "conservation failed")
        if op.apply(image) != image:
            return _fail(name, "idempotence failed")
        if spread(image) > spread(rho):
            return _fail(name, "spread increased")
        touched = op.support
        lo = min(rho[v - 1] for v in touched)
        hi = max(rho[v - 1] for v in touched)
        extremes_unique = rho.count(min(rho)) == 1 or rho.count(max(rho)) == 1
        if (lo == min(rho) and hi == max(rho) and lo != hi and extremes_unique
                and spread(image) >= spread(rho)):
            return _fail(name, "spread did not strictly decrease")
        if isinstance(op, PairOp) and image[op.i - 1] != image[op.j - 1]:
            return _fail(name, "pair averaging left unequal populations")
    return _ok(name, "500 instances: conservation, idempotence, spread, no inversion")


def check_containment(n: int | None = None) -> CheckResult:
    """Deleting edges shrinks the polytope: every sub-polytope vertex stays inside."""
    name = "properties-containment"
    rnd = random.Random(99)
    checked = 0
    cfg = PolytopeConfig(classify=False)
    for trial in range(530):
        size = 4 if trial >= 500 else 3
        big = _random_connected_graph(rnd, size)
        while True:
            keep = [e for e in sorted(big.edges) if rnd.random() < 0.75]
            try:
                small = DiffusionGraph.from_edges(size, keep)
                break
            except ValueError:
                continue
        rho = _random_rho(rnd, size)
        sub = polytope(small, rho, cfg)
        full = polytope(big, rho, cfg)
        full_points = full.points()
        for v in sub.points():
            if not hull_membership(v, full_points).inside:
                return _fail(name, f"{v} escaped the larger polytope")
        checked += 1
        w = tuple(range(1, size + 1))
        if min(energy(w, p) for p in sub.points()) < min(energy(w, p) for p in full_points):
            return _fail(name, "edge deletion increased the free energy")
    return _ok(name, f"{checked} random subgraph pairs stayed contained")


def check_monotone_objective(n: int | None = None) -> CheckResult:
    name = "properties-monotone"
    rnd = random.Random(55)
    cfg = PolytopeConfig(classify=False)
    for trial in range(500):
        size = 4 if trial >= 470 else 3
        graph = _random_connected_graph(rnd, size)
        rho = _random_rho(rnd, size)
        weights = tuple(Fraction(w) for w in rnd.sample(range(1, 60), size))
        report = optimize_over(graph, rho, weights, config=cfg)
        for v in report.optimal_vertices:
            if not monotone_extremal_check(v.sequence, weights, rho):
                return _fail(
                    name,
                    f"optimal word {v.sequence} raised the objective "
                    f"(graph {sorted(graph.edges)}, rho {rho}, w {weights})",
                )
    return _ok(name, "500 optimization runs: optimal words are monotone")


def check_replay(n: int | None = None) -> CheckResult:
    name = "properties-replay"
    rnd = random.Random(42)
    for _ in range(500):
        size = rnd.randrange(2, 5)
        graph = _random_connected_graph(rnd, size)
        rho = _random_rho(rnd, size)
        reach = explore(graph, rho, max_depth=3, use_blocks=bool(rnd.getrandbits(1)))
        if not reach.replay_ok():
            return _fail(name, "replay mismatch")
    # determinism: identical inputs give byte-identical vertex data
    rho = _pv("1/10", "2/10", "3/10", "4/10")
    a = polytope(cycle(4), rho)
    b = polytope(cycle(4), rho)
    if a.to_json() != b.to_json():
        return _fail(name, "repeated runs differ")
    return _ok(name, "500 reachable sets replay exactly; runs deterministic")


SUITES = {
    "k3": [check_k3],
    "p3": [check_p3_cases],
    "pn": [check_pn],
    "counts": [check_counts],
    "c4": [check_c4_table, check_c4_analysis],
    "witness": [check_step_witnesses],
    "triangles": [check_triangles],
    "energy": [check_energy],
    "properties": [
        check_local_properties,
        check_containment,
        check_monotone_objective,
        check_replay,
    ],
}


def run_suite(selector: str, n: int | None = None) -> list[CheckResult]:
    """Run one named suite (or "all"), one check after another."""
    if selector == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif selector in SUITES:
        checks = list(SUITES[selector])
    else:
        raise ValueError(f"unknown suite {selector!r}")
    return [c(n) for c in checks]

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

Each check maps the optional size parameter `n` to ``(passed, detail)``.
The `_check` decorator on its definition names it, declares its time
budget and whether it reads `n`, and times the whole call; a pass that
overran the budget, or an exception the check raised, becomes a failure.
Checks called directly, as the acceptance tests do, keep their budgets.
"""
from __future__ import annotations

import functools
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
    seconds: float = 0.0


def _check(name: str, budget: float | None = None, sized: bool = False):
    """
    Make a check returning ``(passed, detail)`` into one returning a timed
    `CheckResult` called `name`.  A pass that took `budget` seconds or more
    fails, and so does a check that raises.  `sized` marks a check that
    reads the size parameter `n`.
    """
    def wrap(check):
        @functools.wraps(check)
        def run(n: int | None = None) -> CheckResult:
            start = time.monotonic()
            try:
                passed, detail = check(n)
            except Exception as exc:
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            seconds = time.monotonic() - start
            if passed and budget is not None and seconds >= budget:
                passed, detail = False, f"took {seconds:.2f}s (budget {budget:g}s)"
            return CheckResult(name, passed, detail, seconds)
        run.sized = sized
        return run
    return wrap


def _random_sorted_rho(rnd: random.Random, n: int) -> PopulationVector:
    return PopulationVector.normalized(sorted(rnd.sample(range(1, 10 ** 6), n)))


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


@_check("k3-vertices", budget=1)
def check_k3(n: int | None) -> tuple[bool, str]:
    expected = sorted(K3_VERTICES)
    for word, point in zip(K3_VERTEX_WORDS, K3_VERTICES):
        seq = [PairOp.of(i, j) for i, j in word]
        if apply_sequence(seq, K3_RHO0) != point:
            return False, f"vertex word {word} does not reproduce {point}"
    enum = polytope(complete(3), K3_RHO0)
    structured = kn_extreme_points(K3_RHO0)
    if enum.points() != expected:
        return False, f"enumeration produced {len(enum.vertices)} vertices, wanted 7"
    if sorted(p for p, _ in structured) != expected:
        return False, "commutation-class construction disagrees"
    if enum.completeness != "proven":
        return False, "completeness not certified"
    return True, "7 vertices, both routes agree"


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


@_check("p3-cases", budget=1)
def check_p3_cases(n: int | None) -> tuple[bool, str]:
    for label, (edges, count, kinds) in P3_CASES.items():
        graph = DiffusionGraph.from_edges(3, edges)
        result = polytope(graph, K3_RHO0)
        if result.points() != sorted(P3_EXPECTED_POINTS[label]):
            return False, f"case ({label}) vertex set mismatch"
        if len(result.vertices) != count or result.kinds() != kinds:
            return False, f"case ({label}): got {result.kinds()}, wanted {kinds}"
        if result.completeness != "proven":
            return False, f"case ({label}) not certified complete"
        uniform = uniform_vector(3)
        has_uniform = uniform in set(result.points())
        if label in ("a", "b") and not has_uniform:
            return False, f"case ({label}) lost the uniform vertex"
    return True, "cases a/b/c give 4/4/5 vertices with expected kinds"


# --- ordered path hypercube -----------------------------------------------


@_check("ordered-path-hypercube", budget=60, sized=True)
def check_pn(n: int | None) -> tuple[bool, str]:
    n_max = n or 7
    rnd = random.Random(20260808)
    for size in range(3, n_max + 1):
        rho0 = _random_sorted_rho(rnd, size)
        pn = pn_polytope(rho0)
        if len(pn.vertices) != 2 ** (size - 1):
            return False, f"n={size}: {len(pn.vertices)} vertices != 2^{size-1}"
        if not all(c.is_extreme for c in pn.certificates):
            return False, f"n={size}: certification failed"
        labels = {v.subset for v in pn.vertices}
        for v in pn.vertices:
            neighbors = [other for other in pn.neighbors(v.subset) if other in labels]
            if len(neighbors) != size - 1:
                return False, (f"n={size}: vertex {sorted(v.subset)} has "
                               f"{len(neighbors)} neighbors, wanted {size - 1}")
        if size <= 5:
            enum = polytope(path(size), rho0, PolytopeConfig(classify=False))
            if enum.points() != sorted(v.point for v in pn.vertices):
                return False, f"n={size}: enumeration oracle disagrees"
            if enum.completeness != "proven":
                return False, f"n={size}: enumeration not certified complete"
    return True, (f"2^(n-1) certified vertices with flip adjacency for n=3..{n_max}, "
                  "oracle match for n<=5")


# --- counting --------------------------------------------------------------


@_check("fibonacci-counts", sized=True)
def check_counts(n: int | None) -> tuple[bool, str]:
    n_max = n or 12
    rnd = random.Random(4)
    for size in range(3, 9):
        if fibonacci_nonlocal_count(size) != fibonacci(size + 1):
            return False, f"closed form broke at n={size}"
    for size in range(3, 7):
        pn = pn_polytope(_random_sorted_rho(rnd, size))
        direct = sum(1 for v in pn.vertices if v.kind == "nonlocal")
        if direct != fibonacci(size + 1):
            return False, f"direct classification at n={size}: {direct} != F({size+1})"
    for size in range(3, n_max + 1):
        if count_commuting_subsets(size, 2) != triangular(size - 3):
            return False, f"pair count at n={size} is not T({size-3})"
    return True, f"F(n+1) for n=3..8 (direct n<=6), triangular identity to n={n_max}"


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


@_check("c4-reference-table", budget=120)
def check_c4_table(n: int | None) -> tuple[bool, str]:
    """Evenly spaced populations reproduce the 18-entry table, split 6/2/10."""
    result = polytope(cycle(4), C4_RHO0)
    table = _c4_table_points(C4_RHO0)
    table_all = sorted(p for pts in table.values() for p in pts)
    if len(table_all) != 18:
        return False, "reference table did not produce 18 distinct points"
    if result.completeness != "proven":
        return False, "search did not saturate"
    if len(result.vertices) != 18 or result.points() != table_all:
        extra = sorted(set(result.points()) - set(table_all))
        missing = sorted(set(table_all) - set(result.points()))
        return False, (
            f"search found {len(result.vertices)} certified vertices, not 18 "
            f"({len(extra)} beyond the table, {len(missing)} table entries interior); "
            "see c4-analysis"
        )
    kind_of = {v.point: v.kind for v in result.vertices}
    if sorted(kind_of[p] for p in table["complete-graph"]) != ["nonlocal"] * 6:
        return False, "the 6 complete-graph rows are not all nonlocal vertices"
    pn_points = {v.point for v in pn_polytope(C4_RHO0).vertices}
    for p in table["shared-path"]:
        if kind_of[p] != "asymptotic" or p not in pn_points:
            return False, "shared-path rows must be asymptotic path-polytope vertices"
    others = [p for p in table["cycle-only"]]
    if len(others) != 10 or any(p in pn_points for p in others):
        return False, "cycle-only rows leaked into the path polytope"
    return True, "18 vertices matching the reference table (6/2/10)"


@_check("c4-analysis", budget=120)
def check_c4_analysis(n: int | None) -> tuple[bool, str]:
    """
    Strictly generic gaps: the table misses extreme points.  Certified on a
    fixed sample where the only change is one extra vertex, the image of
    two overlapping blocks followed by a pair averaging.
    """
    rho0 = PopulationVector.normalized([139717, 187488, 241448, 260500])
    result = polytope(cycle(4), rho0)
    table = _c4_table_points(rho0)
    table_all = {p for pts in table.values() for p in pts}
    points = set(result.points())

    if result.completeness != "proven":
        return False, "search did not saturate"
    if not table_all <= points:
        return False, "table points stopped being vertices on this sample"
    extras = sorted(points - table_all)
    extra_word = [BlockOp((2, 3, 4)), BlockOp((1, 3, 4)), PairOp.of(1, 2)]
    known_extra = apply_sequence(extra_word, rho0)
    if extras != [known_extra]:
        return False, f"expected exactly the doubled-block extra vertex, got {len(extras)}"
    v = next(v for v in result.vertices if v.point == known_extra)
    if v.kind != "asymptotic":
        return False, f"extra vertex classified {v.kind}"

    # evenly spaced gaps sit on the boundary where that point degenerates:
    even = _c4_table_points(C4_RHO0)
    even_pts = sorted(p for pts in even.values() for p in pts)
    degenerate = apply_sequence(extra_word, C4_RHO0)
    if not hull_membership(degenerate, even_pts).inside:
        return False, "doubled-block point should be interior for even spacing"
    return True, ("generic gaps: 19 certified vertices = table + doubled-block point; "
                  "even spacing: that point is interior")


# --- step decomposition witnesses ------------------------------------------


@_check("step-witnesses", budget=120, sized=True)
def check_step_witnesses(n: int | None) -> tuple[bool, str]:
    n_max = n or 6
    rnd = random.Random(31)
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
                        return False, f"witness failed at n={size}, A={sorted(subset)}, i={i}"
                    if dec.case == "generic":
                        windows += 1
                        r1, r2, r3 = dec.ratios
                        if not (r2 > r1 and r3 > r1):
                            return False, (f"window inequality failed at n={size}, "
                                           f"A={sorted(subset)}, i={i}")
                        lo, hi = dec.window
                        if not (lo <= hi and all(0 <= l <= 1 for l in dec.lambdas)):
                            return False, f"window produced bad weights at n={size}"
    return True, f"{total} exact witnesses, {windows} with strict windows"


# --- triangle identities ----------------------------------------------------


@_check("triangle-identities")
def check_triangles(n: int | None) -> tuple[bool, str]:
    rnd = random.Random(12)
    done = 0
    while done < 1000:
        vals = sorted(rnd.sample(range(1, 10 ** 6), 3))
        total = sum(vals)
        a, b, c = (Fraction(v, total) for v in vals)
        dec = triangle_decomposition(a, b, c)
        if not dec.verify():
            return False, f"identity failed for {(a, b, c)}"
        expected_branch = "upper" if a + c <= 2 * b else "lower"
        if dec.branch != expected_branch:
            return False, f"wrong branch for {(a, b, c)}"
        done += 1

    for graph in (complete(3), complete(4)):
        rho0 = _random_sorted_rho(rnd, graph.n)
        base = PolytopeConfig(use_blocks=False, classify=False)
        pruned = PolytopeConfig(use_blocks=False, classify=False, triangle_pruning=True)
        a_res = polytope(graph, rho0, base)
        b_res = polytope(graph, rho0, pruned)
        if a_res.points() != b_res.points():
            return False, f"pruning changed the vertex set on K{graph.n}"
        known = triangle_decomposition(*K3_RHO0)
        if known.branch != "lower" or known.lam != Fraction(3, 4):
            return False, "known decomposition value drifted"
    return True, "1000 identities exact, pruning-safe on K3/K4"


# --- energy recovery --------------------------------------------------------


@_check("energy-recovery", budget=120)
def check_energy(n: int | None) -> tuple[bool, str]:
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
            return False, f"{label}: recovered {float(percent):.2f}%, wanted {expected}±1"
        if label == "path":
            if [v.point for v in report.optimal_vertices] != [uniform_vector(4)]:
                return False, "path optimum is not the uniform vector"
        details.append(f"{label} {float(percent):.1f}%")
    return True, ", ".join(details)


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


@_check("properties-operators")
def check_local_properties(n: int | None) -> tuple[bool, str]:
    """Conservation, idempotence, spread monotonicity, no inversion."""
    rnd = random.Random(77)
    for _ in range(500):
        size = rnd.randrange(2, 6)
        graph = _random_connected_graph(rnd, size)
        rho = _random_rho(rnd, size)
        op = rnd.choice(graph_ops(graph, use_blocks=True))
        image = op.apply(rho)
        if sum(image) != 1:
            return False, "conservation failed"
        if op.apply(image) != image:
            return False, "idempotence failed"
        if spread(image) > spread(rho):
            return False, "spread increased"
        touched = op.support
        lo = min(rho[v - 1] for v in touched)
        hi = max(rho[v - 1] for v in touched)
        extremes_unique = rho.count(min(rho)) == 1 or rho.count(max(rho)) == 1
        if (lo == min(rho) and hi == max(rho) and lo != hi and extremes_unique
                and spread(image) >= spread(rho)):
            return False, "spread did not strictly decrease"
        if isinstance(op, PairOp) and image[op.i - 1] != image[op.j - 1]:
            return False, "pair averaging left unequal populations"
    return True, "500 instances: conservation, idempotence, spread, no inversion"


@_check("properties-containment")
def check_containment(n: int | None) -> tuple[bool, str]:
    """Deleting edges shrinks the polytope: every sub-polytope vertex stays inside."""
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
                return False, f"{v} escaped the larger polytope"
        checked += 1
        w = tuple(range(1, size + 1))
        if min(energy(w, p) for p in sub.points()) < min(energy(w, p) for p in full_points):
            return False, "edge deletion increased the free energy"
    return True, f"{checked} random subgraph pairs stayed contained"


@_check("properties-monotone")
def check_monotone_objective(n: int | None) -> tuple[bool, str]:
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
                return False, (f"optimal word {v.sequence} raised the objective "
                               f"(graph {sorted(graph.edges)}, rho {rho}, w {weights})")
    return True, "500 optimization runs: optimal words are monotone"


@_check("properties-replay")
def check_replay(n: int | None) -> tuple[bool, str]:
    rnd = random.Random(42)
    for _ in range(500):
        size = rnd.randrange(2, 5)
        graph = _random_connected_graph(rnd, size)
        rho = _random_rho(rnd, size)
        reach = explore(graph, rho, max_depth=3, use_blocks=bool(rnd.getrandbits(1)))
        if not reach.replay_ok():
            return False, "replay mismatch"
    # determinism: identical inputs give byte-identical vertex data
    rho = _pv("1/10", "2/10", "3/10", "4/10")
    a = polytope(cycle(4), rho)
    b = polytope(cycle(4), rho)
    if a.to_json() != b.to_json():
        return False, "repeated runs differ"
    return True, "500 reachable sets replay exactly; runs deterministic"


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
    """
    Run one named suite (or "all"), one check after another.  A size
    parameter `n` below 3, or one that no selected check reads, is refused
    before any check runs.
    """
    if n is not None and n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if selector == "all":
        checks = [c for suite in SUITES.values() for c in suite]
    elif selector in SUITES:
        checks = list(SUITES[selector])
    else:
        raise ValueError(f"unknown suite {selector!r}")
    if n is not None and not any(c.sized for c in checks):
        raise ValueError(f"suite {selector!r} takes no size parameter n")
    return [c(n) for c in checks]

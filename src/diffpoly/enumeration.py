"""
Enumeration of attainable states and diffusion-polytope vertices on an
arbitrary graph.

``explore`` is the literal breadth-first search over operator words with
exact state deduplication; it is the slow, trustworthy oracle.

``polytope`` finds the vertices of the diffusion polytope with a pruned
search that exploits linearity: every averaging operator is a linear map,
so a state that is a convex combination of already-seen states can never
generate anything outside the hull of what its witnesses generate.  The
frontier therefore keeps only states that fall outside the current hull.
When a whole layer produces nothing new outside the hull, the hull is
forward-invariant under every operator and provably contains the entire
attainable set: the vertex list is then complete ("proven"), no matter
the graph.  Otherwise the result is labeled "depth-bounded".

Triangle pruning is available as an option: inside any triangle of the
graph, averaging the extreme pair while the third population lies
strictly between them lands inside the hull of states reachable another
way, so such branches cannot contribute new vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd
from typing import Sequence

from .core import (
    AveragingOp,
    DiffusionGraph,
    OperationSequence,
    PairOp,
    PopulationVector,
    connected_blocks,
    op_sort_key,
    uniform_vector,
)
from .geometry import (
    ExtremalityCertificate,
    IncrementalHull,
    extreme_points,
    hull_vertices,  # unused here, but perfbench/tracing.py wraps it by this name
)

__all__ = [
    "ReachableSet",
    "explore",
    "triangle_prune",
    "TriangleDecomposition",
    "triangle_decomposition",
    "ClassifiedVertex",
    "PolytopeConfig",
    "PolytopeResult",
    "polytope",
    "graph_ops",
]


def graph_ops(graph: DiffusionGraph, use_blocks: bool) -> list[AveragingOp]:
    """All operators of the graph in canonical order: pairs, then blocks."""
    ops: list[AveragingOp] = [PairOp(i, j) for i, j in sorted(graph.edges)]
    if use_blocks:
        ops.extend(connected_blocks(graph, min_size=3))
    return sorted(ops, key=op_sort_key)


@dataclass(frozen=True)
class ReachableSet:
    """All distinct states found up to a word-length bound, with provenance."""

    graph: DiffusionGraph
    rho0: PopulationVector
    states: dict[PopulationVector, OperationSequence]
    max_depth: int
    depth_reached: int
    truncated: bool

    def __len__(self) -> int:
        return len(self.states)

    def __contains__(self, point) -> bool:
        return point in self.states

    def points(self) -> list[PopulationVector]:
        return sorted(self.states)

    def replay_ok(self) -> bool:
        """Every provenance word reproduces its state exactly."""
        from .core import apply_sequence

        return all(
            apply_sequence(seq, self.rho0) == point
            for point, seq in self.states.items()
        )


def _expand(graph: DiffusionGraph, frontier: Sequence[PopulationVector],
            ops: Sequence[AveragingOp], triangle_pruning: bool):
    """
    One BFS layer: every (state, op, image) in canonical order, states in
    frontier order and operators in `ops` order.  With triangle pruning,
    pairs that `triangle_prune` rules out are skipped.
    """
    for s in frontier:
        for op in ops:
            if triangle_pruning and isinstance(op, PairOp) and triangle_prune(graph, s, op):
                continue
            yield s, op, op.apply(s)


def explore(graph: DiffusionGraph, rho0: Sequence[Fraction], max_depth: int,
            use_blocks: bool = False) -> ReachableSet:
    """
    Breadth-first search over operator words, deduplicating exact states.

    Provenance keeps the first word found per state, which is shortest and
    lexicographically least in the canonical operator order.  `truncated`
    stays True unless some layer produced nothing new (proof that the
    attainable set was exhausted).
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    rho0 = PopulationVector(rho0)
    ops = graph_ops(graph, use_blocks)
    states: dict[PopulationVector, OperationSequence] = {rho0: OperationSequence()}
    frontier = [rho0]
    depth_reached = 0
    exhausted = not ops
    for depth in range(1, max_depth + 1):
        new: list[PopulationVector] = []
        for s, op, t in _expand(graph, frontier, ops, False):
            if t not in states:
                states[t] = OperationSequence(tuple(states[s]) + (op,))
                new.append(t)
        if not new:
            exhausted = True
            break
        depth_reached = depth
        frontier = new
    return ReachableSet(
        graph=graph,
        rho0=rho0,
        states=states,
        max_depth=max_depth,
        depth_reached=depth_reached,
        truncated=not exhausted,
    )


def triangle_prune(graph: DiffusionGraph, rho: Sequence[Fraction], op: PairOp) -> bool:
    """
    True when averaging op's endpoints cannot lead to a new vertex: some
    third vertex forms a triangle with them and its population lies
    strictly between theirs.  Ties never prune.
    """
    i, k = op.i, op.j
    lo = min(rho[i - 1], rho[k - 1])
    hi = max(rho[i - 1], rho[k - 1])
    if lo == hi:
        return False
    for j in graph.vertices():
        if j in (i, k):
            continue
        if graph.has_edge(i, j) and graph.has_edge(j, k) and lo < rho[j - 1] < hi:
            return True
    return False


@dataclass(frozen=True)
class TriangleDecomposition:
    """
    The convex identity behind triangle pruning, on a sorted triple
    a < b < c with a + b + c = 1: averaging the outer pair lands on the
    segment between the uniform point and a two-step average.

    When a + c <= 2b the second step of the witness averages the upper
    pair first (branch "upper", weight 3(c-b)/(b+c-2a)); otherwise it
    averages the lower pair first (branch "lower", weight
    3(b-a)/(2c-a-b)).
    """

    a: Fraction
    b: Fraction
    c: Fraction
    branch: str  # "upper" or "lower"
    lam: Fraction
    outer_average: PopulationVector   # B13 applied to (a, b, c)
    two_step: PopulationVector        # B13 after averaging the branch pair
    uniform: PopulationVector

    def verify(self) -> bool:
        if not (0 <= self.lam <= 1):
            return False
        return all(
            self.outer_average[t]
            == self.lam * self.uniform[t] + (1 - self.lam) * self.two_step[t]
            for t in range(3)
        )


def triangle_decomposition(a: Fraction, b: Fraction, c: Fraction) -> TriangleDecomposition:
    """
    Exact witness that the outer-pair average of a sorted triangle state
    is not extreme.  Requires a < b < c and a + b + c = 1.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not (a < b < c):
        raise ValueError("triangle decomposition needs a < b < c")
    if a + b + c != 1:
        raise ValueError("triple must be normalized")

    rho = PopulationVector((a, b, c))
    b13 = PairOp.of(1, 3)
    outer = b13.apply(rho)
    uniform = uniform_vector(3)

    if a + c <= 2 * b:
        branch = "upper"
        lam = 3 * (c - b) / (b + c - 2 * a)
        two_step = b13.apply(PairOp.of(2, 3).apply(rho))
    else:
        branch = "lower"
        lam = 3 * (b - a) / (2 * c - a - b)
        two_step = b13.apply(PairOp.of(1, 2).apply(rho))

    dec = TriangleDecomposition(
        a=a, b=b, c=c, branch=branch, lam=lam,
        outer_average=outer, two_step=two_step, uniform=uniform,
    )
    if not dec.verify():
        raise AssertionError("triangle identity failed exact verification")
    return dec


@dataclass(frozen=True)
class ClassifiedVertex:
    """A certified polytope vertex with a generating word and its kind."""

    point: PopulationVector
    sequence: OperationSequence
    kind: str  # "nonlocal" | "local_finite" | "asymptotic" | "unclassified"

    def to_json(self) -> dict:
        return {
            "point": self.point.to_json(),
            "sequence": self.sequence.to_json(),
            "kind": self.kind,
        }


@dataclass(frozen=True)
class PolytopeConfig:
    """Knobs for the polytope search; None means the documented default."""

    max_depth: int | None = None      # default: C(n,2) + n
    use_blocks: bool = True
    triangle_pruning: bool = False
    classify: bool | None = None      # default: only for n <= 5 (needs a K_n reference)

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")

    def resolved_depth(self, n: int) -> int:
        return comb(n, 2) + n if self.max_depth is None else self.max_depth

    def resolved_classify(self, n: int) -> bool:
        return (n <= 5) if self.classify is None else self.classify


@dataclass(frozen=True)
class PolytopeResult:
    """Certified vertex list of a diffusion polytope."""

    graph: DiffusionGraph
    rho0: PopulationVector
    vertices: tuple[ClassifiedVertex, ...]
    certificates: tuple[ExtremalityCertificate, ...]
    completeness: str          # "proven" (saturated search) or "depth-bounded"
    truncated: bool
    max_depth: int
    use_blocks: bool

    def points(self) -> list[PopulationVector]:
        return [v.point for v in self.vertices]

    def kinds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.vertices:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "rho0": self.rho0.to_json(),
            "completeness": self.completeness,
            "truncated": self.truncated,
            "max_depth": self.max_depth,
            "use_blocks": self.use_blocks,
            "vertices": [v.to_json() for v in self.vertices],
        }


def _saturating_bfs(graph: DiffusionGraph, rho0: PopulationVector,
                    ops: Sequence[AveragingOp], max_depth: int,
                    triangle_pruning: bool):
    """
    Hull-pruned BFS.  Operators are linear, so a state inside the hull of
    already-seen states can never produce anything outside the hull of
    their images: only states outside the current hull are expanded.  If a
    layer adds nothing outside, the hull absorbs every operator and the
    search is provably complete ("saturated").  Every state found outside
    joins one hull, grown in place after each layer, whose points span the
    current hull; its vertices are extracted once, at the end.
    """
    hull = IncrementalHull([rho0])
    seen = {rho0}
    provenance: dict[PopulationVector, OperationSequence] = {rho0: OperationSequence()}
    frontier = [rho0]
    saturated = not ops
    for _depth in range(max_depth):
        outside: list[PopulationVector] = []
        for s, op, t in _expand(graph, frontier, ops, triangle_pruning):
            if t in seen:
                continue
            seen.add(t)
            if hull.contains(t):
                continue
            provenance[t] = OperationSequence(tuple(provenance[s]) + (op,))
            outside.append(t)
        if not outside:
            saturated = True
            break
        hull._extend(outside)
        frontier = outside
    return hull.vertices(), provenance, saturated


def polytope(graph: DiffusionGraph, rho0: Sequence[Fraction],
             config: PolytopeConfig | None = None) -> PolytopeResult:
    """
    Certified extreme points of the diffusion polytope of (graph, rho0).

    Block operators over connected subsets stand in for infinite pair
    sequences, so asymptotic vertices are found by a finite search.  Each
    vertex is classified:

    * "nonlocal"     -- also a vertex of the complete-graph polytope;
    * "local_finite" -- reachable by a finite pair word on this graph,
      but not a complete-graph vertex;
    * "asymptotic"   -- not reachable by any pair word within the depth
      bound (its word needs a block operator).

    Classification needs a complete-graph reference, which is practical
    for n <= 5; beyond that it is skipped unless forced by the config.
    """
    cfg = config or PolytopeConfig()
    rho0 = PopulationVector(rho0)
    if len(rho0) != graph.n:
        raise ValueError("population vector does not match the graph size")
    depth = cfg.resolved_depth(graph.n)
    ops = graph_ops(graph, cfg.use_blocks)

    points, provenance, saturated = _saturating_bfs(
        graph, rho0, ops, depth, cfg.triangle_pruning
    )

    kinds: dict[PopulationVector, str] = {}
    if cfg.resolved_classify(graph.n):
        kinds = _classify(graph, rho0, points, provenance, depth, cfg)
    vertices = tuple(
        ClassifiedVertex(
            point=p,
            sequence=provenance[p],
            kind=kinds.get(p, "unclassified"),
        )
        for p in points
    )
    certificates = tuple(extreme_points(points, _all_vertices=True))
    return PolytopeResult(
        graph=graph,
        rho0=rho0,
        vertices=vertices,
        certificates=certificates,
        completeness="proven" if saturated else "depth-bounded",
        truncated=not saturated,
        max_depth=depth,
        use_blocks=cfg.use_blocks,
    )


def _pair_word_possible(point: PopulationVector, rho0: PopulationVector) -> bool:
    """
    Necessary condition for reachability by pair averagings alone: such
    words apply doubly-stochastic matrices with dyadic entries, so every
    component of the result lies in the lattice (g/q) * Z scaled by a
    power of two, where q is the common denominator of rho0 and g the gcd
    of its numerators.  A component violating this (e.g. a three-way block
    mean, denominator divisible by 3) is unreachable at *any* depth.
    """
    q = 1
    for c in rho0:
        q = q * c.denominator // gcd(q, c.denominator)
    g = 0
    for c in rho0:
        g = gcd(g, c.numerator * (q // c.denominator))
    for v in point:
        scaled = Fraction(v) * q / g
        d = scaled.denominator
        if d & (d - 1):  # not a power of two
            return False
    return True


def _classify(graph: DiffusionGraph, rho0: PopulationVector,
              points: Sequence[PopulationVector],
              provenance: dict[PopulationVector, OperationSequence],
              depth: int, cfg: PolytopeConfig) -> dict[PopulationVector, str]:
    n = graph.n
    if len(graph.edges) == comb(n, 2):
        return {p: "nonlocal" for p in points}

    # complete-graph reference: candidate points whose hull is DP(K_n),
    # ties included (a tied rho0 is the limit of distinct ones ranked alike);
    # every vertex of that hull is a candidate, so only candidates need an LP
    from .structured.complete import kn_candidate_points

    candidates = kn_candidate_points(rho0)
    kn_hull = IncrementalHull(list(candidates))
    kn_extreme = {p for p in points if p in candidates and kn_hull.is_extreme_in(p)}

    out = {}
    unresolved = []
    for p in points:
        if p in kn_extreme:
            out[p] = "nonlocal"
        elif all(isinstance(op, PairOp) for op in provenance[p]):
            out[p] = "local_finite"
        elif not _pair_word_possible(p, rho0):
            out[p] = "asymptotic"  # proven for every depth, not just this bound
        else:
            unresolved.append(p)

    if unresolved:
        # mostly power-of-two block means: the lattice test cannot exclude
        # them, so search pair words directly, pruned by majorization
        found = _pair_reachable_targets(
            graph, rho0, unresolved, min(depth, comb(n, 2)), cfg.triangle_pruning,
        )
        for p in unresolved:
            out[p] = "local_finite" if p in found else "asymptotic"
    return out


def _prefix_sums(v: Sequence[Fraction]) -> list[Fraction]:
    """Sums of the k largest components of `v`, k = 1, 2, ..."""
    return list(accumulate(sorted(v, reverse=True)))


def _majorizes(sums: Sequence[Fraction], goal: Sequence[Fraction]) -> bool:
    """Can averaging possibly turn a state into `goal`, given the
    `_prefix_sums` of both?  Necessary: the goal below the state in the
    majorization order (both sum to one)."""
    return all(a >= b for a, b in zip(sums, goal))


def _pair_reachable_targets(graph: DiffusionGraph, rho0: PopulationVector,
                            targets: Sequence[PopulationVector], max_depth: int,
                            triangle_pruning: bool) -> set[PopulationVector]:
    """
    Which of `targets` does some pair word of length <= max_depth hit
    exactly?  States that majorize no remaining target are pruned; that is
    lossless because every averaging image is majorized by its source.
    Each vector's `_prefix_sums` are built once.
    """
    ops = graph_ops(graph, False)
    remaining = {t: _prefix_sums(t) for t in targets}
    found: set[PopulationVector] = set()
    if rho0 in remaining:
        del remaining[rho0]
        found.add(rho0)
    frontier = [rho0]
    seen = {rho0}
    for _depth in range(max_depth):
        if not remaining or not frontier:
            break
        new: list[PopulationVector] = []
        for _s, _op, t in _expand(graph, frontier, ops, triangle_pruning):
            if t in seen:
                continue
            seen.add(t)
            if t in remaining:
                del remaining[t]
                found.add(t)
                if not remaining:
                    return found
            sums = _prefix_sums(t)
            if any(_majorizes(sums, goal) for goal in remaining.values()):
                new.append(t)
        frontier = new
    return found

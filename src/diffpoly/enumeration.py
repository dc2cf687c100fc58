"""
Enumeration of attainable states and diffusion-polytope vertices on an
arbitrary graph.

Every search here is one layered breadth-first search over operator
words with exact state deduplication (``_layers``); each caller decides
which new states to keep and expand.  ``explore`` is its keep-everything
run, the slow, trustworthy oracle.

The search holds each state as its integer image (d*x_1, ..., d*x_n, d),
d > 0, primitive: its entries have gcd 1, so equal states have equal
images.  Averaging a block is one integer step on the image,
``geometry._average``.  Deduplication, triangle pruning, the hull query,
the majorization test and the map from a state to its word all read the
image.  A state becomes a ``PopulationVector`` of ``Fraction``s only where
it is needed: as a vertex or least point of the search's hull, and at the
end of ``explore``.

``polytope`` finds the vertices of the diffusion polytope with a pruned
search that exploits linearity: every averaging operator is a linear map,
so a state that is a convex combination of already-seen states can never
generate anything outside the hull of what its witnesses generate.  The
frontier therefore keeps only states that fall outside the current hull.
When a whole layer produces nothing new outside the hull, the hull is
forward-invariant under every operator and provably contains the entire
attainable set: the vertex list is then complete ("proven"), no matter
the graph.  Otherwise the result is labeled "depth-bounded".  The hull is
a ``geometry.FacetHull``, held as its facets: a query is a substitution,
and the vertices and their certificates come from the facets, with no LP.

Triangle pruning (``PolytopeConfig(triangle_pruning=True)``) skips the
outer-pair average of a graph triangle whose third population lies
strictly between the pair's: ``triangle_decomposition`` writes that image
as a convex combination of states reachable another way.  It is off by
default: the saturation argument above assumes every operator is applied,
and pruned depth-bounded or pair-only searches can return other vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import comb, gcd
from typing import Sequence

from .core import (
    AveragingOp,
    DiffusionGraph,
    OperationSequence,
    PairOp,
    PopulationVector,
    _population,
    connected_blocks,
    op_sort_key,
    uniform_vector,
)
from .geometry import (
    ExtremalityCertificate,
    FacetHull,
    _average,
    _image,
    _is_convex_combination,
    _StateImage,
    extreme_points,  # unused here, as is hull_vertices, but perfbench/tracing.py
    hull_vertices,   # wraps both by these names
)
from .structured import complete

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
        ops.extend(connected_blocks(graph))
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


def _layers(graph: DiffusionGraph, start: _StateImage, ops: Sequence[AveragingOp],
            triangle_pruning: bool, keep, words=None):
    """
    The breadth-first layers from the state of image `start`, one list per
    layer: every frontier state under every operator, states in frontier
    order and operators in `ops` order (with triangle pruning, pairs that
    `triangle_prune` rules out are skipped).  A state is its primitive
    integer image, a `_StateImage`, so two states are equal exactly when
    their images are; each operator applies by `_average`, and a state is
    deduplicated, tested and handed on as its image.  No `Fraction` is built
    here: a caller builds the `PopulationVector` of a state it keeps.  Each
    new state is tested once with `keep`; the kept ones form the next
    frontier and, given the dict `words` holding start's word, get their
    parent's word plus the operator, keyed by image.  The last layer is
    empty; the caller resumes the generator for the next layer, or stops.
    """
    steps = [(op, tuple(v - 1 for v in op.support), isinstance(op, PairOp)) for op in ops]
    seen = {start}
    frontier = [start]
    while frontier:
        layer: list[_StateImage] = []
        for s in frontier:
            for op, block, pair in steps:
                if triangle_pruning and pair and triangle_prune(graph, s, op):
                    continue
                t = _average(s, block)
                if t in seen:
                    continue
                seen.add(t)
                if keep(t):
                    if words is not None:
                        words[t] = OperationSequence(tuple(words[s]) + (op,))
                    layer.append(t)
        yield layer
        frontier = layer


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
    rho0 = _population(graph, rho0)
    ops = graph_ops(graph, use_blocks)
    start = _StateImage(_image(rho0))
    words = {start: OperationSequence()}
    depth_reached = 0
    exhausted = not ops
    for layer in islice(_layers(graph, start, ops, False, lambda t: True, words), max_depth):
        if not layer:
            exhausted = True
            break
        depth_reached += 1
    return ReachableSet(
        graph=graph,
        rho0=rho0,
        states={image.point(): word for image, word in words.items()},
        max_depth=max_depth,
        depth_reached=depth_reached,
        truncated=not exhausted,
    )


def triangle_prune(graph: DiffusionGraph, rho: Sequence[Fraction], op: PairOp) -> bool:
    """
    True when a search with triangle pruning skips averaging op's
    endpoints: some third vertex forms a triangle with them and its
    population lies strictly between theirs.  Ties never prune.  Only the
    order of the populations counts, so `rho` may be any positive multiple
    of the state, such as its integer image.
    """
    lo, hi = sorted((rho[op.i - 1], rho[op.j - 1]))
    return any(lo < rho[j - 1] < hi for j in graph.vertices()
               if graph.has_edge(op.i, j) and graph.has_edge(j, op.j))


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
        return _is_convex_combination(
            self.outer_average, ((self.uniform, self.lam), (self.two_step, 1 - self.lam)))


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
    joins one `FacetHull`, grown after each layer, so its facets are those
    of the hull of every state kept so far.  Returns the word of every state
    of that hull, keyed by the state's `_image`, whether the search
    saturated, and the hull itself.
    """
    start = _StateImage(_image(rho0))
    hull = FacetHull([start])
    words = {start: OperationSequence()}
    saturated = not ops
    layers = _layers(graph, start, ops, triangle_pruning, lambda t: not hull.contains(t), words)
    for layer in islice(layers, max_depth):
        if not layer:
            saturated = True
            break
        for t in layer:
            hull.add(t)
    return words, saturated, hull


def _search(graph: DiffusionGraph, rho0: PopulationVector, cfg: PolytopeConfig):
    """
    The hull-pruned search of `cfg`, at its resolved depth and operators.
    Returns the search's `FacetHull`, whether the search saturated, and a
    function that labels chosen points of the hull as `ClassifiedVertex`
    with their words, found by their images, and, if `cfg` classifies,
    their kinds: `polytope` labels the hull's vertices, and `optimize_over`
    labels its least vertices, found with no vertex list.  The search and
    the classification are looked up as module globals at call time, so
    that a wrapper installed on this module sees them.
    """
    depth = cfg.resolved_depth(graph.n)
    words, saturated, hull = _saturating_bfs(
        graph, rho0, graph_ops(graph, cfg.use_blocks), depth, cfg.triangle_pruning
    )

    def label(points: Sequence[PopulationVector]) -> tuple[ClassifiedVertex, ...]:
        sequences = [words[_image(p)] for p in points]
        kinds = (_classify(graph, rho0, points, sequences, depth, cfg)
                 if cfg.resolved_classify(graph.n) else ["unclassified"] * len(points))
        return tuple(map(ClassifiedVertex, points, sequences, kinds))

    return hull, saturated, label


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
    rho0 = _population(graph, rho0)
    hull, saturated, label = _search(graph, rho0, cfg)
    certificates = hull.certificates()
    return PolytopeResult(
        graph=graph,
        rho0=rho0,
        vertices=label([c.point for c in certificates]),
        certificates=tuple(certificates),
        completeness="proven" if saturated else "depth-bounded",
        truncated=not saturated,
        max_depth=cfg.resolved_depth(graph.n),
        use_blocks=cfg.use_blocks,
    )


def _pair_word_possible(point: PopulationVector, rho0: PopulationVector) -> bool:
    """
    Necessary condition for reachability by pair averagings alone: such
    words apply doubly-stochastic matrices with dyadic entries, so every
    component of the result lies in the lattice (g/q) * Z scaled by a
    power of two, where q is the common denominator of rho0 and g the gcd
    of q * rho0, both read off rho0's `_image`.  A component violating this
    (e.g. a three-way block mean, denominator divisible by 3) is
    unreachable at *any* depth.
    """
    *numerators, q = _image(rho0)
    g = gcd(*numerators)
    for v in point:
        d = (Fraction(v) * q / g).denominator
        if d & (d - 1):  # not a power of two
            return False
    return True


def _classify(graph: DiffusionGraph, rho0: PopulationVector,
              points: Sequence[PopulationVector], sequences: Sequence[OperationSequence],
              depth: int, cfg: PolytopeConfig) -> list[str]:
    """The kind of each of `points`, in order; `sequences` holds their words."""
    n = graph.n
    if len(graph.edges) == comb(n, 2):
        return ["nonlocal"] * len(points)

    # complete-graph reference: the hull of the candidate points, DP(K_n),
    # ties included (a tied rho0 is the limit of distinct ones ranked alike);
    # every vertex of that hull is a candidate, so only candidates need an LP
    kn_hull, _ = complete._kn_hull(rho0)
    kinds = [
        "nonlocal" if _image(p) in kn_hull._index_of and kn_hull.is_extreme_in(p)
        else "local_finite" if all(isinstance(op, PairOp) for op in seq)
        else None if _pair_word_possible(p, rho0)  # unresolved: searched below
        else "asymptotic"  # proven for every depth, not just this bound
        for p, seq in zip(points, sequences)
    ]
    unresolved = [p for p, kind in zip(points, kinds) if kind is None]
    if unresolved:
        # mostly power-of-two block means: the lattice test cannot exclude
        # them, so search pair words directly, pruned by majorization
        found = _pair_reachable_targets(
            graph, rho0, unresolved, min(depth, comb(n, 2)), cfg.triangle_pruning,
        )
        kinds = [kind or ("local_finite" if p in found else "asymptotic")
                 for p, kind in zip(points, kinds)]
    return kinds


def _prefix_sums(v: Sequence[Fraction]) -> list[Fraction]:
    """Sums of the k largest components of `v`, k = 1, 2, ...; the last is
    the total."""
    return list(accumulate(sorted(v, reverse=True)))


def _majorizes(sums: Sequence[Fraction], goal: Sequence[Fraction]) -> bool:
    """Can averaging possibly turn a state into `goal`, given the
    `_prefix_sums` of both, of the state's components or of any positive
    multiple such as the numerators of its image?  Necessary: the goal below
    the state in the majorization order, each sum over its total, compared
    by cross-multiplying."""
    total, goal_total = sums[-1], goal[-1]
    return all(a * goal_total >= b * total for a, b in zip(sums, goal))


def _pair_reachable_targets(graph: DiffusionGraph, rho0: PopulationVector,
                            targets: Sequence[PopulationVector], max_depth: int,
                            triangle_pruning: bool) -> set[PopulationVector]:
    """
    Which of `targets` does some pair word of length <= max_depth hit
    exactly?  States that majorize no remaining target are pruned; that is
    lossless because every averaging image is majorized by its source.
    States and targets are compared as integer images, and each one's
    `_prefix_sums`, of its image's numerators, are built once.  The search
    stops after the layer that hits the last target.
    """
    remaining = {image: _prefix_sums(image[:-1]) for image in map(_image, targets)}
    found: set[PopulationVector] = set()

    def hit_or_majorizes(image: _StateImage) -> bool:
        if remaining.pop(image, None) is not None:
            found.add(image.point())
        sums = _prefix_sums(image[:-1])
        return any(_majorizes(sums, goal) for goal in remaining.values())

    start = _StateImage(_image(rho0))
    hit_or_majorizes(start)  # rho0 may be a target itself
    layers = islice(_layers(graph, start, graph_ops(graph, False), triangle_pruning,
                            hit_or_majorizes), max_depth)
    while remaining and next(layers, None) is not None:
        pass  # each layer records its hits in `found`
    return found

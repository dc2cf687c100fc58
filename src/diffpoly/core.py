"""
Population states, diffusion graphs and averaging operators.

States are normalized vectors of exact rationals (``fractions.Fraction``),
one component per vertex of a simple connected graph.  The only dynamics
are *averaging* operations: a pair operator replaces the populations at the
two endpoints of an edge by their mean, a block operator replaces the
populations on a connected vertex subset by their common mean.  Block
operators stand for the limit of infinitely many pair averagings inside
the subset, which is why they are first-class here.

Everything in this module is an immutable value and every function is
pure; no floating point is used anywhere.

A search builds and hashes states by the thousand, so a state is checked
once, when it is built: an operator checks its input and trusts its image
(averaging keeps components non-negative and their sum at one), building
a ``PopulationVector`` from one returns it unchanged, and each state
computes its tuple hash on first use and keeps it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

__all__ = [
    "parse_rational",
    "format_rational",
    "PopulationVector",
    "DiffusionGraph",
    "PairOp",
    "BlockOp",
    "AveragingOp",
    "OperationSequence",
    "apply_op",
    "apply_sequence",
    "spread",
    "complete",
    "path",
    "cycle",
    "helium_p5",
    "grid_composition",
    "connected_blocks",
    "uniform_vector",
]

def parse_rational(text: str) -> Fraction:
    """
    Parse a rational from a ``p/q`` string (plain integers and exact
    decimal fractions are accepted as well).

    >>> parse_rational("2/7")
    Fraction(2, 7)
    >>> parse_rational("0.25")
    Fraction(1, 4)
    """
    return _exact(text.strip(), "rational")


def format_rational(x: Fraction) -> str:
    """
    Canonical ``p/q`` form, with an explicit denominator even for integers.

    >>> format_rational(Fraction(2, 7)), format_rational(Fraction(0))
    ('2/7', '0/1')
    """
    return f"{x.numerator}/{x.denominator}"


def _exact(c, what: str = "population") -> Fraction:
    """`c` as a Fraction; a float is refused rather than expanded in binary,
    and a zero denominator is a ValueError."""
    if isinstance(c, float):
        raise TypeError(
            f"{what} {c!r} is a float; give it exactly, as an int, Fraction or 'p/q' string"
        )
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"{what} {c!r} has a zero denominator") from None


def _rationals_from_json(data) -> tuple[Fraction, ...]:
    """The rationals of a JSON list of p/q strings."""
    if not (isinstance(data, list) and all(isinstance(s, str) for s in data)):
        raise ValueError(f"expected a list of p/q strings, got {data!r}")
    return tuple(map(parse_rational, data))


def _ints(values: Iterable) -> bool:
    """Are all `values` ints (JSON integers; bools and floats are not)?"""
    return all(type(v) is int for v in values)


class PopulationVector(tuple):
    """
    A normalized population state: non-negative rationals summing to one.

    Behaves as a plain tuple of ``Fraction`` (hashable, ordered), so exact
    de-duplication of states is just set membership.  The hash is the
    tuple's, computed once and kept: hashing a ``Fraction`` costs a modular
    inverse, and a search hashes each state many times.
    """

    def __new__(cls, components: Iterable[Fraction | int | str]) -> "PopulationVector":
        if type(components) is PopulationVector:
            return components
        comps = tuple(map(_exact, components))
        if not comps:
            raise ValueError("population vector needs at least one component")
        if any(c < 0 for c in comps):
            raise ValueError(f"negative population in {comps}")
        total = sum(comps)
        if total != 1:
            raise ValueError(f"populations must sum to 1, got {total}")
        return super().__new__(cls, comps)

    @classmethod
    def _trusted(cls, comps: list[Fraction]) -> "PopulationVector":
        """`comps` unchecked: an operator's averaged image of a checked state."""
        return super().__new__(cls, comps)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = tuple.__hash__(self)
            return h

    @classmethod
    def normalized(cls, raw: Iterable[Fraction | int]) -> "PopulationVector":
        """Scale a non-negative, not-all-zero vector so it sums to one."""
        vals = [_exact(c) for c in raw]
        total = sum(vals)
        if total <= 0:
            raise ValueError("cannot normalize a non-positive total")
        return cls(v / total for v in vals)

    def to_json(self) -> list[str]:
        return [format_rational(c) for c in self]

    @classmethod
    def from_json(cls, data: list[str]) -> "PopulationVector":
        return cls(_rationals_from_json(data))


def uniform_vector(n: int) -> PopulationVector:
    """The state with all populations equal to 1/n."""
    return PopulationVector([Fraction(1, n)] * n)


@dataclass(frozen=True)
class DiffusionGraph:
    """
    A simple connected graph with vertices labeled 1..n.

    Edges are stored as a frozenset of (i, j) tuples with i < j.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if not _ints((self.n, *(v for e in self.edges for v in e))):
            raise ValueError(f"graph labels must be ints, got n={self.n!r}, edges {set(self.edges)}")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            i, j = e
            if not (1 <= i < j <= self.n):
                raise ValueError(f"bad edge {e} for n={self.n}")
        if not self.induced_connected(self.vertices()):
            raise ValueError("graph must be connected")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "DiffusionGraph":
        # labels that are not ints are left unordered, for the constructor to refuse
        canon = frozenset((min(i, j), max(i, j)) if _ints((i, j)) else (i, j) for i, j in edges)
        if any(i == j for i, j in canon):
            raise ValueError("self-loops are not allowed")
        return cls(n, canon)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def induced_connected(self, subset: Iterable[int]) -> bool:
        """Is the induced subgraph on `subset` connected?"""
        return _connected(self.adjacency(), subset)

    def to_json(self) -> dict:
        return {"n": self.n, "edges": sorted([list(e) for e in self.edges])}

    @classmethod
    def from_json(cls, data: dict) -> "DiffusionGraph":
        edges = data.get("edges") if isinstance(data, dict) else None
        if not (isinstance(edges, list) and type(data.get("n")) is int
                and all(isinstance(e, list) and len(e) == 2 for e in edges)):
            raise ValueError('expected {"n": int, "edges": [[i, j], ...]}')
        return cls.from_edges(data["n"], edges)


@dataclass(frozen=True, order=True)
class PairOp:
    """Average the populations at the two endpoints of an edge."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not _ints((self.i, self.j)):
            raise ValueError(f"pair op labels must be ints, got ({self.i!r}, {self.j!r})")
        if not (1 <= self.i < self.j):
            raise ValueError(f"pair op needs 1 <= i < j, got ({self.i}, {self.j})")

    @classmethod
    def of(cls, i: int, j: int) -> "PairOp":
        # labels that are not ints are left unordered, for the constructor to refuse
        return cls(min(i, j), max(i, j)) if _ints((i, j)) else cls(i, j)

    @property
    def support(self) -> tuple[int, ...]:
        return (self.i, self.j)

    def validate(self, graph: DiffusionGraph) -> None:
        if not graph.has_edge(self.i, self.j):
            raise ValueError(f"({self.i},{self.j}) is not an edge of the graph")

    def apply(self, rho: Sequence[Fraction]) -> PopulationVector:
        comps = list(PopulationVector(rho))
        if self.j > len(comps):
            raise ValueError(f"{self} needs level {self.j}, the state has length {len(comps)}")
        m = (comps[self.i - 1] + comps[self.j - 1]) / 2
        comps[self.i - 1] = m
        comps[self.j - 1] = m
        return PopulationVector._trusted(comps)

    def to_json(self) -> list:
        return ["pair", self.i, self.j]

    def __str__(self) -> str:
        return f"B{self.i}{self.j}" if self.j <= 9 else f"B({self.i},{self.j})"


@dataclass(frozen=True, order=True)
class BlockOp:
    """Average the populations over a connected vertex subset at once."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _ints(self.vertices):
            raise ValueError(f"block op labels must be ints, got {self.vertices!r}")
        verts = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 2:
            raise ValueError("block op needs at least two vertices")
        if verts[0] < 1:
            raise ValueError(f"block op vertices are labeled from 1, got {verts}")

    @property
    def support(self) -> tuple[int, ...]:
        return self.vertices

    def validate(self, graph: DiffusionGraph) -> None:
        if max(self.vertices) > graph.n:
            raise ValueError(f"block {self.vertices} exceeds vertex range")
        if not graph.induced_connected(self.vertices):
            raise ValueError(f"block {self.vertices} is not connected in the graph")

    def apply(self, rho: Sequence[Fraction]) -> PopulationVector:
        comps = list(PopulationVector(rho))
        if self.vertices[-1] > len(comps):
            raise ValueError(
                f"{self} needs level {self.vertices[-1]}, the state has length {len(comps)}"
            )
        m = sum(comps[v - 1] for v in self.vertices) / len(self.vertices)
        for v in self.vertices:
            comps[v - 1] = m
        return PopulationVector._trusted(comps)

    def to_json(self) -> list:
        return ["block", list(self.vertices)]

    def __str__(self) -> str:
        if max(self.vertices) <= 9:
            return "B" + "".join(str(v) for v in self.vertices)
        return "B(" + ",".join(str(v) for v in self.vertices) + ")"


AveragingOp = PairOp | BlockOp


def op_from_json(data: list) -> AveragingOp:
    """The operator that ``to_json`` wrote as ``["pair", i, j]`` or ``["block", [v, ...]]``."""
    kind = data[0] if isinstance(data, list) and data else None
    if kind == "pair" and len(data) == 3:
        return PairOp.of(data[1], data[2])
    if kind == "block" and len(data) == 2 and isinstance(data[1], list):
        return BlockOp(tuple(data[1]))
    raise ValueError(f'expected ["pair", i, j] or ["block", [v, ...]], got {data!r}')


def op_sort_key(op: AveragingOp) -> tuple:
    # pair ops order before block ops; within each family, lexicographic
    if isinstance(op, PairOp):
        return (0, op.i, op.j)
    return (1, len(op.vertices), op.vertices)


class OperationSequence(tuple):
    """An ordered word of averaging operators, applied left to right."""

    __slots__ = ()

    def __new__(cls, ops: Iterable[AveragingOp] = ()) -> "OperationSequence":
        return super().__new__(cls, tuple(ops))

    def to_json(self) -> list:
        return [op.to_json() for op in self]

    @classmethod
    def from_json(cls, data: list) -> "OperationSequence":
        if not isinstance(data, list):
            raise ValueError(f"expected a list of operators, got {data!r}")
        return cls(op_from_json(item) for item in data)

    def __str__(self) -> str:
        return "".join(str(op) for op in self) or "id"


def apply_op(op: AveragingOp, rho: Sequence[Fraction],
             graph: DiffusionGraph | None = None) -> PopulationVector:
    """
    Apply a single averaging operator; validates against `graph` if given.

    >>> apply_op(PairOp.of(1, 2), PopulationVector(["0", "2/7", "5/7"]))
    (Fraction(1, 7), Fraction(1, 7), Fraction(5, 7))
    """
    return apply_sequence((op,), rho, graph)


def apply_sequence(seq: Iterable[AveragingOp], rho: Sequence[Fraction],
                   graph: DiffusionGraph | None = None) -> PopulationVector:
    """Left-to-right composition; the empty word is the identity.  Given
    `graph`, the state's size and every operator are checked against it."""
    out = PopulationVector(rho) if graph is None else _population(graph, rho)
    for op in seq:
        if graph is not None:
            op.validate(graph)
        out = op.apply(out)
    return out


def _population(graph: DiffusionGraph, rho0: Sequence[Fraction]) -> PopulationVector:
    rho0 = PopulationVector(rho0)
    if len(rho0) != graph.n:
        raise ValueError("population vector does not match the graph size")
    return rho0


def spread(rho: Sequence[Fraction]) -> Fraction:
    """
    Largest pairwise population difference, max(rho) - min(rho).

    Every averaging operator is doubly stochastic, so this quantity never
    increases along a trajectory; it reaches zero only at the uniform state.

    >>> spread(PopulationVector(["0", "2/7", "5/7"]))
    Fraction(5, 7)
    """
    return max(rho) - min(rho)


# ---------------------------------------------------------------------------
# graph builders


def complete(n: int) -> DiffusionGraph:
    """Complete graph K_n: every pair of levels may be averaged."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return DiffusionGraph.from_edges(n, combinations(range(1, n + 1), 2))


def path(n: int) -> DiffusionGraph:
    """Path graph P_n with edges {i, i+1}: adjacent-level averaging only."""
    if n < 2:
        raise ValueError("path graph needs n >= 2")
    return DiffusionGraph.from_edges(n, ((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> DiffusionGraph:
    """Cycle graph C_n: the path edges plus the closing edge {1, n}."""
    if n < 3:
        raise ValueError("cycle graph needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return DiffusionGraph.from_edges(n, edges)


def helium_p5() -> DiffusionGraph:
    """
    The five-level parahelium system with dipole-allowed mixing only.

    Vertices are energy ranks (1=1s, 2=2s, 3=2p, 4=3s, 5=3p); the graph is
    a path, but not along adjacent energies.
    """
    return DiffusionGraph.from_edges(5, [(1, 3), (1, 5), (3, 4), (2, 5)])


def grid_composition(m: int, n: int) -> DiffusionGraph:
    """
    Composition of path graphs P_m[P_n]: an m-by-n grid with diagonals.

    Vertex (i, j) (outer index i in 1..m, inner j in 1..n) is numbered
    (i-1)*n + j.  Two vertices are adjacent when their outer indices are
    adjacent on P_m (any inner indices), or the outer indices agree and the
    inner indices are adjacent on P_n.

    >>> g = grid_composition(3, 2)
    >>> g.n, len(g.edges)
    (6, 11)
    """
    if m < 2 or n < 1:
        raise ValueError("grid composition needs m >= 2, n >= 1")

    def num(i: int, j: int) -> int:
        return (i - 1) * n + j

    edges = []
    for i in range(1, m + 1):
        for j in range(1, n):
            edges.append((num(i, j), num(i, j + 1)))
    for i in range(1, m):
        for j1 in range(1, n + 1):
            for j2 in range(1, n + 1):
                edges.append((num(i, j1), num(i + 1, j2)))
    return DiffusionGraph.from_edges(m * n, edges)


def connected_blocks(graph: DiffusionGraph) -> list[BlockOp]:
    """
    All block operators on connected vertex subsets of three or more
    vertices, smallest first: a block of two is a pair operator.
    """
    adj = graph.adjacency()
    return [BlockOp(sub) for size in range(3, graph.n + 1)
            for sub in combinations(graph.vertices(), size) if _connected(adj, sub)]


def _tree_walk(adj: dict[int, set[int]], sub: set[int]) -> list[tuple[int, int]]:
    """
    The edges of the depth-first tree inside the non-empty `sub`, in the
    order it finds them: it starts at the least vertex and takes neighbours
    in increasing order.  It keeps its own stack, so long paths do not recurse.
    """
    root = min(sub)
    seen = {root}
    edges: list[tuple[int, int]] = []
    stack = [(root, iter(sorted(adj[root] & sub)))]
    while stack:
        u, rest = stack[-1]
        for w in rest:
            if w not in seen:
                seen.add(w)
                edges.append((u, w))
                stack.append((w, iter(sorted(adj[w] & sub))))
                break
        else:
            stack.pop()
    return edges


def _connected(adj: dict[int, set[int]], subset: Iterable[int]) -> bool:
    """Is `subset` non-empty and connected in the graph with neighbour map `adj`?"""
    sub = set(subset)
    return bool(sub) and len(_tree_walk(adj, sub)) == len(sub) - 1

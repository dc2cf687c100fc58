"""
Seeded instances for the three benchmark workloads.

Every input is generated here from the workload seed; the library only
ever receives the generated graphs, population vectors and weights.
Each instance records the module and function name it calls and looks
the function up at call time, so that the traced run sees the wrappers
installed by ``tracing.Tracer``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import ModuleType
from typing import Any

WORKLOADS = ("random-small", "named-classified", "ordered-path-wide")

# Connected graph shapes on 3 and 4 vertices, by canonical edge list.
SHAPES = {
    "P3": ((1, 2), (2, 3)),
    "K3": ((1, 2), (1, 3), (2, 3)),
    "P4": ((1, 2), (2, 3), (3, 4)),
    "star": ((1, 2), (1, 3), (1, 4)),
    "C4": ((1, 2), (2, 3), (3, 4), (1, 4)),
    "paw": ((1, 2), (1, 3), (2, 3), (3, 4)),
    "diamond": ((1, 2), (1, 3), (1, 4), (2, 3), (3, 4)),
    "K4": ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)),
}

# Shape counts in one pass of random-small: 90 graphs with n=3 and 10 with
# n=4.  The counts are the labelled-graph probabilities of G(n, 0.6)
# conditioned on connectivity, rounded (P3 .667, K3 .333; P4 .217,
# star .072, C4 .081, paw .325, diamond .244, K4 .061).  Fixing the counts
# instead of sampling them keeps one heavy K4 or diamond from dominating
# the pass time of some seeds; labels and populations stay random.
RANDOM_SMALL_N3 = (("P3", 60), ("K3", 30))
RANDOM_SMALL_N4 = (("P4", 2), ("star", 1), ("C4", 1), ("paw", 3), ("diamond", 2), ("K4", 1))

C4_GENERIC_COUNT = 5
PN_N = 7
PN_COUNT = 4
SIX_DIGITS = range(100_000, 1_000_000)


@dataclass(frozen=True)
class Library:
    """The diffpoly modules one set-up imported."""

    core: ModuleType
    enumeration: ModuleType
    geometry: ModuleType
    optimize: ModuleType
    complete: ModuleType
    ordered_path: ModuleType
    cli: ModuleType


@dataclass(frozen=True)
class Instance:
    """One timed library call and what its output check needs."""

    id: str
    kind: str                 # "polytope" | "optimize" | "kn" | "pn"
    module: ModuleType
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    graph: Any = None         # graph the vertex words must replay on
    rho: Any = None
    weights: tuple | None = None
    expect: dict = field(default_factory=dict)

    def run(self):
        return getattr(self.module, self.func)(*self.args, **self.kwargs)


def _labelled(lib: Library, rnd: random.Random, shape: str):
    edges = SHAPES[shape]
    n = max(max(e) for e in edges)
    label = list(range(1, n + 1))
    rnd.shuffle(label)
    return lib.core.DiffusionGraph.from_edges(n, [(label[a - 1], label[b - 1]) for a, b in edges])


def _small_rho(lib: Library, rnd: random.Random, n: int):
    vals = [rnd.randrange(0, 50) for _ in range(n)]
    if sum(vals) == 0:
        vals[0] = 1
    return lib.core.PopulationVector.normalized(vals)


def _six_digit_rho(lib: Library, rnd: random.Random, n: int, ordered: bool):
    vals = rnd.sample(SIX_DIGITS, n)
    return lib.core.PopulationVector.normalized(sorted(vals) if ordered else vals)


def random_small(lib: Library, seed: int) -> list[Instance]:
    rnd = random.Random(f"random-small:{seed}")
    n3 = [s for s, k in RANDOM_SMALL_N3 for _ in range(k)]
    n4 = [s for s, k in RANDOM_SMALL_N4 for _ in range(k)]
    rnd.shuffle(n3)
    rnd.shuffle(n4)
    cfg = lib.enumeration.PolytopeConfig(classify=False)
    out = []
    for i in range(len(n3) + len(n4)):
        shape = n4.pop() if i % 10 == 9 else n3.pop()
        graph = _labelled(lib, rnd, shape)
        rho = _small_rho(lib, rnd, graph.n)
        weights = tuple(range(1, graph.n + 1))
        out.append(Instance(
            id=f"rs{i:03d}-{shape}", kind="optimize", module=lib.optimize, func="optimize_over",
            args=(graph, rho, weights), kwargs={"config": cfg},
            graph=graph, rho=rho, weights=weights,
        ))
    return out


def named_classified(lib: Library, seed: int) -> list[Instance]:
    rnd = random.Random(f"named-classified:{seed}")
    core, enum, opt = lib.core, lib.enumeration, lib.optimize
    pv = core.PopulationVector
    c4_even = pv([Fraction(k, 10) for k in (1, 2, 3, 4)])
    c4_generic = [_six_digit_rho(lib, rnd, 4, ordered=True) for _ in range(C4_GENERIC_COUNT)]
    helium = pv.normalized([1, 2, 4, 7, 11])
    kn = _six_digit_rho(lib, rnd, 4, ordered=False)
    expo = opt.exponential_populations(4)
    w = (1, 2, 3, 4)
    return [
        Instance(id="c4-even", kind="polytope", module=enum, func="polytope",
                 args=(core.cycle(4), c4_even), graph=core.cycle(4), rho=c4_even,
                 expect={"vertices": 18}),
        *(Instance(id=f"c4-generic-{i}", kind="polytope", module=enum, func="polytope",
                   args=(core.cycle(4), rho), graph=core.cycle(4), rho=rho)
          for i, rho in enumerate(c4_generic)),
        Instance(id="helium", kind="polytope", module=enum, func="polytope",
                 args=(core.helium_p5(), helium), graph=core.helium_p5(), rho=helium,
                 expect={"vertices": 30}),
        Instance(id="k4-generic", kind="kn", module=lib.complete, func="kn_extreme_points",
                 args=(kn,), graph=core.complete(4), rho=kn),
        Instance(id="energy-cycle", kind="optimize", module=opt, func="optimize_over",
                 args=(core.cycle(4), expo, w), kwargs={"method": "enumerate"},
                 graph=core.cycle(4), rho=expo, weights=w, expect={"percent": 63}),
        Instance(id="energy-complete", kind="optimize", module=opt, func="optimize_over",
                 args=(core.complete(4), expo, w), kwargs={"method": "structured"},
                 graph=core.complete(4), rho=expo, weights=w, expect={"percent": 68}),
    ]


def _mirrored_pn_values(rnd: random.Random, count: int) -> list[list[int]]:
    """
    `count` sets of PN_N distinct sorted 6-digit values, drawn in mirrored
    pairs: each uniform draw v is followed by its mirror 1,099,999 - v.
    The mirror is uniform too, but a pair's population sum is constant.
    The cost of ``pn_polytope``'s exact arithmetic grows with that sum, so
    pairing keeps one seed from drawing only large or only small values.
    """
    out = []
    for _ in range(count // 2):
        vals = rnd.sample(SIX_DIGITS, PN_N)
        out += [sorted(vals), sorted(SIX_DIGITS.start + SIX_DIGITS.stop - 1 - v for v in vals)]
    return out


def ordered_path_wide(lib: Library, seed: int) -> list[Instance]:
    rnd = random.Random(f"ordered-path-wide:{seed}")
    out = []
    for i, vals in enumerate(_mirrored_pn_values(rnd, PN_COUNT)):
        rho = lib.core.PopulationVector.normalized(vals)
        out.append(Instance(
            id=f"p{PN_N}-{i}", kind="pn", module=lib.ordered_path, func="pn_polytope",
            args=(rho,), graph=lib.core.path(PN_N), rho=rho,
            expect={"vertices": 2 ** (PN_N - 1)},
        ))
    return out


GENERATORS = {
    "random-small": random_small,
    "named-classified": named_classified,
    "ordered-path-wide": ordered_path_wide,
}


def build(workload: str, lib: Library, seed: int) -> list[Instance]:
    return GENERATORS[workload](lib, seed)


def warm_up(workload: str, lib: Library) -> None:
    """
    One untimed call per entry point and graph size the workload times, on
    the smallest input of that shape, so that lazy imports and the
    reduced-word cache behind ``words.commutation_classes`` are filled
    before the first timed call.
    """
    core, pv = lib.core, lib.core.PopulationVector.normalized
    if workload == "random-small":
        cfg = lib.enumeration.PolytopeConfig(classify=False)
        for n in (3, 4):
            lib.optimize.optimize_over(core.path(n), pv(range(1, n + 1)), range(1, n + 1), config=cfg)
    elif workload == "named-classified":
        lib.enumeration.polytope(core.path(3), pv([1, 2, 4]))
        lib.complete.kn_extreme_points(pv([1, 2, 4]))
        for n in (4, 5):  # the K_n reference of classification at n = 4 and 5
            lib.complete.kn_candidate_points(pv(range(1, n + 1)))
        lib.optimize.optimize_over(core.path(3), pv([1, 2, 4]), (1, 2, 3))
        lib.optimize.optimize_over(core.complete(3), pv([1, 2, 4]), (1, 2, 3), method="structured")
        lib.optimize.exponential_populations(4)
    elif workload == "ordered-path-wide":
        lib.ordered_path.pn_polytope(pv([1, 2, 4]))
    else:
        raise ValueError(f"unknown workload {workload!r}")

"""
Free-energy extraction over diffusion polytopes.

The objective is a linear functional with positive, pairwise-distinct
weights (energies per level).  Minimizing it over the diffusion polytope
gives the best population rearrangement the graph's averaging operations
allow; the Gardner limit -- populations sorted decreasingly against
increasing weights -- is the unrestricted-rearrangement baseline, and the
report states which fraction of that limit the graph recovers.

A linear objective's minimum over a polytope is its minimum over any
point set spanning it, so neither route builds a vertex list: each builds
a hull spanning the polytope, from the pruned search or from a
closed-form spanning set, and asks it for its least points
(`IncrementalHull.least`), which tests extremality only where several
points tie.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable, Sequence

from .core import (
    DiffusionGraph,
    PopulationVector,
    _exact,
    _population,
    format_rational,
    path,
)
from . import enumeration
from .enumeration import ClassifiedVertex, PolytopeConfig
from .geometry import IncrementalHull
from .structured import complete, ordered_path

__all__ = [
    "Objective",
    "energy",
    "gardner_limit",
    "EnergyReport",
    "optimize_over",
    "monotone_extremal_check",
    "exponential_populations",
]


@dataclass(frozen=True)
class Objective:
    """Per-level weights: positive, pairwise distinct and exact (no floats)."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ws = tuple(_exact(w, "weight") for w in self.weights)
        object.__setattr__(self, "weights", ws)
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        if len(set(ws)) != len(ws):
            raise ValueError("weights must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.weights)


def _weights(w: Objective | Sequence) -> tuple[Fraction, ...]:
    if isinstance(w, Objective):
        return w.weights
    return Objective(tuple(w)).weights


def _dot(ws: Sequence[Fraction], rho: Sequence[Fraction]) -> Fraction:
    """sum_i w_i rho_i for weights already validated and of rho's length."""
    return sum(map(mul, ws, rho))


def energy(w: Objective | Sequence, rho: Sequence[Fraction]) -> Fraction:
    """
    Exact objective value  sum_i w_i rho_i.

    >>> energy((1, 2, 3), PopulationVector(["1/3", "1/3", "1/3"]))
    Fraction(2, 1)
    """
    ws = _weights(w)
    if len(ws) != len(rho):
        raise ValueError("weight/state dimension mismatch")
    return _dot(ws, rho)


def gardner_limit(w: Objective | Sequence, rho0: Sequence[Fraction]) -> Fraction:
    """
    Minimum objective over arbitrary rearrangements of the populations:
    sort populations decreasingly against increasing weights.  No
    averaging process can do better, since every attainable state is a
    doubly-stochastic image of the start.
    """
    ws = _weights(w)
    if len(ws) != len(rho0):
        raise ValueError("weight/state dimension mismatch")
    return sum(a * b for a, b in zip(sorted(ws), sorted(rho0, reverse=True)))


def _decimal_str(x: Fraction, digits: int = 15) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(x.numerator) / Decimal(x.denominator))


@dataclass(frozen=True)
class EnergyReport:
    """Outcome of one optimization run over a diffusion polytope."""

    graph: DiffusionGraph
    rho0: PopulationVector
    weights: tuple[Fraction, ...]
    initial_energy: Fraction
    optimal_energy: Fraction
    gardner_energy: Fraction
    recovered_fraction: Fraction
    optimal_vertices: tuple[ClassifiedVertex, ...]
    method: str
    completeness: str
    lower_bound_only: bool

    def __post_init__(self) -> None:
        if not (self.gardner_energy <= self.optimal_energy <= self.initial_energy):
            raise AssertionError("energy ordering violated")
        if not (0 <= self.recovered_fraction <= 1):
            raise AssertionError("recovered fraction out of [0, 1]")

    def recovered_percent(self) -> float:
        return float(self.recovered_fraction * 100)

    def display_optimal(self) -> str:
        return _decimal_str(self.optimal_energy)

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "rho0": self.rho0.to_json(),
            "weights": [format_rational(w) for w in self.weights],
            "initial_energy": format_rational(self.initial_energy),
            "optimal_energy": format_rational(self.optimal_energy),
            "gardner_energy": format_rational(self.gardner_energy),
            "recovered_fraction": format_rational(self.recovered_fraction),
            "display": {
                "initial_energy": _decimal_str(self.initial_energy),
                "optimal_energy": _decimal_str(self.optimal_energy),
                "gardner_energy": _decimal_str(self.gardner_energy),
                "recovered_fraction": _decimal_str(self.recovered_fraction),
            },
            "optimal_vertices": [v.to_json() for v in self.optimal_vertices],
            "method": self.method,
            "completeness": self.completeness,
            "lower_bound_only": self.lower_bound_only,
        }


def _structured_hull(graph: DiffusionGraph, rho0: PopulationVector):
    """The unscanned hull of a closed-form spanning set of the polytope, and a
    function that labels chosen vertices of it as `ClassifiedVertex`."""
    n = graph.n
    if len(graph.edges) == comb(n, 2):  # one candidate per commutation class
        hull, sequences = complete._kn_hull(rho0)
        return hull, lambda points: tuple(
            ClassifiedVertex(point=p, sequence=seq, kind="nonlocal") for p, seq in sequences(points))
    if n >= 2 and graph.edges == path(n).edges:  # the ordered path's subset points
        subsets = ordered_path._subset_points(rho0)
        return IncrementalHull(list(subsets)), lambda points: tuple(
            ClassifiedVertex(point=v.point, sequence=v.sequence, kind=v.kind)
            for v in (ordered_path._pn_vertex(p, subsets[p]) for p in points))
    raise ValueError("no structured solver for this graph; use method='enumerate'")


def optimize_over(graph: DiffusionGraph, rho0: Sequence[Fraction],
                  w: Objective | Sequence, method: str = "enumerate",
                  config: PolytopeConfig | None = None) -> EnergyReport:
    """
    Minimize the objective over the diffusion polytope of (graph, rho0).

    Both methods minimize over every point of a hull spanning the polytope,
    with no vertex list and no certificates; only tied least points take an
    extremality test.  "enumerate" runs the hull-pruned search of `polytope`
    with `config` (default: no classification, since kinds are not part of
    the report's value).  "structured" spans the polytope in closed form,
    not by a vertex list: one candidate per commutation class on the
    complete graph, the subset points on the ordered path; it takes no
    `config`.  If the search was truncated the optimum is only a bound, and
    the report says so.  The sizes of rho0 and of the weights are checked
    before any search.
    """
    rho0 = _population(graph, rho0)
    objective = w if isinstance(w, Objective) else Objective(tuple(w))
    ws = objective.weights
    if len(ws) != graph.n:
        raise ValueError("weight vector does not match the graph size")

    if method == "structured":
        if config is not None:
            raise ValueError("method 'structured' runs no search and takes no config")
        (hull, label), saturated = _structured_hull(graph, rho0), True
    elif method == "enumerate":
        cfg = PolytopeConfig(classify=False) if config is None else config
        hull, saturated, label = enumeration._search(graph, rho0, cfg)
    else:
        raise ValueError(f"unknown method {method!r}")
    best, least = hull.least(ws)

    e0 = _dot(ws, rho0)
    gardner = gardner_limit(objective, rho0)
    fraction = Fraction(0) if e0 == gardner else (e0 - best) / (e0 - gardner)
    return EnergyReport(
        graph=graph,
        rho0=rho0,
        weights=ws,
        initial_energy=e0,
        optimal_energy=best,
        gardner_energy=gardner,
        recovered_fraction=fraction,
        optimal_vertices=label(least),
        method=method,
        completeness="proven" if saturated else "depth-bounded",
        lower_bound_only=not saturated,
    )


def monotone_extremal_check(sequence: Iterable, w: Objective | Sequence,
                            rho0: Sequence[Fraction]) -> bool:
    """
    Does the objective decrease (weakly) after every prefix of the word?
    Extremal sequences never absorb energy back from the waves.
    """
    ws = _weights(w)
    state = PopulationVector(rho0)
    if len(ws) != len(state):
        raise ValueError("weight/state dimension mismatch")
    previous = _dot(ws, state)
    for op in sequence:
        state = op.apply(state)
        current = _dot(ws, state)
        if current > previous:
            return False
        previous = current
    return True


def exponential_populations(n: int, digits: int = 40) -> PopulationVector:
    """
    Exact-rational stand-in for populations proportional to (e^1, ..., e^n):
    each e^i is a correctly-rounded `digits`-digit decimal, converted
    exactly and normalized exactly.  The library never approximates
    internally; callers choose the precision once, here.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if digits < 30:
        raise ValueError("use at least 30 digits")
    with localcontext() as ctx:
        ctx.prec = digits
        raw = [Fraction(Decimal(i).exp()) for i in range(1, n + 1)]
    return PopulationVector.normalized(raw)

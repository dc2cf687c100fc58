"""
Spans around the library's layer boundaries, recorded from outside.

``Tracer.install`` replaces module-level names and class attributes of
the imported library with recording wrappers; ``restore`` puts every
original back.  Spans stay in memory as lists
``[id, name, start, end, parent, instance, args, result]`` and are
recorded only while an instance is open, so output checks run between
instances leave no spans.  ``layer_metrics`` turns the spans of one pass
into the per-layer metrics.
"""
from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from workloads import Library


def boundaries(lib: Library):
    """(span name, owner, attribute, keep call arguments and result) per wrapped name."""
    return [
        ("geometry._phase_one", lib.geometry, "_phase_one", True),
        ("geometry.contains", lib.geometry.IncrementalHull, "contains", True),
        ("geometry.is_extreme_in", lib.geometry.IncrementalHull, "is_extreme_in", False),
        ("enumeration._saturating_bfs", lib.enumeration, "_saturating_bfs", False),
        ("enumeration.hull_vertices", lib.enumeration, "hull_vertices", False),
        ("enumeration.extreme_points", lib.enumeration, "extreme_points", False),
        ("enumeration._classify", lib.enumeration, "_classify", False),
        ("structured.kn_candidate_points", lib.complete, "kn_candidate_points", True),
        ("structured.ordered_path.extreme_points", lib.ordered_path, "extreme_points", True),
        ("core.apply", lib.core.PairOp, "apply", False),
        ("core.apply", lib.core.BlockOp, "apply", False),
        ("optimize.optimize_over", lib.optimize, "optimize_over", False),
    ]


ID, NAME, START, END, PARENT, INSTANCE, ARGS, RESULT = range(8)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, lib: Library) -> None:
        for name, owner, attr, keep in boundaries(lib):
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, original, keep))
            self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, 0.0, 0.0,
                self._stack[-1] if self._stack else None, self.instance, None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _wrap(self, name: str, original, keep: bool):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.instance is None:
                return original(*args, **kwargs)
            span = self._open(name)
            span[START] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if keep:  # copy list arguments now: callers grow them after the call
                span[ARGS] = tuple(tuple(a) if isinstance(a, list) else a for a in args)
                span[RESULT] = result
            return result
        return wrapper

    def begin_instance(self, instance: str) -> list:
        self.instance = instance
        span = self._open("instance")
        span[START] = perf_counter()
        return span

    def end_instance(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()
        self.instance = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:ARGS]) + "\n")


def drop_payloads(spans: list[list]) -> None:
    """Release the call arguments and results kept for the metrics."""
    for s in spans:
        s[ARGS] = s[RESULT] = None


def _bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
               default=0)


def _lp_bits(span) -> int:
    point, points = span[ARGS]
    res = span[RESULT]
    cert = list(res.coefficients or ())
    if res.functional is not None:
        cert += [*res.functional.coefficients, res.functional.offset]
    return max(_bits(point), max((_bits(q) for q in points), default=0), _bits(cert))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one pass; times in seconds."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    name_of = {s[ID]: s[NAME] for s in spans}
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    def total(name):
        return sum(s[END] - s[START] for s in by_name[name])

    def self_time(name):
        return sum(s[END] - s[START] - child_time[s[ID]] for s in by_name[name])

    def under(name, parent):
        return [s for s in by_name[name] if name_of.get(s[PARENT]) == parent]

    def ratio(a, b):
        return a / b if b else 0.0

    lps = by_name["geometry._phase_one"]
    cols = [len(s[ARGS][1]) for s in lps]
    contains = by_name["geometry.contains"]
    in_bfs = under("geometry.contains", "enumeration._saturating_bfs")
    pruned = sum(1 for s in in_bfs if s[RESULT])
    return {
        "geometry.lp_calls": len(lps),
        "geometry.lp_s": total("geometry._phase_one"),
        "geometry.lp_cols_mean": ratio(sum(cols), len(cols)),
        "geometry.lp_cols_max": max(cols, default=0),
        "geometry.lp_rows_max": max((len(s[ARGS][0]) + 1 for s in lps), default=0),
        "geometry.lp_infeasible_frac": ratio(sum(1 for s in lps if not s[RESULT].inside), len(lps)),
        "geometry.lp_bits_max": max((_lp_bits(s) for s in lps), default=0),
        "geometry.hull_contains_calls": len(contains),
        "geometry.hull_contains_s": total("geometry.contains"),
        "geometry.hull_lps_per_query": ratio(len(under("geometry._phase_one", "geometry.contains")),
                                             len(contains)),
        "geometry.extreme_in_calls": len(by_name["geometry.is_extreme_in"]),
        "geometry.extreme_in_s": total("geometry.is_extreme_in"),
        "enumeration.bfs_s": self_time("enumeration._saturating_bfs"),
        "enumeration.states_generated": len(under("core.apply", "enumeration._saturating_bfs")),
        "enumeration.hull_pruned": pruned,
        "enumeration.frontier_added": len(in_bfs) - pruned,
        "enumeration.prune_ratio": ratio(pruned, len(in_bfs)),
        "enumeration.rescan_calls": len(by_name["enumeration.hull_vertices"]),
        "enumeration.rescan_s": total("enumeration.hull_vertices"),
        "enumeration.certify_s": total("enumeration.extreme_points"),
        "enumeration.classify_s": total("enumeration._classify"),
        "structured.kn_candidates": sum(len(s[RESULT]) for s in by_name["structured.kn_candidate_points"]),
        "structured.kn_candidates_s": total("structured.kn_candidate_points"),
        "structured.pn_certify_s": total("structured.ordered_path.extreme_points"),
        "structured.pn_points": sum(len(s[RESULT]) for s in by_name["structured.ordered_path.extreme_points"]),
        "core.apply_calls": len(by_name["core.apply"]),
        "core.apply_s": total("core.apply"),
        "optimize.self_s": self_time("optimize.optimize_over"),
    }

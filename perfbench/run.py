#!/usr/bin/env python3
"""
diffpoly benchmark: wall time to a checked, certified answer.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload random-small --seed 1 --seconds 30 --trace 0

The process is a closed loop: one caller, one thread, calling the library
from ``src/`` sequentially.  After set-up it repeats passes over the
workload's seeded instance list until the next pass would overrun
``--seconds`` (at least one pass).  Every output is checked outside the
timed call; on the default seed its canonical-JSON digest is also compared
with ``digests.json``, and on every seed each repeated pass must reproduce
the first pass's digests.

Times in the JSON are wall times rescaled to a reference machine speed,
which a fixed calibration kernel measures before and after every timed
call (see ``calibration.py``); the raw wall times are printed before the
JSON.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced ``solve_s``); its
spans are written to ``perfbench/out/``.  Human-readable lines come first;
the last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Library  # noqa: E402

END_TO_END_UNITS = {
    "solve_s": "s",
    "instance_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "geometry.lp_calls": "count",
    "geometry.lp_s": "s",
    "geometry.lp_cols_mean": "count",
    "geometry.lp_cols_max": "count",
    "geometry.lp_rows_max": "count",
    "geometry.lp_infeasible_frac": "ratio",
    "geometry.lp_bits_max": "bits",
    "geometry.hull_contains_calls": "count",
    "geometry.hull_contains_s": "s",
    "geometry.hull_lps_per_query": "ratio",
    "geometry.extreme_in_calls": "count",
    "geometry.extreme_in_s": "s",
    "enumeration.bfs_s": "s",
    "enumeration.states_generated": "count",
    "enumeration.hull_pruned": "count",
    "enumeration.frontier_added": "count",
    "enumeration.prune_ratio": "ratio",
    "enumeration.rescan_calls": "count",
    "enumeration.rescan_s": "s",
    "enumeration.certify_s": "s",
    "enumeration.classify_s": "s",
    "structured.kn_candidates": "count",
    "structured.kn_candidates_s": "s",
    "structured.pn_certify_s": "s",
    "structured.pn_points": "count",
    "core.apply_calls": "count",
    "core.apply_s": "s",
    "optimize.self_s": "s",
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here, e.g. the library sources are missing."""


def load_library() -> Library:
    """Import diffpoly afresh from the checkout's ``src/``."""
    if not (SRC / "diffpoly" / "__init__.py").is_file():
        raise SetupError(f"no diffpoly sources under {SRC}")
    for name in [m for m in sys.modules if m == "diffpoly" or m.startswith("diffpoly.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("diffpoly")
    if Path(pkg.__file__).resolve().parent != (SRC / "diffpoly").resolve():
        raise SetupError(f"imported diffpoly from {pkg.__file__}, not from {SRC}")
    mod = importlib.import_module
    return Library(
        core=mod("diffpoly.core"),
        enumeration=mod("diffpoly.enumeration"),
        geometry=mod("diffpoly.geometry"),
        optimize=mod("diffpoly.optimize"),
        complete=mod("diffpoly.structured.complete"),
        ordered_path=mod("diffpoly.structured.ordered_path"),
        cli=mod("diffpoly.cli"),
    )


def set_up(workload: str, seed: int):
    """Import, generate the inputs and warm up; returns (seconds, lib, instances)."""
    t0 = perf_counter()
    lib = load_library()
    instances = workloads.build(workload, lib, seed)
    workloads.warm_up(workload, lib)
    return perf_counter() - t0, lib, instances


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)    # rescaled, see calibration.py
    wall: list[float] = field(default_factory=list)     # raw wall times
    failures: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        return sum(self.times)


def run_pass(lib: Library, instances, tracer: tracing.Tracer | None = None) -> Pass:
    """
    Time each instance's call between two runs of the calibration kernel,
    then check its output outside the timing.
    """
    gc.collect()
    out = Pass()
    kernel = calibration.kernel_s()
    for inst in instances:
        span = tracer.begin_instance(inst.id) if tracer else None
        t0 = perf_counter()
        try:
            result, error = inst.run(), None
        except Exception as exc:  # a failed instance is counted, and the run goes on
            result, error = None, exc
        wall = perf_counter() - t0
        if tracer:
            tracer.end_instance(span)
        kernel_after = calibration.kernel_s()
        out.wall.append(wall)
        out.times.append(calibration.scale(wall, kernel, kernel_after))
        kernel = kernel_after
        if error is not None:
            out.failures[inst.id] = [f"raised {type(error).__name__}: {error}"]
            continue
        try:
            reasons = checks.check(lib, inst, result)
            out.digests[inst.id] = checks.digest(lib, inst, result)
        except Exception as exc:  # a check that cannot run fails the instance
            reasons = [f"check raised {type(exc).__name__}: {exc}"]
        if reasons:
            out.failures[inst.id] = reasons
    return out


def compare_digests(p: Pass, reference: dict[str, str], label: str) -> None:
    for key, value in p.digests.items():
        if reference.get(key) != value:
            p.failures.setdefault(key, []).append(f"output digest differs from {label}")


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it."""
    for q in (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50):
        if len(times) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(times, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None


def measure(lib: Library, instances, seconds: float, trace: bool,
            expected: dict[str, str] | None):
    """Repeat passes (untraced, then traced when `trace`) until `seconds` would be overrun."""
    untraced: list[Pass] = []
    traced: list[tuple[Pass, dict[str, float]]] = []
    tracer = tracing.Tracer() if trace else None
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(lib, instances))
        if trace:
            mark = len(tracer.spans)
            tracer.install(lib)
            try:
                p = run_pass(lib, instances, tracer)
            finally:
                tracer.restore()
            traced.append((p, tracing.layer_metrics(tracer.spans[mark:])))
            tracing.drop_payloads(tracer.spans[mark:])
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    first = untraced[0].digests
    for p in untraced[1:] + [tp for tp, _ in traced]:
        compare_digests(p, first, "the first pass")
    if expected is not None:
        compare_digests(untraced[0], expected, "the recorded table")
    return untraced, traced, tracer


def summarize(untraced: list[Pass], traced, setups: list[float], setups_wall: list[float]):
    """(end-to-end metrics, per-layer metrics, extra report lines, attempted, failed)."""
    times = [t for p in untraced for t in p.times]
    wall = [t for p in untraced for t in p.wall]
    solve = statistics.median(p.solve_s for p in untraced)
    e2e = {
        "solve_s": solve,
        "instance_s_p50": statistics.median(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(len(p.times) for p in untraced) + sum(len(p.times) for p, _ in traced)
    failed = sum(len(p.failures) for p in untraced) + sum(len(p.failures) for p, _ in traced)
    lines = [
        f"passes = {len(untraced)} untraced, {len(traced)} traced; "
        f"{len(untraced[0].times)} instances per pass",
        f"wall time before rescaling: solve_s = {statistics.median(sum(p.wall) for p in untraced):.6f} s, "
        f"instance_s_p50 = {statistics.median(wall):.6f} s, setup_s = {statistics.median(setups_wall):.6f} s",
        f"machine speed = {sum(times) / sum(wall):.4f} x the calibration reference",
    ]
    t = tail(times)
    if t is None:
        lines.append(f"instance_s_tail = omitted ({len(times)} samples, fewer than 20)")
    else:
        lines.append(f"instance_s_tail = {t[1]:.6f} s (p{t[0]:g} of {len(times)} samples)")
    lines.append(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted})")
    layer = {}
    if traced:
        for name in traced[0][1]:
            layer[name] = statistics.median(m[name] for _, m in traced)
        layer["trace.solve_s"] = statistics.median(p.solve_s for p, _ in traced)
        layer["trace.overhead_s"] = layer["trace.solve_s"] - solve
    return e2e, layer, lines, attempted, failed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the default-seed table")
    args = ap.parse_args(argv)
    if args.record_digests and args.seed != DEFAULT_SEED:
        ap.error(f"--record-digests needs the default seed {DEFAULT_SEED}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setups, setups_wall = [], []
        kernel = calibration.kernel_s()
        for _ in range(SETUP_REPEATS):
            seconds, lib, instances = set_up(args.workload, args.seed)
            kernel_after = calibration.kernel_s()
            setups_wall.append(seconds)
            setups.append(calibration.scale(seconds, kernel, kernel_after))
            kernel = kernel_after
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = None
    if args.seed == DEFAULT_SEED and not args.record_digests:
        expected = table.get(args.workload)
        if expected is None:
            print(f"perfbench: {DIGESTS.name} has no table for {args.workload}", file=sys.stderr)
            return 2

    untraced, traced, tracer = measure(lib, instances, args.seconds, bool(args.trace), expected)
    e2e, layer, lines, attempted, failed = summarize(untraced, traced, setups, setups_wall)

    if args.record_digests:
        table[args.workload] = untraced[0].digests
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    for p in untraced + [tp for tp, _ in traced]:
        for key, reasons in p.failures.items():
            print(f"FAILED {key}: {'; '.join(reasons)}", file=sys.stderr)
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6f} {END_TO_END_UNITS[name]}")
    print("\n".join(lines))
    for name, value in layer.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")

    chosen, units = (layer, PER_LAYER_UNITS) if args.trace else (e2e, END_TO_END_UNITS)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""
Command-line front end: enumerate polytopes, optimize objectives, and run
the verification suites.

Exit codes: 0 success; 1 verification failure, meaning a check failed,
overran its time budget or raised; 2 invalid input, including malformed
input files, a `verify --n` below 3 and search knobs given to
`optimize --method structured`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .core import (
    DiffusionGraph,
    PopulationVector,
    complete,
    cycle,
    format_rational,
    grid_composition,
    helium_p5,
    parse_rational,
    path,
)
from .enumeration import PolytopeConfig, PolytopeResult, polytope
from .optimize import optimize_over
from . import verify as verify_mod

__all__ = ["main", "build_parser", "parse_graph", "parse_rho", "render_svg", "render_csv"]


def parse_graph(spec: str) -> DiffusionGraph:
    """
    Build a graph from "builder:params" or load one from a JSON file
    ({"n": ..., "edges": [[i, j], ...]}).
    """
    if os.path.exists(spec) or spec.endswith(".json"):
        return _load(spec, DiffusionGraph.from_json)
    name, _, params = spec.partition(":")
    if name == "complete":
        return complete(int(params))
    if name == "path":
        return path(int(params))
    if name == "cycle":
        return cycle(int(params))
    if name == "helium_p5":
        return helium_p5()
    if name == "grid":
        m, _, n = params.partition("x")
        return grid_composition(int(m), int(n))
    raise ValueError(f"unknown graph spec {spec!r}")


def _load(spec: str, from_json):
    """`from_json` of the JSON file `spec`, naming the file in any error."""
    data = json.loads(Path(spec).read_text())
    try:
        return from_json(data)
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from None


def parse_rho(spec: str) -> PopulationVector:
    """Inline comma-separated p/q values, or a JSON file holding a state."""
    if os.path.exists(spec):
        return _load(spec, PopulationVector.from_json)
    return PopulationVector(map(parse_rational, spec.split(",")))


def parse_weights(spec: str) -> tuple[Fraction, ...]:
    """Inline comma-separated p/q values, or a JSON file with a list of p/q strings."""
    if not os.path.exists(spec):
        return tuple(map(parse_rational, spec.split(",")))
    data = json.loads(Path(spec).read_text())
    if not (isinstance(data, list) and all(isinstance(s, str) for s in data)):
        raise ValueError(f"{spec}: expected a JSON list of p/q strings")
    return tuple(map(parse_rational, data))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def render_csv(result: PolytopeResult) -> str:
    n = result.graph.n
    header = [f"rho{i}" for i in range(1, n + 1)] + ["kind", "sequence"]
    lines = [",".join(header)]
    for v in result.vertices:
        row = [format_rational(c) for c in v.point] + [v.kind, str(v.sequence)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _require_three_levels(graph: DiffusionGraph) -> None:
    if graph.n != 3:
        raise ValueError("SVG projection is only defined for n = 3")


def render_svg(result: PolytopeResult, size: int = 400) -> str:
    """
    Cosmetic 2-D hull figure for three-level problems: the normalization
    makes the third coordinate ignorable, so vertices are drawn at
    (rho1, rho2).  Display only; nothing downstream depends on it.
    """
    _require_three_levels(result.graph)
    pts = [(float(v.point[0]), float(v.point[1])) for v in result.vertices]
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))

    def sx(x: float) -> float:
        return 40 + x * (size - 80)

    def sy(y: float) -> float:
        return size - 40 - y * (size - 80)

    polygon = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in ordered)
    dots = "".join(
        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="4" fill="black"/>'
        for x, y in pts
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">'
        f'<polygon points="{polygon}" fill="#9ecae1" fill-opacity="0.5" stroke="#3182bd"/>'
        f"{dots}</svg>\n"
    )


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    graph = parse_graph(args.graph)
    rho0 = parse_rho(args.rho)
    config = PolytopeConfig(
        max_depth=args.depth,
        use_blocks=(args.blocks == "on"),
        classify=None if args.classify == "auto" else (args.classify == "on"),
    )
    if args.format == "svg":  # before the search, which can take long
        _require_three_levels(graph)
    result = polytope(graph, rho0, config)
    if args.format == "json":
        _write(canonical_json(result.to_json()), args.out)
    elif args.format == "csv":
        _write(render_csv(result), args.out)
    elif args.format == "svg":
        _write(render_svg(result), args.out)
    return 0


def cmd_optimize(args) -> int:
    graph = parse_graph(args.graph)
    rho0 = parse_rho(args.rho)
    weights = parse_weights(args.weights)
    config = None
    if args.method == "enumerate":
        config = PolytopeConfig(
            max_depth=args.depth, use_blocks=(args.blocks != "off"), classify=False
        )
    elif args.depth is not None or args.blocks is not None:
        raise ValueError("--depth and --blocks apply to --method enumerate only")
    report = optimize_over(graph, rho0, weights, method=args.method, config=config)
    text = canonical_json(report.to_json())
    summary = (
        f"optimal energy {report.display_optimal():s}: recovered "
        f"{report.recovered_percent():.1f}% of the Gardner limit"
        f" ({report.completeness}{', lower bound only' if report.lower_bound_only else ''})\n"
    )
    if args.out:
        Path(args.out).write_text(text)
        sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary)
    return 0


def cmd_verify(args) -> int:
    results = verify_mod.run_suite(args.suite, n=args.n)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not r.passed:
            failed += 1
        sys.stdout.write(f"{status}  {r.name:<{width}}  {r.seconds:6.2f}s  {r.detail}\n")
    sys.stdout.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffpoly",
        description="Exact diffusion-polytope enumeration and optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate certified polytope vertices")
    p_enum.add_argument("--graph", required=True, help="builder:params (complete:4, path:3, cycle:4, helium_p5, grid:3x2) or a JSON file")
    p_enum.add_argument("--rho", required=True, help="comma-separated p/q values or a JSON file")
    p_enum.add_argument("--depth", type=int, default=None, help="search depth (default C(n,2)+n)")
    p_enum.add_argument("--blocks", choices=["on", "off"], default="on")
    p_enum.add_argument("--classify", choices=["on", "off", "auto"], default="auto")
    p_enum.add_argument("--out", default=None)
    p_enum.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    p_enum.set_defaults(func=cmd_enumerate)

    p_opt = sub.add_parser("optimize", help="minimize a linear objective over the polytope")
    p_opt.add_argument("--graph", required=True)
    p_opt.add_argument("--rho", required=True)
    p_opt.add_argument("--weights", required=True, help="comma-separated p/q values or a JSON file")
    p_opt.add_argument("--method", choices=["enumerate", "structured"], default="enumerate")
    p_opt.add_argument("--depth", type=int, default=None,
                       help="search depth (default C(n,2)+n); --method enumerate only")
    p_opt.add_argument("--blocks", choices=["on", "off"], default=None,
                       help="block operators (default on); --method enumerate only")
    p_opt.add_argument("--out", default=None)
    p_opt.set_defaults(func=cmd_optimize)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("suite", choices=sorted(verify_mod.SUITES) + ["all"])
    p_ver.add_argument("--n", type=int, default=None, help="size parameter where applicable")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""
Output checks for benchmark instances.

Each check runs after the timed call and outside its timing.  It returns
a list of reasons; an empty list means the output passed.  Checks rely on
substitution and replay only: certificates are verified against the other
vertices, every vertex word is replayed through ``apply_sequence``, and
energies are recomputed from their definition.
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

from workloads import Instance, Library


def output_json(inst: Instance, result):
    if inst.kind == "kn":
        return [{"point": p.to_json(), "sequence": s.to_json()} for p, s in result]
    return result.to_json()


def digest(lib: Library, inst: Instance, result) -> str:
    text = lib.cli.canonical_json(output_json(inst, result))
    return hashlib.sha256(text.encode()).hexdigest()


def _replay(lib: Library, inst: Instance, pairs) -> list[str]:
    bad = [p for p, seq in pairs if lib.core.apply_sequence(seq, inst.rho, inst.graph) != p]
    return [f"{len(bad)} vertex words do not replay to their points"] if bad else []


def _certificates(points, certificates) -> list[str]:
    if sorted(c.point for c in certificates) != sorted(points):
        return ["certificates do not cover exactly the vertices"]
    failed = 0
    for cert in certificates:
        others = [q for q in points if q != cert.point]
        if not cert.is_extreme or not cert.verify(others):
            failed += 1
    return [f"{failed} extremality certificates fail"] if failed else []


def _energy(weights, point) -> Fraction:
    return sum(Fraction(w) * x for w, x in zip(weights, point))


def _check_polytope(lib, inst, res) -> list[str]:
    out = []
    if res.completeness != "proven":
        out.append(f"completeness {res.completeness!r}")
    points = res.points()
    out += _certificates(points, res.certificates)
    out += _replay(lib, inst, [(v.point, v.sequence) for v in res.vertices])
    if "vertices" in inst.expect and len(points) != inst.expect["vertices"]:
        out.append(f"{len(points)} vertices, expected {inst.expect['vertices']}")
    return out


def _check_optimize(lib, inst, rep) -> list[str]:
    out = []
    if rep.completeness != "proven" or rep.lower_bound_only:
        out.append(f"completeness {rep.completeness!r}, lower bound only {rep.lower_bound_only}")
    if not rep.optimal_vertices:
        return out + ["no optimal vertices"]
    values = {_energy(inst.weights, v.point) for v in rep.optimal_vertices}
    if values != {rep.optimal_energy}:
        out.append("optimum is not the energy of the returned vertices")
    if rep.initial_energy != _energy(inst.weights, inst.rho):
        out.append("initial energy is not the energy of rho0")
    if not rep.gardner_energy <= rep.optimal_energy <= rep.initial_energy:
        out.append("energies not ordered gardner <= optimal <= initial")
    span = rep.initial_energy - rep.gardner_energy
    fraction = (rep.initial_energy - rep.optimal_energy) / span if span else Fraction(0)
    if rep.recovered_fraction != fraction:
        out.append("recovered fraction does not match the energies")
    if "percent" in inst.expect and abs(fraction * 100 - inst.expect["percent"]) > 1:
        out.append(f"recovered {float(fraction * 100):.2f}%, expected {inst.expect['percent']}±1")
    out += _replay(lib, inst, [(v.point, v.sequence) for v in rep.optimal_vertices])
    return out


def _check_kn(lib, inst, pairs) -> list[str]:
    points = [p for p, _ in pairs]
    out = []
    if points != sorted(set(points)):
        out.append("K_n vertices not distinct and sorted")
    if inst.rho not in points:
        out.append("rho0 missing from the K_n vertices")
    return out + _replay(lib, inst, pairs)


def _check_pn(lib, inst, res) -> list[str]:
    out = []
    points = [v.point for v in res.vertices]
    if res.completeness != "proven":
        out.append(f"completeness {res.completeness!r}")
    if len(points) != inst.expect["vertices"]:
        out.append(f"{len(points)} vertices, expected {inst.expect['vertices']}")
    out += _certificates(points, res.certificates)
    return out + _replay(lib, inst, [(v.point, v.sequence) for v in res.vertices])


CHECKS = {
    "polytope": _check_polytope,
    "optimize": _check_optimize,
    "kn": _check_kn,
    "pn": _check_pn,
}


def check(lib: Library, inst: Instance, result) -> list[str]:
    return CHECKS[inst.kind](lib, inst, result)

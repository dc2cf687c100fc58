"""
Tests of the benchmark itself, on small inputs.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import json
import re
from pathlib import Path

import pytest

import run
import tracing
import workloads
from workloads import Instance

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def inputs(instances):
    return [
        (i.id, i.func, i.graph.to_json(), i.rho.to_json(), i.weights, sorted(i.kwargs))
        for i in instances
    ]


def small_instances(lib):
    """A few cheap instances covering every instance kind and traced layer."""
    core, pv = lib.core, lib.core.PopulationVector.normalized
    rho3, rho4 = pv([1, 3, 7]), pv([2, 3, 5, 11])
    return workloads.random_small(lib, seed=5)[:4] + [
        Instance(id="p3-classified", kind="polytope", module=lib.enumeration, func="polytope",
                 args=(core.path(3), rho3), graph=core.path(3), rho=rho3),
        Instance(id="k3", kind="kn", module=lib.complete, func="kn_extreme_points",
                 args=(rho3,), graph=core.complete(3), rho=rho3),
        Instance(id="p4", kind="pn", module=lib.ordered_path, func="pn_polytope",
                 args=(rho4,), graph=core.path(4), rho=rho4, expect={"vertices": 8}),
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(lib, workload):
    a = inputs(workloads.build(workload, lib, 7))
    assert a == inputs(workloads.build(workload, lib, 7))
    assert a != inputs(workloads.build(workload, lib, 8))


def test_random_small_mix(lib):
    shapes = [i.id.split("-")[1] for i in workloads.random_small(lib, seed=3)]
    expected = dict(workloads.RANDOM_SMALL_N3 + workloads.RANDOM_SMALL_N4)
    assert {s: shapes.count(s) for s in expected} == expected
    assert all(i.graph.n == 4 for i in workloads.random_small(lib, 3)[9::10])


@pytest.fixture(scope="module")
def traced_run(lib):
    originals = {(owner, attr): owner.__dict__[attr]
                 for _, owner, attr, _ in tracing.boundaries(lib)}
    untraced, traced, tracer = run.measure(lib, small_instances(lib), 0, True, None)
    return originals, untraced, traced, tracer


def test_traced_and_untraced_digests_match(traced_run):
    _, untraced, traced, tracer = traced_run
    (p, _), = traced
    assert untraced[0].digests == p.digests
    assert len(p.digests) == 7
    assert not untraced[0].failures and not p.failures
    assert {s[tracing.NAME] for s in tracer.spans} >= {
        "geometry._phase_one", "enumeration._classify", "core.apply",
        "structured.ordered_path.extreme_points", "optimize.optimize_over",
    }


def test_wrappers_are_removed_after_traced_run(traced_run, lib):
    originals, _, _, tracer = traced_run
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    assert not any(hasattr(f, "__wrapped__") for f in originals.values())
    n = len(tracer.spans)
    small_instances(lib)[0].run()
    assert len(tracer.spans) == n


def test_metric_names_and_units(traced_run):
    _, untraced, traced, _ = traced_run
    e2e, layer, _, attempted, failed = run.summarize(untraced, traced, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    assert (attempted, failed) == (14, 0)
    assert set(e2e) == set(run.END_TO_END_UNITS)
    assert set(layer) == set(run.PER_LAYER_UNITS)
    for name, unit in {**run.END_TO_END_UNITS, **run.PER_LAYER_UNITS}.items():
        assert NAME.fullmatch(name) and unit
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units


def test_failed_instance_is_counted(lib):
    bad = Instance(id="bad", kind="pn", module=lib.ordered_path, func="pn_polytope",
                   args=(lib.core.PopulationVector.normalized([3, 2, 1]),))
    p = run.run_pass(lib, [bad])
    assert list(p.failures) == ["bad"] and len(p.times) == 1


def test_lp_metrics_count_columns_at_call_time(lib):
    """pn_polytope at n=4: 7 scan LPs against 1..7 vertices, then 8 certificates against 7."""
    rho = lib.core.PopulationVector.normalized([2, 3, 5, 11])
    pn = Instance(id="p4", kind="pn", module=lib.ordered_path, func="pn_polytope",
                  args=(rho,), graph=lib.core.path(4), rho=rho, expect={"vertices": 8})
    _, traced, _ = run.measure(lib, [pn], 0, True, None)
    (_, m), = traced
    assert (m["geometry.lp_calls"], m["geometry.lp_cols_max"]) == (15, 7)
    assert m["geometry.lp_cols_mean"] == pytest.approx((28 + 8 * 7) / 15)
    assert m["structured.pn_points"] == 8 and m["enumeration.rescan_calls"] == 0

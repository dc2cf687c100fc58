"""
End-to-end acceptance runs, one test per check, each printing its own
PASS/FAIL line.  The same checks back `diffpoly verify all`.

Each check declares its time budget once, on the decorator that times it
in `diffpoly.verify`, so these direct calls are held to it too: the
three-level runs must stay under a second, the hypercube sweep under a
minute, the four-cycle table and analysis, the pair images and the energy
recovery under two minutes each, and the triangle identities and property
suites within their own budgets.
"""
import pytest

from diffpoly import verify


def _report(result: verify.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"acceptance [{result.name}]: {status} - {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_k3_vertex_list():
    _report(verify.check_k3())


def test_p3_case_split():
    _report(verify.check_p3_cases())


def test_ordered_path_hypercube():
    _report(verify.check_pn(7))


def test_fibonacci_counts():
    _report(verify.check_counts(12))


def test_c4_reference_table():
    _report(verify.check_c4_table())


def test_c4_generic_analysis():
    _report(verify.check_c4_analysis())


def test_step_decomposition_witnesses():
    _report(verify.check_pair_images(6))


def test_triangle_identities():
    _report(verify.check_triangles())


def test_energy_recovery():
    _report(verify.check_energy())


@pytest.mark.parametrize("check", verify.SUITES["properties"],
                         ids=lambda c: c.__name__)
def test_property_suites(check):
    _report(check())

import itertools
import json

import pytest

from diffpoly import cli
from diffpoly import verify as verify_mod
from diffpoly.core import DiffusionGraph, PopulationVector, helium_p5
from diffpoly.optimize import exponential_populations
from diffpoly.verify import CheckResult


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_graph_builders(self):
        assert cli.parse_graph("complete:4").n == 4
        assert cli.parse_graph("path:3").edges == frozenset({(1, 2), (2, 3)})
        assert cli.parse_graph("cycle:4").n == 4
        assert cli.parse_graph("helium_p5") == helium_p5()
        assert cli.parse_graph("grid:3x2").n == 6

    def test_graph_file(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps(helium_p5().to_json()))
        assert cli.parse_graph(str(f)) == helium_p5()

    def test_unknown_graph(self):
        with pytest.raises(ValueError):
            cli.parse_graph("tree:3")

    def test_rho_inline_and_file(self, tmp_path):
        inline = cli.parse_rho("0,2/7,5/7")
        assert inline == PopulationVector(["0", "2/7", "5/7"])
        f = tmp_path / "rho.json"
        f.write_text(json.dumps(inline.to_json()))
        assert cli.parse_rho(str(f)) == inline


class TestEnumerate:
    def test_path3_includes_uniform(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "path:3",
                               "--rho", "0,2/7,5/7")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 4
        assert ["1/3", "1/3", "1/3"] in [v["point"] for v in data["vertices"]]
        assert data["completeness"] == "proven"

    def test_cycle4_reference_instance(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "cycle:4",
                               "--rho", "1/10,2/10,3/10,4/10")
        assert code == 0
        data = json.loads(out)
        assert len(data["vertices"]) == 18

    def test_complete2(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "complete:2",
                               "--rho", "1/4,3/4")
        assert code == 0
        data = json.loads(out)
        assert [v["point"] for v in data["vertices"]] == [
            ["1/4", "3/4"], ["1/2", "1/2"],
        ]

    def test_deterministic_output(self, capsys):
        args = ("enumerate", "--graph", "path:3", "--rho", "0,2/7,5/7")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "path:3",
                               "--rho", "0,2/7,5/7", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho1,rho2,rho3,kind,sequence"
        assert len(lines) == 5

    def test_svg_projection(self, capsys, tmp_path):
        out_file = tmp_path / "hull.svg"
        code, _, _ = run_cli(capsys, "enumerate", "--graph", "path:3",
                             "--rho", "0,2/7,5/7", "--format", "svg",
                             "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg") and "polygon" in text

    def test_svg_rejected_beyond_three_levels(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--graph", "path:4",
                               "--rho", "1/10,2/10,3/10,4/10", "--format", "svg")
        assert code == 2
        assert "error" in err

    def test_svg_refused_before_any_search(self, capsys, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(cli, "polytope", no_search)
        code, _, err = run_cli(capsys, "enumerate", "--graph", "cycle:5",
                               "--rho", "1/15,2/15,3/15,4/15,5/15", "--format", "svg")
        assert code == 2
        assert "only defined for n = 3" in err

    def test_round_trip_via_files(self, capsys, tmp_path):
        out_file = tmp_path / "res.json"
        run_cli(capsys, "enumerate", "--graph", "cycle:4",
                "--rho", "1/10,2/10,3/10,4/10", "--out", str(out_file))
        data = json.loads(out_file.read_text())
        graph = DiffusionGraph.from_json(data["graph"])
        rho = PopulationVector.from_json(data["rho0"])
        assert graph == cli.parse_graph("cycle:4")
        assert rho == cli.parse_rho("1/10,2/10,3/10,4/10")

    def test_depth_and_blocks_flags(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "path:3",
                               "--rho", "0,2/7,5/7", "--depth", "1",
                               "--blocks", "off")
        assert code == 0
        data = json.loads(out)
        assert data["completeness"] == "depth-bounded"
        assert data["truncated"] is True

    def test_tied_depth_bound_classifies(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--graph", "cycle:4",
                               "--rho", "1/7,1/7,2/7,3/7", "--depth", "2")
        assert code == 0
        data = json.loads(out)
        assert data["completeness"] == "depth-bounded"
        assert "unclassified" not in {v["kind"] for v in data["vertices"]}


class TestOptimize:
    def test_path4_summary(self, capsys, tmp_path):
        rho_file = tmp_path / "rho.json"
        rho_file.write_text(json.dumps(exponential_populations(4).to_json()))
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "optimize", "--graph", "path:4",
                               "--rho", str(rho_file), "--weights", "1,2,3,4",
                               "--method", "structured", "--out", str(out_file))
        assert code == 0
        assert "recovered 50.0% of the Gardner limit" in out
        data = json.loads(out_file.read_text())
        assert data["optimal_vertices"][0]["point"] == ["1/4", "1/4", "1/4", "1/4"]

    def test_report_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--graph", "complete:3",
                                 "--rho", "0,2/7,5/7", "--weights", "1,2,3")
        assert code == 0
        data = json.loads(out)
        assert data["optimal_energy"] == "13/7"
        assert "recovered" in err

    def test_weights_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--graph", "complete:3", "--rho", "0,2/7,5/7"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_counts_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "--n", "8")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_k3_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "k3")
        assert code == 0
        assert "k3-vertices" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(
            verify_mod.SUITES, "k3",
            [lambda n=None: CheckResult("forced", False, "synthetic failure")],
        )
        code, out, _ = run_cli(capsys, "verify", "k3")
        assert code == 1
        assert "FAIL" in out

    def test_results_carry_seconds(self):
        results = verify_mod.run_suite("k3")
        assert results and all(r.seconds >= 0 for r in results)

    def test_over_budget_check_fails(self, capsys, monkeypatch):
        ticks = itertools.count(0.0, 1000.0)
        monkeypatch.setattr(verify_mod.time, "monotonic", lambda: next(ticks))
        code, out, _ = run_cli(capsys, "verify", "k3")
        assert code == 1
        assert "FAIL" in out and "(budget 1s)" in out

    def test_raising_check_fails(self, capsys, monkeypatch):
        def boom(rho0):
            raise ValueError("boom")

        monkeypatch.setattr(verify_mod, "kn_extreme_points", boom)
        code, out, err = run_cli(capsys, "verify", "k3")
        assert code == 1 and err == ""
        assert "FAIL" in out and "ValueError: boom" in out

    @pytest.mark.parametrize("suite, n", [("pn", "-3"), ("pn", "2"),
                                          ("witness", "2"), ("counts", "1")])
    def test_size_below_three_exit_2(self, capsys, suite, n):
        code, out, err = run_cli(capsys, "verify", suite, "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "n must be >= 3" in err

    def test_size_refused_where_unused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "k3", "--n", "9")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "takes no size parameter" in err

    @pytest.mark.parametrize("suite, n, limit", [("pn", "11", 10), ("pn", "30", 10),
                                                 ("witness", "9", 8), ("all", "9", 8),
                                                 ("counts", "1000001", 1000000)])
    def test_size_above_the_limit_exit_2_before_any_check(self, capsys, monkeypatch,
                                                          suite, n, limit):
        started = []  # every check reads the clock first
        monkeypatch.setattr(verify_mod.time, "monotonic", lambda: started.append(1) or 0.0)
        code, out, err = run_cli(capsys, "verify", suite, "--n", n)
        assert code == 2 and out == "" and started == []
        assert err.startswith("error:") and f"up to n = {limit}, got {n}" in err

    def test_counts_size_is_the_identity_bound(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "counts", "--n", "5")
        assert code == 0
        assert "triangular identity to n=5" in out


class TestErrors:
    def test_bad_rho_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--graph", "path:3",
                               "--rho", "1/2,1/2,1/2")
        assert code == 2 and "error" in err

    def test_bad_graph_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--graph", "blob:9",
                               "--rho", "1/2,1/2")
        assert code == 2

    def test_negative_depth_exit_2(self, capsys):
        rho = "1/10,2/10,3/10,4/10"
        for argv in (("enumerate", "--graph", "cycle:4", "--rho", rho, "--depth", "-2"),
                     ("optimize", "--graph", "cycle:4", "--rho", rho,
                      "--weights", "1,2,3,4", "--depth", "-1")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert "max_depth must be >= 0" in err

    @pytest.mark.parametrize("flag, content", [
        ("--graph", [1, 2]),
        ("--graph", {"n": 3}),
        ("--graph", {"n": "3", "edges": [[1, 2], [2, 3]]}),
        ("--graph", {"n": 3, "edges": [[1, 2, 3]]}),
        ("--rho", [0.5, 0.5]),
        ("--rho", {"rho": ["1/2", "1/2"]}),
        ("--weights", [1, 2]),
    ])
    def test_malformed_file_exit_2(self, capsys, tmp_path, flag, content):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(content))
        args = {"--graph": "path:2", "--rho": "1/4,3/4", "--weights": "1,2", flag: str(f)}
        argv = ["optimize"] + [x for item in args.items() for x in item]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(f) in err

    def test_invalid_state_file_is_named(self, capsys, tmp_path):
        # a rho file is read as a state: a negative population names the file
        f = tmp_path / "rho.json"
        f.write_text(json.dumps(["3/2", "-1/2"]))
        code, out, err = run_cli(capsys, "optimize", "--graph", "path:2", "--rho", str(f),
                                 "--weights", "1,2")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f}: ") and "negative population" in err

    @pytest.mark.parametrize("flag, value", [
        ("--rho", "1/0,1"),
        ("--weights", "1/0,2"),
        ("--rho", ["1/2", "1/0"]),
    ])
    def test_zero_denominator_exit_2(self, capsys, tmp_path, flag, value):
        if isinstance(value, list):
            f = tmp_path / "input.json"
            f.write_text(json.dumps(value))
            value = str(f)
        args = {"--graph": "path:2", "--rho": "1/4,3/4", "--weights": "1,2", flag: value}
        argv = ["optimize"] + [x for item in args.items() for x in item]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "'1/0' has a zero denominator" in err

    @pytest.mark.parametrize("method", ["enumerate", "structured"])
    def test_optimize_population_size_exit_2(self, capsys, method):
        code, out, err = run_cli(capsys, "optimize", "--graph", "complete:4",
                                 "--rho", "0,2/7,5/7", "--weights", "1,2,3,4",
                                 "--method", method)
        assert code == 2 and out == ""
        assert "population vector does not match the graph size" in err

    @pytest.mark.parametrize("knob", [("--depth", "2"), ("--blocks", "off")])
    def test_structured_refuses_search_knobs_exit_2(self, capsys, knob):
        code, out, err = run_cli(capsys, "optimize", "--graph", "complete:3",
                                 "--rho", "0,2/7,5/7", "--weights", "1,2,3",
                                 "--method", "structured", *knob)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--method enumerate only" in err

    def test_mismatched_sizes_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "enumerate", "--graph", "path:4",
                             "--rho", "0,2/7,5/7")
        assert code == 2

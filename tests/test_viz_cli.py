"""Tests for repro.viz (ASCII rendering) and repro.cli (command line)."""

import numpy as np
import pytest

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem
from repro.cli import main
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError
from repro.viz import load_legend, render_loads, render_path


class TestRenderLoads:
    def test_shape_and_glyphs(self, mesh2, pm_fig2):
        prob = RoutingProblem(
            mesh2, pm_fig2, [Communication((0, 0), (1, 1), 4.0)]
        )
        text = render_loads(
            mesh2, Routing.xy(prob).link_loads(), power=pm_fig2
        )
        lines = text.splitlines()
        assert len(lines) == 3  # core row, vertical row, core row
        assert "4" in text  # the saturated links render as level 4
        assert "o" in text

    def test_overload_glyph(self, mesh2):
        loads = np.zeros(mesh2.num_links)
        loads[mesh2.link_east(0, 0)] = 99.0
        text = render_loads(mesh2, loads, bandwidth=10.0)
        assert "!" in text

    def test_requires_bandwidth_or_model(self, mesh2):
        with pytest.raises(InvalidParameterError):
            render_loads(mesh2, np.zeros(mesh2.num_links))

    def test_rejects_bad_shape(self, mesh2):
        with pytest.raises(InvalidParameterError):
            render_loads(mesh2, np.zeros(3), bandwidth=1.0)

    def test_legend_mentions_every_glyph(self):
        legend = load_legend()
        for g in ".1234!":
            assert g in legend


class TestRenderPath:
    def test_endpoints_and_body(self, mesh44):
        p = Path.xy(mesh44, (0, 0), (2, 3))
        text = render_path(p)
        assert text.count("S") == 1
        assert text.count("D") == 1
        assert text.count("#") == p.length - 1


class TestCli:
    def test_generate_and_route(self, tmp_path, capsys):
        wl = tmp_path / "wl.csv"
        assert main(
            [
                "generate", "--mesh", "6x6", "--n", "8", "--seed", "1",
                "--out", str(wl),
            ]
        ) == 0
        assert wl.exists()
        out_json = tmp_path / "routing.json"
        code = main(
            [
                "route", str(wl), "--mesh", "6x6", "--heuristic", "PR",
                "--out", str(out_json), "--show-map",
            ]
        )
        captured = capsys.readouterr().out
        assert "PR" in captured
        assert out_json.exists()
        assert code in (0, 1)

    def test_route_best(self, tmp_path, capsys):
        wl = tmp_path / "wl.csv"
        main(["generate", "--n", "5", "--seed", "2", "--out", str(wl)])
        assert main(["route", str(wl), "--heuristic", "BEST"]) in (0, 1)
        assert "BEST" in capsys.readouterr().out

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "--n", "3", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("src_u,src_v,snk_u,snk_v,rate")

    def test_generate_patterns(self, capsys):
        assert main(["generate", "--kind", "transpose", "--mesh", "4x4"]) == 0
        assert main(["generate", "--kind", "hotspot", "--mesh", "4x4"]) == 0
        assert main(
            ["generate", "--kind", "length", "--n", "4", "--length", "5",
             "--seed", "1"]
        ) == 0

    def test_theory_command(self, capsys):
        assert main(["theory", "--sizes", "4", "8"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out and "Lemma 2" in out

    def test_figures_command_small(self, capsys, monkeypatch):
        assert main(["figures", "fig7c", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "failure_ratio" in out

    def test_simulate_command(self, tmp_path, capsys):
        from repro.io import save_routing

        mesh = Mesh(4, 4)
        prob = RoutingProblem(
            mesh,
            PowerModel.kim_horowitz(),
            [Communication((0, 0), (2, 2), 700.0)],
        )
        path = tmp_path / "r.json"
        save_routing(Routing.xy(prob), path)
        assert main(["simulate", str(path), "--cycles", "2000"]) == 0
        assert "deadlock-free" in capsys.readouterr().out

    def test_simulate_routing_without_flows(self, tmp_path, capsys):
        """No communications: a one-line report, not a min() traceback."""
        from repro.io import save_routing

        prob = RoutingProblem(Mesh(4, 4), PowerModel.kim_horowitz(), [])
        path = tmp_path / "empty.json"
        save_routing(Routing.xy(prob), path)
        assert main(["simulate", str(path), "--cycles", "200"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == (
            "delivered 0 flits over 200 cycles; the routing has no flows"
        )

    def test_bad_mesh_is_a_clean_error(self, capsys):
        code = main(["generate", "--mesh", "bogus"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_heuristic_is_clean_error(self, tmp_path, capsys):
        wl = tmp_path / "wl.csv"
        main(["generate", "--n", "3", "--seed", "1", "--out", str(wl)])
        code = main(["route", str(wl), "--heuristic", "NOPE"])
        assert code == 2

    def test_unknown_panel_is_clean_error(self, capsys):
        assert main(["figures", "figZZ"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "figZZ" in err

    def test_panel_cannot_name_arbitrary_module_attrs(self, capsys):
        # fig7_config is a real attribute of repro.experiments.figures but
        # not a panel; it used to escape validation and raise a TypeError
        assert main(["figures", "fig7_config"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_figures_invalid_jobs_is_clean_error(self, capsys):
        assert main(["figures", "fig7c", "--jobs", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--jobs" in err
        assert main(["figures", "fig7c", "--jobs", "-3"]) == 2

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-baseline", "faulty-links", "hotspot-derate",
                     "narrow-mesh", "hotspot-traffic"):
            assert name in out

    def test_scenarios_run_smoke(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        assert main(
            ["scenarios", "run", "narrow-mesh", "--trials", "2",
             "--json", str(snap)]
        ) == 0
        out = capsys.readouterr().out
        assert "BEST" in out and "narrow-mesh" in out
        assert snap.exists()

    def test_scenarios_unknown_name_is_clean_error(self, capsys):
        assert main(["scenarios", "run", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such-scenario" in err

    def test_scenarios_invalid_jobs_and_trials_are_clean_errors(self, capsys):
        assert main(["scenarios", "run", "narrow-mesh", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["scenarios", "run", "narrow-mesh", "--trials", "0"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_apps_subcommand(self, capsys):
        code = main(
            ["apps", "--apps", "pip", "--scale", "2", "--mapping", "greedy"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pip" in out and "XYI" in out

    def test_apps_unknown_app_is_clean_error(self, capsys):
        assert main(["apps", "--apps", "doom"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_open_problem_subcommand(self, capsys):
        code = main(
            ["open-problem", "--mesh", "4x4", "--rates", "300,200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal 1-MP" in out
        assert "XY / optimal-1MP" in out

    def test_unwritable_output_path_is_clean_error(self, capsys):
        code = main(
            ["scenarios", "run", "narrow-mesh", "--trials", "1",
             "--json", "/nonexistent-dir/x.json"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

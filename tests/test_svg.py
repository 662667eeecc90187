"""Tests for the dependency-free SVG renderers."""

from __future__ import annotations

import xml.dom.minidom as minidom

import numpy as np
import pytest

from repro import Mesh, PowerModel, RoutingProblem
from repro.core.routing import Routing
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError
from repro.viz import (
    line_chart_svg,
    mesh_heatmap_svg,
    save_svg,
    sweep_to_svg,
    utilization_color,
)


def well_formed(svg: str) -> minidom.Document:
    assert svg.startswith("<svg")
    return minidom.parseString(svg)


class TestUtilizationColor:
    def test_zero_is_grey(self):
        assert utilization_color(0.0) == "#d9d9d9"

    def test_overload_is_magenta(self):
        assert utilization_color(1.5) == "#d014d0"

    def test_ramp_moves_from_green_to_red(self):
        lo = utilization_color(0.05)
        hi = utilization_color(0.99)
        # red channel grows with load, green shrinks
        assert int(lo[1:3], 16) < int(hi[1:3], 16)
        assert int(lo[3:5], 16) > int(hi[3:5], 16)

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            utilization_color(-0.1)


class TestHeatmap:
    def test_well_formed_and_complete(self, mesh44, pm_kh):
        loads = np.zeros(mesh44.num_links)
        loads[0] = 1000.0
        svg = mesh_heatmap_svg(mesh44, loads, pm_kh, title="test")
        doc = well_formed(svg)
        # one circle per core (plus none others)
        circles = doc.getElementsByTagName("circle")
        assert len(circles) == mesh44.num_cores
        # one line per link
        lines = doc.getElementsByTagName("line")
        assert len(lines) == mesh44.num_links
        assert "test" in svg

    def test_path_overlay_adds_polyline(self, mesh44, pm_kh):
        loads = np.zeros(mesh44.num_links)
        path = Path.xy(mesh44, (0, 0), (3, 3))
        svg = mesh_heatmap_svg(mesh44, loads, pm_kh, paths=[path])
        doc = well_formed(svg)
        assert len(doc.getElementsByTagName("polyline")) == 1

    def test_overloaded_link_is_magenta(self, mesh44, pm_kh):
        loads = np.zeros(mesh44.num_links)
        loads[3] = pm_kh.bandwidth * 2
        svg = mesh_heatmap_svg(mesh44, loads, pm_kh)
        assert "#d014d0" in svg

    def test_wrong_load_shape_rejected(self, mesh44, pm_kh):
        with pytest.raises(InvalidParameterError):
            mesh_heatmap_svg(mesh44, np.zeros(3), pm_kh)

    def test_routing_loads_render(self, fig2_problem):
        routing = Routing.xy(fig2_problem)
        svg = mesh_heatmap_svg(
            fig2_problem.mesh,
            routing.link_loads(),
            fig2_problem.power,
        )
        well_formed(svg)


class TestLineChart:
    def test_well_formed_with_legend(self):
        svg = line_chart_svg(
            {
                "XY": [(0, 0.1), (10, 0.4), (20, 0.2)],
                "PR": [(0, 0.9), (10, 0.8), (20, 0.85)],
            },
            title="demo",
            xlabel="n",
            ylabel="value",
        )
        doc = well_formed(svg)
        texts = [
            t.firstChild.nodeValue
            for t in doc.getElementsByTagName("text")
            if t.firstChild
        ]
        for label in ("demo", "n", "value", "XY", "PR"):
            assert label in texts

    def test_non_finite_points_skipped(self):
        svg = line_chart_svg(
            {"A": [(0, 1.0), (1, float("inf")), (2, 0.5)]}
        )
        well_formed(svg)

    def test_empty_series_rejected(self):
        with pytest.raises(InvalidParameterError):
            line_chart_svg({})
        with pytest.raises(InvalidParameterError):
            line_chart_svg({"A": []})

    def test_y_bounds_respected(self):
        svg = line_chart_svg(
            {"A": [(0, 0.5), (1, 0.6)]}, y_min=0.0, y_max=1.0
        )
        well_formed(svg)

    def test_xml_escaping(self):
        svg = line_chart_svg(
            {"a<b&c": [(0, 1.0), (1, 2.0)]}, title="x < y & z"
        )
        well_formed(svg)


class TestSweepToSvg:
    @pytest.fixture(scope="class")
    def tiny_sweep(self):
        from repro.experiments import figures

        return figures.fig7a(trials=3)

    def test_both_metrics_render(self, tiny_sweep):
        for metric in ("norm_power_inverse", "failure_ratio"):
            svg = sweep_to_svg(tiny_sweep, metric)
            doc = well_formed(svg)
            texts = [
                t.firstChild.nodeValue
                for t in doc.getElementsByTagName("text")
                if t.firstChild
            ]
            # every heuristic appears in the legend
            for name in tiny_sweep.heuristics:
                assert name in texts, name

    def test_save_svg_roundtrip(self, tiny_sweep, tmp_path):
        out = tmp_path / "chart.svg"
        save_svg(out, sweep_to_svg(tiny_sweep))
        well_formed(out.read_text())


class TestCliIntegration:
    def test_route_svg_flag(self, tmp_path):
        from repro.cli import main
        from repro.io import workload_to_csv
        from repro.workloads import uniform_random_workload

        mesh = Mesh(4, 4)
        comms = uniform_random_workload(mesh, 5, 100.0, 800.0, rng=1)
        csv_path = tmp_path / "wl.csv"
        workload_to_csv(comms, csv_path)
        svg_path = tmp_path / "map.svg"
        code = main(
            [
                "route",
                str(csv_path),
                "--mesh",
                "4x4",
                "--heuristic",
                "PR",
                "--svg",
                str(svg_path),
            ]
        )
        assert code == 0
        well_formed(svg_path.read_text())

    def test_figures_svg_dir(self, tmp_path):
        from repro.cli import main

        code = main(
            [
                "figures",
                "fig7a",
                "--trials",
                "2",
                "--svg-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.svg"))
        assert files == [
            "fig7a_failure_ratio.svg",
            "fig7a_norm_power_inverse.svg",
        ]

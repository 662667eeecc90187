"""Tests for repro.experiments: configs, runner aggregation, reporting."""

import numpy as np
import pytest

from repro import Mesh, PowerModel
from repro.experiments import (
    SweepConfig,
    SweepPoint,
    fig7_config,
    fig8_config,
    fig9_config,
    run_point,
    run_sweep,
    summary_statistics,
    sweep_to_csv,
    sweep_to_text,
)
from repro.experiments.runner import BEST_KEY
from repro.utils.validation import InvalidParameterError
from repro.workloads import uniform_random_workload


class TestConfigs:
    def test_fig7_parameters_match_paper(self):
        cfg = fig7_config("a", trials=5)
        assert cfg.mesh_shape == (8, 8)
        assert [p.x for p in cfg.points][:3] == [10, 20, 30]
        cfg_c = fig7_config("c", trials=5)
        assert max(p.x for p in cfg_c.points) == 30

    def test_fig8_weights_are_common(self):
        cfg = fig8_config("a", trials=3, weights=[500])
        mesh = cfg.mesh()
        comms = cfg.points[0].workload(mesh, np.random.default_rng(0))
        assert len(comms) == 10
        assert all(c.rate == 500 for c in comms)

    def test_fig9_lengths(self):
        cfg = fig9_config("b", trials=3)
        assert [p.x for p in cfg.points] == list(range(2, 15))
        mesh = cfg.mesh()
        comms = cfg.points[4].workload(mesh, np.random.default_rng(1))
        assert len(comms) == 25
        assert all(abs(c.length - 6) <= 1 for c in comms)

    def test_unknown_panel_rejected(self):
        for fn in (fig7_config, fig8_config, fig9_config):
            with pytest.raises(InvalidParameterError):
                fn("z")

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(name="x", x_label="x", points=(), trials=5)
        with pytest.raises(InvalidParameterError):
            fig7_config("a", trials=0)


class TestRunner:
    @pytest.fixture
    def tiny_point(self):
        mesh = Mesh(8, 8)
        power = PowerModel.kim_horowitz()

        def workload(mesh, rng):
            return uniform_random_workload(mesh, 8, 100.0, 1200.0, rng=rng)

        return mesh, power, workload

    def test_run_point_aggregates(self, tiny_point):
        mesh, power, workload = tiny_point
        res = run_point(
            mesh, power, workload, trials=6, seed=1, heuristic_names=("XY", "PR")
        )
        assert set(res.stats) == {"XY", "PR", BEST_KEY}
        for s in res.stats.values():
            assert s.trials == 6
            assert 0 <= s.failure_ratio <= 1
            assert s.success_ratio == pytest.approx(1 - s.failure_ratio)
            assert 0 <= s.norm_power_inverse <= 1 + 1e-9
        assert res.stats[BEST_KEY].norm_power_inverse == pytest.approx(1.0)

    def test_best_dominates_members(self, tiny_point):
        mesh, power, workload = tiny_point
        res = run_point(
            mesh, power, workload, trials=8, seed=3,
            heuristic_names=("XY", "SG", "PR"),
        )
        for name in ("XY", "SG", "PR"):
            assert (
                res.stats[name].successes <= res.stats[BEST_KEY].successes
            )
            assert (
                res.stats[name].norm_power_inverse
                <= res.stats[BEST_KEY].norm_power_inverse + 1e-9
            )

    def test_run_point_reproducible(self, tiny_point):
        mesh, power, workload = tiny_point
        a = run_point(mesh, power, workload, 5, 7, ("XY", "SG"))
        b = run_point(mesh, power, workload, 5, 7, ("XY", "SG"))
        assert a.stats["SG"].norm_power_inverse == b.stats["SG"].norm_power_inverse
        assert a.stats["SG"].successes == b.stats["SG"].successes

    def test_run_point_validation(self, tiny_point):
        mesh, power, workload = tiny_point
        with pytest.raises(InvalidParameterError):
            run_point(mesh, power, workload, 0, 1, ("XY",))
        with pytest.raises(InvalidParameterError):
            run_point(mesh, power, workload, 1, 1, ())

    def test_run_sweep_and_series(self):
        cfg = fig7_config("c", trials=4, n_values=[4, 8])
        result = run_sweep(cfg)
        assert result.x_values == [4, 8]
        series = result.series("failure_ratio")
        assert set(series) == set(cfg.heuristics) | {BEST_KEY}
        assert all(len(v) == 2 for v in series.values())


class TestReporting:
    @pytest.fixture
    def small_sweep(self):
        return run_sweep(
            fig7_config("c", trials=3, n_values=[3, 6], seed=5)
        )

    def test_text_report_contains_everything(self, small_sweep):
        text = sweep_to_text(small_sweep)
        assert "norm_power_inverse" in text
        assert "failure_ratio" in text
        assert "BEST" in text and "XY" in text

    def test_csv_report_shape(self, small_sweep):
        csv_text = sweep_to_csv(small_sweep)
        lines = csv_text.strip().splitlines()
        # header + 2 metrics * 7 series * 2 points
        assert len(lines) == 1 + 2 * 7 * 2


class TestSummary:
    def test_summary_statistics_structure(self):
        s = summary_statistics(trials=15, seed=1)
        assert s.trials == 15
        assert set(s.success_ratio) == {
            "XY", "SG", "IG", "TB", "XYI", "PR", "BEST",
        }
        assert s.success_ratio["BEST"] >= s.success_ratio["XY"]
        assert s.inverse_vs_xy["XY"] == pytest.approx(1.0)
        assert 0 <= s.static_fraction <= 1
        assert all(v >= 0 for v in s.mean_runtime_s.values())

    def test_summary_rejects_bad_trials(self):
        with pytest.raises(InvalidParameterError):
            summary_statistics(trials=0)


class TestCustomHeuristicSweeps:
    def test_sweep_accepts_metaheuristics(self):
        """The Monte-Carlo runner composes with any registered heuristic."""
        from repro.experiments.config import SweepConfig
        from repro.experiments.runner import run_sweep
        from repro.workloads import uniform_random_workload

        from repro.experiments.config import SweepPoint

        def factory(mesh, rng):
            return uniform_random_workload(mesh, 3, 100.0, 900.0, rng=rng)

        cfg = SweepConfig(
            name="meta-smoke",
            x_label="n",
            points=(SweepPoint(x=3.0, workload=factory),),
            trials=2,
            seed=5,
            mesh_shape=(4, 4),
            heuristics=("XY", "SA", "TABU"),
        )
        sweep = run_sweep(cfg)
        assert set(sweep.heuristics) == {"XY", "SA", "TABU"}
        stats = sweep.points[0].stats
        assert stats["SA"].trials == 2

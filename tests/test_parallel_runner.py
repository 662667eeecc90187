"""Serial-vs-parallel sweep engine determinism and plumbing tests.

The parallel engine's contract: for a fixed ``(config, seed)`` it must
reproduce the serial reference runner bit for bit on every aggregate
except ``mean_runtime_s`` (wall-clock is never deterministic, under either
engine).
"""

import multiprocessing
import pathlib
import uuid
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.experiments import (
    SweepConfig,
    SweepPoint,
    UniformRandomFactory,
    aggregate_records,
    run_point,
    run_sweep,
    run_trial,
    summary_statistics,
)
from repro.experiments.campaign import ArtifactStore, run_experiment
from repro.experiments.runner import (
    BEST_KEY,
    _chunk_bounds,
    _draw_trial_problem,
)
from repro.heuristics import available_heuristics, get_heuristic
from repro.noc.sweep import latency_sweep
from repro.utils import pool as pool_module
from repro.utils.rng import spawn_rngs
from repro.utils.validation import InvalidParameterError
from tests.campaign_testlib import make_counter

#: every HeuristicPointStats field that must match exactly between engines
_DETERMINISTIC_FIELDS = (
    "name",
    "trials",
    "successes",
    "norm_power_inverse",
    "mean_power_inverse",
    "mean_static_fraction",
)


def _assert_stats_identical(a, b):
    assert set(a.stats) == set(b.stats)
    for name in a.stats:
        for field in _DETERMINISTIC_FIELDS:
            assert getattr(a.stats[name], field) == getattr(
                b.stats[name], field
            ), f"{name}.{field} differs between serial and parallel"


@pytest.fixture(scope="module")
def point_args():
    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    workload = UniformRandomFactory(8, 100.0, 1200.0)
    return mesh, power, workload


class TestSerialParallelDeterminism:
    def test_run_point_identical(self, point_args):
        mesh, power, workload = point_args
        serial = run_point(
            mesh, power, workload, 11, 7, ("XY", "SG", "TB"), jobs=1
        )
        parallel = run_point(
            mesh, power, workload, 11, 7, ("XY", "SG", "TB"), jobs=3
        )
        _assert_stats_identical(serial, parallel)

    def test_run_sweep_identical(self):
        cfg = SweepConfig(
            name="det-check",
            x_label="n",
            points=(
                SweepPoint(x=4.0, workload=UniformRandomFactory(4, 100.0, 900.0)),
                SweepPoint(x=8.0, workload=UniformRandomFactory(8, 100.0, 900.0)),
            ),
            trials=6,
            seed=5,
            heuristics=("XY", "SG"),
        )
        serial = run_sweep(cfg)
        parallel = run_sweep(cfg, jobs=2)
        assert serial.x_values == parallel.x_values
        for p_s, p_p in zip(serial.points, parallel.points):
            _assert_stats_identical(p_s, p_p)

    def test_chunking_does_not_change_results(self, point_args):
        """Different worker counts induce different chunk boundaries; the
        per-index seeding must make them all agree."""
        mesh, power, workload = point_args
        results = [
            run_point(mesh, power, workload, 9, 3, ("XY", "PR"), jobs=j)
            for j in (1, 2, 4)
        ]
        for other in results[1:]:
            _assert_stats_identical(results[0], other)


class TestTrialRecords:
    def test_trial_records_rebuild_run_point(self, point_args):
        """aggregate_records over per-trial records is exactly run_point."""
        mesh, power, workload = point_args
        names = ("XY", "SG")
        trials, seed = 7, 13
        records = [
            run_trial(mesh, power, workload, rng, names)
            for rng in spawn_rngs(seed, trials)
        ]
        folded = aggregate_records(records, list(names) + [BEST_KEY], x=2.5)
        direct = run_point(mesh, power, workload, trials, seed, names, x=2.5)
        assert folded.x == direct.x
        _assert_stats_identical(folded, direct)

    def test_record_outcomes_include_best(self, point_args):
        mesh, power, workload = point_args
        rec = run_trial(
            mesh, power, workload, spawn_rngs(1, 1)[0], ("XY", "SG")
        )
        assert set(rec.outcomes) == {"XY", "SG", BEST_KEY}
        assert rec.best_valid == rec.outcomes[BEST_KEY].valid

    @pytest.mark.parametrize("name", available_heuristics())
    def test_run_trial_matches_solve(self, name):
        """run_trial grades after routing; each outcome must equal what
        ``solve`` returns on the same instance and reseed order."""
        mesh = Mesh(5, 5)
        power = PowerModel.kim_horowitz()
        workload = UniformRandomFactory(8, 100.0, 1200.0)
        rec = run_trial(mesh, power, workload, spawn_rngs(4, 1)[0], (name,))
        h = get_heuristic(name)
        problem = _draw_trial_problem(
            mesh, power, workload, spawn_rngs(4, 1)[0], [h]
        )
        want = h.solve(problem)
        got = rec.outcomes[want.name]
        assert got.valid == want.valid
        assert got.power_inverse.hex() == want.power_inverse.hex()
        static = want.report.static_fraction if want.valid else 0.0
        assert got.static_fraction.hex() == static.hex()


class TestSummaryJobs:
    def test_summary_serial_parallel_identical(self):
        from repro.experiments import summary_statistics

        serial = summary_statistics(trials=6, seed=3, jobs=1)
        parallel = summary_statistics(trials=6, seed=3, jobs=2)
        assert serial.success_ratio == parallel.success_ratio
        assert serial.inverse_vs_xy == parallel.inverse_vs_xy
        assert serial.static_fraction == parallel.static_fraction


class TestStochasticReseeding:
    def test_trials_decorrelated_for_stochastic_heuristics(self, point_args):
        """Each trial must hand GA/SA/TABU its own stream: with a fresh
        default-seeded instance per trial, every trial would replay the
        same randomness (run_trial reseeds from the trial rng instead)."""
        from repro.heuristics.base import get_heuristic

        ga1 = get_heuristic("GA")
        ga2 = get_heuristic("GA")
        # fresh instances share the default seed ...
        assert ga1._rng.integers(2**63) == ga2._rng.integers(2**63)
        # ... but reseeding from distinct trial streams decorrelates them
        r1, r2 = spawn_rngs(9, 2)
        ga1.reseed(r1)
        ga2.reseed(r2)
        assert ga1._rng.integers(2**63) != ga2._rng.integers(2**63)

    def test_reseed_noop_for_deterministic_heuristics(self, point_args):
        from repro.heuristics.base import get_heuristic

        h = get_heuristic("SG")
        h.reseed(np.random.default_rng(0))  # must not raise


class TestPlumbing:
    def test_spawn_rngs_range_matches_slice(self):
        from repro.utils.rng import spawn_rngs_range

        full = spawn_rngs(123, 20)
        part = spawn_rngs_range(123, 5, 12)
        for a, b in zip(full[5:12], part):
            assert np.array_equal(
                a.integers(2**63, size=4), b.integers(2**63, size=4)
            )
        with pytest.raises(ValueError):
            spawn_rngs_range(123, 5, 2)

    def test_chunk_bounds_cover_exactly(self):
        for trials in (1, 2, 7, 25, 100):
            for jobs in (1, 2, 3, 8):
                bounds = _chunk_bounds(trials, jobs)
                covered = [i for lo, hi in bounds for i in range(lo, hi)]
                assert covered == list(range(trials))

    def test_runner_rejects_bad_jobs(self, point_args):
        """``jobs`` is an ``int`` >= 1: no ``None``, no ``bool``."""
        mesh, power, workload = point_args
        for bad in (0, -2, None, True, 1.5, "2"):
            with pytest.raises(InvalidParameterError, match="jobs must be"):
                run_point(mesh, power, workload, 1, 7, ("XY",), jobs=bad)
            with pytest.raises(InvalidParameterError, match="jobs must be"):
                run_sweep(_small_sweep(points=1, trials=1), jobs=bad)

    def test_workload_factories_picklable(self):
        import pickle

        from repro.experiments import (
            FixedWeightFactory,
            LengthTargetedFactory,
        )
        from repro.experiments.config import summary_mixture

        mesh = Mesh(8, 8)
        rng = np.random.default_rng(0)
        for factory in (
            UniformRandomFactory(5, 100.0, 900.0),
            FixedWeightFactory(4, 500.0),
            LengthTargetedFactory(6, 4, 100.0, 900.0),
            summary_mixture(),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert clone == factory
            comms = clone(mesh, rng)
            assert len(comms) > 0

    def test_cli_jobs_flag_accepted(self, capsys):
        from repro.cli import main

        code = main(
            ["figures", "fig7c", "--trials", "2", "--jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "norm_power_inverse" in out


# ----------------------------------------------------------------------
# the pool contract: one pool per call, sized to its work, always joined
# ----------------------------------------------------------------------
class ChunkFault(RuntimeError):
    """Raised by :class:`MarkedFactory` inside a pool worker."""


@dataclass(frozen=True)
class MarkedFactory:
    """A picklable workload that leaves one marker file per draw.

    With ``fault`` set, the draw raises :class:`ChunkFault` after marking,
    so the markers count every trial that started, failed or not.
    """

    marker_dir: str
    n: int
    fault: str = ""

    def __call__(self, mesh, rng):
        pathlib.Path(self.marker_dir, uuid.uuid4().hex).touch()
        if self.fault:
            raise ChunkFault(self.fault)
        return UniformRandomFactory(self.n, 100.0, 900.0)(mesh, rng)


def _small_sweep(points: int = 3, trials: int = 2) -> SweepConfig:
    return SweepConfig(
        name="pool-check",
        x_label="n",
        points=tuple(
            SweepPoint(
                x=float(n), workload=UniformRandomFactory(n, 100.0, 900.0)
            )
            for n in range(4, 4 + 2 * points, 2)
        ),
        trials=trials,
        seed=5,
        heuristics=("XY", "SG"),
    )


@pytest.fixture(scope="module")
def tiny_routing():
    problem = RoutingProblem(
        Mesh(4, 4),
        PowerModel.kim_horowitz(),
        [
            Communication((0, 0), (3, 3), 800.0),
            Communication((3, 0), (0, 3), 600.0),
        ],
    )
    return get_heuristic("PR").solve(problem).routing


def _pooled_calls(jobs, tmp_path, routing, point_args):
    """One thunk per pooled Monte-Carlo entry point, each using ``jobs``."""
    mesh, power, workload = point_args
    store = ArtifactStore(tmp_path)
    return [
        lambda: run_sweep(_small_sweep(points=2, trials=1), jobs=jobs),
        lambda: run_point(mesh, power, workload, 1, 7, ("XY",), jobs=jobs),
        lambda: summary_statistics(trials=2, seed=3, jobs=jobs),
        lambda: latency_sweep(
            routing, [0.4, 0.9], cycles=300, warmup=60, jobs=jobs
        ),
        lambda: run_experiment(
            make_counter(), jobs=jobs, store=store, use_cache=False
        ),
    ]


@pytest.fixture
def pools_made(monkeypatch):
    """``max_workers`` of every pool the pool helper constructs."""
    made = []

    class SpyExecutor(ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            made.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(pool_module, "ProcessPoolExecutor", SpyExecutor)
    return made


class TestOnePoolPerCall:
    def test_sweep_opens_one_pool_for_all_points(self, pools_made):
        result = run_sweep(_small_sweep(points=3), jobs=2)
        assert len(result.points) == 3
        assert pools_made == [2]

    def test_pool_never_exceeds_its_tasks(
        self, pools_made, tmp_path, tiny_routing, point_args
    ):
        # two one-trial points, one chunk, two summary trials, two
        # fractions, three shards: jobs=8 forks no idle worker for any
        for call in _pooled_calls(8, tmp_path, tiny_routing, point_args):
            call()
        assert pools_made == [2, 1, 2, 2, 3]

    def test_serial_paths_open_no_pool(
        self, pools_made, tmp_path, tiny_routing, point_args
    ):
        for call in _pooled_calls(1, tmp_path, tiny_routing, point_args):
            call()
        assert pools_made == []


class TestPoolLifetime:
    def test_no_process_outlives_a_pooled_call(
        self, tmp_path, tiny_routing, point_args
    ):
        for call in _pooled_calls(2, tmp_path, tiny_routing, point_args):
            call()
            assert multiprocessing.active_children() == []

    def test_failing_chunk_raises_its_own_error_and_cancels_the_rest(
        self, tmp_path
    ):
        """Points 1 and 3 raise: point 1's error is the one that surfaces,
        the chunks queued behind it are cancelled, no worker is left."""
        markers = tmp_path / "markers"
        markers.mkdir()
        mark = str(markers)
        workloads = (
            MarkedFactory(mark, 4),
            MarkedFactory(mark, 4, fault="point 1"),
            MarkedFactory(mark, 40),
            MarkedFactory(mark, 4, fault="point 3"),
            *[MarkedFactory(mark, 40)] * 4,
        )
        cfg = SweepConfig(
            name="fault-check",
            x_label="k",
            points=tuple(
                SweepPoint(x=float(k), workload=w)
                for k, w in enumerate(workloads)
            ),
            trials=4,
            seed=2,
            heuristics=("XY", "SG", "PR"),
        )
        submitted = len(workloads) * len(_chunk_bounds(4, 2))
        assert submitted == 32  # one-trial chunks: one marker per chunk
        with pytest.raises(ChunkFault, match="^point 1$"):
            run_sweep(cfg, jobs=2)
        started = len(list(markers.iterdir()))
        assert 5 <= started < submitted, started
        assert multiprocessing.active_children() == []

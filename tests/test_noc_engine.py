"""Array flit engine ⇄ reference simulator equivalence.

Two layers of proof that :class:`~repro.noc.engine.ArrayFlitSimulator`
replays the reference simulator (the oracle in ``tests/noc_reference.py``)
cycle for cycle:

* the probe corpus — ``tests/probes/noc_probes.json`` was recorded from
  the reference simulator *before* the array engine landed; the engine
  and the oracle must reproduce every record (flow counters, hex
  utilisations, packet streams, deadlock cycle counts) bit for bit;
* hypothesis fuzzing — random meshes (incl. the faulty / derated
  scenario platforms), VC counts, buffer depths, packet sizes and all
  three injection models, comparing full hex-exact reports.

Plus the sweep layer (serial and ``jobs=2`` latency sweeps are identical
point for point), the riding conventions (the shared :class:`FlowTable`,
the zero-injection corner of ``achieved_fraction`` / ``delivered_ratio``)
and the ``repro noc sweep`` CLI surface.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.record_noc_probes import (
    ENGINES,
    probe_cases,
    report_to_jsonable,
    run_to_jsonable,
)
from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.cli import main
from repro.heuristics import get_heuristic
from repro.noc import (
    ArrayFlitSimulator,
    FlowStats,
    LatencyPoint,
    build_flow_table,
    latency_sweep,
)
from repro.scenarios import get_scenario, scenario_latency_curve
from repro.utils.validation import InvalidParameterError
from repro.workloads import uniform_random_workload
from tests.noc_reference import FlitSimulator

FIXTURE = pathlib.Path(__file__).parent / "probes" / "noc_probes.json"


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


# ----------------------------------------------------------------------
# probe corpus: engine and oracle reproduce the pre-change reports exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("cname", list(probe_cases()))
def test_probe_bit_identical(cname, engine, fixture):
    case = probe_cases()[cname]
    assert run_to_jsonable(ENGINES[engine], case) == fixture[cname], (
        f"{engine} engine drifted from the pre-change simulator on "
        f"probe {cname!r}"
    )


def test_probe_check_catches_a_broken_engine(tmp_path, monkeypatch, capsys):
    """``record_noc_probes.py --check`` runs the array engine, not only
    the oracle, and names the engine that drifted."""
    from benchmarks import record_noc_probes as rec

    cases = {"det-4x4-pr": probe_cases()["det-4x4-pr"]}
    monkeypatch.setattr(rec, "probe_cases", lambda: cases)
    monkeypatch.setattr(rec, "FIXTURE", tmp_path / "noc_probes.json")
    rec.FIXTURE.write_text(rec.snapshot())
    assert rec.main(["--check"]) == 0

    real_run = ArrayFlitSimulator.run

    def broken_run(self, cycles, *, warmup=0):
        report = real_run(self, cycles, warmup=warmup)
        return dataclasses.replace(
            report, total_delivered_flits=report.total_delivered_flits + 1
        )

    monkeypatch.setattr(ArrayFlitSimulator, "run", broken_run)
    assert rec.main(["--check"]) == 1
    err = capsys.readouterr().err
    assert "drifted on the array engine" in err


# ----------------------------------------------------------------------
# hypothesis: random platforms, parameters and injection models
# ----------------------------------------------------------------------
def _routed_instance(seed: int, p: int, q: int, n: int, scenario: str):
    """A valid routing on a pristine or scenario platform, or None."""
    if scenario:
        sc = get_scenario(scenario)
        mesh = sc.build_mesh()
        power = sc.power_model()
    else:
        mesh = Mesh(p, q)
        power = PowerModel.kim_horowitz()
    comms = uniform_random_workload(
        mesh, n, 50.0, 900.0, rng=np.random.default_rng(seed)
    )
    problem = RoutingProblem(mesh, power, comms)
    for name in ("PR", "SG"):
        result = get_heuristic(name).solve(problem)
        if result.valid:
            return result.routing
    return None


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(2, 5),
    q=st.integers(2, 5),
    n=st.integers(1, 6),
    scenario=st.sampled_from(["", "faulty-links", "hotspot-derate"]),
    injection=st.sampled_from(["deterministic", "bernoulli", "burst"]),
    rate_scale=st.sampled_from([0.4, 1.0, 2.1]),
    buffer_flits=st.integers(1, 5),
    packet_flits=st.integers(1, 10),
    num_vcs=st.integers(4, 6),
    cycles=st.integers(40, 400),
)
def test_fuzzed_reports_identical(
    seed, p, q, n, scenario, injection, rate_scale, buffer_flits,
    packet_flits, num_vcs, cycles,
):
    routing = _routed_instance(seed, p, q, n, scenario)
    if routing is None:
        return  # infeasible draw — nothing to simulate
    kw = dict(
        injection=injection,
        rate_scale=rate_scale,
        buffer_flits=buffer_flits,
        packet_flits=packet_flits,
        num_vcs=num_vcs,
        seed=seed,
        collect_packets=True,
    )
    warmup = cycles // 4
    ref = report_to_jsonable(
        FlitSimulator(routing, **kw).run(cycles, warmup=warmup)
    )
    arr = report_to_jsonable(
        ArrayFlitSimulator(routing, **kw).run(cycles, warmup=warmup)
    )
    assert ref == arr


# ----------------------------------------------------------------------
# the sweep layer: flow-table reuse, parallel points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_routing():
    mesh = Mesh(4, 4)
    problem = RoutingProblem(
        mesh,
        PowerModel.kim_horowitz(),
        [
            Communication((0, 0), (3, 3), 800.0),
            Communication((3, 0), (0, 3), 600.0),
            Communication((0, 3), (3, 0), 400.0),
        ],
    )
    return get_heuristic("PR").solve(problem).routing


class TestSweepEngine:
    FRACS = [0.4, 0.9, 1.6]

    def test_serial_vs_jobs2_bit_identical(self, small_routing):
        kw = dict(cycles=600, warmup=120, seed=5)
        assert latency_sweep(
            small_routing, self.FRACS, jobs=1, **kw
        ) == latency_sweep(small_routing, self.FRACS, jobs=2, **kw)

    def test_bad_jobs_rejected(self, small_routing):
        with pytest.raises(InvalidParameterError, match="jobs"):
            latency_sweep(small_routing, [0.5], jobs=0)

    def test_live_generator_seed_rejected_in_parallel(self, small_routing):
        """A shared Generator advances across serial points but would be
        copied per worker — refuse rather than silently diverge."""
        with pytest.raises(InvalidParameterError, match="reproducible seed"):
            latency_sweep(
                small_routing, [0.5, 1.0], jobs=2,
                seed=np.random.default_rng(0),
            )
        # serial keeps accepting a live generator (pre-engine semantics)
        pts = latency_sweep(
            small_routing, [0.5], cycles=80, warmup=10,
            seed=np.random.default_rng(0),
        )
        assert len(pts) == 1

    def test_bad_fractions_rejected_before_any_work(self, small_routing):
        with pytest.raises(InvalidParameterError):
            latency_sweep(small_routing, [0.5, -1.0])


class TestFlowTable:
    def test_shared_table_changes_nothing(self, small_routing):
        table = build_flow_table(small_routing)
        for cls in (FlitSimulator, ArrayFlitSimulator):
            kw = dict(injection="bernoulli", seed=3, collect_packets=True)
            a = cls(small_routing, **kw).run(300, warmup=50)
            b = cls(small_routing, flow_table=table, **kw).run(300, warmup=50)
            assert report_to_jsonable(a) == report_to_jsonable(b)

    def test_vc_mismatch_rejected(self, small_routing):
        table = build_flow_table(small_routing, num_vcs=4)
        for cls in (FlitSimulator, ArrayFlitSimulator):
            with pytest.raises(InvalidParameterError, match="flow table"):
                cls(small_routing, num_vcs=6, flow_table=table)

    def test_bad_vc_assignment_rejected(self, small_routing):
        with pytest.raises(InvalidParameterError, match="vc assignment"):
            build_flow_table(small_routing, vc_of=lambda i, d: 7)


# ----------------------------------------------------------------------
# zero-injection conventions (documented in the dataclasses)
# ----------------------------------------------------------------------
class TestZeroInjectionConvention:
    def test_flow_stats_vacuous_fraction_is_one(self):
        idle = FlowStats(
            comm_index=0, rate_fraction=0.1, injected_flits=0,
            delivered_flits=0, delivered_packets=0,
            mean_packet_latency=float("nan"),
        )
        assert idle.achieved_fraction == 1.0

    def test_latency_point_vacuous_ratio_is_one(self):
        pt = LatencyPoint(
            fraction=0.1, injected_flits=0, delivered_flits=0,
            mean_latency=float("inf"), max_link_utilization=0.0,
            deadlocked=False,
        )
        assert pt.delivered_ratio == 1.0
        assert pt.stable

    def test_idle_flow_in_simulation(self, small_routing):
        """A warmup longer than any arrival leaves flows vacuous, not 0."""
        for cls in (FlitSimulator, ArrayFlitSimulator):
            rep = cls(small_routing, rate_scale=1e-6).run(10, warmup=9)
            assert all(f.achieved_fraction == 1.0 for f in rep.flows)


# ----------------------------------------------------------------------
# scenario-integrated latency curves
# ----------------------------------------------------------------------
class TestScenarioLatencyCurve:
    def test_curves_for_every_registry_scenario(self):
        """Every registered scenario can record a (short) latency curve."""
        from repro.scenarios import available_scenarios

        for name in available_scenarios():
            result = scenario_latency_curve(
                name, fractions=[0.4], cycles=120, warmup=20
            )
            assert len(result.points) == 1
            assert result.scenario.name == name

    def test_engine_and_jobs_invariance(self):
        """The engine's curve does not depend on the worker count."""
        kw = dict(fractions=[0.4, 1.0], cycles=200, warmup=40)
        a = scenario_latency_curve("narrow-mesh", **kw)
        c = scenario_latency_curve("narrow-mesh", jobs=2, **kw)
        assert a.points == c.points

    def test_jsonable_and_text_render(self):
        result = scenario_latency_curve(
            "paper-baseline", heuristic="PR", fractions=[0.5],
            cycles=150, warmup=30,
        )
        doc = result.to_jsonable()
        assert doc["scenario"] == "paper-baseline"
        assert doc["heuristic"] == "PR"
        assert len(doc["points"]) == 1
        # hex floats round-trip exactly
        pt = doc["points"][0]
        assert float.fromhex(pt["fraction"]) == 0.5
        assert "paper-baseline" in result.to_text()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown scenario"):
            scenario_latency_curve("no-such-scenario", fractions=[0.5])


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestNocSweepCli:
    def _routing_file(self, tmp_path) -> str:
        from repro.io import save_routing

        mesh = Mesh(4, 4)
        problem = RoutingProblem(
            mesh,
            PowerModel.kim_horowitz(),
            [Communication((0, 0), (3, 2), 700.0)],
        )
        routing = get_heuristic("XY").solve(problem).routing
        path = tmp_path / "routing.json"
        save_routing(routing, path)
        return str(path)

    def test_sweep_routing_json(self, tmp_path, capsys):
        path = self._routing_file(tmp_path)
        out_json = tmp_path / "curve.json"
        code = main(
            [
                "noc", "sweep", path,
                "--fractions", "0.4,1.0",
                "--cycles", "200",
                "--json", str(out_json),
            ]
        )
        assert code == 0
        assert "fraction" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert len(doc["points"]) == 2

    def test_sweep_scenario(self, capsys):
        code = main(
            [
                "noc", "sweep", "--scenario", "paper-baseline",
                "--heuristic", "PR", "--fractions", "0.5",
                "--cycles", "150",
            ]
        )
        assert code == 0
        assert "paper-baseline" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["noc", "sweep"],  # neither input
            ["noc", "sweep", "r.json", "--scenario", "x"],  # both inputs
            ["noc", "sweep", "--scenario", "no-such-scenario"],
            ["noc", "sweep", "--scenario", "paper-baseline",
             "--fractions", "a,b"],
            ["noc", "sweep", "--scenario", "paper-baseline",
             "--fractions", ""],
            ["noc", "sweep", "--scenario", "paper-baseline", "--jobs", "0"],
            ["noc", "sweep", "--scenario", "paper-baseline",
             "--cycles", "0"],
            ["noc", "sweep", "--scenario", "paper-baseline",
             "--heuristic", "NOPE"],
        ],
    )
    def test_user_errors_exit_2(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

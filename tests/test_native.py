"""Native fast-path tier: tier selection, and native == Python bit for bit.

Three layers of coverage:

* ``REPRO_NATIVE`` parsing and error paths (no compiled module needed);
* the tier plumbing — ``tier`` attributes, ``--version`` reporting,
  forced-Python and forced-native modes;
* hypothesis fuzz suites asserting hex-exact native-vs-Python equality
  for the stream-draw kernels, the ledger flip/resample walk, the SA and
  TABU metaheuristics end-to-end, and the NoC cycle loop on random
  configurations.

Everything that needs the compiled extension is skip-marked (not failed)
when it cannot be built, so environments without cffi or a C compiler
still pass on the Python tier.  The full probe corpora run natively in
``tests/test_meta_probes.py`` / ``tests/test_noc_engine.py`` simply by
executing them with ``REPRO_NATIVE=1`` (as CI's native job does).
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.heuristics.annealing import SimulatedAnnealing
from repro.heuristics.local_moves import RoutingState
from repro.heuristics.tabu import TabuRouting
from repro.native import (
    NativeUnavailableError,
    active_tier,
    native_kernels,
    native_mode,
    native_module,
)
from repro.scenarios.spec import MeshSpec, duplex
from repro.utils.rng import StreamReplica
from repro.utils.validation import InvalidParameterError

HAVE_NATIVE = native_module() is not None
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="native extension not available (cffi/compiler)"
)


# ----------------------------------------------------------------------
# REPRO_NATIVE parsing and tier selection (no extension required)
# ----------------------------------------------------------------------
class TestMode:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        assert native_mode() == "auto"

    def test_empty_is_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "")
        assert native_mode() == "auto"

    @pytest.mark.parametrize("raw", ["0", "1", "auto", " AUTO ", " 1 "])
    def test_valid_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE", raw)
        assert native_mode() == raw.strip().lower()

    @pytest.mark.parametrize("raw", ["2", "yes", "on", "native", "-1"])
    def test_invalid_values_raise(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE", raw)
        with pytest.raises(InvalidParameterError, match="REPRO_NATIVE"):
            native_mode()

    def test_invalid_value_propagates_to_kernels(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "banana")
        with pytest.raises(InvalidParameterError, match="banana"):
            native_kernels()

    def test_mode_zero_forces_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native_kernels() is None
        assert active_tier() == "python"

    @needs_native
    def test_mode_one_returns_module(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")
        assert native_kernels() is not None
        assert active_tier() == "native"

    def test_mode_one_raises_when_unavailable(self, monkeypatch):
        import repro.native as rn

        monkeypatch.setenv("REPRO_NATIVE", "1")
        monkeypatch.setattr(rn, "_LOAD", (None, "forced-unavailable"))
        with pytest.raises(NativeUnavailableError, match="forced-unavailable"):
            native_kernels()

    def test_auto_falls_back_silently(self, monkeypatch):
        import repro.native as rn

        monkeypatch.setenv("REPRO_NATIVE", "auto")
        monkeypatch.setattr(rn, "_LOAD", (None, "forced-unavailable"))
        assert native_kernels() is None
        assert active_tier() == "python"


class TestTierAttributes:
    def _problem(self, power=None):
        mesh = Mesh(4, 4)
        comms = [
            Communication((0, 0), (3, 3), 600.0),
            Communication((1, 0), (0, 2), 400.0),
        ]
        return RoutingProblem(
            mesh, power or PowerModel.kim_horowitz(), comms
        )

    def test_ledger_tier_python_when_forced(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        state = RoutingState(self._problem(), ["VVVHHH", "HHV"])
        assert state.tier == "python"

    @needs_native
    def test_ledger_tier_native(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "1")
        state = RoutingState(self._problem(), ["VVVHHH", "HHV"])
        assert state.tier == "native"

    @needs_native
    def test_continuous_model_stays_python(self, monkeypatch):
        # the native kernels replicate the *scalar* grading contract;
        # continuous models have no scalar tier, so they stay Python even
        # when the extension is available
        monkeypatch.setenv("REPRO_NATIVE", "1")
        problem = self._problem(PowerModel.continuous_kim_horowitz())
        state = RoutingState(problem, ["VVVHHH", "HHV"])
        assert state.tier == "python"

    @needs_native
    @pytest.mark.parametrize("mode,tier", [("0", "python"), ("1", "native")])
    def test_simulator_tier(self, monkeypatch, mode, tier):
        from repro.heuristics import get_heuristic
        from repro.noc.engine import ArrayFlitSimulator

        monkeypatch.setenv("REPRO_NATIVE", mode)
        routing = get_heuristic("XY").solve(self._problem()).routing
        sim = ArrayFlitSimulator(routing, seed=3)
        assert sim.tier == tier

    def test_version_reports_tier(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.version import __version__

        monkeypatch.setenv("REPRO_NATIVE", "0")
        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out.strip()
        assert out == f"repro {__version__} (tier: python)"


# ----------------------------------------------------------------------
# shared instance builders for the fuzz suites
# ----------------------------------------------------------------------
@contextmanager
def _tier(mode: str):
    """Scoped ``REPRO_NATIVE`` override (hypothesis-safe, unlike the
    function-scoped ``monkeypatch`` fixture)."""
    old = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = mode
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_NATIVE", None)
        else:
            os.environ["REPRO_NATIVE"] = old



def _mesh(kind: int, p: int, q: int) -> Mesh:
    if kind == 1:
        return MeshSpec(
            p, q, dead_links=duplex(((0, 1), (1, 1)))
        ).build()
    if kind == 2:
        return MeshSpec.center_derated(p, q, factor=1.7, radius=1).build()
    return Mesh(p, q)


def _problem(mesh: Mesh, n: int, seed: int) -> RoutingProblem:
    rng = np.random.default_rng(seed)
    p, q = mesh.p, mesh.q
    comms = []
    while len(comms) < n:
        src = (int(rng.integers(p)), int(rng.integers(q)))
        snk = (int(rng.integers(p)), int(rng.integers(q)))
        if src == snk:
            continue
        comms.append(
            Communication(src, snk, float(rng.uniform(50.0, 2800.0)))
        )
    return RoutingProblem(mesh, PowerModel.kim_horowitz(), comms)


# ----------------------------------------------------------------------
# draw-stream equivalence
# ----------------------------------------------------------------------
@needs_native
class TestStream:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**62))
    def test_interleaved_draws_match_replica(self, seed):
        from repro.native.stream import NativeStream

        rep = StreamReplica(np.random.default_rng(seed), block=64)
        nat = NativeStream(np.random.default_rng(seed), block=64)
        ops = np.random.default_rng(seed ^ 0x5A5A)
        for _ in range(200):
            op = int(ops.integers(4))
            if op == 0:
                a, b = rep.random(), nat.random()
                assert a.hex() == b.hex()
            elif op == 1:
                n = int(ops.integers(1, 2**20))
                assert rep.integers(n) == nat.integers(n)
            elif op == 2:
                n = int(ops.integers(2**33, 2**62))
                assert rep.integers(n) == nat.integers(n)
            else:
                m = int(ops.integers(2, 12))
                la, lb = list(range(m)), list(range(m))
                rep.shuffle(la)
                nat.shuffle(lb)
                assert la == lb

    def test_bad_bound_raises_like_replica(self):
        from repro.native.stream import NativeStream

        nat = NativeStream(np.random.default_rng(0))
        with pytest.raises(ValueError, match="high <= 0"):
            nat.integers(0)


# ----------------------------------------------------------------------
# ledger flip/resample walk equivalence
# ----------------------------------------------------------------------
@needs_native
class TestLedger:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.integers(0, 2))
    def test_random_walk_matches_python(self, seed, kind):
        from repro.native.ledger import NativeLedger

        rng = np.random.default_rng(seed)
        mesh = _mesh(kind, int(rng.integers(3, 7)), int(rng.integers(3, 7)))
        problem = _problem(mesh, int(rng.integers(3, 9)), seed)
        start = [
            problem.dag(i).random_moves(rng)
            for i in range(problem.num_comms)
        ]
        state = RoutingState(problem, start)
        nat = NativeLedger(state, link_comms=True)
        dags = [problem.dag(i) for i in range(problem.num_comms)]
        for _ in range(60):
            ci = int(rng.integers(problem.num_comms))
            if rng.random() < 0.3:
                mv = dags[ci].random_moves(
                    np.random.default_rng(int(rng.integers(2**31))),
                    alive_only=True,
                )
                _, deltas, d1 = state.resample_eval(ci, mv)
                d2 = nat.resample_eval(ci, mv)
                assert float(d1).hex() == float(d2).hex()
                if mv != state.move_str(ci):
                    nl, deltas, d1 = state.resample_eval(ci, mv)
                    state.commit_resample(ci, mv, nl, deltas, d1)
                    nat.commit_resample(ci, mv)
            else:
                pos = state.flip_pos(ci)
                if not pos:
                    continue
                j = pos[int(rng.integers(len(pos)))]
                d1 = state.flip_dcost(ci, j)
                d2 = nat.flip_dcost(ci, j)
                assert float(d1).hex() == float(d2).hex()
                state.commit_flip(ci, j, d1)
                nat.commit_flip(ci, j, d2)
            assert float(state.cost).hex() == float(nat.cost).hex()
            assert np.array_equal(np.asarray(state._loads_l), nat.loads)
        assert nat.snapshot() == state.snapshot()

    def test_continuous_model_rejected(self):
        from repro.native.ledger import NativeLedger

        problem = RoutingProblem(
            Mesh(3, 3),
            PowerModel.continuous_kim_horowitz(),
            [Communication((0, 0), (2, 2), 500.0)],
        )
        state = RoutingState(problem, ["VVHH"])
        with pytest.raises(InvalidParameterError, match="scalar"):
            NativeLedger(state)


# ----------------------------------------------------------------------
# metaheuristics end-to-end equivalence (native tier == Python tier)
# ----------------------------------------------------------------------
def _routing_sig(result):
    return [
        [(f.path.moves, f.rate) for f in flows]
        for flows in result.routing.flows
    ]


@needs_native
class TestMetaEquivalence:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.integers(0, 2))
    def test_sa_native_equals_python(self, seed, kind):
        rng = np.random.default_rng(seed)
        mesh = _mesh(kind, int(rng.integers(4, 8)), int(rng.integers(4, 8)))
        problem = _problem(mesh, int(rng.integers(6, 16)), seed)
        with _tier("0"):
            rp = SimulatedAnnealing(
                iterations=800, restarts=2, seed=seed
            ).solve(problem)
        with _tier("1"):
            rn = SimulatedAnnealing(
                iterations=800, restarts=2, seed=seed
            ).solve(problem)
        assert _routing_sig(rp) == _routing_sig(rn)
        assert float(rp.power).hex() == float(rn.power).hex()

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10**6), kind=st.integers(0, 2))
    def test_tabu_native_equals_python(self, seed, kind):
        rng = np.random.default_rng(seed)
        mesh = _mesh(kind, int(rng.integers(4, 8)), int(rng.integers(4, 8)))
        problem = _problem(mesh, int(rng.integers(6, 16)), seed)
        with _tier("0"):
            rp = TabuRouting(iterations=120, seed=seed).solve(problem)
        with _tier("1"):
            rn = TabuRouting(iterations=120, seed=seed).solve(problem)
        assert _routing_sig(rp) == _routing_sig(rn)
        assert float(rp.power).hex() == float(rn.power).hex()


# ----------------------------------------------------------------------
# NoC cycle-loop equivalence
# ----------------------------------------------------------------------
@needs_native
class TestNocEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.integers(0, 2),
        injection=st.sampled_from(["deterministic", "bernoulli", "burst"]),
        collect=st.booleans(),
    )
    def test_run_native_equals_python(self, seed, kind, injection, collect):
        from repro.heuristics import get_heuristic
        from repro.noc.engine import ArrayFlitSimulator
        from repro.noc.simulator import DeadlockError

        from repro.workloads import uniform_random_workload

        rng = np.random.default_rng(seed)
        mesh = _mesh(kind, int(rng.integers(3, 6)), int(rng.integers(3, 6)))
        comms = uniform_random_workload(
            mesh, int(rng.integers(1, 7)), 50.0, 900.0,
            rng=np.random.default_rng(seed),
        )
        problem = RoutingProblem(mesh, PowerModel.kim_horowitz(), comms)
        result = get_heuristic("SG").solve(problem)
        if not result.valid:
            return  # infeasible draw — nothing to simulate
        routing = result.routing
        kwargs = dict(
            num_vcs=int(rng.integers(4, 7)),
            buffer_flits=int(rng.integers(1, 5)),
            packet_flits=int(rng.integers(1, 6)),
            injection=injection,
            rate_scale=float(rng.uniform(0.2, 1.2)),
            seed=seed,
            collect_packets=collect,
            deadlock_window=200,
        )
        cycles = int(rng.integers(80, 400))
        warmup = int(rng.integers(0, cycles // 2))

        def report(mode):
            with _tier(mode):
                sim = ArrayFlitSimulator(routing, **kwargs)
                assert sim.tier == ("python" if mode == "0" else "native")
                try:
                    return sim.run(cycles, warmup=warmup)
                except DeadlockError as exc:
                    return str(exc)

        rp = report("0")
        rn = report("1")
        if isinstance(rp, str) or isinstance(rn, str):
            assert rp == rn  # both deadlocked, at the same cycle
            return
        assert rp.total_delivered_flits == rn.total_delivered_flits
        assert np.array_equal(rp.link_utilization, rn.link_utilization)
        assert len(rp.flows) == len(rn.flows)
        for fp, fn in zip(rp.flows, rn.flows):
            assert fp.comm_index == fn.comm_index
            assert fp.injected_flits == fn.injected_flits
            assert fp.delivered_flits == fn.delivered_flits
            assert fp.delivered_packets == fn.delivered_packets
            if fp.delivered_packets:
                assert (
                    float(fp.mean_packet_latency).hex()
                    == float(fn.mean_packet_latency).hex()
                )
            else:
                assert np.isnan(fn.mean_packet_latency)
        assert rp.packets == rn.packets


# ----------------------------------------------------------------------
# warm-start churn chain equivalence
# ----------------------------------------------------------------------
@needs_native
class TestChurnEquivalence:
    def test_churn_chain_totals_equal_across_tiers(self):
        """The 24-step chain of ``TestChurnQuality`` (cold solves and the
        warm chain) routes hex-equal power totals on both tiers."""
        from repro.scenarios import ChurnSpec, churn_trace
        from repro.service import route_incremental

        steps = churn_trace(
            ChurnSpec(
                scenario="paper-baseline",
                requests=24,
                seed=7,
                fault_prob=0.15,
                rate_scale=0.5,
            )
        )

        def totals(mode: str):
            with _tier(mode):
                chain = route_incremental(steps[0].problem)
                cold = warm = 0.0
                for step in steps[1:]:
                    cold += route_incremental(step.problem).power
                    chain = route_incremental(step.problem, chain.routing)
                    warm += chain.power
            return cold.hex(), warm.hex()

        assert totals("0") == totals("1")

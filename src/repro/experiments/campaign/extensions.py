"""Campaign families for the extension artifacts.

Ports of the retired ``benchmarks/test_*`` generators that go beyond the
paper's figures: metaheuristics, multipath splitting, NoC deployment
curves, the Section 7 open problem, exact optimality gaps, reorder-buffer
pricing, classic traffic patterns and published application workloads.
``meta_heuristics`` is a
:class:`~repro.experiments.campaign.sweeps.TrialExperiment` point: its
trials are ``run_trial`` records, so SA, GA and TABU are reseeded from
each trial's own generator, as in every sweep.  The other families are
single-instance studies (or, for ``optimality_gap``, one exact optimum
per instance); their sharding follows each one's natural outer loop
(mesh sizes, split budgets, patterns, mapping qualities, seed chunks).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.core.power import PowerModel
from repro.experiments.campaign.spec import Experiment, Shard, chunk_bounds
from repro.experiments.campaign.sweeps import TrialExperiment, TrialPoint
from repro.experiments.config import UniformRandomFactory
from repro.experiments.runner import BEST_KEY, RosterMember
from repro.heuristics import GeneticRouting, SimulatedAnnealing, TabuRouting
from repro.mesh.topology import Mesh
from repro.utils.tables import format_table


# ----------------------------------------------------------------------
# E-META — stochastic search vs the paper's heuristics (meta_heuristics)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetaHeuristicsExperiment(TrialExperiment):
    """SA/GA/TABU vs XYI/PR over the Figure 7(b) mixed regime."""

    #: 2: shards carry ``record_to_row`` rows of the trial path, and SA,
    #: GA and TABU are reseeded per trial instead of by trial index
    code_version = 2

    trials: int = 25
    seed: int = 20260611
    chunk: int = 5

    def points(self) -> Tuple[TrialPoint, ...]:
        mesh, power = Mesh(8, 8), PowerModel.kim_horowitz()
        workload = UniformRandomFactory(25, 100.0, 2500.0)
        return ((mesh, power, workload, self.seed, 0.0),)

    def roster(self) -> Tuple[RosterMember, ...]:
        return (
            "XYI",
            "PR",
            ("SA", partial(SimulatedAnnealing, iterations=4000)),
            ("SA+XYI", partial(SimulatedAnnealing, iterations=4000, init="XYI")),
            ("GA", partial(GeneticRouting, population=24, generations=40)),
            ("TABU", partial(TabuRouting, iterations=200)),
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        (point,) = self.fold(shard_records)
        field = [n for n in point.stats if n != BEST_KEY]
        return {
            "trials": self.trials,
            "field": field,
            "succ": {n: point.stats[n].successes for n in field},
            "norm_inv": {n: point.stats[n].norm_power_inverse for n in field},
        }

    def render(self, payload: dict) -> str:
        trials = payload["trials"]
        # runtimes deliberately absent (see BENCH_2.json for the M-SPEED
        # timing baselines) — wall-clock is never byte-reproducible
        rows = [
            [
                n,
                f"{payload['succ'][n] / trials:.2f}",
                f"{payload['norm_inv'][n]:.3f}",
            ]
            for n in payload["field"]
        ]
        return (
            f"Metaheuristics vs paper heuristics over {trials} instances "
            "(8x8, 25 comms, U(100,2500) Mb/s)\n"
            + format_table(["heuristic", "success", "norm 1/P"], rows)
        )

    def verify(self, payload: dict) -> None:
        succ, norm_inv = payload["succ"], payload["norm_inv"]
        # SA seeded from XYI can only improve on XYI
        assert succ["SA+XYI"] >= succ["XYI"]
        assert norm_inv["SA+XYI"] >= norm_inv["XYI"] - 1e-9
        # the metaheuristics must be competitive with the paper's best pair
        assert succ["SA"] >= succ["XYI"] - max(2, payload["trials"] // 5)


# ----------------------------------------------------------------------
# E-SMP — what splitting buys (multipath_gain)
# ----------------------------------------------------------------------
def _multipath_shard(_payload: Tuple) -> dict:
    from repro import Communication, Mesh, PowerModel, RoutingProblem
    from repro.multipath import (
        AdaptiveSplitRepair,
        FrankWolfeRounding,
        SplitTwoBend,
    )
    from repro.optimal import frank_wolfe_relaxation, optimal_single_path
    from repro.workloads import single_pair_workload

    mesh = Mesh(8, 8)
    pm = PowerModel.kim_horowitz()
    pigeon = RoutingProblem(
        mesh, pm, [Communication((0, 0), (2, 2), 1800.0) for _ in range(3)]
    )
    one_mp = optimal_single_path(pigeon)
    stb = SplitTwoBend(s=2).solve(pigeon)
    fwr = FrankWolfeRounding(s=2).solve(pigeon)
    asr = AdaptiveSplitRepair(s=2).solve(pigeon)
    split_count = sum(1 for fl in asr.routing.flows if len(fl) > 1)

    single = RoutingProblem(mesh, pm, single_pair_workload(mesh, 1, 3400.0))
    budget_rows = []
    for s in (1, 2, 4, 8):
        res = SplitTwoBend(s=s).solve(single)
        budget_rows.append([s, (res.power if res.valid else None)])
    fw = frank_wolfe_relaxation(single, max_iter=300)
    return {
        "pigeon_infeasible": bool(one_mp.proven_infeasible),
        "stb": [stb.valid, stb.power],
        "fwr": [fwr.valid, fwr.power],
        "asr": [asr.valid, asr.power],
        "split_count": split_count,
        "budget_rows": budget_rows,
        "fw_lower": float(fw.lower_bound),
    }


@dataclass(frozen=True)
class MultipathGainExperiment(Experiment):
    """The XY ⊂ 1-MP ⊂ s-MP hierarchy, measured."""

    def shards(self) -> Tuple[Shard, ...]:
        return (Shard(key="multipath", func=_multipath_shard, payload=()),)

    def finalize(self, shard_records: List[Any]) -> dict:
        return shard_records[0]

    def render(self, payload: dict) -> str:
        budget_rows = [
            [s, f"{p:.1f}" if p is not None else "-"]
            for s, p in payload["budget_rows"]
        ]
        return (
            "Pigeonhole family (3 x 1800 Mb/s same-pair):\n"
            + format_table(
                ["rule", "feasible", "power"],
                [
                    ["optimal 1-MP", "NO (proven)", "-"],
                    ["STB s=2", "yes", f"{payload['stb'][1]:.1f}"],
                    ["FWR s=2", "yes", f"{payload['fwr'][1]:.1f}"],
                    [
                        f"ASR s=2 ({payload['split_count']} split)",
                        "yes",
                        f"{payload['asr'][1]:.1f}",
                    ],
                ],
            )
            + "\n\nTheorem 1 scenario (single saturating pair), power vs s:\n"
            + format_table(["s", "power (STB)"], budget_rows)
            + f"\ncontinuous max-MP dynamic-power bound: "
            f"{payload['fw_lower']:.1f}"
        )

    def verify(self, payload: dict) -> None:
        assert payload["pigeon_infeasible"]
        assert payload["stb"][0] and payload["fwr"][0] and payload["asr"][0]
        # ASR splits only what congestion demands: at most two of three
        assert 1 <= payload["split_count"] <= 2
        powers = [p for _, p in payload["budget_rows"]]
        assert all(p is not None for p in powers)
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:]))


# ----------------------------------------------------------------------
# E-NOC — deployment validation (noc_latency)
# ----------------------------------------------------------------------
_NOC_FRACTIONS = (0.2, 0.5, 0.8, 1.0, 1.3, 1.8, 2.5)


def _noc_find_instance():
    """A reproducible instance where XY and PR are both valid."""
    from repro import Mesh, PowerModel, RoutingProblem
    from repro.heuristics import get_heuristic
    from repro.workloads import uniform_random_workload

    from repro.utils.validation import ReproError

    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    for seed in range(100):
        comms = uniform_random_workload(mesh, 12, 100.0, 1200.0, rng=seed)
        problem = RoutingProblem(mesh, power, comms)
        xy = get_heuristic("XY").solve(problem)
        pr = get_heuristic("PR").solve(problem)
        if xy.valid and pr.valid:
            return problem, xy, pr
    raise ReproError(
        "noc_latency: no doubly-valid XY/PR instance in 100 seeds"
    )


def _noc_latency_shard(payload: Tuple) -> dict:
    from repro.noc import latency_sweep, saturation_fraction

    cycles, warmup, seed = payload
    _problem, xy, pr = _noc_find_instance()
    out: Dict[str, Any] = {"points": {}, "sats": {}}
    for name, res in (("XY", xy), ("PR", pr)):
        points = latency_sweep(
            res.routing,
            _NOC_FRACTIONS,
            cycles=cycles,
            warmup=warmup,
            injection="bernoulli",
            seed=seed,
        )
        out["points"][name] = [
            [pt.fraction, pt.mean_latency, pt.delivered_ratio, pt.stable]
            for pt in points
        ]
        out["sats"][name] = float(saturation_fraction(points))
    return out


@dataclass(frozen=True)
class NocLatencyExperiment(Experiment):
    """Load–latency curves of XY vs PR on a doubly-valid instance."""

    cycles: int = 4000
    warmup: int = 800
    seed: int = 20260611

    def shards(self) -> Tuple[Shard, ...]:
        return (
            Shard(
                key="curves",
                func=_noc_latency_shard,
                payload=(self.cycles, self.warmup, self.seed),
            ),
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return shard_records[0]

    def render(self, payload: dict) -> str:
        rows = []
        for i, frac in enumerate(_NOC_FRACTIONS):
            row = [f"{frac:.1f}"]
            for name in ("XY", "PR"):
                _f, lat, delivered, _stable = payload["points"][name][i]
                row += [
                    f"{lat:.1f}" if np.isfinite(lat) else "-",
                    f"{delivered:.2f}",
                ]
            rows.append(row)
        sats = payload["sats"]
        return (
            "Load-latency sweep, Bernoulli arrivals, 8x8, 12 comms "
            "(links provisioned per routing)\n"
            + format_table(
                ["fraction", "XY lat", "XY del", "PR lat", "PR del"], rows
            )
            + f"\nsaturation fraction: XY {sats['XY']:.2f}  PR {sats['PR']:.2f}"
        )

    def verify(self, payload: dict) -> None:
        for name in ("XY", "PR"):
            pts = payload["points"][name]
            # stable through the nominal operating point
            for frac, _lat, _del, stable in pts:
                if frac <= 1.0:
                    assert stable, (name, frac)
            # latency is monotone-ish: the top of the sweep is the worst
            finite = [lat for _f, lat, _d, _s in pts if np.isfinite(lat)]
            assert finite[0] == min(finite), name
        # shortest paths: zero-load latency of PR within 25% of XY's
        assert (
            payload["points"]["PR"][0][1]
            <= payload["points"]["XY"][0][1] * 1.25
        )


# ----------------------------------------------------------------------
# E-OPEN — the Section 7 open problem (open_problem)
# ----------------------------------------------------------------------
_OPEN_PROFILES = {
    "equal x4": (500.0, 500.0, 500.0, 500.0),
    "skewed x4": (1000.0, 600.0, 300.0, 100.0),
    "equal x6": (350.0,) * 6,
}
_OPEN_SIZES = (4, 6, 8)


def _open_problem_shard(payload: Tuple) -> dict:
    from repro import Communication, Mesh, PowerModel, RoutingProblem
    from repro.optimal import same_endpoint_gap

    p, label, segments = payload
    power = PowerModel.dynamic_only(alpha=2.95, bandwidth=float("inf"))
    mesh = Mesh(p, p)
    problem = RoutingProblem(
        mesh,
        power,
        [
            Communication((0, 0), (p - 1, p - 1), r)
            for r in _OPEN_PROFILES[label]
        ],
    )
    gap = same_endpoint_gap(problem, segments=segments)
    return {
        "xy_power": float(gap.xy_power),
        "flow_upper": float(gap.flow_upper),
        "flow_lower": float(gap.flow_lower),
        "xy_vs_single": float(gap.xy_vs_single),
        "single_vs_multi": float(gap.single_vs_multi),
    }


@dataclass(frozen=True)
class OpenProblemExperiment(Experiment):
    """Shared-endpoint gains: XY vs exact 1-MP vs the max-MP sandwich."""

    segments: int = 48

    def _cases(self) -> List[Tuple[int, str]]:
        return [(p, label) for p in _OPEN_SIZES for label in _OPEN_PROFILES]

    def shards(self) -> Tuple[Shard, ...]:
        profile_index = {label: i for i, label in enumerate(_OPEN_PROFILES)}
        return tuple(
            Shard(
                key=f"p{p}-profile{profile_index[label]}",
                func=_open_problem_shard,
                payload=(p, label, self.segments),
            )
            for p, label in self._cases()
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {
            "cases": [
                {"p": p, "profile": label, **rec}
                for (p, label), rec in zip(self._cases(), shard_records)
            ]
        }

    def render(self, payload: dict) -> str:
        rows = []
        for case in payload["cases"]:
            xy_vs_multi = (
                case["xy_power"] / case["flow_upper"]
                if case["flow_upper"] > 0
                else float("nan")
            )
            rows.append(
                [
                    str(case["p"]),
                    case["profile"],
                    f"{case['xy_vs_single']:.2f}",
                    f"{case['single_vs_multi']:.3f}",
                    f"{xy_vs_multi:.2f}",
                    f"{case['flow_lower'] / case['flow_upper']:.3f}",
                ]
            )
        return (
            "Open problem (Section 7): shared-endpoint gains, dynamic power "
            "alpha=2.95\n"
            + format_table(
                [
                    "p",
                    "profile",
                    "XY/1-MP*",
                    "1-MP*/maxMP",
                    "XY/maxMP",
                    "LP tightness",
                ],
                rows,
            )
        )

    def verify(self, payload: dict) -> None:
        by_profile: Dict[str, list] = {}
        by_p: Dict[int, dict] = {}
        for case in payload["cases"]:
            by_profile.setdefault(case["profile"], []).append(
                (case["p"], case)
            )
            by_p.setdefault(case["p"], {})[case["profile"]] = case
        for label, seq in by_profile.items():
            seq.sort(key=lambda t: t[0])
            # Theorem 1 calibration: XY/maxMP strictly grows with p
            ratios = [c["xy_power"] / c["flow_upper"] for _, c in seq]
            assert ratios == sorted(ratios), (label, ratios)
            xy_gains = [c["xy_vs_single"] for _, c in seq]
            assert xy_gains == sorted(xy_gains), (label, xy_gains)
        for p, cases in by_p.items():
            # equal rates: single-path captures most of the multipath gain
            assert cases["equal x6"]["single_vs_multi"] < 1.6, p
            # skewed rates: the unsplittable heavy flow leaves a residual
            assert (
                cases["skewed x4"]["single_vs_multi"]
                > cases["equal x4"]["single_vs_multi"]
            ), p


# ----------------------------------------------------------------------
# E-OPT — heuristics vs the exact optimum (optimality_gap)
# ----------------------------------------------------------------------
def _optimality_shard(payload: Tuple) -> List[dict]:
    from repro import Mesh, PowerModel, RoutingProblem
    from repro.heuristics import (
        META_HEURISTICS,
        PAPER_HEURISTICS,
        get_heuristic,
    )
    from repro.optimal import (
        frank_wolfe_relaxation,
        milp_single_path,
        optimal_single_path,
    )
    from repro.workloads import uniform_random_workload

    lo, hi = payload
    mesh = Mesh(4, 4)
    power = PowerModel.kim_horowitz()
    field = tuple(PAPER_HEURISTICS) + tuple(META_HEURISTICS)
    rows = []
    for seed in range(lo, hi):
        comms = uniform_random_workload(mesh, 5, 300.0, 2000.0, rng=seed)
        prob = RoutingProblem(mesh, power, comms)
        opt = optimal_single_path(prob)
        if not opt.feasible:
            rows.append({"feasible": False})
            continue
        milp_checked = False
        if seed < 3:  # cross-check a few against the MILP
            m = milp_single_path(prob)
            assert abs(m.power - opt.power) < 1e-6
            milp_checked = True
        fw = frank_wolfe_relaxation(prob, max_iter=200)
        gaps = {}
        for name in field:
            res = get_heuristic(name).solve(prob)
            gaps[name] = (res.power / opt.power) if res.valid else None
        rows.append(
            {
                "feasible": True,
                "milp": milp_checked,
                "fw_ratio": opt.power / max(fw.lower_bound, 1e-12),
                "gaps": gaps,
            }
        )
    return rows


@dataclass(frozen=True)
class OptimalityGapExperiment(Experiment):
    """Heuristic power / exact 1-MP optimum on small instances.

    ``trials`` is the instance count (one exact solve per instance), so
    the generic ``--trials`` override scales this family too.  Not a
    trial path: it studies instances, one exact optimum each, rather than
    averaging a Monte-Carlo point.
    """

    trials: int = 12
    chunk: int = 4

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"seeds-{lo}-{hi}",
                func=_optimality_shard,
                payload=(lo, hi),
            )
            for lo, hi in chunk_bounds(self.trials, self.chunk)
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        from repro.heuristics import META_HEURISTICS, PAPER_HEURISTICS

        field = list(PAPER_HEURISTICS) + list(META_HEURISTICS)
        gaps: Dict[str, list] = {name: [] for name in field}
        fw_gaps: List[float] = []
        milp_checked = 0
        for row in (r for chunk in shard_records for r in chunk):
            if not row["feasible"]:
                continue
            milp_checked += int(row["milp"])
            fw_gaps.append(row["fw_ratio"])
            for name in field:
                if row["gaps"][name] is not None:
                    gaps[name].append(row["gaps"][name])
        return {
            "instances": self.trials,
            "field": field,
            "gaps": gaps,
            "fw_gaps": fw_gaps,
            "milp_checked": milp_checked,
        }

    def render(self, payload: dict) -> str:
        rows = []
        for name in payload["field"]:
            g = payload["gaps"][name]
            rows.append(
                [
                    name,
                    len(g),
                    f"{np.mean(g):.3f}" if g else "-",
                    f"{np.max(g):.3f}" if g else "-",
                ]
            )
        return (
            "Heuristic power / exact 1-MP optimum (4x4, 5 comms, "
            f"{payload['instances']} instances; MILP cross-checked on "
            f"{payload['milp_checked']})\n"
            + format_table(["heuristic", "solved", "mean gap", "max gap"], rows)
            + f"\nexact optimum / FW certified bound: mean "
            f"{np.mean(payload['fw_gaps']):.2f} "
            "(static + discretisation headroom)"
        )

    def verify(self, payload: dict) -> None:
        gaps = payload["gaps"]
        for name in payload["field"]:
            assert all(g >= 1 - 1e-9 for g in gaps[name])
        # on small instances the strong heuristics stay near optimal
        assert np.mean(gaps["PR"]) < 1.25
        assert np.mean(gaps["XYI"]) < 1.15
        # the metaheuristics essentially close the gap at 4x4 scale
        assert np.mean(gaps["SA"]) < 1.05


# ----------------------------------------------------------------------
# E-REORD — the cost of splitting (reorder_overhead)
# ----------------------------------------------------------------------
_REORDER_BUDGETS = (1, 2, 4, 8)


def _reorder_shard(payload: Tuple) -> dict:
    from repro import Mesh, PowerModel, RoutingProblem
    from repro.multipath import SplitTwoBend
    from repro.noc import ArrayFlitSimulator, reorder_stats
    from repro.workloads import single_pair_workload

    s, cycles, warmup = payload
    mesh = Mesh(8, 8)
    pm = PowerModel.kim_horowitz()
    problem = RoutingProblem(mesh, pm, single_pair_workload(mesh, 1, 3400.0))
    res = SplitTwoBend(s=s).solve(problem)
    assert res.valid
    sim = ArrayFlitSimulator(
        res.routing,
        injection="deterministic",
        collect_packets=True,
        packet_flits=4,
    )
    rep = sim.run(cycles, warmup=warmup)
    st = reorder_stats(rep)[0]
    return {
        "s": s,
        "paths": res.routing.num_paths(0),
        "power": res.power,
        "ooo": st.out_of_order_fraction,
        "buf": int(st.reorder_buffer_packets),
        "disp": int(st.max_displacement),
    }


@dataclass(frozen=True)
class ReorderOverheadExperiment(Experiment):
    """Split budget vs receiver-side reassembly cost."""

    cycles: int = 8000
    warmup: int = 800

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"budget-{s}",
                func=_reorder_shard,
                payload=(s, self.cycles, self.warmup),
            )
            for s in _REORDER_BUDGETS
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {"rows": shard_records}

    def render(self, payload: dict) -> str:
        table = [
            [
                str(r["s"]),
                str(r["paths"]),
                f"{r['power']:.1f}",
                f"{r['ooo']:.3f}",
                str(r["buf"]),
                str(r["disp"]),
            ]
            for r in payload["rows"]
        ]
        return (
            "Split budget vs reassembly cost (one 3400 Mb/s pair on 8x8, "
            "deterministic arrivals, 4-flit packets)\n"
            + format_table(
                [
                    "s",
                    "paths used",
                    "power mW",
                    "out-of-order",
                    "reorder buf (pkts)",
                    "max displacement",
                ],
                table,
            )
        )

    def verify(self, payload: dict) -> None:
        powers = [r["power"] for r in payload["rows"]]
        buffers = [r["buf"] for r in payload["rows"]]
        # the trade-off's two monotone arms
        assert all(b <= a + 1e-9 for a, b in zip(powers, powers[1:])), powers
        assert buffers[0] == 0  # single path is in-order by construction
        assert buffers[-1] >= buffers[0]
        # splitting ever further must eventually pay a real buffer
        assert max(buffers) >= 1


# ----------------------------------------------------------------------
# E-PAT — classic NoC traffic patterns (traffic_patterns)
# ----------------------------------------------------------------------
_PATTERN_NAMES = (
    "transpose",
    "bit-reverse",
    "tornado",
    "hotspot-25%",
    "hotspot-all",
)
_PATTERN_RATES = (25.0, 50.0, 100.0, 200.0, 300.0, 450.0, 700.0, 1000.0, 1500.0)


def _make_pattern(pattern: str, mesh, rate: float):
    from repro.workloads import (
        bit_reverse_pattern,
        hotspot_pattern,
        tornado_pattern,
        transpose_pattern,
    )

    if pattern == "transpose":
        return transpose_pattern(mesh, rate)
    if pattern == "bit-reverse":
        return bit_reverse_pattern(mesh, rate)
    if pattern == "tornado":
        return tornado_pattern(mesh, rate)
    if pattern == "hotspot-25%":
        return hotspot_pattern(mesh, rate, hotspot=(3, 3), fraction=0.25, rng=1)
    return hotspot_pattern(mesh, rate, hotspot=(3, 3), fraction=1.0, rng=1)


def _traffic_shard(payload: Tuple) -> List:
    from repro import Mesh, PowerModel, RoutingProblem
    from repro.heuristics import BestOf, get_heuristic

    (pattern,) = payload
    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    solvers = {
        "XY": lambda p: get_heuristic("XY").solve(p),
        "BEST": lambda p: BestOf().solve(p),
    }

    def saturation(solver) -> float:
        best = 0.0
        for rate in _PATTERN_RATES:
            problem = RoutingProblem(
                mesh, power, _make_pattern(pattern, mesh, rate)
            )
            if solver(problem).valid:
                best = rate
        return best

    sat_xy = saturation(solvers["XY"])
    sat_best = saturation(solvers["BEST"])
    common = min(sat_xy, sat_best)
    ratio = float("nan")
    if common > 0:
        problem = RoutingProblem(
            mesh, power, _make_pattern(pattern, mesh, common)
        )
        p_xy = solvers["XY"](problem).power
        p_best = solvers["BEST"](problem).power
        ratio = p_xy / p_best
    return [sat_xy, sat_best, common, ratio]


@dataclass(frozen=True)
class TrafficPatternsExperiment(Experiment):
    """Saturation rates and power ratios on the classic patterns."""

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"pattern-{i}",
                func=_traffic_shard,
                payload=(pattern,),
            )
            for i, pattern in enumerate(_PATTERN_NAMES)
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {"patterns": dict(zip(_PATTERN_NAMES, shard_records))}

    def render(self, payload: dict) -> str:
        rows = []
        for pattern in _PATTERN_NAMES:
            sat_xy, sat_best, _common, ratio = payload["patterns"][pattern]
            rows.append(
                [
                    pattern,
                    f"{sat_xy:.0f}",
                    f"{sat_best:.0f}",
                    f"{ratio:.3f}" if np.isfinite(ratio) else "-",
                ]
            )
        return (
            "Classic patterns on 8x8 (saturation = highest swept per-core "
            "rate routed validly; ratio = P_XY / P_BEST at the common rate)\n"
            + format_table(
                ["pattern", "XY sat Mb/s", "BEST sat Mb/s", "power ratio"],
                rows,
            )
        )

    def verify(self, payload: dict) -> None:
        out = payload["patterns"]
        # Manhattan freedom strictly extends the fold patterns' saturation
        assert out["transpose"][1] > out["transpose"][0]
        assert out["bit-reverse"][1] > out["bit-reverse"][0]
        # hotspots: XY saturates its approach column before the in-degree
        # cut; BEST gets past it but never past the cut bound itself
        for pat, senders in (("hotspot-25%", 16), ("hotspot-all", 63)):
            cut_bound = 4 * 3500.0 / senders
            assert out[pat][1] > out[pat][0], pat
            assert out[pat][1] <= cut_bound + 1e-9, pat
        # the structural control: forced-path tornado ties exactly
        assert out["tornado"][0] == out["tornado"][1]
        # wherever both are feasible, BEST never pays more power than XY
        for pattern, (_, _, _common, ratio) in out.items():
            if np.isfinite(ratio):
                assert ratio >= 1.0 - 1e-9, pattern


# ----------------------------------------------------------------------
# E-APP — published application traffic (app_workloads)
# ----------------------------------------------------------------------
_APP_HEURISTICS = ("XY", "SG", "XYI", "PR")
_APP_QUALITIES = ("row-major", "greedy", "annealed")


def _app_shard(payload: Tuple) -> dict:
    from repro import Mesh, PowerModel, RoutingProblem
    from repro.heuristics import get_heuristic
    from repro.workloads import (
        annealed_placement,
        bandwidth_aware_placement,
        map_applications,
        mpeg4_app,
        mwd_app,
        pip_app,
        placement_cost,
        region_split,
        vopd_app,
    )

    quality, scale = payload
    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    apps = [
        vopd_app(scale=scale),
        mpeg4_app(scale=scale),
        mwd_app(scale=scale),
        pip_app(scale=scale),
    ]
    regions = region_split(mesh, [a.num_tasks for a in apps])
    placements = []
    for app, region in zip(apps, regions):
        if quality == "row-major":
            placements.append(list(region[: app.num_tasks]))
        elif quality == "greedy":
            placements.append(
                bandwidth_aware_placement(mesh, app, region=region, rng=0)
            )
        else:  # annealed
            placements.append(
                annealed_placement(
                    mesh, app, region=region, iterations=2000, seed=0
                )
            )
    comms = map_applications(apps, placements)
    problem = RoutingProblem(mesh, power, comms)
    cost = sum(placement_cost(a, p) for a, p in zip(apps, placements))
    row: Dict[str, Any] = {"cost": float(cost), "n": len(comms)}
    for name in _APP_HEURISTICS:
        res = get_heuristic(name).solve(problem)
        row[name] = res.power if res.valid else float("inf")
    return row


@dataclass(frozen=True)
class AppWorkloadsExperiment(Experiment):
    """VOPD+MPEG4+MWD+PIP under three mapping qualities."""

    scale: float = 3.0  # Mb/s per published MB/s

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"mapping-{quality}",
                func=_app_shard,
                payload=(quality, self.scale),
            )
            for quality in _APP_QUALITIES
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {"qualities": dict(zip(_APP_QUALITIES, shard_records))}

    def render(self, payload: dict) -> str:
        rows = []
        for quality in _APP_QUALITIES:
            rec = payload["qualities"][quality]
            row = [quality, f"{rec['cost']:.0f}"]
            for name in _APP_HEURISTICS:
                row.append(
                    f"{rec[name]:.0f}" if np.isfinite(rec[name]) else "FAIL"
                )
            best_manhattan = min(
                rec[n] for n in _APP_HEURISTICS if n != "XY"
            )
            row.append(
                f"{rec['XY'] / best_manhattan:.3f}"
                if np.isfinite(rec["XY"])
                else "inf"
            )
            rows.append(row)
        return (
            f"Published apps (VOPD+MPEG4+MWD+PIP, scale={self.scale:g} "
            "Mb/s per MB/s) on 8x8\n"
            + format_table(
                ["mapping", "rate-dist", *_APP_HEURISTICS, "XY/bestM"], rows
            )
        )

    def verify(self, payload: dict) -> None:
        recs = payload["qualities"]
        costs = [recs[q]["cost"] for q in _APP_QUALITIES]
        # mapping ladder: each step reduces rate-weighted distance
        assert costs[0] >= costs[1] >= costs[2], costs
        # better mapping -> less power for the best Manhattan heuristic
        best = [
            min(recs[q][n] for n in _APP_HEURISTICS if n != "XY")
            for q in _APP_QUALITIES
        ]
        assert best[0] >= best[2], best
        # on every mapping, some Manhattan heuristic is at least as
        # good as XY
        for quality in _APP_QUALITIES:
            rec = recs[quality]
            best_manhattan = min(rec[n] for n in _APP_HEURISTICS if n != "XY")
            assert best_manhattan <= rec["XY"] * (1 + 1e-9), quality

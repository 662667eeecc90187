"""Campaign families for the six ablation artifacts.

Four of them are :class:`~repro.experiments.campaign.sweeps.TrialExperiment`
points — ``run_trial`` records folded by ``aggregate_records``, exactly
what ``run_point`` computes for their points and rosters:
``ablation_best_members``, ``ablation_improver_start``,
``ablation_leakage`` and ``ablation_ordering``.  The other two
(``ablation_frequency_ladder``, ``ablation_router_power``) read per-routing
quantities a trial record does not carry, so they keep their own workers;
those draw the **same RNG streams** (per-trial ``spawn_rngs`` indices,
pure in ``(seed, trial)``) and fold per-trial rows **in trial order**.
Either way the campaign reproduces the committed tables byte for byte
while gaining sharded caching and resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, ClassVar, Dict, List, Tuple

from repro.core.power import PowerModel
from repro.experiments.campaign.spec import Experiment, Shard, chunk_bounds
from repro.experiments.campaign.sweeps import TrialExperiment, TrialPoint
from repro.experiments.config import FamilyMixture, UniformRandomFactory
from repro.experiments.runner import BEST_KEY, RosterMember
from repro.heuristics import (
    PAPER_HEURISTICS,
    ImprovedGreedy,
    SimpleGreedy,
    TwoBend,
    XYImprover,
)
from repro.heuristics.ordering import ORDERINGS
from repro.mesh.topology import Mesh
from repro.utils.rng import spawn_rngs_range
from repro.utils.tables import format_table


def _platform():
    return Mesh(8, 8), PowerModel.kim_horowitz()


# ----------------------------------------------------------------------
# E-ABL2 — who wins inside BEST (ablation_best_members)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BestMembersExperiment(TrialExperiment):
    """Win shares inside BEST + BEST's success without each member."""

    #: 2: shards carry ``record_to_row`` rows of the trial path
    code_version = 2

    trials: int = 25
    seed: int = 777
    chunk: int = 5

    def points(self) -> Tuple[TrialPoint, ...]:
        # 10..79 communications, the count drawn uniformly per instance
        mixed = FamilyMixture(
            tuple(UniformRandomFactory(n, 100.0, 2000.0) for n in range(10, 80))
        )
        return ((*_platform(), mixed, self.seed, 0.0),)

    def roster(self) -> Tuple[RosterMember, ...]:
        return PAPER_HEURISTICS

    def finalize(self, shard_records: List[Any]) -> dict:
        (point,) = self.fold(shard_records)
        wins = {n: 0 for n in PAPER_HEURISTICS}
        without = {n: 0 for n in PAPER_HEURISTICS}
        for row in self.point_rows(shard_records)[0]:
            outcomes = row["outcomes"]
            valid = [n for n in PAPER_HEURISTICS if outcomes[n][0]]
            if row["best_valid"]:
                # BEST keeps the first valid member of least power
                wins[
                    next(n for n in valid if outcomes[n][1] == row["best_inv"])
                ] += 1
            for n in PAPER_HEURISTICS:
                without[n] += int(any(m != n for m in valid))
        return {
            "trials": self.trials,
            "wins": wins,
            "succ": {n: point.stats[n].successes for n in PAPER_HEURISTICS},
            "best_succ": point.stats[BEST_KEY].successes,
            "without": without,
        }

    def render(self, payload: dict) -> str:
        trials = payload["trials"]
        best_succ = payload["best_succ"]
        without = payload["without"]
        rows = [
            [
                n,
                f"{payload['succ'][n] / trials:.2f}",
                f"{payload['wins'][n] / max(best_succ, 1):.2f}",
            ]
            for n in PAPER_HEURISTICS
        ]
        return (
            f"BEST composition over {trials} mixed instances "
            f"(BEST succeeded on {best_succ})\n"
            + format_table(["heuristic", "success", "win share"], rows)
            + "\nmarginal success of the two leaders:\n"
            + format_table(
                ["ensemble", "success"],
                [
                    ["all six", f"{best_succ / trials:.2f}"],
                    ["without XYI", f"{without['XYI'] / trials:.2f}"],
                    ["without PR", f"{without['PR'] / trials:.2f}"],
                ],
            )
        )

    def verify(self, payload: dict) -> None:
        wins = payload["wins"]
        # paper: XYI and PR are the best two heuristics — they jointly
        # take the majority of wins
        leaders = wins["XYI"] + wins["PR"]
        assert leaders >= sum(wins.values()) - leaders
        # dropping PR must cost at least as much success as dropping any
        # single weaker member would (it is the most robust finder)
        without = payload["without"]
        assert all(without["PR"] <= without[n] for n in without), without


# ----------------------------------------------------------------------
# E-FREQ — DVFS-granularity ladder (ablation_frequency_ladder)
# ----------------------------------------------------------------------
_LADDER_NAMES = ("XY", "XYI", "PR")
_LADDER_LABELS = (
    "1 (on/off)",
    "2 uniform",
    "paper (3)",
    "4 uniform",
    "8 uniform",
    "continuous",
)


def _ladders():
    from repro.core import uniform_ladder

    kh = PowerModel.kim_horowitz()
    return {
        "1 (on/off)": kh.with_frequencies(uniform_ladder(1, kh.bandwidth)),
        "2 uniform": kh.with_frequencies(uniform_ladder(2, kh.bandwidth)),
        "paper (3)": kh,
        "4 uniform": kh.with_frequencies(uniform_ladder(4, kh.bandwidth)),
        "8 uniform": kh.with_frequencies(uniform_ladder(8, kh.bandwidth)),
        "continuous": kh.with_frequencies(None),
    }


def _frequency_ladder_shard(payload: Tuple) -> List[dict]:
    from repro import RoutingProblem
    from repro.core import routing_frequency_plan
    from repro.heuristics import get_heuristic
    from repro.workloads import uniform_random_workload

    seed, lo, hi = payload
    mesh = Mesh(8, 8)
    ladders = _ladders()
    rows = []
    for rng in spawn_rngs_range(seed, lo, hi):
        comms = uniform_random_workload(mesh, 20, 100.0, 2000.0, rng=rng)
        row: Dict[str, dict] = {}
        for lad, model in ladders.items():
            problem = RoutingProblem(mesh, model, comms)
            cells = {}
            for name in _LADDER_NAMES:
                res = get_heuristic(name).solve(problem)
                if res.valid:
                    cells[name] = [
                        True,
                        res.power,
                        routing_frequency_plan(
                            res.routing
                        ).quantization_overhead(),
                    ]
                else:
                    cells[name] = [False, None, None]
            row[lad] = cells
        rows.append(row)
    return rows


@dataclass(frozen=True)
class FrequencyLadderExperiment(Experiment):
    """Power vs DVFS-ladder granularity for XY, XYI and PR.

    Not a trial path: it grades one draw under six power models, and its
    fold reads each routing's quantisation overhead, which a trial record
    does not carry.
    """

    trials: int = 25
    seed: int = 2468
    chunk: int = 5

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"trials-{lo}-{hi}",
                func=_frequency_ladder_shard,
                payload=(self.seed, lo, hi),
            )
            for lo, hi in chunk_bounds(self.trials, self.chunk)
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        stats = {
            lad: {
                n: {"succ": 0, "power": 0.0, "overhead": 0.0}
                for n in _LADDER_NAMES
            }
            for lad in _LADDER_LABELS
        }
        for row in (r for chunk in shard_records for r in chunk):
            for lad in _LADDER_LABELS:
                for name in _LADDER_NAMES:
                    valid, power, overhead = row[lad][name]
                    if valid:
                        rec = stats[lad][name]
                        rec["succ"] += 1
                        rec["power"] += power
                        rec["overhead"] += overhead
        return {"trials": self.trials, "stats": stats}

    def render(self, payload: dict) -> str:
        rows = []
        for lad in _LADDER_LABELS:
            row = [lad]
            for name in _LADDER_NAMES:
                rec = payload["stats"][lad][name]
                if rec["succ"]:
                    mean_p = rec["power"] / rec["succ"]
                    share = rec["overhead"] / rec["power"]
                    row.append(f"{mean_p:.0f} ({100 * share:.0f}%)")
                else:
                    row.append("-")
            row.append(str(payload["stats"][lad]["PR"]["succ"]))
            rows.append(row)
        return (
            f"DVFS-granularity ablation over {payload['trials']} instances "
            "(8x8, 20 comms, 100-2000 Mb/s); cells: mean power mW "
            "(quantisation overhead share)\n"
            + format_table(
                ["ladder", *(f"{n} mW (ovh)" for n in _LADDER_NAMES), "PR succ"],
                rows,
            )
        )

    def verify(self, payload: dict) -> None:
        stats = payload["stats"]
        trials = payload["trials"]
        # XY's routing never changes, so its success rate is exactly
        # ladder-independent (validity depends only on BW)
        assert len({stats[lad]["XY"]["succ"] for lad in _LADDER_LABELS}) == 1
        for name in ("XYI", "PR"):
            succs = [stats[lad][name]["succ"] for lad in _LADDER_LABELS]
            assert max(succs) - min(succs) <= max(2, trials // 5), (name, succs)
        for name in _LADDER_NAMES:
            per = {}
            for lad in _LADDER_LABELS:
                rec = stats[lad][name]
                if rec["succ"]:
                    per[lad] = rec["power"] / rec["succ"]
            if not per:
                continue
            # coarse ladder ordering: no-DVFS >= paper >= continuous,
            # and nested uniform refinement 2 -> 8 can only help
            if {"1 (on/off)", "paper (3)", "continuous"} <= per.keys():
                assert per["1 (on/off)"] >= per["paper (3)"] - 1e-6, name
                assert per["paper (3)"] >= per["continuous"] - 1e-6, name
            if {"2 uniform", "8 uniform"} <= per.keys():
                assert per["2 uniform"] >= per["8 uniform"] - 1e-6, name
            if "continuous" in per:
                assert per["continuous"] <= min(per.values()) + 1e-6, name
        # continuous scaling has zero quantisation overhead
        assert stats["continuous"]["PR"]["overhead"] == 0.0


# ----------------------------------------------------------------------
# E-ABL4 — what the local descent starts from (ablation_improver_start)
# ----------------------------------------------------------------------
_STARTS = ("XY", "TB", "IG")


@dataclass(frozen=True)
class ImproverStartExperiment(TrialExperiment):
    """XYI's corner descent seeded by XY, TB and IG."""

    #: 2: shards carry ``record_to_row`` rows of the trial path
    code_version = 2

    trials: int = 12
    seed: int = 90125
    chunk: int = 4

    def points(self) -> Tuple[TrialPoint, ...]:
        workload = UniformRandomFactory(45, 100.0, 1800.0)
        return ((*_platform(), workload, self.seed, 0.0),)

    def roster(self) -> Tuple[RosterMember, ...]:
        return tuple((s, partial(XYImprover, start=s)) for s in _STARTS)

    def finalize(self, shard_records: List[Any]) -> dict:
        (point,) = self.fold(shard_records)
        return {
            "trials": self.trials,
            "succ": {s: point.stats[s].successes for s in _STARTS},
            "norm": {s: point.stats[s].norm_power_inverse for s in _STARTS},
        }

    def render(self, payload: dict) -> str:
        trials = payload["trials"]
        rows = [
            [
                s,
                f"{payload['succ'][s] / trials:.2f}",
                f"{payload['norm'][s]:.3f}",
            ]
            for s in _STARTS
        ]
        return (
            f"Improver-start ablation over {trials} instances "
            "(45 comms, 100-1800)\n"
            + format_table(["start", "success", "norm inverse"], rows)
        )

    def verify(self, payload: dict) -> None:
        # the paper's XY start should not be badly dominated: within 20%
        # of the best variant on the normalised inverse
        best_norm = max(payload["norm"][s] for s in _STARTS)
        assert payload["norm"]["XY"] >= 0.8 * best_norm


# ----------------------------------------------------------------------
# E-ABL3 — the P_leak/P0 ratio (ablation_leakage)
# ----------------------------------------------------------------------
_LEAK_SCALES = (0.0, 0.2, 1.0, 5.0, 25.0)
_LEAK_NAMES = ("XY", "XYI", "PR")


def _leak_power(scale: float) -> PowerModel:
    """Kim–Horowitz with ``P_leak`` scaled by ``scale``."""
    return PowerModel(
        p_leak=16.9 * scale,
        p0=5.41,
        alpha=2.95,
        bandwidth=3500.0,
        frequencies=(1000.0, 2500.0, 3500.0),
        freq_unit=1000.0,
    )


@dataclass(frozen=True)
class LeakageExperiment(TrialExperiment):
    """The §6.4 closing remark: sweep P_leak around the Kim–Horowitz value.

    One point per leak scale, all on one seed: every scale routes the
    same instances.
    """

    #: 2: shards carry ``record_to_row`` rows of the trial path
    code_version = 2

    #: trials per shard (chunking never changes a number)
    chunk: ClassVar[int] = 4

    trials: int = 12
    seed: int = 31337

    def points(self) -> Tuple[TrialPoint, ...]:
        mesh = Mesh(8, 8)
        workload = UniformRandomFactory(30, 100.0, 1800.0)
        return tuple(
            (mesh, _leak_power(scale), workload, self.seed, scale)
            for scale in _LEAK_SCALES
        )

    def roster(self) -> Tuple[RosterMember, ...]:
        return _LEAK_NAMES

    def finalize(self, shard_records: List[Any]) -> dict:
        return {
            "trials": self.trials,
            "norm": [
                {n: point.stats[n].norm_power_inverse for n in _LEAK_NAMES}
                for point in self.fold(shard_records)
            ],
        }

    def render(self, payload: dict) -> str:
        rows = [
            [f"{scale:g}x", *(f"{norm[n]:.3f}" for n in _LEAK_NAMES)]
            for scale, norm in zip(_LEAK_SCALES, payload["norm"])
        ]
        return (
            f"P_leak sweep (scale of 16.9 mW) at {payload['trials']} trials, "
            "30 mixed comms\n"
            + format_table(["P_leak scale", *_LEAK_NAMES], rows)
        )

    def verify(self, payload: dict) -> None:
        pr_vs_xyi = [norm["PR"] - norm["XYI"] for norm in payload["norm"]]
        # PR's relative standing vs XYI improves as the leakage share
        # shrinks (the paper's remark)
        assert pr_vs_xyi[0] >= pr_vs_xyi[-1] - 0.05


# ----------------------------------------------------------------------
# E-ABL — communication-processing order (ablation_ordering)
# ----------------------------------------------------------------------
_ORDER_FACTORIES = {"SG": SimpleGreedy, "IG": ImprovedGreedy, "TB": TwoBend}


@dataclass(frozen=True)
class OrderingExperiment(TrialExperiment):
    """SG/IG/TB under every processing-order criterion."""

    #: 2: shards carry ``record_to_row`` rows of the trial path
    code_version = 2

    trials: int = 25
    seed: int = 4242
    chunk: int = 5

    def points(self) -> Tuple[TrialPoint, ...]:
        # a regime where SG/IG/TB succeed often enough to compare orderings
        workload = UniformRandomFactory(30, 100.0, 1600.0)
        return ((*_platform(), workload, self.seed, 0.0),)

    def roster(self) -> Tuple[RosterMember, ...]:
        return tuple(
            (f"{h}/{o}", partial(cls, ordering=o))
            for h, cls in _ORDER_FACTORIES.items()
            for o in ORDERINGS
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        (point,) = self.fold(shard_records)
        labels = [label for label, _ in self.roster()]
        return {
            "trials": self.trials,
            "succ": {k: point.stats[k].successes for k in labels},
            "inv": {k: point.stats[k].mean_power_inverse for k in labels},
        }

    def render(self, payload: dict) -> str:
        trials = payload["trials"]
        rows = [
            [
                h,
                o,
                f"{payload['succ'][f'{h}/{o}'] / trials:.2f}",
                f"{payload['inv'][f'{h}/{o}'] * 1e4:.3f}",
            ]
            for h in _ORDER_FACTORIES
            for o in ORDERINGS
        ]
        return (
            f"Ordering ablation over {trials} instances (30 comms, 100-1600)\n"
            + format_table(
                ["heuristic", "ordering", "success", "mean 1e4/P"], rows
            )
        )

    def verify(self, payload: dict) -> None:
        trials = payload["trials"]
        succ = payload["succ"]
        # the paper's claim: decreasing weight is the best (or tied-best)
        # criterion for each greedy heuristic, measured by success rate
        for h in _ORDER_FACTORIES:
            for o in ("length", "input"):
                assert succ[f"{h}/weight"] >= succ[f"{h}/{o}"] - max(
                    2, trials // 10
                ), (h, o)


# ----------------------------------------------------------------------
# E-ABL5 — router power (ablation_router_power)
# ----------------------------------------------------------------------
_ROUTER_LEAKS = (0.0, 4.0, 8.0, 16.0, 32.0, 64.0)
_ROUTER_REGIMES = {
    "light": dict(n=12, lo=100.0, hi=1200.0, seed=1001),
    "constrained": dict(n=25, lo=100.0, hi=2500.0, seed=2002),
}
_ROUTER_NAMES = ("XYI", "PR")


def _router_power_shard(payload: Tuple) -> dict:
    from repro import RoutingProblem
    from repro.heuristics import get_heuristic
    from repro.noc import RouterPowerModel, network_power
    from repro.utils.rng import spawn_rngs
    from repro.workloads import uniform_random_workload

    regime, trials = payload
    cfg = _ROUTER_REGIMES[regime]
    mesh = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    base = RouterPowerModel()
    leak_keys = [f"{leak:g}" for leak in _ROUTER_LEAKS]
    both_sums = {k: {n: 0.0 for n in _ROUTER_NAMES} for k in leak_keys}
    inv = {k: {n: 0.0 for n in _ROUTER_NAMES} for k in leak_keys}
    succ = {n: 0 for n in _ROUTER_NAMES}
    routers = {n: 0.0 for n in _ROUTER_NAMES}
    both = 0
    for rng in spawn_rngs(cfg["seed"], trials):
        comms = uniform_random_workload(
            mesh, cfg["n"], cfg["lo"], cfg["hi"], rng=rng
        )
        problem = RoutingProblem(mesh, power, comms)
        results = {n: get_heuristic(n).solve(problem) for n in _ROUTER_NAMES}
        all_valid = all(r.valid for r in results.values())
        both += int(all_valid)
        for name, res in results.items():
            succ[name] += int(res.valid)
            if not res.valid:
                continue
            for leak, key in zip(_ROUTER_LEAKS, leak_keys):
                total = network_power(res.routing, base.with_leak(leak)).total
                inv[key][name] += 1.0 / total
                if all_valid:
                    both_sums[key][name] += total
            routers[name] += network_power(res.routing, base).num_active_routers
    return {
        "both_sums": both_sums,
        "inv": inv,
        "succ": succ,
        "routers": routers,
        "both": both,
    }


@dataclass(frozen=True)
class RouterPowerExperiment(Experiment):
    """XYI vs PR under total (links + routers) power, two regimes.

    Not a trial path: its fold reads each routing's ``network_power`` at
    six router leak values, which a trial record does not carry.
    """

    trials: int = 25

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"regime-{regime}",
                func=_router_power_shard,
                payload=(regime, self.trials),
            )
            for regime in _ROUTER_REGIMES
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {
            "trials": self.trials,
            "regimes": dict(zip(_ROUTER_REGIMES, shard_records)),
        }

    def render(self, payload: dict) -> str:
        from repro.utils.validation import ReproError

        trials = payload["trials"]
        lines = []
        for regime in _ROUTER_REGIMES:
            rec = payload["regimes"][regime]
            both = rec["both"]
            if both == 0 or rec["succ"]["PR"] == 0:
                raise ReproError(
                    f"ablation_router_power: regime {regime!r} has no "
                    f"doubly-valid instance in {trials} trials — raise "
                    "--trials"
                )
            rows = []
            for leak in _ROUTER_LEAKS:
                key = f"{leak:g}"
                a = rec["both_sums"][key]["XYI"] / both
                b = rec["both_sums"][key]["PR"] / both
                ia = rec["inv"][key]["XYI"] / trials
                ib = rec["inv"][key]["PR"] / trials
                rows.append(
                    [
                        f"{leak:.0f}",
                        f"{a / b:.3f}",
                        f"{1e4 * ia:.3f}",
                        f"{1e4 * ib:.3f}",
                    ]
                )
            r_xyi = rec["routers"]["XYI"] / max(1, rec["succ"]["XYI"])
            r_pr = rec["routers"]["PR"] / max(1, rec["succ"]["PR"])
            lines.append(
                f"[{regime}] success XYI {rec['succ']['XYI']}/{trials}, "
                f"PR {rec['succ']['PR']}/{trials}; mean active routers "
                f"XYI {r_xyi:.1f}, PR {r_pr:.1f} "
                f"(router ratio {r_xyi / r_pr:.3f})\n"
                + format_table(
                    [
                        "router leak mW",
                        "XYI/PR (both valid)",
                        "XYI 1e4/P",
                        "PR 1e4/P",
                    ],
                    rows,
                )
            )
        return (
            "Router-leakage ablation (8x8, Kim-Horowitz links + Orion-style "
            "routers)\n" + "\n\n".join(lines)
        )

    def verify(self, payload: dict) -> None:
        for regime in _ROUTER_REGIMES:
            rec = payload["regimes"][regime]
            both = rec["both"]
            assert both > 0, f"no doubly-valid instances in regime {regime}"
            ratios = [
                rec["both_sums"][f"{leak:g}"]["XYI"]
                / rec["both_sums"][f"{leak:g}"]["PR"]
                for leak in _ROUTER_LEAKS
            ]
            # dilution: the ratio converges monotonically toward the
            # active-router-count ratio and never crosses 1 on the way
            target = ratios[-1]
            dists = [abs(r - target) for r in ratios]
            assert all(a >= b - 1e-9 for a, b in zip(dists, dists[1:])), (
                regime,
                ratios,
            )
            winner_flips = {r > 1.0 for r in ratios}
            assert len(winner_flips) == 1, (regime, ratios)
        # the paper's regime structure under total power at realistic leakage
        light = payload["regimes"]["light"]
        constrained = payload["regimes"]["constrained"]
        assert (
            light["inv"]["8"]["XYI"] >= light["inv"]["8"]["PR"] * 0.95
        ), "XYI should lead (or tie) the light regime"
        assert (
            constrained["inv"]["8"]["PR"] >= constrained["inv"]["8"]["XYI"]
        ), "PR should lead the constrained regime (success-rate driven)"

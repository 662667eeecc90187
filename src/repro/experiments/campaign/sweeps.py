"""Campaign families for the Figure 7/8/9 sweeps and the §6.4 summary.

These wrap the existing Monte-Carlo machinery
(:mod:`repro.experiments.config`, :mod:`repro.experiments.runner`) in
declarative, shardable specs.  A sweep or summary shard is one chunk of
trials of one sweep point, run by the runner's own chunk worker (same
per-point seed derivation, same per-trial RNG streams) and folded by its
:func:`~repro.experiments.runner.aggregate_records`, so campaign output
is bit-identical to ``run_sweep`` and ``summary_statistics`` — the
wall-clock ``runtime_s`` is dropped at the wire boundary because it can
never be reproduced and the renderings never show it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.core.power import PowerModel
from repro.experiments.campaign.spec import Experiment, Shard, chunk_bounds
from repro.experiments.config import (
    fig7_config,
    fig8_config,
    fig9_config,
    summary_mixture,
)
from repro.experiments.figures import summary_from_point
from repro.experiments.report import sweep_to_text
from repro.experiments.runner import (
    BEST_KEY,
    HeuristicPointStats,
    PointResult,
    SweepResult,
    TrialOutcome,
    TrialRecord,
    _run_trial_chunk,
    aggregate_records,
    point_seed,
)
from repro.heuristics.best import PAPER_HEURISTICS
from repro.mesh.topology import Mesh
from repro.utils.tables import format_table
from repro.utils.validation import InvalidParameterError


# ----------------------------------------------------------------------
# TrialRecord <-> wire rows
# ----------------------------------------------------------------------
def record_to_row(rec: TrialRecord) -> dict:
    """Reduce a trial record to its reproducible wire form (no runtimes)."""
    return {
        "best_valid": rec.best_valid,
        "best_inv": rec.best_power_inverse,
        "outcomes": {
            n: [o.valid, o.power_inverse, o.static_fraction]
            for n, o in rec.outcomes.items()
        },
    }


def row_to_record(row: dict) -> TrialRecord:
    return TrialRecord(
        outcomes={
            n: TrialOutcome(
                valid=v[0],
                power_inverse=v[1],
                runtime_s=0.0,
                static_fraction=v[2],
            )
            for n, v in row["outcomes"].items()
        },
        best_valid=row["best_valid"],
        best_power_inverse=row["best_inv"],
    )


def payload_to_sweep_result(payload: dict) -> SweepResult:
    """Rebuild a :class:`SweepResult` from a campaign sweep payload."""
    points = []
    for p in payload["points"]:
        stats = {}
        for n, st in p["stats"].items():
            stats[n] = HeuristicPointStats(
                name=n,
                trials=st["trials"],
                successes=st["successes"],
                norm_power_inverse=st["norm_power_inverse"],
                mean_power_inverse=st["mean_power_inverse"],
                mean_runtime_s=0.0,
                mean_static_fraction=st["mean_static_fraction"],
            )
        points.append(PointResult(x=p["x"], stats=stats))
    return SweepResult(
        name=payload["sweep"],
        x_label=payload["x_label"],
        heuristics=tuple(payload["heuristics"]),
        points=tuple(points),
    )


# ----------------------------------------------------------------------
# figure sweeps
# ----------------------------------------------------------------------
def _make_config(figure: str, panel: str, trials: int, xs, seed: int):
    if figure == "fig7":
        return fig7_config(panel, trials=trials, n_values=xs, seed=seed)
    if figure == "fig8":
        return fig8_config(panel, trials=trials, weights=xs, seed=seed)
    if figure == "fig9":
        return fig9_config(panel, trials=trials, lengths=xs, seed=seed)
    raise InvalidParameterError(f"unknown figure {figure!r}")


def _sweep_shard(payload: Tuple) -> List[dict]:
    """Worker: trials ``lo .. hi-1`` of sweep point ``k`` (pure in spec)."""
    figure, panel, xs, trials, seed, k, lo, hi = payload
    cfg = _make_config(figure, panel, trials, tuple(xs), seed)
    records = _run_trial_chunk(
        (
            cfg.mesh(),
            cfg.power_factory(),
            cfg.points[k].workload,
            point_seed(cfg.seed, k),
            lo,
            hi,
            tuple(cfg.heuristics),
        )
    )
    return [record_to_row(rec) for rec in records]


@dataclass(frozen=True)
class SweepExperiment(Experiment):
    """One figure panel: a full sweep, sharded ``points x trial-chunks``."""

    figure: str
    panel: str
    x_values: Tuple[int, ...]
    trials: int
    seed: int = 2012
    chunk: int = 25

    def _config(self):
        return _make_config(
            self.figure, self.panel, self.trials, self.x_values, self.seed
        )

    def shards(self) -> Tuple[Shard, ...]:
        out = []
        for k in range(len(self.x_values)):
            for lo, hi in chunk_bounds(self.trials, self.chunk):
                out.append(
                    Shard(
                        key=f"point{k:02d}-trials-{lo}-{hi}",
                        func=_sweep_shard,
                        payload=(
                            self.figure,
                            self.panel,
                            self.x_values,
                            self.trials,
                            self.seed,
                            k,
                            lo,
                            hi,
                        ),
                    )
                )
        return tuple(out)

    def finalize(self, shard_records: List[Any]) -> dict:
        cfg = self._config()
        names = list(cfg.heuristics) + [BEST_KEY]
        chunks_per_point = len(chunk_bounds(self.trials, self.chunk))
        points = []
        idx = 0
        for point in cfg.points:
            rows: List[dict] = []
            for _ in range(chunks_per_point):
                rows.extend(shard_records[idx])
                idx += 1
            result = aggregate_records(
                [row_to_record(r) for r in rows], names, x=point.x
            )
            points.append(
                {
                    "x": point.x,
                    "stats": {
                        n: {
                            "trials": st.trials,
                            "successes": st.successes,
                            "norm_power_inverse": st.norm_power_inverse,
                            "mean_power_inverse": st.mean_power_inverse,
                            "mean_static_fraction": st.mean_static_fraction,
                        }
                        for n, st in result.stats.items()
                    },
                }
            )
        return {
            "sweep": cfg.name,
            "x_label": cfg.x_label,
            "heuristics": list(cfg.heuristics),
            "points": points,
        }

    def render(self, payload: dict) -> str:
        return sweep_to_text(payload_to_sweep_result(payload))

    def verify(self, payload: dict) -> None:
        _SWEEP_PINS[self.figure + self.panel](payload_to_sweep_result(payload))


# ----------------------------------------------------------------------
# qualitative pins (ported from the retired benchmark asserts)
# ----------------------------------------------------------------------
def _pin_fig7a(result: SweepResult) -> None:
    fr = result.series("failure_ratio")
    # paper: XY begins to fail before 10 comms and is hopeless by 80;
    # PR succeeds ~4/5 of the time at 80
    assert fr["XY"][-1] >= 0.95
    i80 = result.x_values.index(80)
    assert fr["PR"][i80] <= 0.45
    assert fr["XY"][i80] >= fr["SG"][i80] >= fr["PR"][i80]
    assert all(
        fr[BEST_KEY][k] <= fr["PR"][k] + 1e-9 for k in range(len(result.points))
    )


def _pin_fig7b(result: SweepResult) -> None:
    fr = result.series("failure_ratio")
    # paper: same conclusions as (a); TB and IG close to each other
    i = result.x_values.index(40)
    assert fr["XY"][i] >= fr["PR"][i]
    assert abs(fr["TB"][i] - fr["IG"][i]) < 0.5


def _pin_fig7c(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    fr = result.series("failure_ratio")
    # paper: with big comms PR is within 95% of BEST wherever it succeeds
    for k in range(len(result.points)):
        if fr[BEST_KEY][k] < 0.7:  # points where BEST mostly succeeds
            assert npi["PR"][k] >= 0.80 * npi[BEST_KEY][k]


def _pin_fig8a(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    light = [k for k, w in enumerate(result.x_values) if w <= 1400]
    # paper: XYI within 98% of BEST below 1600 Mb/s (10 comms)
    assert min(npi["XYI"][k] for k in light) >= 0.9
    fr = result.series("failure_ratio")
    heavy = [k for k, w in enumerate(result.x_values) if w > 1750]
    # above BW/2 two comms can no longer share a link: failures jump
    assert min(fr["XY"][k] for k in heavy) >= fr["XY"][light[0]]


def _pin_fig8b(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    fr = result.series("failure_ratio")
    # paper: XYI collapses past 2000 Mb/s while PR is not affected —
    # compare their normalised inverses in the heavy regime
    heavy = [k for k, w in enumerate(result.x_values) if w >= 2300]
    usable = [k for k in heavy if fr[BEST_KEY][k] < 1.0]
    if usable:
        assert all(npi["PR"][k] >= npi["XYI"][k] - 1e-9 for k in usable)


def _pin_fig8c(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    # paper: XYI ~90% of BEST until 1100 Mb/s then falls
    early = [k for k, w in enumerate(result.x_values) if w <= 1000]
    assert min(npi["XYI"][k] for k in early) >= 0.7


def _pin_fig9a(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    # paper: XYI best until length ~10 (>=90% of BEST), PR best beyond;
    # we pin XYI's lead at short lengths and the crossover by length 10
    short = [k for k, L in enumerate(result.x_values) if L <= 6]
    assert min(npi["XYI"][k] for k in short) >= 0.75
    long_ = [k for k, L in enumerate(result.x_values) if L >= 10]
    assert all(npi["PR"][k] >= npi["XYI"][k] - 0.05 for k in long_)


def _pin_fig9b(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    fr = result.series("failure_ratio")
    # paper: PR best almost everywhere (>= 85% of BEST), XYI decays
    usable = [k for k in range(len(result.points)) if fr[BEST_KEY][k] < 0.9]
    for k in usable:
        if result.x_values[k] > 2:
            assert npi["PR"][k] >= 0.6
    assert npi["XYI"][-1] <= npi["XYI"][0] + 0.1  # decays (weakly)


def _pin_fig9c(result: SweepResult) -> None:
    npi = result.series("norm_power_inverse")
    fr = result.series("failure_ratio")
    # paper: PR ~90% of BEST at every length; failures shrink from
    # length 2 to length 5 (short comms collide on the same axis)
    usable = [k for k in range(len(result.points)) if fr[BEST_KEY][k] < 0.9]
    for k in usable:
        assert npi["PR"][k] >= 0.75
    assert fr[BEST_KEY][result.x_values.index(2)] >= fr[BEST_KEY][
        result.x_values.index(6)
    ]


_SWEEP_PINS = {
    "fig7a": _pin_fig7a,
    "fig7b": _pin_fig7b,
    "fig7c": _pin_fig7c,
    "fig8a": _pin_fig8a,
    "fig8b": _pin_fig8b,
    "fig8c": _pin_fig8c,
    "fig9a": _pin_fig9a,
    "fig9b": _pin_fig9b,
    "fig9c": _pin_fig9c,
}


# ----------------------------------------------------------------------
# §6.4 summary
# ----------------------------------------------------------------------
def _summary_shard(payload: Tuple) -> List[dict]:
    """Worker: summary trials ``lo .. hi-1`` on the full paper roster."""
    seed, lo, hi = payload
    records = _run_trial_chunk(
        (
            Mesh(8, 8),
            PowerModel.kim_horowitz(),
            summary_mixture(),
            seed,
            lo,
            hi,
            tuple(PAPER_HEURISTICS),
        )
    )
    return [record_to_row(rec) for rec in records]


@dataclass(frozen=True)
class SummaryExperiment(Experiment):
    """The Section 6.4 headline averages over all instance families."""

    #: 2: shards carry ``record_to_row`` rows, folded by aggregate_records
    code_version = 2

    trials: int = 250
    seed: int = 64
    chunk: int = 25

    def shards(self) -> Tuple[Shard, ...]:
        return tuple(
            Shard(
                key=f"trials-{lo}-{hi}",
                func=_summary_shard,
                payload=(self.seed, lo, hi),
            )
            for lo, hi in chunk_bounds(self.trials, self.chunk)
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        point = aggregate_records(
            [row_to_record(r) for chunk in shard_records for r in chunk],
            list(PAPER_HEURISTICS) + [BEST_KEY],
            x=0.0,
        )
        s = summary_from_point(point)
        return {
            "trials": s.trials,
            "success_ratio": s.success_ratio,
            "inverse_vs_xy": s.inverse_vs_xy,
            "static_fraction": s.static_fraction,
        }

    def render(self, payload: dict) -> str:
        # runtimes are deliberately absent: wall-clock can never be
        # regenerated byte-identically (the paper's 24/38 ms reference
        # lives in EXPERIMENTS.md and the BENCH_*.json timing baselines)
        rows = [
            ["success XY", "0.15", f"{payload['success_ratio']['XY']:.2f}"],
            ["success XYI", "0.46", f"{payload['success_ratio']['XYI']:.2f}"],
            ["success PR", "0.50", f"{payload['success_ratio']['PR']:.2f}"],
            ["success BEST", "0.51", f"{payload['success_ratio']['BEST']:.2f}"],
            ["inv vs XY: XYI", "2.44", f"{payload['inverse_vs_xy']['XYI']:.2f}"],
            ["inv vs XY: PR", "2.57", f"{payload['inverse_vs_xy']['PR']:.2f}"],
            [
                "inv vs XY: BEST",
                "2.95",
                f"{payload['inverse_vs_xy']['BEST']:.2f}",
            ],
            ["static fraction", "0.143", f"{payload['static_fraction']:.3f}"],
        ]
        return (
            f"Section 6.4 summary at {payload['trials']} trials "
            "(paper: 50 000)\n"
            + format_table(["metric", "paper", "measured"], rows)
        )

    def verify(self, payload: dict) -> None:
        succ = payload["success_ratio"]
        assert succ["XY"] < succ["XYI"]
        assert succ["BEST"] >= succ["PR"]
        assert succ["BEST"] >= 2 * succ["XY"]
        assert (
            payload["inverse_vs_xy"]["BEST"]
            >= payload["inverse_vs_xy"]["PR"] - 1e-9
        )
        assert 0.05 < payload["static_fraction"] < 0.35

"""Ready-made entry points for every figure panel and the §6.4 summary.

``fig7a() .. fig9c()`` run the corresponding sweep with the paper's
parameters; :func:`summary_statistics` reproduces the Section 6.4 averages
("XY succeeds only 15% of the times, while XYI and PR succeed respectively
46% and 50% ...") by sampling instances across the union of the Figure
7/8/9 distributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.power import PowerModel
from repro.core.problem import RoutingProblem
from repro.experiments.config import (
    FixedWeightFactory,
    LengthTargetedFactory,
    UniformRandomFactory,
    default_trials,
    fig7_config,
    fig8_config,
    fig9_config,
)
from repro.experiments.runner import SweepResult, best_of_results, run_sweep
from repro.heuristics.base import get_heuristic
from repro.heuristics.best import PAPER_HEURISTICS
from repro.mesh.topology import Mesh
from repro.utils.rng import spawn_rngs, spawn_rngs_range
from repro.utils.validation import InvalidParameterError


def fig7a(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 7(a): small communications, sweep over their number."""
    return run_sweep(fig7_config("a", **kw), jobs=jobs)


def fig7b(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 7(b): mixed communications, sweep over their number."""
    return run_sweep(fig7_config("b", **kw), jobs=jobs)


def fig7c(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 7(c): big communications, sweep over their number."""
    return run_sweep(fig7_config("c", **kw), jobs=jobs)


def fig8a(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 8(a): 10 communications, sweep over their common weight."""
    return run_sweep(fig8_config("a", **kw), jobs=jobs)


def fig8b(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 8(b): 20 communications, sweep over their common weight."""
    return run_sweep(fig8_config("b", **kw), jobs=jobs)


def fig8c(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 8(c): 40 communications, sweep over their common weight."""
    return run_sweep(fig8_config("c", **kw), jobs=jobs)


def fig9a(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 9(a): 100 small communications, sweep over target length."""
    return run_sweep(fig9_config("a", **kw), jobs=jobs)


def fig9b(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 9(b): 25 mixed communications, sweep over target length."""
    return run_sweep(fig9_config("b", **kw), jobs=jobs)


def fig9c(*, jobs: int = 1, **kw) -> SweepResult:
    """Figure 9(c): 12 big communications, sweep over target length."""
    return run_sweep(fig9_config("c", **kw), jobs=jobs)


#: every figure panel entry point above, by name — the single list the CLI
#: validates against, so adding a panel here is all it takes
PANELS = tuple(
    f"fig{n}{p}" for n in (7, 8, 9) for p in ("a", "b", "c")
)


# ----------------------------------------------------------------------
# Section 6.4 summary
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SummaryStats:
    """The §6.4 headline numbers over a mixture of all experiment families.

    ``success_ratio[h]`` reproduces "XY succeeds only 15% of the times,
    while XYI and PR succeed respectively 46% and 50%" (BEST: 51%);
    ``inverse_vs_xy[h]`` reproduces "the absolute inverse of power ... is
    2.44 (resp. 2.57) times higher in XYI (resp. PR) than in XY, and even
    2.95 times higher in BEST"; ``static_fraction`` reproduces "static
    power accounts for 1/7-th of the total power"; ``mean_runtime_s[h]``
    corresponds to the reported 24 ms (XYI) / 38 ms (PR).
    """

    trials: int
    success_ratio: Dict[str, float]
    inverse_vs_xy: Dict[str, float]
    static_fraction: float
    mean_runtime_s: Dict[str, float]


def _summary_instance_factories():
    """One workload factory per experiment family of Section 6.

    Built from the picklable dataclass factories so the parallel engine
    can ship trials to worker processes.
    """
    fams = []
    for lo, hi, ns in (
        (100.0, 1500.0, range(10, 141, 10)),
        (100.0, 2500.0, range(5, 71, 5)),
        (2500.0, 3500.0, range(2, 31, 2)),
    ):
        for n in ns:
            fams.append(UniformRandomFactory(n, lo, hi))
    for n, ws in ((10, range(200, 3501, 300)), (20, range(200, 3501, 300)), (40, range(200, 1801, 200))):
        for w in ws:
            fams.append(FixedWeightFactory(n, float(w)))
    for n, lo, hi in ((100, 200.0, 800.0), (25, 100.0, 3500.0), (12, 2700.0, 3300.0)):
        for L in range(2, 15):
            fams.append(LengthTargetedFactory(n, L, lo, hi))
    return fams


class _SummaryContext:
    """Everything one summary trial needs, built once per chunk/run."""

    def __init__(self, heuristic_names: Sequence[str]):
        self.mesh = Mesh(8, 8)
        self.power = PowerModel.kim_horowitz()
        self.fams = _summary_instance_factories()
        self.heuristics = [get_heuristic(n) for n in heuristic_names]

    def trial(self, rng):
        """One trial: per-heuristic (valid, 1/P, runtime) rows + BEST."""
        fam = self.fams[int(rng.integers(len(self.fams)))]
        problem = RoutingProblem(self.mesh, self.power, fam(self.mesh, rng))
        for h in self.heuristics:
            h.reseed(rng)
        results = [h.solve(problem) for h in self.heuristics]
        best = best_of_results(results)
        rows = {
            res.name: (res.valid, res.power_inverse, res.runtime_s)
            for res in results
        }
        rows["BEST"] = (best.valid, best.power_inverse, best.runtime_s)
        static = best.report.static_fraction if best.valid else None
        return rows, static


def _summary_chunk(payload):
    """Worker entry point: summary trials ``lo .. hi-1`` (pure in seed, i)."""
    seed, lo, hi, heuristic_names = payload
    ctx = _SummaryContext(heuristic_names)
    return [ctx.trial(rng) for rng in spawn_rngs_range(seed, lo, hi)]


def summary_statistics(
    trials: Optional[int] = None,
    seed: int = 64,
    heuristic_names: Sequence[str] = PAPER_HEURISTICS,
    jobs: int = 1,
) -> SummaryStats:
    """Reproduce the §6.4 averages over a mixture of all instance families.

    Each trial draws a uniformly random experiment family (a Figure 7/8/9
    sweep point) and then an instance from it — the closest tractable
    analogue of the paper's "averaging over all the experiments".
    ``jobs > 1`` fans trial chunks out to worker processes with the same
    per-index seeding and in-order aggregation as the sweep runner, so the
    statistics match the serial run exactly (runtimes excepted).
    """
    trials = trials if trials is not None else 10 * default_trials()
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    names = [get_heuristic(n).name for n in heuristic_names] + ["BEST"]

    if jobs == 1:
        ctx = _SummaryContext(tuple(heuristic_names))
        records = [ctx.trial(rng) for rng in spawn_rngs(seed, trials)]
    else:
        from repro.experiments.runner import ParallelSweepRunner, map_trial_chunks

        runner = ParallelSweepRunner(jobs=jobs)  # validates/resolves jobs
        names_t = tuple(heuristic_names)
        (records,) = map_trial_chunks(
            _summary_chunk,
            [(lambda lo, hi: (seed, lo, hi, names_t), trials)],
            runner.jobs,
        )

    succ = {n: 0 for n in names}
    inv = {n: 0.0 for n in names}
    runtime = {n: 0.0 for n in names}
    static_sum = 0.0
    static_cnt = 0
    for rows, static in records:
        for n in names:
            valid, pinv, rt = rows[n]
            succ[n] += int(valid)
            inv[n] += pinv
            runtime[n] += rt
        if static is not None:
            static_sum += static
            static_cnt += 1

    xy_inv = inv.get("XY", 0.0)
    inverse_vs_xy = {
        n: (inv[n] / xy_inv if xy_inv > 0 else float("inf")) for n in names
    }
    return SummaryStats(
        trials=trials,
        success_ratio={n: succ[n] / trials for n in names},
        inverse_vs_xy=inverse_vs_xy,
        static_fraction=(static_sum / static_cnt if static_cnt else 0.0),
        mean_runtime_s={n: runtime[n] / trials for n in names},
    )

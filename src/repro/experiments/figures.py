"""Ready-made entry points for every figure panel and the §6.4 summary.

``fig7a() .. fig9c()`` run the corresponding sweep with the paper's
parameters; :func:`summary_statistics` reproduces the Section 6.4 averages
("XY succeeds only 15% of the times, while XYI and PR succeed respectively
46% and 50% ...") as one sweep point over the union of the Figure 7/8/9
distributions (:func:`~repro.experiments.config.summary_mixture`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.power import PowerModel
from repro.experiments.config import (
    DEFAULT_TRIALS,
    fig7_config,
    fig8_config,
    fig9_config,
    summary_mixture,
)
from repro.experiments.runner import (
    BEST_KEY,
    PointResult,
    SweepResult,
    run_point,
    run_sweep,
)
from repro.heuristics.best import PAPER_HEURISTICS
from repro.mesh.topology import Mesh


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


def summary_from_point(point: PointResult) -> SummaryStats:
    """Read the §6.4 numbers off the summary's sweep point."""
    stats = point.stats
    xy_inv = stats["XY"].mean_power_inverse if "XY" in stats else 0.0
    return SummaryStats(
        trials=stats[BEST_KEY].trials,
        success_ratio={n: st.success_ratio for n, st in stats.items()},
        inverse_vs_xy={
            n: (st.mean_power_inverse / xy_inv if xy_inv > 0 else float("inf"))
            for n, st in stats.items()
        },
        static_fraction=stats[BEST_KEY].mean_static_fraction,
        mean_runtime_s={n: st.mean_runtime_s for n, st in stats.items()},
    )


def summary_statistics(
    trials: Optional[int] = None,
    seed: int = 64,
    heuristic_names: Sequence[str] = PAPER_HEURISTICS,
    jobs: int = 1,
) -> SummaryStats:
    """Reproduce the §6.4 averages over a mixture of all instance families.

    Each trial draws a uniformly random experiment family (a Figure 7/8/9
    sweep point) and then an instance from it — the closest tractable
    analogue of the paper's "averaging over all the experiments".  The
    trials form one :func:`~repro.experiments.runner.run_point` sweep
    point on the 8x8 mesh, so ``jobs`` behaves as it does for the
    figure sweeps.  ``trials`` defaults to ten times the per-point
    budget: the mixture spans 115 families.
    """
    point = run_point(
        Mesh(8, 8),
        PowerModel.kim_horowitz(),
        summary_mixture(),
        trials if trials is not None else 10 * DEFAULT_TRIALS,
        seed,
        heuristic_names,
        jobs=jobs,
    )
    return summary_from_point(point)

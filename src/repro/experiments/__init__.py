"""The Section 6 experiment harness.

* :mod:`repro.experiments.config` — sweep descriptions (one per figure
  panel) with the paper's exact workload parameters.
* :mod:`repro.experiments.runner` — the Monte-Carlo engine: run every
  heuristic on every trial, aggregate normalised power inverse and failure
  ratios exactly as the paper plots them.
* :mod:`repro.experiments.figures` — ready-made entry points
  ``fig7a() .. fig9c()``, plus the Section 6.4 summary statistics.
* :mod:`repro.experiments.report` — text/CSV rendering of sweep results.
* :mod:`repro.experiments.campaign` — the declarative experiment
  registry + content-addressed artifact store behind every committed
  ``results/*.txt`` (``repro campaign list|run|check|clean``).
"""

from repro.experiments.config import (
    FixedWeightFactory,
    LengthTargetedFactory,
    SweepConfig,
    SweepPoint,
    UniformRandomFactory,
    fig7_config,
    fig8_config,
    fig9_config,
)
from repro.experiments.runner import (
    HeuristicPointStats,
    PointResult,
    SweepResult,
    TrialOutcome,
    TrialRecord,
    aggregate_records,
    run_point,
    run_sweep,
    run_trial,
)
from repro.experiments.figures import (
    fig7a,
    fig7b,
    fig7c,
    fig8a,
    fig8b,
    fig8c,
    fig9a,
    fig9b,
    fig9c,
    summary_statistics,
    SummaryStats,
)
from repro.experiments.report import sweep_to_text, sweep_to_csv
from repro.experiments.convergence import ConvergenceTrace, convergence_study

__all__ = [
    "SweepConfig",
    "SweepPoint",
    "UniformRandomFactory",
    "FixedWeightFactory",
    "LengthTargetedFactory",
    "TrialOutcome",
    "TrialRecord",
    "aggregate_records",
    "run_trial",
    "fig7_config",
    "fig8_config",
    "fig9_config",
    "HeuristicPointStats",
    "PointResult",
    "SweepResult",
    "run_point",
    "run_sweep",
    "fig7a",
    "fig7b",
    "fig7c",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig9a",
    "fig9b",
    "fig9c",
    "summary_statistics",
    "SummaryStats",
    "sweep_to_text",
    "sweep_to_csv",
    "ConvergenceTrace",
    "convergence_study",
]

"""Monte-Carlo convergence diagnostics.

The paper averages 50 000 instance draws per plotted point; this harness
uses far fewer.  These diagnostics justify the substitution: running means
with normal-approximation confidence intervals for the two aggregated
quantities (failure ratio, normalised power inverse), so EXPERIMENTS.md
can state at what trial count each reported number stabilises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.power import PowerModel
from repro.experiments.config import WorkloadFactory
from repro.experiments.runner import run_trial
from repro.heuristics.base import get_heuristic
from repro.heuristics.best import PAPER_HEURISTICS
from repro.mesh.topology import Mesh
from repro.utils.rng import spawn_rngs
from repro.utils.validation import InvalidParameterError

#: z for a ~95% two-sided normal interval
_Z95 = 1.96


@dataclass(frozen=True)
class ConvergenceTrace:
    """Running estimate of one scalar statistic over trials."""

    name: str
    checkpoints: Tuple[int, ...]
    means: Tuple[float, ...]
    half_widths: Tuple[float, ...]  #: 95% CI half-widths at checkpoints

    def stable_from(self, tolerance: float) -> int | None:
        """First checkpoint whose CI half-width is below ``tolerance``.

        Returns the trial count, or None if never reached.
        """
        for n, hw in zip(self.checkpoints, self.half_widths):
            if hw <= tolerance:
                return n
        return None


def _trace(name: str, samples: np.ndarray, checkpoints: Sequence[int]) -> ConvergenceTrace:
    means, hws = [], []
    for n in checkpoints:
        xs = samples[:n]
        mean = float(xs.mean())
        sem = float(xs.std(ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
        means.append(mean)
        hws.append(_Z95 * sem)
    return ConvergenceTrace(
        name=name,
        checkpoints=tuple(int(n) for n in checkpoints),
        means=tuple(means),
        half_widths=tuple(hws),
    )


def convergence_study(
    workload: WorkloadFactory,
    heuristic: str,
    *,
    trials: int = 400,
    seed: int = 99,
    mesh: Mesh | None = None,
    power: PowerModel | None = None,
    n_checkpoints: int = 8,
) -> List[ConvergenceTrace]:
    """Sample one sweep point and trace how its aggregates converge.

    Returns traces for the heuristic's failure ratio and its normalised
    power inverse (relative to the BEST of the paper roster plus
    ``heuristic``, skipping instances where BEST fails — the harness
    convention).  Every trial is a ``run_trial`` record, so the final
    means are what :func:`~repro.experiments.runner.run_point` reports
    for the same workload, seed, trial count and roster.
    """
    if trials < 4:
        raise InvalidParameterError(f"trials must be >= 4, got {trials}")
    mesh = mesh or Mesh(8, 8)
    power = power or PowerModel.kim_horowitz()
    name = get_heuristic(heuristic).name
    names = list(PAPER_HEURISTICS)
    if name not in names:
        names.append(name)

    records = [
        run_trial(mesh, power, workload, rng, names)
        for rng in spawn_rngs(seed, trials)
    ]
    failures = np.array(
        [0.0 if rec.outcomes[name].valid else 1.0 for rec in records]
    )
    valid_norm = np.array(
        [
            rec.outcomes[name].power_inverse / rec.best_power_inverse
            for rec in records
            if rec.best_valid
        ]
    )

    checkpoints = np.unique(
        np.linspace(max(4, trials // n_checkpoints), trials, n_checkpoints)
        .round()
        .astype(int)
    )
    traces = [_trace("failure_ratio", failures, checkpoints)]
    if valid_norm.size >= 4:
        ck = [min(int(c), valid_norm.size) for c in checkpoints]
        ck = sorted(set(c for c in ck if c >= 2))
        traces.append(_trace("norm_power_inverse", valid_norm, ck))
    return traces

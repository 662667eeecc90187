"""Sweep configurations for the paper's Figures 7, 8 and 9.

Each figure panel is a sweep over one knob (number of communications,
common weight, target length) with the paper's workload parameters:

* Figure 7 — rates ``U(100, 1500)`` (small), ``U(100, 2500)`` (mixed),
  ``U(2500, 3500)`` (big) Mb/s; x = number of communications.
* Figure 8 — 10 / 20 / 40 communications of a common weight; x = weight.
* Figure 9 — 100 / 25 / 12 communications with rates ``U(200, 800)`` /
  ``U(100, 3500)`` / ``U(2700, 3300)``; x = target Manhattan length.

The §6.4 summary draws from all of them at once (:func:`summary_mixture`).

The paper averages 50 000 instance draws per plotted point; this harness
defaults to :data:`DEFAULT_TRIALS` (pass ``trials=`` to change it) — see
EXPERIMENTS.md for the trial counts behind the recorded numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.power import PowerModel
from repro.core.problem import Communication
from repro.heuristics.best import PAPER_HEURISTICS
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError
from repro.workloads.length_targeted import length_targeted_workload
from repro.workloads.random_uniform import (
    fixed_weight_workload,
    uniform_random_workload,
)

WorkloadFactory = Callable[[Mesh, np.random.Generator], List[Communication]]

#: default Monte-Carlo trials per sweep point (the paper used 50 000)
DEFAULT_TRIALS = 60


# ----------------------------------------------------------------------
# picklable workload factories
# ----------------------------------------------------------------------
# The parallel sweep engine ships workload factories to worker processes,
# so the standard sweeps use these plain dataclasses instead of lambdas
# (closures don't pickle).  Custom serial-only sweeps may still pass any
# callable.


@dataclass(frozen=True)
class UniformRandomFactory:
    """``n`` communications with rates ``U(rate_min, rate_max)``."""

    n: int
    rate_min: float
    rate_max: float

    def __call__(
        self, mesh: Mesh, rng: np.random.Generator
    ) -> List[Communication]:
        return uniform_random_workload(
            mesh, self.n, self.rate_min, self.rate_max, rng=rng
        )


@dataclass(frozen=True)
class FixedWeightFactory:
    """``n`` communications of one common weight."""

    n: int
    weight: float

    def __call__(
        self, mesh: Mesh, rng: np.random.Generator
    ) -> List[Communication]:
        return fixed_weight_workload(mesh, self.n, self.weight, rng=rng)


@dataclass(frozen=True)
class LengthTargetedFactory:
    """``n`` communications near a target Manhattan length."""

    n: int
    length: int
    rate_min: float
    rate_max: float

    def __call__(
        self, mesh: Mesh, rng: np.random.Generator
    ) -> List[Communication]:
        return length_targeted_workload(
            mesh, self.n, self.length, self.rate_min, self.rate_max, rng=rng
        )


@dataclass(frozen=True)
class HotspotFactory:
    """Congested hotspot traffic: a fraction of cores send to one core.

    Wraps :func:`repro.workloads.patterns.hotspot_pattern` (mesh-centre
    hotspot) in a picklable factory for the parallel sweep engine and the
    scenario registry.
    """

    rate: float
    fraction: float = 1.0

    def __call__(
        self, mesh: Mesh, rng: np.random.Generator
    ) -> List[Communication]:
        from repro.workloads.patterns import hotspot_pattern

        return hotspot_pattern(mesh, self.rate, fraction=self.fraction, rng=rng)


@dataclass(frozen=True)
class FamilyMixture:
    """Draw one family uniformly at random, then an instance from it.

    The draw order — the family index, then the family's own draw — is
    part of the trial's reproducibility contract.
    """

    families: Tuple[WorkloadFactory, ...]

    def __call__(
        self, mesh: Mesh, rng: np.random.Generator
    ) -> List[Communication]:
        family = self.families[int(rng.integers(len(self.families)))]
        return family(mesh, rng)


@dataclass(frozen=True)
class SweepPoint:
    """One x-axis point: a label value and the workload it draws."""

    x: float
    workload: WorkloadFactory


@dataclass(frozen=True)
class SweepConfig:
    """A full sweep: points, trial count, platform, competitors."""

    name: str
    x_label: str
    points: Tuple[SweepPoint, ...]
    trials: int
    seed: int = 2012
    mesh_shape: Tuple[int, int] = (8, 8)
    heuristics: Tuple[str, ...] = PAPER_HEURISTICS
    power_factory: Callable[[], PowerModel] = field(
        default=PowerModel.kim_horowitz
    )

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidParameterError(f"sweep {self.name!r} has no points")
        if self.trials < 1:
            raise InvalidParameterError(
                f"sweep {self.name!r} needs trials >= 1, got {self.trials}"
            )

    def mesh(self) -> Mesh:
        return Mesh(*self.mesh_shape)


# ----------------------------------------------------------------------
# Figure 7: sensitivity to the number of communications
# ----------------------------------------------------------------------
_FIG7_PANELS = {
    "a": ("small", 100.0, 1500.0, tuple(range(10, 141, 10))),
    "b": ("mixed", 100.0, 2500.0, tuple(range(5, 71, 5))),
    "c": ("big", 2500.0, 3500.0, tuple(range(2, 31, 2))),
}


def fig7_config(
    panel: str,
    *,
    trials: int = DEFAULT_TRIALS,
    n_values: Sequence[int] | None = None,
    seed: int = 2012,
) -> SweepConfig:
    """Sweep over the number of communications (Figure 7, panel a/b/c)."""
    try:
        label, lo, hi, default_ns = _FIG7_PANELS[panel]
    except KeyError:
        raise InvalidParameterError(
            f"fig7 panel must be one of {sorted(_FIG7_PANELS)}, got {panel!r}"
        ) from None
    ns = tuple(n_values) if n_values is not None else default_ns
    points = tuple(
        SweepPoint(x=n, workload=UniformRandomFactory(n, lo, hi)) for n in ns
    )
    return SweepConfig(
        name=f"fig7{panel}-{label}-comms",
        x_label="num_comms",
        points=points,
        trials=trials,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 8: sensitivity to the size (weight) of communications
# ----------------------------------------------------------------------
_FIG8_PANELS = {
    "a": ("few", 10, tuple(range(200, 3501, 300))),
    "b": ("some", 20, tuple(range(200, 3501, 300))),
    "c": ("numerous", 40, tuple(range(200, 1801, 200))),
}


def fig8_config(
    panel: str,
    *,
    trials: int = DEFAULT_TRIALS,
    weights: Sequence[float] | None = None,
    seed: int = 2012,
) -> SweepConfig:
    """Sweep over the common communication weight (Figure 8, panel a/b/c)."""
    try:
        label, n, default_ws = _FIG8_PANELS[panel]
    except KeyError:
        raise InvalidParameterError(
            f"fig8 panel must be one of {sorted(_FIG8_PANELS)}, got {panel!r}"
        ) from None
    ws = tuple(weights) if weights is not None else default_ws
    points = tuple(
        SweepPoint(x=w, workload=FixedWeightFactory(n, w)) for w in ws
    )
    return SweepConfig(
        name=f"fig8{panel}-{label}-weight",
        x_label="avg_weight",
        points=points,
        trials=trials,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Figure 9: sensitivity to the average length of communications
# ----------------------------------------------------------------------
_FIG9_PANELS = {
    "a": ("numerous-small", 100, 200.0, 800.0),
    "b": ("some-mixed", 25, 100.0, 3500.0),
    "c": ("few-big", 12, 2700.0, 3300.0),
}


def fig9_config(
    panel: str,
    *,
    trials: int = DEFAULT_TRIALS,
    lengths: Sequence[int] | None = None,
    seed: int = 2012,
) -> SweepConfig:
    """Sweep over the target Manhattan length (Figure 9, panel a/b/c)."""
    try:
        label, n, lo, hi = _FIG9_PANELS[panel]
    except KeyError:
        raise InvalidParameterError(
            f"fig9 panel must be one of {sorted(_FIG9_PANELS)}, got {panel!r}"
        ) from None
    ls = tuple(lengths) if lengths is not None else tuple(range(2, 15))
    points = tuple(
        SweepPoint(x=L, workload=LengthTargetedFactory(n, L, lo, hi))
        for L in ls
    )
    return SweepConfig(
        name=f"fig9{panel}-{label}-length",
        x_label="avg_length",
        points=points,
        trials=trials,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Section 6.4: the mixture of every figure's instance families
# ----------------------------------------------------------------------
def summary_mixture() -> FamilyMixture:
    """One family per Figure 7/8/9 sweep point (115 in all).

    The §6.4 averages are taken "over all the experiments": each trial
    picks one of these families uniformly and draws its instance there.
    """
    return FamilyMixture(
        tuple(
            point.workload
            for config in (fig7_config, fig8_config, fig9_config)
            for panel in "abc"
            for point in config(panel).points
        )
    )

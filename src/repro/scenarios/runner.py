"""Scenario execution on top of the Monte-Carlo sweep engine.

:func:`run_scenario` resolves a scenario (by name or object), materialises
its platform and runs every trial through the same
:func:`repro.experiments.runner.run_point` path the figure sweeps use —
serial by default, chunked across a process pool with ``jobs > 1``, with
bit-identical aggregates either way.

:class:`ScenarioResult` carries the scenario echo plus the per-heuristic
aggregates and knows how to render itself as a text table or as the
deterministic JSON document the golden regression corpus
(``tests/golden/``) stores: every float is serialised with ``float.hex``
so snapshot comparisons are exact, not approximate.

:func:`scenario_latency_curve` closes the deployment loop for any
registered scenario: it routes the scenario's trial-0 instance (the same
``(seed, 0)`` RNG stream the Monte-Carlo runner uses), provisions the
links for the result and records its load–latency curve on the flit
engine — so every platform in the registry (faulty, derated, narrow,
hotspot, …) can be characterised end to end with one call or one
``repro noc sweep --scenario`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple, Union

from repro.core.problem import RoutingProblem
from repro.experiments.runner import PointResult, run_point
from repro.noc.sweep import (
    LatencyPoint,
    latency_sweep,
    points_table,
    saturation_fraction,
)
from repro.scenarios.registry import Scenario, get_scenario
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table
from repro.utils.validation import InvalidParameterError

#: golden corpus schema version (bump when the snapshot layout changes)
GOLDEN_FORMAT = 1


@dataclass(frozen=True)
class ScenarioResult:
    """A completed scenario run: config echo + per-heuristic aggregates."""

    scenario: Scenario
    jobs: int
    point: PointResult

    @property
    def stats(self) -> Dict[str, object]:
        return self.point.stats

    def to_jsonable(self) -> dict:
        """Deterministic snapshot document (floats as exact hex strings).

        Wall-clock fields (``mean_runtime_s``) are deliberately excluded —
        they can never be reproduced bit for bit.
        """
        stats = {}
        for name in sorted(self.point.stats):
            st = self.point.stats[name]
            stats[name] = {
                "trials": st.trials,
                "successes": st.successes,
                "norm_power_inverse": st.norm_power_inverse.hex(),
                "mean_power_inverse": st.mean_power_inverse.hex(),
                "mean_static_fraction": st.mean_static_fraction.hex(),
            }
        return {
            "format": GOLDEN_FORMAT,
            "scenario": self.scenario.name,
            "trials": self.scenario.trials,
            "seed": self.scenario.seed,
            "heuristics": list(self.scenario.heuristics),
            "power": self.scenario.power,
            "mesh": self.scenario.mesh.describe(),
            "stats": stats,
        }

    def to_text(self) -> str:
        """Human-readable per-heuristic table."""
        rows = []
        for name in list(self.scenario.heuristics) + ["BEST"]:
            st = self.point.stats[name]
            rows.append(
                [
                    name,
                    f"{st.success_ratio:.2f}",
                    f"{st.norm_power_inverse:.4f}",
                    f"{st.mean_power_inverse * 1e3:.4f}",
                    f"{st.mean_static_fraction:.3f}",
                    f"{st.mean_runtime_s * 1e3:.1f}",
                ]
            )
        header = [
            "heuristic",
            "success",
            "norm 1/P",
            "1/P (x1e3)",
            "static frac",
            "ms",
        ]
        sc = self.scenario
        head = (
            f"scenario {sc.name}: {sc.mesh.describe()}, {sc.trials} trials, "
            f"seed {sc.seed}, power {sc.power}\n  {sc.description}\n"
        )
        return head + format_table(header, rows)


def run_scenario(
    scenario: Union[str, Scenario],
    *,
    jobs: int = 1,
    trials: int | None = None,
    seed: int | None = None,
) -> ScenarioResult:
    """Run a scenario (by registry name or definition) and aggregate it.

    ``jobs > 1`` fans trial chunks out to a process pool; per-trial RNG
    streams are pure functions of ``(seed, trial index)``, so serial and
    parallel runs agree on every statistic except wall-clock runtime.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario = scenario.with_overrides(trials=trials, seed=seed)
    point = run_point(
        scenario.build_mesh(),
        scenario.power_model(),
        scenario.workload,
        trials=scenario.trials,
        seed=scenario.seed,
        heuristic_names=scenario.heuristics,
        jobs=jobs,
    )
    return ScenarioResult(scenario=scenario, jobs=jobs, point=point)


# ----------------------------------------------------------------------
# scenario-integrated load–latency curves
# ----------------------------------------------------------------------

#: default offered-load fractions of a scenario latency curve
LATENCY_FRACTIONS = (0.2, 0.5, 0.8, 1.0, 1.3, 1.8, 2.5)


@dataclass(frozen=True)
class ScenarioLatencyResult:
    """A scenario's load–latency curve: config echo + per-fraction points."""

    scenario: Scenario
    heuristic: str
    jobs: int
    injection: str
    cycles: int
    warmup: int
    routing_power: float  #: graded power of the deployed routing (mW)
    points: Tuple[LatencyPoint, ...]

    @property
    def saturation(self) -> float:
        return saturation_fraction(self.points)

    def to_jsonable(self) -> dict:
        """Deterministic snapshot document (floats as exact hex strings)."""
        return {
            "scenario": self.scenario.name,
            "mesh": self.scenario.mesh.describe(),
            "heuristic": self.heuristic,
            # constant, kept so every saved curve has one schema (and
            # perfbench's noc-curve digests, which hash this document,
            # stay valid)
            "engine": "array",
            "injection": self.injection,
            "cycles": self.cycles,
            "warmup": self.warmup,
            "seed": self.scenario.seed,
            "routing_power_hex": float(self.routing_power).hex(),
            "points": [pt.to_jsonable() for pt in self.points],
        }

    def to_text(self) -> str:
        """Human-readable latency-curve table."""
        sc = self.scenario
        sat = self.saturation
        head = (
            f"scenario {sc.name}: {sc.mesh.describe()}, {self.heuristic} "
            f"routing ({self.routing_power:.1f} mW), {self.injection} "
            f"arrivals, seed {sc.seed}, array engine\n"
        )
        tail = (
            f"\nsaturation fraction: {sat:.2f}"
            if sat != float("inf")
            else "\nno saturation inside the sweep"
        )
        return head + points_table(self.points) + tail


def scenario_latency_curve(
    scenario: Union[str, Scenario],
    *,
    heuristic: str = "BEST",
    fractions: Sequence[float] = LATENCY_FRACTIONS,
    cycles: int = 4000,
    warmup: int = 800,
    injection: str = "bernoulli",
    seed: int | None = None,
    jobs: int = 1,
) -> ScenarioLatencyResult:
    """Deploy a scenario's trial-0 instance and record its latency curve.

    The instance is drawn from the same per-trial RNG stream the
    Monte-Carlo runner uses (``spawn_rngs(seed, 1)[0]``), routed with
    ``heuristic`` (``"BEST"`` runs the whole roster and deploys the
    winner), provisioned, and swept over ``fractions`` with the scenario
    seed feeding the injection processes.  ``jobs`` is passed through to
    :func:`repro.noc.sweep.latency_sweep`, so serial and parallel curves
    are bit-identical.
    """
    from repro.heuristics import BestOf, get_heuristic

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    scenario = scenario.with_overrides(seed=seed)
    mesh = scenario.build_mesh()
    power = scenario.power_model()
    rng = spawn_rngs(scenario.seed, 1)[0]
    comms = scenario.workload(mesh, rng)
    problem = RoutingProblem(mesh, power, comms)
    if heuristic == "BEST":
        result = BestOf(names=scenario.heuristics).solve(problem)
    else:
        result = get_heuristic(heuristic).solve(problem)
    if not result.valid:
        raise InvalidParameterError(
            f"scenario {scenario.name!r}: {heuristic} found no valid routing "
            "for the trial-0 instance, nothing to deploy"
        )
    points = latency_sweep(
        result.routing,
        list(fractions),
        cycles=cycles,
        warmup=warmup,
        injection=injection,
        seed=scenario.seed,
        jobs=jobs,
    )
    return ScenarioLatencyResult(
        scenario=scenario,
        heuristic=heuristic,
        jobs=jobs,
        injection=injection,
        cycles=cycles,
        warmup=warmup,
        routing_power=float(result.power),
        points=tuple(points),
    )

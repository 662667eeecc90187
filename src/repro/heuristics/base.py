"""Heuristic interface, result record, registry and shared load helpers.

Every heuristic consumes a :class:`~repro.core.problem.RoutingProblem` and
produces a :class:`HeuristicResult`: the constructed
:class:`~repro.core.routing.Routing` together with its evaluation and wall
time.  Heuristics never raise on infeasible instances — they return their
best attempt and the report flags it invalid, matching the paper's
"failure" bookkeeping.

Heuristic-internal comparisons use the power model's *graded* link power
(:meth:`repro.core.power.PowerModel.link_power_graded`) so that overloaded
links are repaired with priority; final reported power always uses the
strict model.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.core.evaluate import RoutingReport, evaluate_routing
from repro.core.power import PowerModel
from repro.core.problem import RoutingProblem
from repro.core.routing import Routing
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError


@dataclass(frozen=True)
class HeuristicResult:
    """Outcome of one heuristic run on one instance."""

    name: str
    routing: Routing
    report: RoutingReport
    runtime_s: float

    @property
    def valid(self) -> bool:
        """Paper validity: no link loaded above bandwidth."""
        return self.report.valid

    @property
    def power(self) -> float:
        """Total power (``inf`` when invalid)."""
        return self.report.total_power

    @property
    def power_inverse(self) -> float:
        """``1/power`` with the paper's 0-on-failure convention."""
        return self.report.power_inverse


class Heuristic(abc.ABC):
    """Base class: implement :meth:`_route`, inherit timing/evaluation."""

    #: short display name ("XY", "SG", ...); subclasses must override
    name: str = "?"

    def route_timed(self, problem: RoutingProblem):
        """Route ``problem``; return ``(routing, elapsed_s)`` unevaluated.

        The timed region is exactly :meth:`solve`'s — ``_route`` only —
        so grading the routing later changes neither the measured runtime
        nor any RNG stream.
        """
        if problem.num_comms == 0:
            raise InvalidParameterError(
                f"{self.name}: cannot route an empty communication set"
            )
        t0 = time.perf_counter()
        paths = self._route(problem)
        elapsed = time.perf_counter() - t0
        return Routing.single_path(problem, paths), elapsed

    def solve(self, problem: RoutingProblem) -> HeuristicResult:
        """Route ``problem`` and return the evaluated result."""
        routing, elapsed = self.route_timed(problem)
        return HeuristicResult(
            name=self.name,
            routing=routing,
            report=evaluate_routing(routing),
            runtime_s=elapsed,
        )

    @abc.abstractmethod
    def _route(self, problem: RoutingProblem) -> List[Path]:
        """Produce one Manhattan path per communication, in problem order."""

    def _route_from(
        self, problem: RoutingProblem, moves: List[str]
    ) -> List[Path]:
        """Route ``problem`` warm-started from an existing 1-MP routing.

        ``moves`` is one move string per communication, in problem order —
        typically a previous solution of a perturbed variant of
        ``problem``, re-matched by the service layer.  Heuristics that can
        exploit a warm seed override this (SA and TABU run their search
        from the given state instead of their ``init`` heuristic's
        routing); the default ignores ``moves`` and solves cold.
        """
        return self._route(problem)

    def reseed(self, rng) -> None:
        """Rebind this heuristic's randomness to ``rng`` (no-op by default).

        Deterministic heuristics ignore this.  Stochastic ones (GA, SA,
        TABU) override it so a Monte-Carlo trial can hand every competitor
        an independent, reproducible stream — without it, freshly
        constructed instances would replay their default seed on every
        trial and silently correlate the sweep.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], Heuristic]] = {}


def register_heuristic(name: str) -> Callable:
    """Class decorator registering a zero-argument heuristic factory."""

    def deco(cls):
        if name in _REGISTRY:
            raise InvalidParameterError(f"heuristic {name!r} already registered")
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return deco


def get_heuristic(name: str) -> Heuristic:
    """Instantiate a registered heuristic by name (case-sensitive)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown heuristic {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_heuristics() -> List[str]:
    """Names of all registered heuristics."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# shared load-vector helpers
# ----------------------------------------------------------------------
def graded_power_delta(
    power: PowerModel,
    loads: np.ndarray,
    deltas: Mapping[int, float],
    *,
    scale: np.ndarray | None = None,
    dead: np.ndarray | None = None,
) -> float:
    """Graded-power change if each link ``lid`` gained ``deltas[lid]`` load.

    Only the affected links are evaluated, so this is O(|deltas|) — the
    delta-evaluation primitive of TB and XYI.  ``scale`` / ``dead`` are the
    mesh's full-length per-link profile vectors (see
    :mod:`repro.mesh.topology`); the affected links' coefficients are
    gathered here, so callers pass the vectors straight through.
    """
    if not deltas:
        return 0.0
    lids = np.fromiter(deltas.keys(), dtype=np.int64, count=len(deltas))
    dl = np.fromiter(deltas.values(), dtype=np.float64, count=len(deltas))
    old = loads[lids]
    new = old + dl
    if new.min() < -1e-9:
        raise InvalidParameterError("load delta would drive a link negative")
    new = np.maximum(new, 0.0)
    sc = None if scale is None else np.tile(scale[lids], 2)
    dd = None if dead is None else np.tile(dead[lids], 2)
    # one fused evaluation over [old | new] halves the numpy call overhead
    both = power.link_power_graded(
        np.concatenate([old, new]), scale=sc, dead=dd
    )
    k = old.size
    return float(both[k:].sum() - both[:k].sum())


def path_swap_deltas(
    old_links: Sequence[int], new_links: Sequence[int], rate: float
) -> Dict[int, float]:
    """Net per-link load change when a flow moves from one path to another."""
    deltas: Dict[int, float] = {}
    for lid in old_links:
        deltas[lid] = deltas.get(lid, 0.0) - rate
    for lid in new_links:
        d = deltas.get(lid, 0.0) + rate
        if d == 0.0 and lid in deltas:
            del deltas[lid]
        else:
            deltas[lid] = d
    return {lid: d for lid, d in deltas.items() if d != 0.0}


def apply_deltas(loads: np.ndarray, deltas: Mapping[int, float]) -> None:
    """In-place application of a per-link load-change mapping."""
    for lid, d in deltas.items():
        loads[lid] += d
        if loads[lid] < 0:
            # numerical dust from float accumulation; clamp to zero
            if loads[lid] < -1e-6:
                raise InvalidParameterError(
                    f"link {lid} driven to negative load {loads[lid]}"
                )
            loads[lid] = 0.0

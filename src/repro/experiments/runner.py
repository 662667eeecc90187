"""Monte-Carlo sweep runner and the paper's aggregation conventions.

For every trial, all competing heuristics are run on the same instance and
the virtual BEST result is formed.  Aggregates per sweep point follow
Section 6:

* **failure ratio** — fraction of instances where the heuristic found no
  valid routing (BEST fails iff all fail);
* **normalised power inverse** — per instance, ``(1/P_h) / (1/P_BEST)``
  with the 0-on-failure convention, averaged over the instances where BEST
  succeeded (when BEST itself fails the normalisation is undefined and the
  instance contributes to failure ratios only);
* **mean power inverse** — the raw ``1/P`` average (0 on failure) behind
  the Section 6.4 "times higher than XY" ratios;
* **mean runtime** and **mean static fraction** for the summary claims.

Execution engines
-----------------

:func:`run_point` and :func:`run_sweep` take ``jobs``, an ``int`` >= 1
(:func:`check_jobs`).  ``jobs=1``, the default and the reference, runs
the trials in-process.  ``jobs > 1`` cuts every sweep point into
contiguous trial chunks and sends the chunks of *all* points to one
process pool per call (:func:`map_trial_chunks`): every chunk is in
flight at once, so the slow chunks of one point overlap the next points'
work instead of holding a barrier at the end of each point.  Each point
is folded as soon as its last chunk is back and its records are dropped,
so memory stays bounded by the points in flight.  Both paths produce one
:class:`TrialRecord` per trial — the i-th trial's RNG is a pure function
of ``(seed, i)`` through :func:`repro.utils.rng.spawn_rngs`, regardless of
which worker runs it — and feed each point's records *in trial order*
through the same :func:`aggregate_records` fold, so serial and parallel
sweeps are bit-identical on every statistic except the (inherently
wall-clock) ``mean_runtime_s``.  The §6.4 summary, the campaign's sweep
and summary shards and the convergence study run this same trial path
and fold.

Parallel execution requires the workload factory (and the mesh/power
objects) to be picklable; the factories in
:mod:`repro.experiments.config` are plain dataclasses for exactly this
reason.  Lambdas/closures still work on the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.evaluate import evaluate_routing
from repro.core.problem import RoutingProblem
from repro.core.routing import Routing
from repro.experiments.config import SweepConfig, WorkloadFactory
from repro.heuristics.base import HeuristicResult, get_heuristic
from repro.heuristics.best import best_of_results
from repro.mesh.topology import Mesh
from repro.core.power import PowerModel
from repro.utils.pool import worker_pool
from repro.utils.rng import spawn_rngs, spawn_rngs_range
from repro.utils.validation import InvalidParameterError

#: series key used for the virtual best heuristic
BEST_KEY = "BEST"


@dataclass(frozen=True)
class HeuristicPointStats:
    """Aggregates of one heuristic at one sweep point."""

    name: str
    trials: int
    successes: int
    norm_power_inverse: float
    mean_power_inverse: float
    mean_runtime_s: float
    mean_static_fraction: float

    @property
    def failure_ratio(self) -> float:
        return 1.0 - self.successes / self.trials

    @property
    def success_ratio(self) -> float:
        return self.successes / self.trials


@dataclass(frozen=True)
class PointResult:
    """All heuristics' aggregates at one sweep point."""

    x: float
    stats: Dict[str, HeuristicPointStats]


@dataclass(frozen=True)
class SweepResult:
    """A completed sweep: config echo plus one PointResult per x value."""

    name: str
    x_label: str
    heuristics: Tuple[str, ...]
    points: Tuple[PointResult, ...]

    @property
    def x_values(self) -> List[float]:
        return [p.x for p in self.points]

    def series(self, metric: str) -> Dict[str, List[float]]:
        """Extract ``{heuristic: [value per x]}`` for a metric attribute."""
        out: Dict[str, List[float]] = {}
        for name in list(self.heuristics) + [BEST_KEY]:
            out[name] = [
                getattr(p.stats[name], metric) for p in self.points
            ]
        return out


@dataclass(frozen=True)
class TrialOutcome:
    """One heuristic's result on one instance, reduced to its aggregates."""

    valid: bool
    power_inverse: float
    runtime_s: float
    static_fraction: float


@dataclass(frozen=True)
class TrialRecord:
    """Everything one trial contributes to the sweep-point aggregates."""

    outcomes: Dict[str, TrialOutcome]  # heuristic name (and BEST) -> outcome
    best_valid: bool
    best_power_inverse: float


def warm_platform_caches(mesh: Mesh, power: PowerModel) -> None:
    """Force the lazily built per-``(mesh, power)`` tables into existence.

    ``PowerModel._graded_tables`` (a ``cached_property``, lost on pickling)
    and the mesh's link-profile vectors are rebuilt on first use — which,
    without this hook, lands inside the first heuristic's *timed* solve of
    a worker's first trial.  Both engines call this once per (chunk,
    platform) so every trial's ``runtime_s`` measures routing, not cache
    (re)construction.  Trial results are unaffected: the caches are pure
    functions of the platform.
    """
    power._graded_tables  # noqa: B018  - cached_property build
    mesh.link_scale
    mesh.dead_mask


def run_trial(
    mesh: Mesh,
    power: PowerModel,
    workload: WorkloadFactory,
    rng: np.random.Generator,
    heuristic_names: Sequence[str],
) -> TrialRecord:
    """Run every heuristic on one drawn instance and record the outcomes.

    Fresh heuristic instances are built per trial (so trials are
    self-contained and chunkable across processes) and stochastic ones are
    reseeded from the trial's own generator — each trial gets independent
    randomness, deterministic in ``(seed, trial index)``, instead of every
    trial replaying a stochastic heuristic's default seed.

    Per-instance state that several heuristics need — the flat routing
    kernel, an init heuristic's routing (SA and TABU both start from SG by
    default) — is memoised on the :class:`RoutingProblem`
    (:meth:`~repro.core.problem.RoutingProblem.kernel`,
    :meth:`~repro.core.problem.RoutingProblem.initial_moves`), so the
    trial pays for each once instead of once per consumer.

    Each member routes through
    :meth:`~repro.heuristics.base.Heuristic.route_timed`, the timed half
    of ``solve``, and :func:`evaluate_deferred` grades the routings
    afterwards; grading draws no randomness, so every result equals
    ``h.solve(problem)``.
    """
    heuristics = [get_heuristic(n) for n in heuristic_names]
    problem = _draw_trial_problem(mesh, power, workload, rng, heuristics)
    routed = [(h.name, *h.route_timed(problem)) for h in heuristics]
    return _trial_record(evaluate_deferred(routed))


def _draw_trial_problem(
    mesh: Mesh,
    power: PowerModel,
    workload: WorkloadFactory,
    rng: np.random.Generator,
    heuristics: Sequence,
) -> RoutingProblem:
    """Draw one instance and reseed the roster — ``run_trial``'s prefix.

    The RNG consumption order (workload draw, then reseeds in roster
    order) is the trial's reproducibility contract.
    """
    comms = workload(mesh, rng)
    problem = RoutingProblem(mesh, power, comms)
    # build the problem-level kernel outside the timed solves — otherwise
    # the roster's first kernel consumer pays it inside its runtime_s
    # while later heuristics reuse it for free.  (The initial_moves memo
    # keeps a milder version of this asymmetry: an init heuristic's solve
    # is timed against its first consumer only.)
    problem.kernel()
    for h in heuristics:
        h.reseed(rng)
    return problem


def evaluate_deferred(
    routed: Sequence[Tuple[str, Routing, float]],
) -> List[HeuristicResult]:
    """Grade one trial's ``(name, routing, runtime_s)`` triples, in order."""
    return [
        HeuristicResult(name, routing, evaluate_routing(routing), runtime_s)
        for name, routing, runtime_s in routed
    ]


def _trial_record(results: Sequence[HeuristicResult]) -> TrialRecord:
    """Fold one trial's evaluated results (roster order) into its record."""
    best = best_of_results(results)
    everything = list(results) + [
        HeuristicResult(BEST_KEY, best.routing, best.report, best.runtime_s)
    ]
    outcomes = {
        res.name: TrialOutcome(
            valid=res.valid,
            power_inverse=res.power_inverse,
            runtime_s=res.runtime_s,
            static_fraction=(
                res.report.static_fraction if res.valid else 0.0
            ),
        )
        for res in everything
    }
    return TrialRecord(
        outcomes=outcomes,
        best_valid=best.valid,
        best_power_inverse=best.power_inverse,
    )


def _run_trials(
    mesh: Mesh,
    power: PowerModel,
    workload: WorkloadFactory,
    rngs: Sequence[np.random.Generator],
    heuristic_names: Sequence[str],
) -> List[TrialRecord]:
    """Run one trial per generator, in order."""
    return [
        run_trial(mesh, power, workload, rng, heuristic_names) for rng in rngs
    ]


def aggregate_records(
    records: Sequence[TrialRecord],
    names: Sequence[str],
    x: float,
) -> PointResult:
    """Fold trial records (in trial order) into one :class:`PointResult`.

    This is the single aggregation path shared by the serial and parallel
    engines; feeding it the same records in the same order yields the same
    floats bit for bit.
    """
    trials = len(records)
    succ = {n: 0 for n in names}
    norm_inv = {n: 0.0 for n in names}
    raw_inv = {n: 0.0 for n in names}
    runtime = {n: 0.0 for n in names}
    static_frac = {n: 0.0 for n in names}
    static_cnt = {n: 0 for n in names}
    best_valid_trials = 0

    for rec in records:
        if rec.best_valid:
            best_valid_trials += 1
        for n in names:
            out = rec.outcomes[n]
            runtime[n] += out.runtime_s
            raw_inv[n] += out.power_inverse
            if out.valid:
                succ[n] += 1
                static_frac[n] += out.static_fraction
                static_cnt[n] += 1
            if rec.best_valid:
                norm_inv[n] += out.power_inverse / rec.best_power_inverse

    stats = {}
    for n in names:
        stats[n] = HeuristicPointStats(
            name=n,
            trials=trials,
            successes=succ[n],
            norm_power_inverse=(
                norm_inv[n] / best_valid_trials if best_valid_trials else 0.0
            ),
            mean_power_inverse=raw_inv[n] / trials,
            mean_runtime_s=runtime[n] / trials,
            mean_static_fraction=(
                static_frac[n] / static_cnt[n] if static_cnt[n] else 0.0
            ),
        )
    return PointResult(x=x, stats=stats)


def _expand_names(heuristic_names: Sequence[str]) -> List[str]:
    """Validate and canonicalise the competitor list (BEST appended)."""
    if not heuristic_names:
        raise InvalidParameterError("need at least one heuristic name")
    heuristics = [get_heuristic(n) for n in heuristic_names]
    return [h.name for h in heuristics] + [BEST_KEY]


def check_jobs(jobs: int) -> None:
    """Reject a worker-process count that is not an ``int`` >= 1."""
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
        raise InvalidParameterError(
            f"jobs must be an integer >= 1, got {jobs!r}"
        )


def point_seed(seed: int, k: int) -> int:
    """Seed of sweep point ``k``: decorrelates the points of one sweep."""
    return seed * 1_000_003 + k


# ----------------------------------------------------------------------
# parallel engine
# ----------------------------------------------------------------------
def _run_trial_chunk(
    payload: Tuple[
        Mesh, PowerModel, WorkloadFactory, int, int, int, Tuple[str, ...]
    ]
) -> List[TrialRecord]:
    """Worker entry point: run trials ``lo .. hi-1`` of a sweep point.

    The child re-derives just its slice of the per-trial generators with
    :func:`~repro.utils.rng.spawn_rngs_range` — stream ``i`` is a pure
    function of ``(seed, i)``, so the chunk boundaries (and the process
    start method, fork or spawn) cannot change any trial's instance draw.
    """
    mesh, power, workload, seed, lo, hi, names = payload
    # the chunk's platform objects were just unpickled: rebuild their
    # lazy caches once here, not inside the first trial's timed region
    warm_platform_caches(mesh, power)
    rngs = spawn_rngs_range(seed, lo, hi)
    return _run_trials(mesh, power, workload, rngs, names)


def _chunk_bounds(trials: int, jobs: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` chunks covering ``range(trials)``.

    Aims for a few chunks per worker so stragglers rebalance, without
    making chunks so small that process/pickle overhead dominates.
    """
    target_chunks = max(1, min(trials, jobs * 4))
    size = -(-trials // target_chunks)  # ceil
    return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def _point_payload(mesh, power, workload, seed: int, names: Tuple[str, ...]):
    """The ``make_payload`` of one sweep point for :func:`_run_trial_chunk`."""
    return lambda lo, hi: (mesh, power, workload, seed, lo, hi, names)


def map_trial_chunks(worker, groups, jobs: int) -> Iterator[List]:
    """Run groups of trial chunks on one process pool, yielding per group.

    The single scheduler behind every parallel sweep, the §6.4 summary
    included.  ``groups`` holds one
    ``(make_payload, trials)`` pair per point: ``worker`` is a picklable
    module-level callable, ``make_payload(lo, hi)`` builds its argument
    for trials ``lo .. hi-1``, and each worker call returns one record
    per trial.  The chunks of every group go to one pool up front and
    their results are read in submission order — group order, then
    trial order — so each yielded group's records, folded as they are,
    reproduce the serial reference bit for bit.  Reading in that order
    also makes a failing chunk raise the worker's own exception, the
    earliest in (group, trial) order, and cancels the chunks still
    queued.  A group is yielded as soon as its last chunk is back; the
    pool lives until the generator is exhausted or closed.
    """
    sizes: List[int] = []
    payloads: List = []
    for make_payload, trials in groups:
        bounds = _chunk_bounds(trials, jobs)
        sizes.append(len(bounds))
        payloads.extend(make_payload(lo, hi) for lo, hi in bounds)
    with worker_pool(jobs, len(payloads)) as pool:
        chunks = pool.map(worker, payloads)
        for size in sizes:
            yield [record for chunk in islice(chunks, size) for record in chunk]


def _run_points(
    mesh: Mesh,
    power: PowerModel,
    heuristic_names: Sequence[str],
    points: Sequence[Tuple[WorkloadFactory, int, int, float]],
    jobs: int,
) -> List[PointResult]:
    """Run ``(workload, trials, seed, x)`` points, all on one pool."""
    check_jobs(jobs)
    names = _expand_names(heuristic_names)
    members = tuple(names[:-1])
    if jobs == 1:
        warm_platform_caches(mesh, power)
        return [
            aggregate_records(
                _run_trials(
                    mesh, power, workload, spawn_rngs(seed, trials), members
                ),
                names,
                x,
            )
            for workload, trials, seed, x in points
        ]
    groups = [
        (_point_payload(mesh, power, workload, seed, members), trials)
        for workload, trials, seed, _ in points
    ]
    chunked = map_trial_chunks(_run_trial_chunk, groups, jobs)
    return [
        aggregate_records(records, names, x)
        for records, (_, _, _, x) in zip(chunked, points)
    ]


# ----------------------------------------------------------------------
# public entry points (serial by default)
# ----------------------------------------------------------------------
def run_point(
    mesh: Mesh,
    power: PowerModel,
    workload: WorkloadFactory,
    trials: int,
    seed: int,
    heuristic_names: Sequence[str],
    x: float = 0.0,
    jobs: int = 1,
) -> PointResult:
    """Run ``trials`` independent instances of one sweep point.

    ``jobs=1`` (default) runs serially in-process; ``jobs > 1`` runs the
    trial chunks on a process pool with identical aggregation.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    (point,) = _run_points(
        mesh, power, heuristic_names, [(workload, trials, seed, x)], jobs
    )
    return point


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run every point of a sweep configuration (serial unless ``jobs>1``)."""
    points = _run_points(
        config.mesh(),
        config.power_factory(),
        config.heuristics,
        [
            (point.workload, config.trials, point_seed(config.seed, k), point.x)
            for k, point in enumerate(config.points)
        ],
        jobs,
    )
    return SweepResult(
        name=config.name,
        x_label=config.x_label,
        heuristics=tuple(config.heuristics),
        points=tuple(points),
    )

"""Warm-start incremental re-routing: match, seed, repair, polish.

The serving layer's headline capability.  A request carries a routing
problem and, optionally, the client's *previous* routing — typically a
solution of a perturbed ancestor of the problem (communication rates
drifted, comms added or removed, links failed).  Instead of cold-solving,
the repair pipeline

1. **matches** the previous paths onto the new communication set by
   endpoints (multiset semantics: equal ``(src, snk)`` pairs are paired
   off in order, so duplicated endpoint pairs work),
2. **seeds** a :class:`~repro.heuristics.local_moves.RoutingState` with
   the matched move strings (added comms get an XY placeholder),
3. **re-routes** only the affected communications — added ones, those
   whose rate changed, those whose seeded path crosses a dead link — by
   greedy least-loaded re-insertion in decreasing-rate order
   (:meth:`~repro.heuristics.local_moves.RoutingState.reroute_greedy`),
4. **polishes** the repaired seed.  The default ``"anneal"`` polish runs
   a short fixed-budget Metropolis burst
   (:class:`~repro.heuristics.annealing.SimulatedAnnealing` via its
   ``_route_from`` warm entry) and then descends to a joint fixed point of the
   corner-flip descent (:func:`~repro.heuristics.local_moves.descend`)
   and XYI's corner-relocation descent
   (:meth:`XYImprover._route_from
   <repro.heuristics.xy_improver.XYImprover>`).  The burst is what lets
   a warm result track cold quality: a repaired seed inherits its
   ancestor's local optimum, and pure descent cannot escape that basin,
   but a low-temperature chain started *next to* a good solution can —
   at a fraction of the cost of the constructive solve the cold path
   pays.  The same polish finishes cold solves, so warm-vs-cold is a
   same-pipeline comparison; only the constructive stage is skipped.

Determinism contract: a warm result is a pure function of
``(problem, previous routing, polish, seed)`` — the only stochastic
stage, the annealing burst, is driven by the request's seed through the
repo's draw-order-preserving streams, so results are identical across
the ``REPRO_NATIVE`` tiers and across serial/process-pool deployments.
Repairing an **unperturbed** resubmission matches everything, classifies
nothing as affected, and returns the previous routing untouched without
entering the polish at all — power hex-identical, routing identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.problem import RoutingProblem
from repro.core.routing import Routing
from repro.heuristics import (
    RoutingState,
    SimulatedAnnealing,
    descend,
    get_heuristic,
)
from repro.heuristics.xy_improver import XYImprover
from repro.mesh.moves import MOVE_H, MOVE_V
from repro.utils.validation import ReproError

#: solver used when a request names none — the paper's best constructive
DEFAULT_SOLVER = "XYI"

#: polish stages a request may ask for
POLISH_MODES = ("anneal", "descent", "none")

#: polish used when a request names none
DEFAULT_POLISH = "anneal"

#: proposals of the ``"anneal"`` polish burst — sized so the burst plus
#: the joint descent stays well under a constructive solve, while still
#: escaping the local optima a repaired seed inherits
_ANNEAL_ITERS = 1200

#: safety cap on flip/relocation polish alternations (the joint descent
#: strictly decreases graded power, so it terminates on its own; two or
#: three rounds is typical)
_POLISH_ROUNDS = 8


@dataclass(frozen=True)
class SeedMatch:
    """Previous paths matched onto a new problem's communication set.

    ``moves[i]`` / ``prev_rates[i]`` are the matched previous move string
    and rate of communication ``i`` (``None`` when the communication is
    new); ``removed_links`` holds the link-id lists of previous paths with
    no counterpart in the request (their vacated links join the polish
    neighbourhood).
    """

    moves: Tuple[Optional[str], ...]
    prev_rates: Tuple[Optional[float], ...]
    removed_links: Tuple[Tuple[int, ...], ...]

    @property
    def matched(self) -> int:
        return sum(1 for m in self.moves if m is not None)


@dataclass(frozen=True)
class RepairStats:
    """What the warm-start (or cold) pipeline actually did."""

    mode: str  # "cold" | "warm"
    matched: int  # previous paths reused as seeds
    added: int  # comms with no previous path
    removed: int  # previous paths with no comm in the request
    rate_changed: int  # matched comms rerouted for a rate delta
    dead_repaired: int  # matched comms rerouted off dead links
    rerouted: int  # total greedy re-insertions
    polish_flips: int  # corner flips committed by the descent
    relocations: int  # paths changed by the relocation descent

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class RouteOutcome:
    """A routed request: the routing plus its strict evaluation."""

    routing: Routing
    power: float  # strict total power (inf when invalid)
    valid: bool
    stats: RepairStats


def _check_polish(polish: str) -> None:
    if polish not in POLISH_MODES:
        raise ReproError(
            f"unknown polish mode {polish!r}; choose from {POLISH_MODES}"
        )


def _check_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ReproError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------
def match_previous(problem: RoutingProblem, prev: Routing) -> SeedMatch:
    """Pair the previous routing's paths with ``problem``'s comms.

    Matching is by endpoints only — rates may differ (that *is* the
    perturbation) and the meshes may carry different fault profiles, but
    the mesh shape must agree (link ids are shape-relative, so previous
    link ids stay meaningful on the new mesh).
    """
    if not prev.is_single_path:
        raise ReproError(
            "warm start needs a single-path previous routing, got "
            f"max_split={prev.max_split}"
        )
    pm = prev.problem.mesh
    mesh = problem.mesh
    if (pm.p, pm.q) != (mesh.p, mesh.q):
        raise ReproError(
            f"previous routing is on a {pm.p}x{pm.q} mesh, the request "
            f"on {mesh.p}x{mesh.q}; warm start needs matching shapes"
        )
    pools: Dict[tuple, deque] = {}
    for i, c in enumerate(prev.problem.comms):
        pools.setdefault((c.src, c.snk), deque()).append(i)
    moves: List[Optional[str]] = []
    rates: List[Optional[float]] = []
    for c in problem.comms:
        pool = pools.get((c.src, c.snk))
        if pool:
            i = pool.popleft()
            moves.append(prev.paths(i)[0].moves)
            rates.append(prev.problem.comms[i].rate)
        else:
            moves.append(None)
            rates.append(None)
    removed = tuple(
        tuple(int(l) for l in prev.paths(i)[0].link_ids)
        for pool in pools.values()
        for i in pool
    )
    return SeedMatch(tuple(moves), tuple(rates), removed)


# ----------------------------------------------------------------------
# polish
# ----------------------------------------------------------------------
def _polish_joint(
    problem: RoutingProblem,
    state: RoutingState,
    targets: Optional[set] = None,
) -> Tuple[RoutingState, int, int]:
    """Alternate flip and relocation descents to a joint fixed point.

    ``targets`` restricts the *first* flip descent (the warm path's
    affected neighbourhood); every later round descends exactly the
    communications the relocation sweep changed.  Returns the polished
    state with the committed flip and relocation counts.  Both descents
    strictly decrease graded power, so the alternation terminates;
    ``_POLISH_ROUNDS`` is a safety cap only.
    """
    improver = XYImprover()
    flips = descend(state, targets)
    relocations = 0
    for _ in range(_POLISH_ROUNDS):
        cur = state.snapshot()
        paths = improver._route_from(problem, cur)
        changed = [i for i, p in enumerate(paths) if p.moves != cur[i]]
        if not changed:
            break
        relocations += len(changed)
        state = RoutingState(problem, [p.moves for p in paths])
        flips += descend(state, changed)
    return state, flips, relocations


def _polish(
    problem: RoutingProblem,
    state: RoutingState,
    *,
    polish: str,
    seed: int,
    targets: Optional[set] = None,
) -> Tuple[RoutingState, int, int]:
    """Run the requested polish stage on ``state``.

    ``"anneal"`` — a fixed-budget Metropolis burst seeded from the
    state's moves (driven by ``seed``), then the joint flip/relocation
    descent over everything.  ``"descent"`` — the joint descent alone
    (``targets`` restricts its first flip pass).  ``"none"`` — nothing.
    """
    if polish == "none":
        return state, 0, 0
    if polish == "anneal":
        burst = SimulatedAnnealing(iterations=_ANNEAL_ITERS, seed=seed)
        paths = burst._route_from(problem, state.snapshot())
        state = RoutingState(problem, [p.moves for p in paths])
        targets = None  # the burst may touch anything: descend globally
    return _polish_joint(problem, state, targets)


# ----------------------------------------------------------------------
# repair
# ----------------------------------------------------------------------
def repair_state(
    problem: RoutingProblem,
    prev: Routing,
    *,
    polish: str = DEFAULT_POLISH,
    seed: int = 0,
) -> Tuple[RoutingState, RepairStats]:
    """Seed from ``prev`` and incrementally repair onto ``problem``.

    Returns the repaired state together with the repair statistics; the
    state's routing is the warm-start answer.  When nothing needs repair
    (an unperturbed resubmission) the polish is skipped entirely and the
    previous routing comes back untouched.
    """
    _check_polish(polish)
    _check_seed(seed)
    match = match_previous(problem, prev)
    seeded: List[str] = []
    repair: List[int] = []  # classification order: added, then perturbed
    added = 0
    for i, c in enumerate(problem.comms):
        mv = match.moves[i]
        if mv is None:
            # XY placeholder, immediately rerouted below
            seeded.append(
                MOVE_H * abs(c.snk[1] - c.src[1])
                + MOVE_V * abs(c.snk[0] - c.src[0])
            )
            repair.append(i)
            added += 1
        else:
            seeded.append(mv)
    state = RoutingState(problem, seeded)
    dead = (
        None
        if problem.mesh.dead_mask is None
        else set(problem.mesh.dead_link_ids())
    )
    rate_changed = 0
    dead_repaired = 0
    for i in range(problem.num_comms):
        prev_rate = match.prev_rates[i]
        if prev_rate is None:
            continue  # added: already queued
        if prev_rate != problem.comms[i].rate:
            repair.append(i)
            rate_changed += 1
        elif dead and set(state.links[i]) & dead:
            repair.append(i)
            dead_repaired += 1
    # vacated links of removed comms join the affected neighbourhood
    changed_links = set()
    for lids in match.removed_links:
        changed_links.update(lids)
    # re-insert heaviest first (SG's processing order), ties by index
    order = sorted(repair, key=lambda i: (-problem.comms[i].rate, i))
    for ci in order:
        changed_links.update(state.links[ci])
        mv, lks, deltas, dcost = state.reroute_greedy(ci)
        state.commit_resample(ci, mv, lks, deltas, dcost)
        changed_links.update(lks)
    flips = 0
    relocations = 0
    if order or match.removed_links:
        polish_set = set(order)
        for lid in changed_links:
            polish_set.update(state.comms_using(lid))
        state, flips, relocations = _polish(
            problem, state, polish=polish, seed=seed, targets=polish_set
        )
    stats = RepairStats(
        mode="warm",
        matched=match.matched,
        added=added,
        removed=len(match.removed_links),
        rate_changed=rate_changed,
        dead_repaired=dead_repaired,
        rerouted=len(order),
        polish_flips=flips,
        relocations=relocations,
    )
    return state, stats


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def route_incremental(
    problem: RoutingProblem,
    prev: Optional[Routing] = None,
    *,
    solver: str = DEFAULT_SOLVER,
    polish: str = DEFAULT_POLISH,
    seed: int = 0,
) -> RouteOutcome:
    """Route a request, warm-starting from ``prev`` when one is given.

    Cold path: the named registered heuristic (reseeded with ``seed``)
    solves from scratch, any path it left on a dead link is evacuated by
    the fault-aware greedy re-insertion (some constructives — XYI's XY
    start in particular — are not fault-aware on their own), and the
    requested polish finishes the routing.  Warm path:
    :func:`repair_state` — the same polish on the repaired seed, so the
    two paths differ only in where the seed comes from.
    """
    _check_polish(polish)
    _check_seed(seed)
    if prev is not None:
        state, stats = repair_state(problem, prev, polish=polish, seed=seed)
    else:
        heuristic = get_heuristic(solver)
        heuristic.reseed(seed)
        result = heuristic.solve(problem)
        state = RoutingState.from_routing(problem, result.routing)
        dead = (
            None
            if problem.mesh.dead_mask is None
            else set(problem.mesh.dead_link_ids())
        )
        evacuate = []
        if dead:
            evacuate = [
                i
                for i in range(problem.num_comms)
                if set(state.links[i]) & dead
            ]
            for ci in sorted(
                evacuate, key=lambda i: (-problem.comms[i].rate, i)
            ):
                mv, lks, deltas, dcost = state.reroute_greedy(ci)
                state.commit_resample(ci, mv, lks, deltas, dcost)
        state, flips, relocations = _polish(
            problem, state, polish=polish, seed=seed
        )
        stats = RepairStats(
            mode="cold",
            matched=0,
            added=0,
            removed=0,
            rate_changed=0,
            dead_repaired=len(evacuate),
            rerouted=len(evacuate),
            polish_flips=flips,
            relocations=relocations,
        )
    return finalize_outcomes(state.to_routing(), stats)


def finalize_outcomes(routing: Routing, stats: RepairStats) -> RouteOutcome:
    """Grade a finished routing: strict total power and validity.

    The last step of :func:`route_incremental`, kept as its own function
    so the grading shows up as one layer in ``perfbench``'s traced run.
    """
    return RouteOutcome(
        routing=routing,
        power=routing.total_power(),
        valid=routing.is_valid(),
        stats=stats,
    )

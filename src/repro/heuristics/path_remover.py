"""PR — the path-remover heuristic (Section 5.5).

Every communication starts *virtually* routed over **all** its Manhattan
paths: each link of band ``t`` of its rectangle carries ``δ / n_t`` where
``n_t`` is the number of links in the band (the ideal spread of Figure 3).
Then, while some communication still has more than one remaining path, the
most loaded link is selected and the largest communication that can afford
to lose it gives it up; the communication's remaining spread is
re-balanced, and the *path cleaning* cascade removes every link of its
rectangle that no longer lies on any surviving source→sink path (the
generalisation of the paper's cascade-deletion rules, implemented as a
forward/backward reachability sweep over the communication's DAG).

Invariants maintained (and exercised by the test suite):

* after cleaning, every allowed link of a communication lies on at least
  one surviving src→snk path — consequently a link is removable from a
  communication iff its band still holds ≥ 2 links, and a removal never
  disconnects;
* the virtual load of a communication over each band always sums to its
  rate, so when every band holds a single link the virtual load *is* the
  real single-path load.

Links that no communication can give up are frozen and skipped from then
on (band counts only shrink, so unremovability is permanent).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.mesh.paths import CommDag, Path, band_reachability


class _CommState:
    """Per-communication spread state: allowed band links and their shares."""

    __slots__ = (
        "dag",
        "rate",
        "bands",
        "tails_x",
        "tails_y",
        "kinds",
        "allowed",
        "counts",
        "pos",
        "excess",
    )

    def __init__(
        self,
        dag: CommDag,
        rate: float,
        loads: np.ndarray,
        alive: np.ndarray | None = None,
    ):
        self.dag = dag
        self.rate = rate
        # band geometry (link ids, tail coordinates, edge kinds, positions)
        # is immutable and cached on the — possibly pooled — DAG; only the
        # `allowed` masks and counts are per-communication state
        lids_l, xs_l, ys_l, kv_l = dag.band_arrays()
        self.bands: List[np.ndarray] = list(lids_l)
        self.tails_x: List[np.ndarray] = list(xs_l)
        self.tails_y: List[np.ndarray] = list(ys_l)
        self.kinds: List[np.ndarray] = list(kv_l)  # True where vertical
        self.pos: Dict[int, Tuple[int, int]] = dag.band_pos()
        # on a faulty mesh, a communication with a surviving live path
        # spreads over its live links only (cleaned so every remaining
        # link is on some fully-live path); blocked communications fall
        # back to the full spread and end up reported invalid
        use_alive = alive is not None and dag.has_live_path()
        self.allowed = [
            (alive[lids].copy() if use_alive else np.ones(len(lids), dtype=bool))
            for lids in self.bands
        ]
        self.counts: List[int] = []
        if use_alive:
            self._clean()
        for t, lids in enumerate(self.bands):
            if use_alive:
                a = self.allowed[t]
                cnt = int(a.sum())
                loads[lids[a]] += rate / cnt
            else:
                cnt = len(lids)
                loads[lids] += rate / cnt
            self.counts.append(cnt)
        self.excess = sum(self.counts) - len(self.counts)

    @property
    def finished(self) -> bool:
        """True when every band holds exactly one link (a unique path)."""
        return self.excess == 0

    def band_count_of(self, lid: int) -> int:
        """Number of allowed links in the band containing ``lid`` (0 if gone)."""
        t, j = self.pos[lid]
        return self.counts[t] if self.allowed[t][j] else 0

    def allows(self, lid: int) -> bool:
        t_j = self.pos.get(lid)
        if t_j is None:
            return False
        t, j = t_j
        return bool(self.allowed[t][j])

    # ------------------------------------------------------------------
    def remove_and_clean(self, lid: int, loads: np.ndarray) -> List[int]:
        """Give up ``lid`` (band count must be ≥ 2), cascade-clean, update loads.

        Returns every link id this communication stopped using (the target
        plus the cleaning cascade).
        """
        t0, j0 = self.pos[lid]
        if not self.allowed[t0][j0]:
            raise AssertionError(f"link {lid} already removed from this comm")
        if self.counts[t0] < 2:
            raise AssertionError(
                "removing the last band link would break the last path"
            )
        old_allowed = [a.copy() for a in self.allowed]
        self.allowed[t0][j0] = False
        self._clean()
        removed: List[int] = []
        for t, (old_a, new_a) in enumerate(zip(old_allowed, self.allowed)):
            if old_a.sum() == new_a.sum():
                continue
            n_old = int(old_a.sum())
            n_new = int(new_a.sum())
            # re-balance: survivors go from rate/n_old to rate/n_new
            loads[self.bands[t][new_a]] += self.rate / n_new - self.rate / n_old
            gone = old_a & ~new_a
            lids_gone = self.bands[t][gone]
            loads[lids_gone] = np.maximum(loads[lids_gone] - self.rate / n_old, 0.0)
            removed.extend(int(x) for x in lids_gone)
            self.excess -= n_old - n_new
            self.counts[t] = n_new
        return removed

    def _clean(self) -> None:
        """Drop every allowed edge not on a surviving src→snk path."""
        du, dv = self.dag.du, self.dag.dv
        fwd, bwd = band_reachability(
            du, dv, self.tails_x, self.tails_y, self.kinds, self.allowed
        )
        if not fwd[du, dv]:
            raise AssertionError("cleaning disconnected src from snk")
        for t in range(len(self.bands)):
            a = self.allowed[t]
            xs, ys, kv = self.tails_x[t], self.tails_y[t], self.kinds[t]
            hx = np.where(kv, xs + 1, xs)
            hy = np.where(kv, ys, ys + 1)
            keep = a & fwd[xs, ys] & bwd[hx, hy]
            self.allowed[t] = keep

    def extract_moves(self) -> str:
        """The unique remaining path as a move string (requires finished)."""
        if not self.finished:
            raise AssertionError("communication still has multiple paths")
        out = []
        for t in range(len(self.bands)):
            j = int(np.nonzero(self.allowed[t])[0][0])
            out.append("V" if self.kinds[t][j] else "H")
        return "".join(out)


@register_heuristic("PR")
class PathRemover(Heuristic):
    """Prune the all-paths spread, most-loaded link first."""

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        alive = mesh.link_mask
        scale = mesh.link_scale
        dead = mesh.dead_mask
        n = problem.num_comms
        loads = np.zeros(mesh.num_links, dtype=np.float64)
        states = [
            _CommState(problem.dag(i), problem.comms[i].rate, loads, alive)
            for i in range(n)
        ]
        comms_on: List[Set[int]] = [set() for _ in range(mesh.num_links)]
        for i, st in enumerate(states):
            for lid in st.pos:
                comms_on[lid].add(i)
        frozen = np.zeros(mesh.num_links, dtype=bool)
        unfinished = {i for i in range(n) if not states[i].finished}

        while unfinished:
            if scale is None and dead is None:
                weighted = loads
            else:
                # relieve the most *power-costly* link first: scale-weight
                # heterogeneous regions, and evacuate any removable spread
                # from dead links before everything else
                weighted = loads if scale is None else loads * scale
                if dead is not None:
                    weighted = weighted + np.where(
                        dead & (loads > 0), np.inf, 0.0
                    )
            masked = np.where(frozen, -1.0, weighted)
            lid = int(np.argmax(masked))
            if masked[lid] <= 0:
                # No loaded, unfrozen link left: every unfinished comm should
                # have offered a removable link — defensive stop (unreached
                # under the documented invariants, exercised by tests).
                break
            cands = sorted(
                (
                    i
                    for i in comms_on[lid]
                    if states[i].allows(lid) and states[i].band_count_of(lid) >= 2
                ),
                key=lambda i: (-problem.comms[i].rate, i),
            )
            if not cands:
                frozen[lid] = True
                continue
            i = cands[0]
            for gone in states[i].remove_and_clean(lid, loads):
                comms_on[gone].discard(i)
            if states[i].finished:
                unfinished.discard(i)

        paths = []
        for i, st in enumerate(states):
            comm = problem.comms[i]
            paths.append(
                Path.from_validated(mesh, comm.src, comm.snk, st.extract_moves())
            )
        return paths

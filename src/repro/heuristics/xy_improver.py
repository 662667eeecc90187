"""XYI — the XY-improver heuristic (Section 5.4).

Start from the XY routing and iteratively relieve the most loaded links.
Links are kept in a worklist sorted by decreasing load.  For the link at
the head of the list, every communication routed through it is offered its
*corner-relocation* move (see :mod:`repro.mesh.moves`):

* a **vertical** target link is avoided by shifting the enclosing vertical
  run one column toward the source (relocating the nearest preceding
  horizontal hop to just after it);
* a **horizontal** target link is avoided by shifting it one row toward the
  sink (relocating the nearest following vertical hop to just before it).

If no candidate modification lowers the total (graded) power the link is
dropped from the worklist; otherwise the best modification is applied, the
worklist is rebuilt from the new loads, and the descent continues.  Total
graded power strictly decreases at every applied move, so the procedure
terminates; a generous safety cap guards the theoretical worst case.

Implementation notes — the descent runs on the flat-array kernel:

* candidate paths come from :func:`repro.mesh.kernel.links_from_vmask`
  (no per-hop Python);
* a relocation changes only the contiguous window of hops between the two
  relocated moves, and the old/new links inside the window are disjoint
  (they sit in different rows/columns), so the graded-power deltas of all
  candidates of the current link are evaluated with **one** batched
  :meth:`~repro.core.power.PowerModel.link_power_graded` call — while the
  per-candidate value layout and block sums replicate
  :func:`repro.heuristics.base.graded_power_delta` bit for bit, keeping
  the descent trajectory identical to the scalar reference;
* the current graded total (the accept threshold's scale) is recomputed
  only on applied moves — loads are unchanged on rejected iterations, so
  the value stays exact without the reference's per-iteration recompute.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.mesh.diagonals import direction_steps
from repro.mesh.kernel import links_from_vmask, moves_to_vmask
from repro.mesh.moves import relocate_h_after, relocate_v_before, xy_moves
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError

#: improvements smaller than this (relative to current power) are noise
_REL_EPS = 1e-12


@register_heuristic("XYI")
class XYImprover(Heuristic):
    """Local corner-relocation descent from the XY routing.

    Parameters
    ----------
    max_steps:
        Safety cap on applied modifications.  The paper bounds the work at
        ``p*q`` modifications per communication; the default cap is an
        order of magnitude above that and is never reached in practice.
    start:
        Registry name of the heuristic providing the starting routing
        (default ``"XY"``, the paper's choice).  Any registered
        single-path heuristic works — the descent itself is agnostic to
        where it starts, which the improver-start ablation exploits.
    """

    def __init__(self, max_steps: Optional[int] = None, start: str = "XY"):
        if max_steps is not None and max_steps < 1:
            raise InvalidParameterError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self.start = start

    def _starting_moves(self, problem: RoutingProblem) -> List[str]:
        if self.start == "XY":
            return [xy_moves(c.src, c.snk) for c in problem.comms]
        from repro.heuristics.base import get_heuristic

        if self.start == self.name:
            raise InvalidParameterError(
                f"improver cannot start from itself ({self.start!r})"
            )
        paths = get_heuristic(self.start)._route(problem)
        return [p.moves for p in paths]

    def _route(self, problem: RoutingProblem) -> List[Path]:
        return self._descend_paths(problem, self._starting_moves(problem))

    def _route_from(self, problem: RoutingProblem, moves: List[str]) -> List[Path]:
        # warm entry (Heuristic._route_from): the descent is start-agnostic,
        # so it serves as a relocation *polish* of any single-path routing —
        # the service's warm-start repair seeds it with the repaired
        # previous routing, where it converges in a handful of moves
        return self._descend_paths(problem, list(moves))

    def _descend_paths(self, problem: RoutingProblem, moves: List[str]) -> List[Path]:
        mesh = problem.mesh
        power = problem.power
        scale = mesh.link_scale  # None on homogeneous meshes
        dead = mesh.dead_mask  # None on fault-free meshes
        n = problem.num_comms
        steps_uv = [direction_steps(c.direction) for c in problem.comms]
        links: List[np.ndarray] = [
            links_from_vmask(mesh, c.src, su, sv, moves_to_vmask(m))
            for c, (su, sv), m in zip(problem.comms, steps_uv, moves)
        ]
        loads = np.zeros(mesh.num_links, dtype=np.float64)
        on_link: List[Set[int]] = [set() for _ in range(mesh.num_links)]
        for i, c in enumerate(problem.comms):
            loads[links[i]] += c.rate
            for lid in links[i]:
                on_link[int(lid)].add(i)

        cap = self.max_steps
        if cap is None:
            cap = 10 * mesh.p * mesh.q * max(n, 1)

        current = power.total_power_graded(loads, scale=scale, dead=dead)
        worklist = self._sorted_links(loads, dead)
        # per-communication memo of relocations: lid -> (new_m, new_l,
        # old_ch, new_ch) or None when infeasible.  Loads-independent, so an
        # entry stays valid until the communication's own path changes.
        cand_cache: List[dict] = [{} for _ in range(n)]
        steps = 0
        while worklist and steps < cap:
            lid = worklist[0]
            horizontal = mesh.is_horizontal(lid)
            # gather every feasible relocation of the communications on lid
            cand: List[Tuple[int, str, np.ndarray, np.ndarray, np.ndarray]] = []
            seg_sizes: List[int] = []
            after_parts: List[np.ndarray] = []
            before_parts: List[np.ndarray] = []
            for i in sorted(on_link[lid]):
                cache = cand_cache[i]
                if lid in cache:
                    entry = cache[lid]
                    if entry is None:
                        continue
                    new_m, new_l, old_ch, new_ch = entry
                else:
                    old_l = links[i]
                    pos = int(np.nonzero(old_l == lid)[0][0])
                    if horizontal:
                        new_m = relocate_v_before(moves[i], pos)
                    else:
                        new_m = relocate_h_after(moves[i], pos)
                    if new_m is None:
                        # cannot move without breaking the Manhattan rule
                        cache[lid] = None
                        continue
                    su, sv = steps_uv[i]
                    new_l = links_from_vmask(
                        mesh, problem.comms[i].src, su, sv, moves_to_vmask(new_m)
                    )
                    changed = old_l != new_l
                    old_ch = old_l[changed]
                    new_ch = new_l[changed]
                    cache[lid] = (new_m, new_l, old_ch, new_ch)
                rate = problem.comms[i].rate
                # replicate graded_power_delta's float math exactly: per
                # candidate, the affected links in [old window | new window]
                # order, graded before and after the ∓rate swap (the two
                # windows are disjoint, so no netting is needed).  Keeping
                # the same value layout and per-block summation as the
                # reference keeps every tie-break — and therefore the whole
                # descent trajectory — identical to the scalar path.
                vals = np.concatenate((loads[old_ch], loads[new_ch]))
                swapped = vals.copy()
                swapped[: old_ch.size] -= rate
                swapped[old_ch.size:] += rate
                if swapped.min() < -1e-9:
                    # same invariant graded_power_delta enforced: beyond
                    # numerical dust, a negative load means the bookkeeping
                    # (links/on_link/cand_cache) went inconsistent
                    raise InvalidParameterError(
                        "load delta would drive a link negative"
                    )
                # clamp the numerical dust a removal can leave behind
                before_parts.append(vals)
                after_parts.append(np.maximum(swapped, 0.0))
                seg_sizes.append(vals.size)
                cand.append((i, new_m, new_l, old_ch, new_ch))
            best_idx = -1
            best_dp = np.inf
            if cand:
                before = np.concatenate(before_parts)
                after = np.concatenate(after_parts)
                sc = dd = None
                if scale is not None or dead is not None:
                    # per-value link ids in [old | new] window order, per
                    # candidate — gather the profile coefficients alongside
                    lid_vec = np.concatenate(
                        [np.concatenate((o, nw)) for _, _, _, o, nw in cand]
                    )
                    if scale is not None:
                        sc = np.tile(scale[lid_vec], 2)
                    if dead is not None:
                        dd = np.tile(dead[lid_vec], 2)
                # one batched grading for every candidate of this link …
                graded = power.link_power_graded(
                    np.concatenate((before, after)), scale=sc, dead=dd
                )
                m = before.size
                g_before = graded[:m]
                g_after = graded[m:]
                # … but per-candidate block sums, matching np.sum over the
                # reference's per-candidate arrays bit for bit
                lo_off = 0
                for k, size in enumerate(seg_sizes):
                    hi_off = lo_off + size
                    dp = float(
                        g_after[lo_off:hi_off].sum()
                        - g_before[lo_off:hi_off].sum()
                    )
                    if dp < best_dp:
                        best_dp = dp
                        best_idx = k
                    lo_off = hi_off
            threshold = -_REL_EPS * max(current, 1.0)
            if best_idx >= 0 and best_dp < threshold:
                i, new_m, new_l, old_ch, new_ch = cand[best_idx]
                rate = problem.comms[i].rate
                removed = loads[old_ch] - rate
                if removed.min() < -1e-6:
                    # apply_deltas' guard: only clamp numerical dust
                    raise InvalidParameterError(
                        f"applying XYI move drove a link to {removed.min()}"
                    )
                loads[old_ch] = np.maximum(removed, 0.0)
                loads[new_ch] += rate
                for old_lid in old_ch:
                    on_link[int(old_lid)].discard(i)
                for new_lid in new_ch:
                    on_link[int(new_lid)].add(i)
                moves[i] = new_m
                links[i] = new_l
                cand_cache[i] = {}
                # loads only change on applied steps, so recomputing here
                # keeps `current` exact at every iteration (the reference
                # recomputed it every iteration, applied or not)
                current = power.total_power_graded(loads, scale=scale, dead=dead)
                worklist = self._sorted_links(loads, dead)
                steps += 1
            else:
                worklist.pop(0)

        return [
            Path.from_validated(mesh, c.src, c.snk, m, lids)
            for c, m, lids in zip(problem.comms, moves, links)
        ]

    @staticmethod
    def _sorted_links(
        loads: np.ndarray, dead: Optional[np.ndarray] = None
    ) -> List[int]:
        """Loaded link ids by decreasing load (stable under equal loads).

        On faulty meshes, loaded *dead* links jump to the head of the
        worklist regardless of their load — evacuating them dominates any
        load-balancing move.
        """
        if dead is None:
            order = np.argsort(-loads, kind="stable")
        else:
            hot = np.where(dead & (loads > 0), np.inf, 0.0)
            order = np.argsort(-(loads + hot), kind="stable")
        return [int(l) for l in order if loads[l] > 0]

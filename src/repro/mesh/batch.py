"""Batched metaheuristic engine: the incremental load ledger.

The constructive heuristics run on :class:`repro.mesh.kernel.
FlatRoutingKernel` — whole candidate *batches* evaluated in single NumPy
passes.  The stochastic searchers (SA chains, TABU neighbourhoods, GA
mutation walks) instead live on *incremental* state: thousands of tiny
proposals, each touching a handful of links.  For them the per-call
overhead of NumPy is the bottleneck, not the arithmetic.

:class:`LoadLedger` is the shared engine for that regime.  It owns a
complete 1-MP routing (one move string per communication), the per-link
load vector, and the graded total power, and keeps all three consistent
under the two elementary moves of the local-search metaheuristics:

* **corner flip** — swap two adjacent distinct moves; the ledger resolves
  the two changed link ids in O(1) integer arithmetic (via the
  direction-folded bases of :func:`repro.mesh.kernel.
  direction_link_bases` and a maintained prefix-count array, no
  ``link_between`` / path walking), and grades the 4-link delta through a
  **scalar fast path** that replicates
  :meth:`repro.core.power.PowerModel.link_power_graded` float for float;
* **path resample** — replace a whole move string; an O(path-length)
  delta against the maintained link lists.

Three grading tiers, all **bit-identical** to
:func:`repro.heuristics.base.graded_power_delta` on the same delta:

* :meth:`LoadLedger.flip_dcost` — pure-Python scalar math (discrete
  frequency models only; continuous models use vectorised ``pow`` whose
  SIMD rounding a Python scalar cannot replicate, so they fall through to
  the NumPy path).  Valid because NumPy sums of fewer than 8 elements are
  sequential, which scalar accumulation reproduces exactly.
* :meth:`LoadLedger.flip_dcost_batch` — a whole candidate neighbourhood
  (the TABU per-iteration candidate set, a lockstep SA chain front) in
  one ``link_power_graded`` call over a ``(C, 8)`` matrix with per-row
  segment sums.
* :meth:`LoadLedger.resample_eval` — O(path-length) diff through
  :func:`~repro.heuristics.base.path_swap_deltas`, graded through the
  scalar path when the diff stays under NumPy's sequential-sum threshold
  and through ``graded_power_delta`` otherwise.

``tests/test_batch_ledger.py`` asserts the tier equivalences property-by-
property and ``tests/test_meta_probes.py`` pins the end-to-end GA/SA/TABU
routings recorded from the pre-ledger scalar implementations.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.mesh.kernel import FlatRoutingKernel, direction_link_bases
from repro.mesh.moves import MOVE_H, MOVE_V
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

#: largest element count for which :func:`_pairwise_sum` replicates
#: ``np.sum`` exactly (NumPy's single-block pairwise regime)
_PW_BLOCK = 128


def _pairwise_sum(a: Sequence[float]) -> float:
    """``np.sum`` of up to 128 floats, bit for bit, in pure Python.

    Replicates NumPy's ``pairwise_sum``: sequential accumulation below 8
    elements, the 8-accumulator unrolled block (with its fixed reduction
    tree and sequential remainder) up to the 128-element block size.
    ``tests/test_batch_ledger.py`` fuzzes the equivalence.
    """
    n = len(a)
    if n < 8:
        if n == 0:
            return 0.0
        r = a[0]
        for i in range(1, n):
            r += a[i]
        return r
    r0, r1, r2, r3, r4, r5, r6, r7 = a[:8]
    i = 8
    stop = n - (n % 8)
    while i < stop:
        r0 += a[i]
        r1 += a[i + 1]
        r2 += a[i + 2]
        r3 += a[i + 3]
        r4 += a[i + 4]
        r5 += a[i + 5]
        r6 += a[i + 6]
        r7 += a[i + 7]
        i += 8
    res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        res += a[i]
        i += 1
    return res

# repro.heuristics.base helpers, bound on first ledger construction — a
# module-level import would cycle through the heuristics package while it
# is itself importing this module
_path_swap_deltas = None
_graded_power_delta = None


def _bind_heuristic_helpers() -> None:
    global _path_swap_deltas, _graded_power_delta
    if _path_swap_deltas is None:
        from repro.heuristics.base import graded_power_delta, path_swap_deltas

        _path_swap_deltas = path_swap_deltas
        _graded_power_delta = graded_power_delta


def flip_corners(moves: Sequence[str]) -> List[int]:
    """Indices ``j`` where ``moves[j] != moves[j+1]`` (flippable corners).

    Works on any character sequence (string or list of moves); ascending.
    """
    return [j for j in range(len(moves) - 1) if moves[j] != moves[j + 1]]


class LoadLedger:
    """A complete 1-MP routing under incremental local-move mutation.

    Parameters
    ----------
    mesh:
        The platform.
    power:
        The (duck-typed) power model grading link loads.
    endpoints:
        ``(src, snk)`` per communication, in problem order.
    rates:
        Communication rates (per-hop load weights).
    moves_list:
        Initial move string per communication; validated on entry.
    kernel:
        Optional pre-built :class:`FlatRoutingKernel` for the same
        communication set (shared through
        :meth:`repro.core.problem.RoutingProblem.kernel`); built on demand
        otherwise.

    Attributes
    ----------
    moves / links:
        Current move characters and link ids per communication (lists, in
        problem order) — the mutable mirror of the routing.
    loads:
        Link-load vector (Mb/s per link id), consistent with ``links``.
    cost:
        Graded total power of ``loads``, maintained incrementally with
        float math identical to the from-scratch evaluation order of the
        scalar reference implementation.
    """

    __slots__ = (
        "tier",
        "mesh",
        "power",
        "scale",
        "dead",
        "kernel",
        "moves",
        "links",
        "loads",
        "cost",
        "_mstr",
        "_pos",
        "_cumv",
        "_loads_l",
        "_rates_l",
        "_src_u",
        "_src_v",
        "_su",
        "_sv",
        "_vbase",
        "_hbase",
        "_du",
        "_dv",
        "_q",
        "_scalar",
        "_freqs_l",
        "_lvl_l",
        "_pen0",
        "_bw",
        "_thresh",
        "_scale_l",
        "_dead_l",
        "_plist",
        "_link_comms",
        "_fstash",
    )

    def __init__(
        self,
        mesh: Mesh,
        power,
        endpoints: Sequence[Tuple[Coord, Coord]],
        rates: Sequence[float],
        moves_list: Sequence[str],
        *,
        kernel: FlatRoutingKernel | None = None,
    ):
        _bind_heuristic_helpers()
        if kernel is None:
            kernel = FlatRoutingKernel(mesh, endpoints, rates)
        if len(moves_list) != kernel.num_comms:
            raise InvalidParameterError(
                f"expected {kernel.num_comms} move strings, "
                f"got {len(moves_list)}"
            )
        self.mesh = mesh
        self.power = power
        self.kernel = kernel
        self.scale = mesh.link_scale
        self.dead = mesh.dead_mask
        self._q = mesh.q
        self._rates_l = [float(r) for r in rates]
        src_u: List[int] = []
        src_v: List[int] = []
        su_l: List[int] = []
        sv_l: List[int] = []
        vb_l: List[int] = []
        hb_l: List[int] = []
        du_l: List[int] = []
        dv_l: List[int] = []
        for (src, snk) in endpoints:
            du = snk[0] - src[0]
            dv = snk[1] - src[1]
            su = 1 if du >= 0 else -1
            sv = 1 if dv >= 0 else -1
            vb, hb = direction_link_bases(mesh, su, sv)
            src_u.append(src[0])
            src_v.append(src[1])
            su_l.append(su)
            sv_l.append(sv)
            vb_l.append(vb)
            hb_l.append(hb)
            du_l.append(abs(du))
            dv_l.append(abs(dv))
        self._src_u, self._src_v = src_u, src_v
        self._su, self._sv = su_l, sv_l
        self._vbase, self._hbase = vb_l, hb_l
        self._du, self._dv = du_l, dv_l
        self._init_grading()
        self._load(moves_list)

    # ------------------------------------------------------------------
    # construction internals
    # ------------------------------------------------------------------
    def _init_grading(self) -> None:
        """Extract the scalar fast-path coefficients from the power model.

        The discrete graded tables are read straight off the model's
        cached arrays so the per-level powers are the *same floats* the
        NumPy path looks up; continuous models (vectorised ``pow``) and
        models without the graded-table protocol disable the scalar path.
        """
        # local import: repro.core.power sits above repro.mesh in the
        # layering, but only its OVERLOAD constant is needed here
        from repro.core.power import OVERLOAD

        tables = getattr(self.power, "_graded_tables", None)
        freqs = level_powers = None
        if tables is not None:
            freqs, level_powers, max_power = tables
        if freqs is None:
            self._scalar = False
            self._freqs_l = self._lvl_l = None
            self._pen0 = 0.0
        else:
            self._scalar = True
            self._freqs_l = freqs.tolist()
            self._lvl_l = level_powers.tolist()
            self._pen0 = max_power * OVERLOAD
        self._bw = float(self.power.bandwidth)
        self._thresh = self._bw * (1 + 1e-12)
        self._scale_l = None if self.scale is None else self.scale.tolist()
        self._dead_l = None if self.dead is None else self.dead.tolist()
        # observable fast-path tier (REPRO_NATIVE): the native kernels
        # mirror the *scalar* grading contract, so continuous models stay
        # on the Python tier even when the extension is available
        if self._scalar:
            from repro.native import native_kernels

            self.tier = "python" if native_kernels() is None else "native"
        else:
            self.tier = "python"

    def _load(self, moves_list: Sequence[str]) -> None:
        """(Re)build every maintained structure from a routing snapshot."""
        kernel = self.kernel
        vmask = kernel.routing_vmask([str(m) for m in moves_list])
        flat_links = kernel.links(vmask)
        # bincount accumulates in hop order — communication by
        # communication, hop by hop — the exact float-addition order of
        # the scalar reference loop
        self.loads = kernel.loads(vmask)
        self._loads_l = self.loads.tolist()
        self._fstash = None
        self.moves = []
        self.links = []
        self._mstr = []
        self._pos = []
        self._cumv = []
        self._link_comms = [set() for _ in range(self.mesh.num_links)]
        link_comms = self._link_comms
        starts = kernel.starts
        lengths = kernel.lengths
        for i in range(kernel.num_comms):
            lo = int(starts[i])
            n = int(lengths[i])
            mv = str(moves_list[i])
            lids = flat_links[lo : lo + n].tolist()
            self.moves.append(list(mv))
            self.links.append(lids)
            for lid in lids:
                link_comms[lid].add(i)
            self._mstr.append(mv)
            self._pos.append(flip_corners(mv))
            cum = [0] * (n + 1)
            acc = 0
            for k, ch in enumerate(mv):
                if ch == MOVE_V:
                    acc += 1
                cum[k + 1] = acc
            self._cumv.append(cum)
        if self._scalar:
            lp = self._link_power_scalar
            self._plist = [lp(x, lid) for lid, x in enumerate(self._loads_l)]
        else:
            self._plist = None
        self.cost = self.power.total_power_graded(
            self.loads, scale=self.scale, dead=self.dead
        )

    # ------------------------------------------------------------------
    # scalar graded power (bit-identical replica of link_power_graded)
    # ------------------------------------------------------------------
    def _link_power_scalar(self, load: float, lid: int) -> float:
        """One link's graded power — same floats as the NumPy element."""
        if not load > 0.0:
            return 0.0
        if self._dead_l is not None and self._dead_l[lid]:
            return self._pen0 * (1.0 + load / self._bw)
        if load > self._thresh:
            return self._pen0 * (1.0 + (load - self._bw) / self._bw)
        # loads in (bw, bw*(1+1e-12)] are tolerated, not overloaded — cap
        # before the level scan exactly like the NumPy path's minimum()
        capped = load if load < self._bw else self._bw
        freqs = self._freqs_l
        k = 0
        while freqs[k] < capped:
            k += 1
        base = self._lvl_l[k]
        if self._scale_l is not None:
            base = base * self._scale_l[lid]
        return base

    def _graded_delta_scalar(self, lids, dls) -> float:
        """Scalar ``graded_power_delta``: old sums then new sums, in order.

        The old-side powers come from the maintained per-link power cache
        (``_plist[lid]`` always equals ``_link_power_scalar`` of the
        current load) — only the hypothetical new loads are evaluated.
        """
        loads_l = self._loads_l
        plist = self._plist
        lp = self._link_power_scalar
        olds_p: List[float] = []
        news_p: List[float] = []
        for lid, d in zip(lids, dls):
            new = loads_l[lid] + d
            if new < -1e-9:
                raise InvalidParameterError(
                    "load delta would drive a link negative"
                )
            if new < 0.0:
                new = 0.0
            olds_p.append(plist[lid])
            news_p.append(lp(new, lid))
        return _pairwise_sum(news_p) - _pairwise_sum(olds_p)

    def _graded_delta(self, deltas: Dict[int, float]) -> float:
        """Graded-cost change of a per-link load diff (either tier)."""
        if self._scalar and len(deltas) <= _PW_BLOCK:
            return self._graded_delta_scalar(deltas.keys(), deltas.values())
        return _graded_power_delta(
            self.power, self.loads, deltas, scale=self.scale, dead=self.dead
        )

    # ------------------------------------------------------------------
    # corner-flip geometry (O(1))
    # ------------------------------------------------------------------
    def _flip_new_links(self, ci: int, j: int) -> Tuple[int, int]:
        """Link ids of the flipped corner's two replacement hops."""
        mv = self.moves[ci]
        a, b = mv[j], mv[j + 1]
        cv = self._cumv[ci][j]
        su, sv = self._su[ci], self._sv[ci]
        u = self._src_u[ci] + su * cv
        v = self._src_v[ci] + sv * (j - cv)
        q = self._q
        if b == MOVE_V:
            n1 = self._vbase[ci] + u * q + v
            u += su
        else:
            n1 = self._hbase[ci] + u * (q - 1) + v
            v += sv
        if a == MOVE_V:
            n2 = self._vbase[ci] + u * q + v
        else:
            n2 = self._hbase[ci] + u * (q - 1) + v
        return n1, n2

    def flip_links(
        self, ci: int, j: int
    ) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """Old and new link pairs for the corner flip ``(ci, j)``.

        Returns ``((old_j, old_j1), (new_j, new_j1))``.  Raises when the
        two moves are equal (nothing to flip).
        """
        mv = self.moves[ci]
        if not 0 <= j < len(mv) - 1:
            raise InvalidParameterError(
                f"flip position {j} out of range for a {len(mv)}-hop path"
            )
        if mv[j] == mv[j + 1]:
            raise InvalidParameterError(
                f"moves {j} and {j + 1} of communication {ci} are both "
                f"{mv[j]!r}; corner flips need distinct moves"
            )
        n1, n2 = self._flip_new_links(ci, j)
        lks = self.links[ci]
        return (lks[j], lks[j + 1]), (n1, n2)

    # ------------------------------------------------------------------
    # corner-flip grading
    # ------------------------------------------------------------------
    def flip_dcost(self, ci: int, j: int) -> float:
        """Graded-cost change of corner flip ``(ci, j)`` (score only).

        The caller warrants ``(ci, j)`` is a legal corner (taken from
        :meth:`flip_pos`); no deltas dict is materialised — commit with
        :meth:`commit_flip` on acceptance.
        """
        lks = self.links[ci]
        o1, o2 = lks[j], lks[j + 1]
        n1, n2 = self._flip_new_links(ci, j)
        r = self._rates_l[ci]
        if not self._scalar:
            return _graded_power_delta(
                self.power,
                self.loads,
                {o1: -r, o2: -r, n1: r, n2: r},
                scale=self.scale,
                dead=self.dead,
            )
        # unrolled scalar tier: old powers summed in delta order (from the
        # per-link power cache), then new powers in the same order — the
        # sequential accumulation NumPy applies to sums of fewer than 8
        # elements
        loads_l = self._loads_l
        w1 = loads_l[o1] - r
        w2 = loads_l[o2] - r
        if w1 < -1e-9 or w2 < -1e-9:
            raise InvalidParameterError(
                "load delta would drive a link negative"
            )
        if w1 < 0.0:
            w1 = 0.0
        if w2 < 0.0:
            w2 = 0.0
        w3 = loads_l[n1] + r
        w4 = loads_l[n2] + r
        lp = self._link_power_scalar
        p1 = lp(w1, o1)
        p2 = lp(w2, o2)
        p3 = lp(w3, n1)
        p4 = lp(w4, n2)
        # stash the evaluation so an immediately following commit_flip of
        # the same corner reuses the geometry, loads and powers verbatim
        self._fstash = (ci, j, n1, n2, w1, w2, w3, w4, p1, p2, p3, p4)
        plist = self._plist
        return (p1 + p2 + p3 + p4) - (
            plist[o1] + plist[o2] + plist[n1] + plist[n2]
        )

    def flip_delta(self, ci: int, j: int) -> Tuple[Dict[int, float], float]:
        """Load deltas and graded-cost change of corner flip ``(ci, j)``."""
        (o1, o2), (n1, n2) = self.flip_links(ci, j)
        r = self._rates_l[ci]
        deltas = {o1: -r, o2: -r, n1: r, n2: r}
        return deltas, self._graded_delta(deltas)

    def flip_dcost_batch(self, cands: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Graded-cost change of every candidate flip, one NumPy pass.

        ``cands`` is a sequence of legal ``(ci, j)`` corners (a TABU
        neighbourhood, a lockstep chain front).  Equivalent to calling
        :meth:`flip_dcost` per candidate — each row's old/new powers are
        graded elementwise and summed over the same 4-element segments in
        the same order — but with one ``link_power_graded`` call for the
        whole candidate set instead of ``len(cands)`` Python evaluations.
        """
        links = self.links
        moves = self.moves
        rates = self._rates_l
        cumv = self._cumv
        src_u, src_v = self._src_u, self._src_v
        su_l, sv_l = self._su, self._sv
        vb_l, hb_l = self._vbase, self._hbase
        q = self._q
        qm1 = q - 1
        rows = []
        rrow = []
        rows_append = rows.append
        rrow_append = rrow.append
        for ci, j in cands:
            lks = links[ci]
            mv = moves[ci]
            cv = cumv[ci][j]
            su = su_l[ci]
            u = src_u[ci] + su * cv
            v = src_v[ci] + sv_l[ci] * (j - cv)
            if mv[j + 1] == MOVE_V:
                n1 = vb_l[ci] + u * q + v
                u += su
            else:
                n1 = hb_l[ci] + u * qm1 + v
                v += sv_l[ci]
            if mv[j] == MOVE_V:
                n2 = vb_l[ci] + u * q + v
            else:
                n2 = hb_l[ci] + u * qm1 + v
            rows_append((lks[j], lks[j + 1], n1, n2))
            rrow_append(rates[ci])
        lids = np.array(rows, dtype=np.int64).reshape(len(cands), 4)
        dls = np.multiply.outer(
            np.array(rrow, dtype=np.float64),
            np.array([-1.0, -1.0, 1.0, 1.0]),
        )
        old = self.loads[lids]
        new = old + dls
        if len(cands) and new.min() < -1e-9:
            raise InvalidParameterError(
                "load delta would drive a link negative"
            )
        new = np.maximum(new, 0.0)
        both = np.concatenate([old, new], axis=1)
        sc = dd = None
        if self.scale is not None:
            s = self.scale[lids]
            sc = np.concatenate([s, s], axis=1)
        if self.dead is not None:
            d = self.dead[lids]
            dd = np.concatenate([d, d], axis=1)
        graded = self.power.link_power_graded(both, scale=sc, dead=dd)
        return graded[:, 4:].sum(axis=1) - graded[:, :4].sum(axis=1)

    # ------------------------------------------------------------------
    # commits
    # ------------------------------------------------------------------
    def _bump(self, lid: int, d: float) -> None:
        """Apply one link's load change to both load mirrors, clamped,
        and refresh the link's cached graded power."""
        val = self._loads_l[lid] + d
        if val < 0:
            val = 0.0
        self._loads_l[lid] = val
        self.loads[lid] = val
        if self._plist is not None:
            self._plist[lid] = self._link_power_scalar(val, lid)

    def _toggle_corner(self, ci: int, k: int) -> None:
        """Resync corner ``k``'s membership in the flip-position index."""
        mv = self.moves[ci]
        pos = self._pos[ci]
        if mv[k] != mv[k + 1]:
            if k not in pos:
                insort(pos, k)
        elif k in pos:
            pos.remove(k)

    def commit_flip(self, ci: int, j: int, dcost: float) -> None:
        """Commit corner flip ``(ci, j)`` whose cost change is ``dcost``."""
        st = self._fstash
        self._fstash = None  # any commit invalidates a pending evaluation
        if st is not None and st[0] == ci and st[1] == j:
            # reuse the immediately preceding flip_dcost evaluation: same
            # new-link geometry, clamped loads and graded powers verbatim
            n1, n2 = st[2], st[3]
        else:
            n1, n2 = self._flip_new_links(ci, j)
            st = None
        mv = self.moves[ci]
        lks = self.links[ci]
        o1, o2 = lks[j], lks[j + 1]
        mv[j], mv[j + 1] = mv[j + 1], mv[j]
        lks[j] = n1
        lks[j + 1] = n2
        link_comms = self._link_comms
        link_comms[o1].discard(ci)
        link_comms[o2].discard(ci)
        link_comms[n1].add(ci)
        link_comms[n2].add(ci)
        self._cumv[ci][j + 1] = self._cumv[ci][j] + (1 if mv[j] == MOVE_V else 0)
        s = self._mstr[ci]
        self._mstr[ci] = s[:j] + s[j + 1] + s[j] + s[j + 2 :]
        if j > 0:
            self._toggle_corner(ci, j - 1)
        if j + 2 < len(mv):
            self._toggle_corner(ci, j + 1)
        if st is not None:
            loads_l = self._loads_l
            loads = self.loads
            plist = self._plist
            w1, w2, w3, w4 = st[4], st[5], st[6], st[7]
            loads_l[o1] = w1
            loads_l[o2] = w2
            loads_l[n1] = w3
            loads_l[n2] = w4
            loads[o1] = w1
            loads[o2] = w2
            loads[n1] = w3
            loads[n2] = w4
            plist[o1] = st[8]
            plist[o2] = st[9]
            plist[n1] = st[10]
            plist[n2] = st[11]
        else:
            r = self._rates_l[ci]
            self._bump(o1, -r)
            self._bump(o2, -r)
            self._bump(n1, r)
            self._bump(n2, r)
        self.cost += dcost

    def apply_flip(
        self, ci: int, j: int, deltas: Dict[int, float], dcost: float
    ) -> None:
        """Commit a corner flip whose delta dict was already evaluated."""
        self._fstash = None
        n1, n2 = self._flip_new_links(ci, j)
        mv = self.moves[ci]
        lks = self.links[ci]
        o1, o2 = lks[j], lks[j + 1]
        mv[j], mv[j + 1] = mv[j + 1], mv[j]
        lks[j] = n1
        lks[j + 1] = n2
        link_comms = self._link_comms
        link_comms[o1].discard(ci)
        link_comms[o2].discard(ci)
        link_comms[n1].add(ci)
        link_comms[n2].add(ci)
        self._cumv[ci][j + 1] = self._cumv[ci][j] + (1 if mv[j] == MOVE_V else 0)
        s = self._mstr[ci]
        self._mstr[ci] = s[:j] + s[j + 1] + s[j] + s[j + 2 :]
        if j > 0:
            self._toggle_corner(ci, j - 1)
        if j + 2 < len(mv):
            self._toggle_corner(ci, j + 1)
        for lid, d in deltas.items():
            self._bump(lid, d)
        self.cost += dcost

    # ------------------------------------------------------------------
    # full-path resamples
    # ------------------------------------------------------------------
    def _trusted_links(self, ci: int, moves: str) -> List[int]:
        """Link ids of a trusted move string, scalar incremental walk."""
        u = self._src_u[ci]
        v = self._src_v[ci]
        su, sv = self._su[ci], self._sv[ci]
        vb, hb = self._vbase[ci], self._hbase[ci]
        q = self._q
        out: List[int] = []
        append = out.append
        for ch in moves:
            if ch == MOVE_V:
                append(vb + u * q + v)
                u += su
            else:
                append(hb + u * (q - 1) + v)
                v += sv
        return out

    def resample_eval(
        self, ci: int, new_moves: str
    ) -> Tuple[List[int], Dict[int, float], float]:
        """Deltas and cost change if ``ci`` switched to ``new_moves``.

        Trusted-path variant: ``new_moves`` comes from a generator that is
        legal by construction (:meth:`repro.mesh.paths.CommDag.
        random_moves`, a snapshot), so the move string is converted
        without re-validation.
        """
        new_links = self._trusted_links(ci, new_moves)
        deltas = _path_swap_deltas(
            self.links[ci], new_links, self._rates_l[ci]
        )
        return new_links, deltas, self._graded_delta(deltas)

    def commit_resample(
        self,
        ci: int,
        new_moves: str,
        new_links: List[int],
        deltas: Dict[int, float],
        dcost: float,
    ) -> None:
        """Commit a path resample whose delta was already evaluated."""
        self._fstash = None
        link_comms = self._link_comms
        for lid in self.links[ci]:
            link_comms[lid].discard(ci)
        for lid in new_links:
            link_comms[lid].add(ci)
        self.moves[ci] = list(new_moves)
        self.links[ci] = list(new_links)
        self._mstr[ci] = str(new_moves)
        self._pos[ci] = flip_corners(new_moves)
        cum = self._cumv[ci]
        acc = 0
        for k, ch in enumerate(new_moves):
            if ch == MOVE_V:
                acc += 1
            cum[k + 1] = acc
        for lid, d in deltas.items():
            self._bump(lid, d)
        self.cost += dcost

    # ------------------------------------------------------------------
    # snapshots and queries
    # ------------------------------------------------------------------
    def snapshot(self) -> List[str]:
        """Current move strings (copy), one per communication."""
        return list(self._mstr)

    def restore(self, snapshot: Sequence[str]) -> None:
        """Reset to a previously captured snapshot (full rebuild)."""
        self._load(snapshot)

    def move_str(self, ci: int) -> str:
        """Current move string of communication ``ci`` (maintained)."""
        return self._mstr[ci]

    def flip_pos(self, ci: int) -> List[int]:
        """Flippable corner positions of ``ci``, ascending (maintained).

        The returned list is the live index — treat it as read-only.
        """
        return self._pos[ci]

    def recompute_cost(self) -> float:
        """From-scratch graded cost (drift check; also resyncs ``cost``)."""
        self.cost = self.power.total_power_graded(
            self.loads, scale=self.scale, dead=self.dead
        )
        return self.cost

    def mutable_comms(self) -> List[int]:
        """Communications with more than one Manhattan path (flippable)."""
        return [
            i
            for i in range(len(self.moves))
            if self._du[i] > 0 and self._dv[i] > 0
        ]

    def comms_using(self, lid: int) -> List[int]:
        """Communications whose current path crosses link ``lid``.

        Served from the maintained link→communications index (Manhattan
        paths are monotone, so each path crosses a link at most once and
        set semantics are exact); ascending, like the list-scan it
        replaces.
        """
        return sorted(self._link_comms[lid])

    # ------------------------------------------------------------------
    # greedy re-insertion (warm-start repair)
    # ------------------------------------------------------------------
    def greedy_moves(self, ci: int, *, bwd=None) -> str:
        """Least-loaded greedy move string for ``ci`` on the current loads.

        Replicates SG's walk (:mod:`repro.heuristics.greedy`): among the at
        most two Manhattan-feasible next hops take the lighter link,
        breaking ties toward the straight src→snk diagonal, a residual tie
        toward the horizontal hop.  ``ci``'s **own** current contribution
        is subtracted from every link it crosses, so the walk scores the
        mesh as if the communication were being freshly re-inserted.
        ``bwd`` optionally constrains the walk to hops whose head can
        still reach the sink over alive links (the backward table of
        :meth:`repro.mesh.paths.CommDag.live_reachability`), exactly like
        SG's fault-aware mode.
        """
        loads_l = self._loads_l
        rate = self._rates_l[ci]
        own = set(self.links[ci])
        q = self._q
        su, sv = self._su[ci], self._sv[ci]
        vb, hb = self._vbase[ci], self._hbase[ci]
        src_u, src_v = self._src_u[ci], self._src_v[ci]
        snk_u = src_u + su * self._du[ci]
        snk_v = src_v + sv * self._dv[ci]
        alive = None if bwd is None else self.mesh.link_mask
        ddu = snk_u - src_u
        ddv = snk_v - src_v
        u, v = src_u, src_v
        x = y = 0  # progress coordinates (only consulted when bwd set)
        out: List[str] = []
        append = out.append
        while u != snk_u or v != snk_v:
            if u == snk_u:
                move, lid = MOVE_H, hb + u * (q - 1) + v
            elif v == snk_v:
                move, lid = MOVE_V, vb + u * q + v
            else:
                lv = vb + u * q + v
                lh = hb + u * (q - 1) + v
                forced = None
                if bwd is not None:
                    viab_v = alive[lv] and bwd[x + 1, y]
                    viab_h = alive[lh] and bwd[x, y + 1]
                    if viab_v != viab_h:
                        forced = (MOVE_V, lv) if viab_v else (MOVE_H, lh)
                if forced is not None:
                    move, lid = forced
                else:
                    load_v = loads_l[lv] - rate if lv in own else loads_l[lv]
                    load_h = loads_l[lh] - rate if lh in own else loads_l[lh]
                    if load_v < load_h:
                        move, lid = MOVE_V, lv
                    elif load_h < load_v:
                        move, lid = MOVE_H, lh
                    else:
                        # tie: head core closest to the src→snk diagonal
                        # (|cross product|, as SG's diagonal_offset), a
                        # residual tie prefers the horizontal hop
                        dv_off = abs(
                            ddu * (v - src_v) - ddv * (u + su - src_u)
                        )
                        dh_off = abs(
                            ddu * (v + sv - src_v) - ddv * (u - src_u)
                        )
                        if dv_off < dh_off:
                            move, lid = MOVE_V, lv
                        else:
                            move, lid = MOVE_H, lh
            append(move)
            if move == MOVE_V:
                u += su
                x += 1
            else:
                v += sv
                y += 1
        return "".join(out)

    def greedy_reroute(
        self, ci: int, *, bwd=None
    ) -> Tuple[str, List[int], Dict[int, float], float]:
        """Greedy re-insertion proposal for ``ci``.

        The :meth:`greedy_moves` path with its resample delta against the
        current state — ``(new_moves, new_links, deltas, dcost)``, ready
        for :meth:`commit_resample`.
        """
        new_moves = self.greedy_moves(ci, bwd=bwd)
        new_links, deltas, dcost = self.resample_eval(ci, new_moves)
        return new_moves, new_links, deltas, dcost

    def most_loaded_links(self, k: int = 1) -> List[int]:
        """The ``k`` most loaded link ids, heaviest first (ties arbitrary)."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        k = min(k, int(np.count_nonzero(self.loads)))
        if k == 0:
            return []
        idx = np.argpartition(self.loads, -k)[-k:]
        return [int(i) for i in idx[np.argsort(self.loads[idx])[::-1]]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({len(self.moves)} comms, "
            f"cost={self.cost:.6g})"
        )

"""Flat-array routing kernel: vectorised move→link conversion.

The hop-by-hop primitives of :mod:`repro.mesh.moves` rebuild every path
through Python-level :func:`~repro.mesh.topology.Mesh.link_between` calls —
fine for one path, ruinous inside heuristic inner loops that construct
thousands of them.  This module provides the batched equivalents:

* :func:`moves_to_vmask` / :func:`stack_vmasks` — move strings as ``bool``
  arrays (``True`` = vertical hop), the kernel's native representation;
* :func:`links_from_vmask` — link ids of one path, a row-batch of paths, or
  an arbitrarily-shaped move array, computed with a cumulative sum over the
  move array and O(1) link-id arithmetic (no per-hop Python);
* :func:`moves_to_links_array` — drop-in vectorised replacement for
  :func:`repro.mesh.moves.moves_to_links`, validating the move counts
  against the displacement before trusting the arithmetic;
* :class:`FlatRoutingKernel` — per-problem flattened hop metadata enabling
  *population-level* evaluation: the link ids and link loads of a whole
  batch of complete routings (one move string per communication per row) in
  a handful of NumPy operations.

Link ids follow the orientation-major layout documented in
:mod:`repro.mesh.topology`; the arithmetic below mirrors
``link_east/west/south/north`` without the bounds checks (inputs are either
validated once up front or come from trusted generators).
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from repro.mesh.diagonals import direction_of, direction_steps
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

#: byte value of the vertical move character
_ORD_V = ord("V")
_ORD_H = ord("H")


def moves_to_vmask(moves: str) -> np.ndarray:
    """Move string → boolean array (``True`` where the hop is vertical).

    Raises on characters outside ``{'H', 'V'}`` so downstream arithmetic
    never sees foreign moves.
    """
    buf = np.frombuffer(moves.encode("ascii"), dtype=np.uint8)
    vmask = buf == _ORD_V
    if not np.all(vmask | (buf == _ORD_H)):
        bad = set(moves) - {"H", "V"}
        raise InvalidParameterError(f"move string contains invalid moves {bad}")
    return vmask


def stack_vmasks(moves_list: Sequence[str]) -> np.ndarray:
    """Equal-length move strings → one boolean matrix (one row per string)."""
    if not moves_list:
        return np.zeros((0, 0), dtype=bool)
    length = len(moves_list[0])
    if any(len(m) != length for m in moves_list):
        raise InvalidParameterError(
            "stack_vmasks needs equal-length move strings"
        )
    buf = np.frombuffer("".join(moves_list).encode("ascii"), dtype=np.uint8)
    vmask = buf == _ORD_V
    if not np.all(vmask | (buf == _ORD_H)):
        bad = set("".join(moves_list)) - {"H", "V"}
        raise InvalidParameterError(f"move strings contain invalid moves {bad}")
    return vmask.reshape(len(moves_list), length)


def direction_link_bases(mesh: Mesh, su: int, sv: int) -> Tuple[int, int]:
    """Base offsets folding a direction into the dense link-id layout.

    Returns ``(vbase, hbase)`` such that, for a communication stepping
    ``(su, sv)``, the hop leaving tail core ``(u, v)`` has id

    * ``vbase + u*q + v`` when vertical (south ``2ne``; north folds the
      ``(u-1)`` shift into ``2ne + ns - q``),
    * ``hbase + u*(q-1) + v`` when horizontal (east ``0``; west folds the
      ``(v-1)`` shift into ``ne - 1``).

    This is the **single home** of the E/W/S/N id-block arithmetic of
    :class:`~repro.mesh.topology.Mesh` used by the fast paths (the kernel
    and the greedy hop loop); change the layout there and here, nowhere
    else.
    """
    ne, ns, q = mesh._ne, mesh._ns, mesh.q
    vbase = 2 * ne if su > 0 else 2 * ne + ns - q
    hbase = 0 if sv > 0 else ne - 1
    return vbase, hbase


def _link_ids_from_coords(
    mesh: Mesh,
    su: int,
    sv: int,
    u: np.ndarray,
    v: np.ndarray,
    vmask: np.ndarray,
) -> np.ndarray:
    """Link ids for hops leaving tail cores ``(u, v)`` along ``(su, sv)``.

    ``vmask`` selects vertical hops; see :func:`direction_link_bases` for
    the id arithmetic.
    """
    vbase, hbase = direction_link_bases(mesh, su, sv)
    q = mesh.q
    return np.where(vmask, vbase + u * q + v, hbase + u * (q - 1) + v)


def links_from_vmask(
    mesh: Mesh, src: Coord, su: int, sv: int, vmask: np.ndarray
) -> np.ndarray:
    """Link ids traversed by the move array ``vmask`` starting at ``src``.

    ``vmask`` may be 1-D (one path) or 2-D (a batch of same-length paths,
    one per row); the result has the same shape.  The caller guarantees the
    moves stay on the mesh (they come from a validated move string or a
    trusted generator) — there is no bounds checking here.
    """
    vm = vmask.astype(np.int64)
    # exclusive cumulative hop counts = progress coordinates of each tail
    x = np.cumsum(vm, axis=-1) - vm
    hm = 1 - vm
    y = np.cumsum(hm, axis=-1) - hm
    u = src[0] + su * x
    v = src[1] + sv * y
    return _link_ids_from_coords(mesh, su, sv, u, v, vmask)


MovesLike = Union[str, Sequence[str], np.ndarray]


def moves_to_links_array(
    mesh: Mesh, src: Coord, snk: Coord, moves: MovesLike
) -> np.ndarray:
    """Vectorised :func:`repro.mesh.moves.moves_to_links`.

    ``moves`` may be a move string, a sequence of move strings (a batch of
    candidate paths for the same ``src``/``snk`` pair), or a pre-converted
    boolean vmask array (1-D or 2-D).  Returns ``int64`` link ids with one
    row per input path.

    Move counts are validated against the displacement (the cheap part of
    :func:`~repro.mesh.moves.validate_moves`); the per-hop geometry then
    follows from arithmetic alone.
    """
    mesh.check_core(*src)
    mesh.check_core(*snk)
    du = abs(snk[0] - src[0])
    dv = abs(snk[1] - src[1])
    su, sv = direction_steps(direction_of(src, snk))
    if isinstance(moves, str):
        vmask = moves_to_vmask(moves)
    elif isinstance(moves, np.ndarray):
        vmask = moves.astype(bool, copy=False)
    else:
        vmask = stack_vmasks(moves)
    if vmask.shape[-1] != du + dv:
        raise InvalidParameterError(
            f"move array of length {vmask.shape[-1]} cannot join {src} to "
            f"{snk} (needs {du + dv} hops)"
        )
    nv = vmask.sum(axis=-1)
    if np.any(nv != du):
        raise InvalidParameterError(
            f"move array has {nv} V hops; {src} -> {snk} needs {du}"
        )
    return links_from_vmask(mesh, src, su, sv, vmask)


class FlatRoutingKernel:
    """Flattened per-hop metadata of a fixed communication set.

    One complete 1-MP routing assigns each communication a Manhattan move
    string whose length is fixed by its displacement, so a routing flattens
    into a single move array of ``total_hops = Σ lengths`` entries.  The
    kernel precomputes, per hop slot, the owning communication's source
    coordinates, direction steps and rate — after which converting any
    routing (or a whole population of routings) into link ids and link
    loads is pure NumPy.

    Parameters
    ----------
    mesh:
        The platform.
    endpoints:
        ``(src, snk)`` per communication, in problem order.
    rates:
        Communication rates, used as per-hop load weights.
    """

    __slots__ = (
        "mesh",
        "num_comms",
        "lengths",
        "total_hops",
        "starts",
        "_lengths_l",
        "_du",
        "_src_u",
        "_src_v",
        "_su",
        "_sv",
        "_south_base",
        "_west_base",
        "_hop_rates",
    )

    def __init__(
        self,
        mesh: Mesh,
        endpoints: Sequence[Tuple[Coord, Coord]],
        rates: Sequence[float],
    ):
        if len(endpoints) != len(rates):
            raise InvalidParameterError(
                f"{len(endpoints)} endpoint pairs vs {len(rates)} rates"
            )
        self.mesh = mesh
        self.num_comms = len(endpoints)
        lengths = np.empty(self.num_comms, dtype=np.int64)
        su_c = np.empty(self.num_comms, dtype=np.int64)
        sv_c = np.empty(self.num_comms, dtype=np.int64)
        src_u_c = np.empty(self.num_comms, dtype=np.int64)
        src_v_c = np.empty(self.num_comms, dtype=np.int64)
        vbase_c = np.empty(self.num_comms, dtype=np.int64)
        hbase_c = np.empty(self.num_comms, dtype=np.int64)
        du_c = np.empty(self.num_comms, dtype=np.int64)
        for i, (src, snk) in enumerate(endpoints):
            mesh.check_core(*src)
            mesh.check_core(*snk)
            su, sv = direction_steps(direction_of(src, snk))
            du_c[i] = abs(snk[0] - src[0])
            lengths[i] = du_c[i] + abs(snk[1] - src[1])
            su_c[i], sv_c[i] = su, sv
            src_u_c[i], src_v_c[i] = src
            vbase_c[i], hbase_c[i] = direction_link_bases(mesh, su, sv)
        self._du = du_c
        self.lengths = lengths
        self._lengths_l = lengths.tolist()
        self.total_hops = int(lengths.sum())
        self.starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # broadcast per-communication metadata onto the hop axis, with the
        # direction folded into per-hop link-id bases (see
        # direction_link_bases) so the V/H arithmetic vectorises across
        # communications with different direction steps
        self._src_u = np.repeat(src_u_c, lengths)
        self._src_v = np.repeat(src_v_c, lengths)
        self._su = np.repeat(su_c, lengths)
        self._sv = np.repeat(sv_c, lengths)
        self._south_base = np.repeat(vbase_c, lengths)
        self._west_base = np.repeat(hbase_c, lengths)
        rates_arr = np.asarray(rates, dtype=np.float64)
        self._hop_rates = np.repeat(rates_arr, lengths)
        for arr in (
            self._du,
            self.lengths,
            self.starts,
            self._src_u,
            self._src_v,
            self._su,
            self._sv,
            self._south_base,
            self._west_base,
            self._hop_rates,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    def routing_vmask(self, moves_list: Sequence[str]) -> np.ndarray:
        """One routing's move strings → flat boolean hop array.

        Validates per communication — string length and vertical-hop count
        against the displacement — so a malformed genome raises here
        instead of silently yielding wrong link geometry downstream
        (:meth:`links`/:meth:`loads` have no bounds checks by design).
        """
        if len(moves_list) != self.num_comms:
            raise InvalidParameterError(
                f"expected {self.num_comms} move strings, got {len(moves_list)}"
            )
        if self.num_comms == 0:
            return np.zeros(0, dtype=bool)
        for i, m in enumerate(moves_list):
            if len(m) != self.lengths[i]:
                raise InvalidParameterError(
                    f"move string {i} has {len(m)} hops, its communication "
                    f"needs {self.lengths[i]}"
                )
        flat = "".join(moves_list)
        buf = np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
        vmask = buf == _ORD_V
        if not np.all(vmask | (buf == _ORD_H)):
            bad = set(flat) - {"H", "V"}
            raise InvalidParameterError(
                f"move strings contain invalid moves {bad}"
            )
        nv = np.add.reduceat(vmask.astype(np.int64), self.starts)
        if not np.array_equal(nv, self._du):
            i = int(np.nonzero(nv != self._du)[0][0])
            raise InvalidParameterError(
                f"move string {i} has {nv[i]} V hops, its communication "
                f"needs {self._du[i]}"
            )
        return vmask

    def population_vmask(
        self, genomes: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """A population of routings → ``(len(genomes), total_hops)`` matrix.

        The whole population is validated and converted in one pass: one
        string join, one ``frombuffer``, and a single ``reduceat`` for the
        per-communication V-hop counts of every genome — the per-genome
        Python loop this replaces dominated the GA's generation cost.
        Malformed genomes fall back to :meth:`routing_vmask` for its
        precise per-communication error.
        """
        if not genomes:
            return np.zeros((0, self.total_hops), dtype=bool)
        nc = self.num_comms
        lengths_l = self._lengths_l
        for g in genomes:
            if len(g) != nc:
                raise InvalidParameterError(
                    f"expected {nc} move strings, got {len(g)}"
                )
            if list(map(len, g)) != lengths_l:
                self.routing_vmask(list(g))  # raises the precise error
        flat = "".join(["".join(g) for g in genomes])
        buf = np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
        vmask = buf == _ORD_V
        if not np.all(vmask | (buf == _ORD_H)):
            bad = set(flat) - {"H", "V"}
            raise InvalidParameterError(
                f"move strings contain invalid moves {bad}"
            )
        vmask = vmask.reshape(len(genomes), self.total_hops)
        if nc:
            nv = np.add.reduceat(vmask.astype(np.int64), self.starts, axis=1)
            if not np.array_equal(nv, np.broadcast_to(self._du, nv.shape)):
                row = int(np.nonzero((nv != self._du).any(axis=1))[0][0])
                self.routing_vmask(list(genomes[row]))  # precise error
        return vmask

    def links(self, vmask: np.ndarray) -> np.ndarray:
        """Link id of every hop (segmented-cumsum kernel).

        ``vmask`` is a flat hop array (``total_hops``,) or a population
        matrix (``P × total_hops``); the output has the same shape.
        """
        vm = vmask.astype(np.int64)
        cum_v = np.cumsum(vm, axis=-1)
        hm = 1 - vm
        cum_h = np.cumsum(hm, axis=-1)
        # reset the cumulative counts at each communication boundary
        starts = self.starts
        base_v = np.take(cum_v, starts, axis=-1) - np.take(vm, starts, axis=-1)
        base_h = np.take(cum_h, starts, axis=-1) - np.take(hm, starts, axis=-1)
        lengths = self.lengths
        x = cum_v - vm - np.repeat(base_v, lengths, axis=-1)
        y = cum_h - hm - np.repeat(base_h, lengths, axis=-1)
        u = self._src_u + self._su * x
        v = self._src_v + self._sv * y
        q = self.mesh.q
        vlid = self._south_base + u * q + v
        hlid = self._west_base + u * (q - 1) + v
        return np.where(vmask, vlid, hlid)

    def loads(self, vmask: np.ndarray) -> np.ndarray:
        """Link-load vector(s) of the routing(s) encoded by ``vmask``.

        Returns shape ``(num_links,)`` for a flat hop array and
        ``(P, num_links)`` for a population matrix — ready for
        :meth:`repro.core.power.PowerModel.total_power_graded_many`.
        """
        links = self.links(vmask)
        nl = self.mesh.num_links
        if links.ndim == 1:
            return np.bincount(
                links, weights=self._hop_rates, minlength=nl
            ).astype(np.float64)
        pop = links.shape[0]
        offset = (np.arange(pop, dtype=np.int64) * nl)[:, None]
        flat = (links + offset).ravel()
        weights = np.broadcast_to(self._hop_rates, links.shape).ravel()
        return np.bincount(flat, weights=weights, minlength=pop * nl).reshape(
            pop, nl
        )

    # ------------------------------------------------------------------
    # scenario threading (fault masks and power scaling)
    # ------------------------------------------------------------------
    def dead_hop_mask(self, vmask: np.ndarray) -> np.ndarray:
        """Boolean array (same shape as ``vmask``) marking hops on dead links.

        All-``False`` on pristine meshes without computing link ids.
        """
        dead = self.mesh.dead_mask
        if dead is None:
            return np.zeros(vmask.shape, dtype=bool)
        return dead[self.links(vmask)]

    def uses_dead_link(self, vmask: np.ndarray) -> np.ndarray:
        """Per-routing flag: does the routing traverse any dead link?

        Returns a scalar-shaped array for a flat hop array and a length-
        ``P`` vector for a population matrix.
        """
        return self.dead_hop_mask(vmask).any(axis=-1)

    def graded_powers(self, power, vmask: np.ndarray):
        """Graded total power of the routing(s), mesh profile threaded.

        Pristine meshes reduce to the plain
        :meth:`~repro.core.power.PowerModel.total_power_graded` /
        ``total_power_graded_many`` calls bit for bit; faulty or
        heterogeneous meshes feed the mask / scale vectors through in the
        same single NumPy pass.
        """
        loads = self.loads(vmask)
        mesh = self.mesh
        if loads.ndim == 1:
            return power.total_power_graded(
                loads, scale=mesh.link_scale, dead=mesh.dead_mask
            )
        return power.total_power_graded_many(
            loads, scale=mesh.link_scale, dead=mesh.dead_mask
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatRoutingKernel({self.num_comms} comms, "
            f"{self.total_hops} hops)"
        )

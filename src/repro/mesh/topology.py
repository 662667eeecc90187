"""Mesh topology with dense link ids and vectorised link metadata.

The CMP platform of the paper (Section 3.1): ``p × q`` homogeneous cores on
a rectangular grid, with a pair of unidirectional links between each pair of
vertically or horizontally adjacent cores.

Link ids are dense integers laid out orientation-major so that the load of
every link in the chip fits in one flat ``numpy`` vector:

* ``E`` links ``(u, v) -> (u, v+1)`` occupy ids ``[0, p*(q-1))``,
* ``W`` links ``(u, v) -> (u, v-1)`` occupy the next ``p*(q-1)`` ids,
* ``S`` links ``(u, v) -> (u+1, v)`` the next ``(p-1)*q`` ids,
* ``N`` links ``(u, v) -> (u-1, v)`` the last ``(p-1)*q`` ids.

All id arithmetic is O(1); the reverse mapping and per-link coordinate
arrays are precomputed once per mesh.

Beyond the paper's pristine fabric, a mesh may carry an immutable *link
profile* for the scenario engine (:mod:`repro.scenarios`):

* ``link_mask`` — per-link availability; a ``False`` entry is a faulty /
  disabled link that no routing may use (any traffic on it makes the
  routing invalid);
* ``link_scale`` — per-link power multiplier modelling heterogeneous or
  derated regions (hotspot stripes, border derating): link ``l`` dissipates
  ``link_scale[l]`` times the homogeneous model's power for its load.

Both default to ``None`` — the pristine ``(p, q)`` mesh — in which case no
arrays are allocated, equality/hash reduce to ``(p, q)`` exactly as before
and every fast path in the kernel and heuristics stays untouched.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

#: a dead link named either by id or by its (tail, head) coordinates
LinkRef = Union[int, Tuple[Coord, Coord]]


class Orientation(enum.Enum):
    """Direction a unidirectional link points to, in grid terms."""

    EAST = "E"  #: column + 1
    WEST = "W"  #: column - 1
    SOUTH = "S"  #: row + 1
    NORTH = "N"  #: row - 1

    @property
    def is_horizontal(self) -> bool:
        return self in (Orientation.EAST, Orientation.WEST)


class Mesh:
    """A ``p × q`` mesh CMP with two unidirectional links per adjacency.

    Parameters
    ----------
    p:
        Number of rows (``u`` coordinate runs over ``0..p-1``).
    q:
        Number of columns (``v`` coordinate runs over ``0..q-1``).

    link_mask:
        Optional per-link availability vector (``True`` = usable).  ``None``
        (default) means all links are available; an all-``True`` vector is
        normalised to ``None``.
    link_scale:
        Optional per-link power multiplier vector (all entries ``> 0``).
        ``None`` (default) means homogeneous; an all-ones vector is
        normalised to ``None``.

    Notes
    -----
    The mesh is immutable.  Two pristine meshes with equal ``(p, q)``
    compare equal and hash equally, so meshes can key caches; profiled
    meshes additionally compare their mask/scale vectors bit for bit.
    """

    __slots__ = (
        "p",
        "q",
        "num_cores",
        "num_links",
        "link_mask",
        "link_scale",
        "_dead_mask",
        "_hash",
        "_ne",
        "_ns",
        "_tail_u",
        "_tail_v",
        "_head_u",
        "_head_v",
        "_horizontal_mask",
    )

    def __init__(
        self,
        p: int,
        q: int,
        link_mask: Optional[np.ndarray] = None,
        link_scale: Optional[np.ndarray] = None,
    ):
        if not (isinstance(p, (int, np.integer)) and isinstance(q, (int, np.integer))):
            raise InvalidParameterError(f"p and q must be integers, got {p!r}, {q!r}")
        if p < 1 or q < 1:
            raise InvalidParameterError(f"mesh dimensions must be >= 1, got {p}x{q}")
        self.p = int(p)
        self.q = int(q)
        self.num_cores = self.p * self.q
        self._ne = self.p * (self.q - 1)  # count of E (also of W) links
        self._ns = (self.p - 1) * self.q  # count of S (also of N) links
        self.num_links = 2 * (self._ne + self._ns)
        self._build_link_arrays()
        self._init_profile(link_mask, link_scale)

    def _build_link_arrays(self) -> None:
        """Precompute tail/head coordinates and orientation per link id."""
        n = self.num_links
        tail_u = np.empty(n, dtype=np.int64)
        tail_v = np.empty(n, dtype=np.int64)
        head_u = np.empty(n, dtype=np.int64)
        head_v = np.empty(n, dtype=np.int64)
        horiz = np.zeros(n, dtype=bool)
        for lid in range(n):
            (u, v), (u2, v2) = self._endpoints_slow(lid)
            tail_u[lid], tail_v[lid] = u, v
            head_u[lid], head_v[lid] = u2, v2
            horiz[lid] = u == u2
        for arr in (tail_u, tail_v, head_u, head_v, horiz):
            arr.setflags(write=False)
        self._tail_u, self._tail_v = tail_u, tail_v
        self._head_u, self._head_v = head_u, head_v
        self._horizontal_mask = horiz

    def _init_profile(
        self,
        link_mask: Optional[np.ndarray],
        link_scale: Optional[np.ndarray],
    ) -> None:
        """Validate, normalise and freeze the optional link profile."""
        n = self.num_links
        if link_mask is not None:
            mask = np.asarray(link_mask)
            if mask.shape != (n,):
                raise InvalidParameterError(
                    f"link_mask must have shape ({n},), got {mask.shape}"
                )
            if mask.dtype != bool:
                raise InvalidParameterError(
                    f"link_mask must be boolean, got dtype {mask.dtype}"
                )
            if mask.all():
                link_mask = None  # pristine in disguise
            else:
                link_mask = mask.copy()
                link_mask.setflags(write=False)
        if link_scale is not None:
            scale = np.asarray(link_scale, dtype=np.float64)
            if scale.shape != (n,):
                raise InvalidParameterError(
                    f"link_scale must have shape ({n},), got {scale.shape}"
                )
            if not np.all(np.isfinite(scale)) or np.any(scale <= 0):
                raise InvalidParameterError(
                    "link_scale entries must be finite and > 0"
                )
            if np.all(scale == 1.0):
                link_scale = None  # homogeneous in disguise
            else:
                link_scale = scale.copy()
                link_scale.setflags(write=False)
        self.link_mask = link_mask
        self.link_scale = link_scale
        if link_mask is None:
            self._dead_mask = None
        else:
            dead = ~link_mask
            dead.setflags(write=False)
            self._dead_mask = dead
        key: Tuple = ("Mesh", self.p, self.q)
        if link_mask is not None or link_scale is not None:
            key = key + (
                None if link_mask is None else link_mask.tobytes(),
                None if link_scale is None else link_scale.tobytes(),
            )
        self._hash = hash(key)

    # ------------------------------------------------------------------
    # link profile (scenario engine)
    # ------------------------------------------------------------------
    @property
    def is_pristine(self) -> bool:
        """True when the mesh carries no fault mask and no power scaling."""
        return self.link_mask is None and self.link_scale is None

    @property
    def dead_mask(self) -> Optional[np.ndarray]:
        """Boolean vector marking faulty links, or ``None`` when none are."""
        return self._dead_mask

    def is_alive(self, lid: int) -> bool:
        """True when link ``lid`` is available for routing."""
        if not 0 <= lid < self.num_links:
            raise InvalidParameterError(
                f"link id {lid} out of range [0, {self.num_links})"
            )
        return self.link_mask is None or bool(self.link_mask[lid])

    def dead_link_ids(self) -> List[int]:
        """Sorted ids of every faulty link (empty for pristine meshes)."""
        if self._dead_mask is None:
            return []
        return [int(l) for l in np.nonzero(self._dead_mask)[0]]

    def _resolve_link(self, ref: LinkRef) -> int:
        if isinstance(ref, (int, np.integer)):
            lid = int(ref)
            if not 0 <= lid < self.num_links:
                raise InvalidParameterError(
                    f"link id {lid} out of range [0, {self.num_links})"
                )
            return lid
        tail, head = ref
        return self.link_between(tuple(tail), tuple(head))

    def with_faults(self, dead: Iterable[LinkRef]) -> "Mesh":
        """Copy of this mesh with the given links additionally disabled.

        ``dead`` entries are link ids or ``(tail, head)`` coordinate pairs
        (each names one *directed* link; disable both directions of an
        adjacency by listing both).  Existing faults and scaling are kept.
        """
        mask = (
            np.ones(self.num_links, dtype=bool)
            if self.link_mask is None
            else self.link_mask.copy()
        )
        for ref in dead:
            mask[self._resolve_link(ref)] = False
        return Mesh(self.p, self.q, mask, self.link_scale)

    def with_link_scale(self, scale) -> "Mesh":
        """Copy of this mesh with a per-link power-scale vector applied.

        ``scale`` is either a full length-``num_links`` vector (replacing
        the current one) or a ``{link ref: factor}`` mapping multiplied
        onto the current scaling.  The fault mask is kept.
        """
        if isinstance(scale, dict):
            vec = (
                np.ones(self.num_links, dtype=np.float64)
                if self.link_scale is None
                else self.link_scale.copy()
            )
            for ref, factor in scale.items():
                vec[self._resolve_link(ref)] *= float(factor)
        else:
            vec = np.asarray(scale, dtype=np.float64)
        return Mesh(self.p, self.q, self.link_mask, vec)

    # ------------------------------------------------------------------
    # core indexing
    # ------------------------------------------------------------------
    def core_index(self, u: int, v: int) -> int:
        """Dense core id (row-major)."""
        self.check_core(u, v)
        return u * self.q + v

    def core_coords(self, idx: int) -> Coord:
        """Inverse of :meth:`core_index`."""
        if not 0 <= idx < self.num_cores:
            raise InvalidParameterError(
                f"core index {idx} out of range [0, {self.num_cores})"
            )
        return divmod(idx, self.q)

    def check_core(self, u: int, v: int) -> None:
        """Raise :class:`InvalidParameterError` unless ``(u, v)`` is on-grid."""
        if not (0 <= u < self.p and 0 <= v < self.q):
            raise InvalidParameterError(
                f"core ({u}, {v}) outside {self.p}x{self.q} mesh"
            )

    def cores(self) -> Iterator[Coord]:
        """Iterate over all core coordinates in row-major order."""
        for u in range(self.p):
            for v in range(self.q):
                yield (u, v)

    def succ(self, u: int, v: int) -> List[Coord]:
        """Neighbouring cores reachable by one outgoing link (paper's succ)."""
        self.check_core(u, v)
        out: List[Coord] = []
        if v + 1 < self.q:
            out.append((u, v + 1))
        if v - 1 >= 0:
            out.append((u, v - 1))
        if u + 1 < self.p:
            out.append((u + 1, v))
        if u - 1 >= 0:
            out.append((u - 1, v))
        return out

    # ------------------------------------------------------------------
    # link indexing
    # ------------------------------------------------------------------
    def link_east(self, u: int, v: int) -> int:
        """Id of link ``(u, v) -> (u, v+1)``."""
        self.check_core(u, v)
        if v + 1 >= self.q:
            raise InvalidParameterError(f"no east link from ({u}, {v})")
        return u * (self.q - 1) + v

    def link_west(self, u: int, v: int) -> int:
        """Id of link ``(u, v) -> (u, v-1)``."""
        self.check_core(u, v)
        if v - 1 < 0:
            raise InvalidParameterError(f"no west link from ({u}, {v})")
        return self._ne + u * (self.q - 1) + (v - 1)

    def link_south(self, u: int, v: int) -> int:
        """Id of link ``(u, v) -> (u+1, v)``."""
        self.check_core(u, v)
        if u + 1 >= self.p:
            raise InvalidParameterError(f"no south link from ({u}, {v})")
        return 2 * self._ne + u * self.q + v

    def link_north(self, u: int, v: int) -> int:
        """Id of link ``(u, v) -> (u-1, v)``."""
        self.check_core(u, v)
        if u - 1 < 0:
            raise InvalidParameterError(f"no north link from ({u}, {v})")
        return 2 * self._ne + self._ns + (u - 1) * self.q + v

    def link_between(self, tail: Coord, head: Coord) -> int:
        """Id of the directed link from ``tail`` to ``head``.

        Raises
        ------
        InvalidParameterError
            If the two cores are not adjacent on the grid.
        """
        (u, v), (u2, v2) = tail, head
        du, dv = u2 - u, v2 - v
        if (du, dv) == (0, 1):
            return self.link_east(u, v)
        if (du, dv) == (0, -1):
            return self.link_west(u, v)
        if (du, dv) == (1, 0):
            return self.link_south(u, v)
        if (du, dv) == (-1, 0):
            return self.link_north(u, v)
        raise InvalidParameterError(f"cores {tail} and {head} are not adjacent")

    def _endpoints_slow(self, lid: int) -> Tuple[Coord, Coord]:
        """Decode a link id into ``(tail, head)`` without the cached arrays."""
        if not 0 <= lid < self.num_links:
            raise InvalidParameterError(
                f"link id {lid} out of range [0, {self.num_links})"
            )
        if lid < self._ne:  # E
            u, v = divmod(lid, self.q - 1)
            return (u, v), (u, v + 1)
        lid2 = lid - self._ne
        if lid2 < self._ne:  # W
            u, vm1 = divmod(lid2, self.q - 1)
            return (u, vm1 + 1), (u, vm1)
        lid3 = lid2 - self._ne
        if lid3 < self._ns:  # S
            u, v = divmod(lid3, self.q)
            return (u, v), (u + 1, v)
        lid4 = lid3 - self._ns  # N
        um1, v = divmod(lid4, self.q)
        return (um1 + 1, v), (um1, v)

    def link_endpoints(self, lid: int) -> Tuple[Coord, Coord]:
        """``(tail, head)`` coordinates of link ``lid``."""
        if not 0 <= lid < self.num_links:
            raise InvalidParameterError(
                f"link id {lid} out of range [0, {self.num_links})"
            )
        return (
            (int(self._tail_u[lid]), int(self._tail_v[lid])),
            (int(self._head_u[lid]), int(self._head_v[lid])),
        )

    def link_orientation(self, lid: int) -> Orientation:
        """Which way link ``lid`` points."""
        (u, v), (u2, v2) = self.link_endpoints(lid)
        if u2 == u:
            return Orientation.EAST if v2 > v else Orientation.WEST
        return Orientation.SOUTH if u2 > u else Orientation.NORTH

    def is_horizontal(self, lid: int) -> bool:
        """True for E/W links, False for S/N links."""
        if not 0 <= lid < self.num_links:
            raise InvalidParameterError(
                f"link id {lid} out of range [0, {self.num_links})"
            )
        return bool(self._horizontal_mask[lid])

    def opposite(self, lid: int) -> int:
        """Id of the link in the opposite direction between the same cores."""
        tail, head = self.link_endpoints(lid)
        return self.link_between(head, tail)

    def link_str(self, lid: int) -> str:
        """Human-readable rendering, e.g. ``'(0,1)->(0,2)'``."""
        (u, v), (u2, v2) = self.link_endpoints(lid)
        return f"({u},{v})->({u2},{v2})"

    def links(self) -> Iterator[int]:
        """Iterate over all link ids."""
        return iter(range(self.num_links))

    # vectorised metadata -------------------------------------------------
    @property
    def tail_u(self) -> np.ndarray:
        """Row of every link's tail core (read-only view)."""
        return self._tail_u

    @property
    def tail_v(self) -> np.ndarray:
        """Column of every link's tail core (read-only view)."""
        return self._tail_v

    @property
    def head_u(self) -> np.ndarray:
        """Row of every link's head core (read-only view)."""
        return self._head_u

    @property
    def head_v(self) -> np.ndarray:
        """Column of every link's head core (read-only view)."""
        return self._head_v

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        extra = ""
        if self.link_mask is not None:
            extra += f", {int((~self.link_mask).sum())} dead links"
        if self.link_scale is not None:
            extra += ", scaled"
        return f"Mesh(p={self.p}, q={self.q}{extra})"

    @staticmethod
    def _profile_eq(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
        if a is None or b is None:
            return a is b
        return np.array_equal(a, b)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mesh)
            and (self.p, self.q) == (other.p, other.q)
            and self._profile_eq(self.link_mask, other.link_mask)
            and self._profile_eq(self.link_scale, other.link_scale)
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild from the defining quadruple so caches are re-derived and
        # the profile arrays come back frozen after unpickling
        return (Mesh, (self.p, self.q, self.link_mask, self.link_scale))

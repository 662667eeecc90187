"""Move-sequence representation of Manhattan paths.

A Manhattan path of a communication is fully described by the order in which
it interleaves its ``Δv`` horizontal hops and ``Δu`` vertical hops: a string
over ``{'H', 'V'}`` of length ``Δu + Δv``.  The actual grid direction of the
hops (east/west, south/north) is fixed by the communication's direction
``d`` (see :mod:`repro.mesh.diagonals`), so the move string is
direction-agnostic — which makes path surgery (the XYI corner relocations)
pure string manipulation.

This module provides conversions between move strings, core sequences and
link-id sequences, the XY / YX / two-bend move generators, and the two
corner-relocation operations used by the XY-improver heuristic (Section
5.4 of the paper).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.mesh.diagonals import direction_of, direction_steps
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

MOVE_H = "H"  #: one horizontal hop (toward the sink's column)
MOVE_V = "V"  #: one vertical hop (toward the sink's row)


def _deltas(src: Coord, snk: Coord) -> Tuple[int, int]:
    """(Δu, Δv): number of vertical and horizontal hops required."""
    return abs(snk[0] - src[0]), abs(snk[1] - src[1])


def validate_moves(src: Coord, snk: Coord, moves: str) -> None:
    """Check that ``moves`` is a Manhattan move string from ``src`` to ``snk``.

    Raises
    ------
    InvalidParameterError
        If the counts of H and V moves do not match the displacement, or the
        string contains foreign characters.
    """
    du, dv = _deltas(src, snk)
    if len(moves) != du + dv:
        raise InvalidParameterError(
            f"move string of length {len(moves)} cannot join {src} to {snk} "
            f"(needs {du + dv} hops)"
        )
    nv = moves.count(MOVE_V)
    nh = moves.count(MOVE_H)
    if nv + nh != len(moves):
        bad = set(moves) - {MOVE_H, MOVE_V}
        raise InvalidParameterError(f"move string contains invalid moves {bad}")
    if nv != du or nh != dv:
        raise InvalidParameterError(
            f"move string {moves!r} has {nv} V / {nh} H hops; "
            f"{src} -> {snk} needs {du} V / {dv} H"
        )


def xy_moves(src: Coord, snk: Coord) -> str:
    """The XY route: all horizontal hops first, then all vertical hops."""
    du, dv = _deltas(src, snk)
    return MOVE_H * dv + MOVE_V * du


def yx_moves(src: Coord, snk: Coord) -> str:
    """The YX route: all vertical hops first, then all horizontal hops."""
    du, dv = _deltas(src, snk)
    return MOVE_V * du + MOVE_H * dv


def two_bend_moves(src: Coord, snk: Coord) -> List[str]:
    """All distinct move strings with at most two bends (Section 5.3).

    These are the H–V–H shapes (turn column anywhere between the endpoints)
    plus the V–H–V shapes (turn row anywhere), deduplicated; the two L-shaped
    one-bend routes (XY, YX) occur in both families.  When both
    displacements are non-zero there are exactly ``Δu + Δv`` of them, the
    bound stated in the paper.
    """
    du, dv = _deltas(src, snk)
    if du == 0 or dv == 0:
        return [MOVE_V * du + MOVE_H * dv]
    seen = set()
    out: List[str] = []
    for c in range(dv + 1):  # H^c V^du H^(dv-c)
        m = MOVE_H * c + MOVE_V * du + MOVE_H * (dv - c)
        if m not in seen:
            seen.add(m)
            out.append(m)
    for r in range(du + 1):  # V^r H^dv V^(du-r)
        m = MOVE_V * r + MOVE_H * dv + MOVE_V * (du - r)
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def moves_to_cores(src: Coord, snk: Coord, moves: str) -> List[Coord]:
    """Core sequence visited by ``moves`` (length ``len(moves) + 1``)."""
    validate_moves(src, snk, moves)
    d = direction_of(src, snk)
    su, sv = direction_steps(d)
    u, v = src
    out = [(u, v)]
    for m in moves:
        if m == MOVE_V:
            u += su
        else:
            v += sv
        out.append((u, v))
    if out[-1] != snk:
        raise InvalidParameterError(
            f"moves {moves!r} end at {out[-1]}, expected {snk}"
        )
    return out


def moves_to_links(mesh: Mesh, src: Coord, snk: Coord, moves: str) -> List[int]:
    """Link-id sequence traversed by ``moves``."""
    cores = moves_to_cores(src, snk, moves)
    return [mesh.link_between(a, b) for a, b in zip(cores, cores[1:])]


def _as_list(moves: str) -> List[str]:
    return list(moves)


def relocate_h_after(moves: str, v_pos: int) -> str | None:
    """XYI move for a *vertical* target link (Section 5.4).

    The vertical hop at index ``v_pos`` is pushed one column toward the
    source by relocating the nearest *preceding* horizontal move to just
    after it.  Geometrically the whole vertical run between that horizontal
    hop and ``v_pos`` shifts one column toward the source, and the path
    re-enters the target link's head core through "the horizontal link going
    to the same core, from the core that is the closest to the source core".

    Returns the new move string, or ``None`` when no horizontal move
    precedes ``v_pos`` (the communication "cannot be moved without violating
    the Manhattan path constraint").
    """
    if not 0 <= v_pos < len(moves) or moves[v_pos] != MOVE_V:
        raise InvalidParameterError(
            f"v_pos={v_pos} does not index a V move in {moves!r}"
        )
    h_pos = moves.rfind(MOVE_H, 0, v_pos)
    if h_pos < 0:
        return None
    seq = _as_list(moves)
    h = seq.pop(h_pos)
    seq.insert(v_pos, h)  # after popping, index v_pos is *after* the V hop
    return "".join(seq)


def relocate_v_before(moves: str, h_pos: int) -> str | None:
    """XYI move for a *horizontal* target link (Section 5.4).

    The horizontal hop at index ``h_pos`` is pushed one row toward the sink
    by relocating the nearest *following* vertical move to just before it:
    the path leaves the target link's tail core through "the vertical link
    going from the same core, and going to the core that is closest to the
    sink core".

    Returns the new move string, or ``None`` when no vertical move follows
    ``h_pos``.
    """
    if not 0 <= h_pos < len(moves) or moves[h_pos] != MOVE_H:
        raise InvalidParameterError(
            f"h_pos={h_pos} does not index an H move in {moves!r}"
        )
    v_pos = moves.find(MOVE_V, h_pos + 1)
    if v_pos < 0:
        return None
    seq = _as_list(moves)
    v = seq.pop(v_pos)
    seq.insert(h_pos, v)
    return "".join(seq)


def bends(moves: str) -> int:
    """Number of direction changes along the move string."""
    return sum(1 for a, b in zip(moves, moves[1:]) if a != b)


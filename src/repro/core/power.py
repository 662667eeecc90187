"""Link power model (Section 3.1) with continuous or discrete frequencies.

An *active* link (one with non-zero traffic) dissipates

.. math:: P = P_{leak} + P_0 \\cdot (f / f_{unit})^{\\alpha}

where ``f`` is the bandwidth actually enabled on the link.  With continuous
frequency scaling ``f`` equals the traffic on the link; with a discrete
frequency set (the simulation setting of Section 6) ``f`` is the smallest
available frequency at least equal to the traffic.  An inactive link
dissipates nothing.  A link whose traffic exceeds the maximum bandwidth
``BW`` makes the routing *invalid*.

The concrete constants used throughout the paper's Section 6 come from the
Kim–Horowitz adaptive serial-link design: ``P_leak = 16.9 mW``,
``P0 = 5.41``, ``α = 2.95`` and frequencies ``{1, 2.5, 3.5} Gb/s`` (we store
them in Mb/s with ``f_unit = 1000`` so workload rates are plain Mb/s
numbers); see :meth:`PowerModel.kim_horowitz`.

For heuristic-internal comparisons the model also exposes a *graded
overload penalty* (:meth:`PowerModel.link_power_graded`): an overloaded link
costs more than any feasible chip-wide configuration, and costs strictly
more the larger its excess, so greedy descent repairs validity first.

Scenario support — every power function accepts two optional per-link
coefficient arrays (aligned with the trailing axis of ``loads``):

* ``scale`` multiplies the link's power (leakage and dynamic term alike);
  it models heterogeneous / derated fabric regions.  With discrete
  frequencies the cached graded tables are still used — the per-level
  lookup is simply multiplied by the per-link coefficients.
* ``dead`` marks faulty links: any positive load on a dead link makes the
  strict power infinite (the routing is invalid) and draws a graded
  penalty at least as large as a fully overloaded link, decreasing as the
  stray load shrinks — so descent heuristics evacuate dead links first.

Both default to ``None``, in which case the computation is bit-identical
to the homogeneous model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import InvalidParameterError, check_positive

#: sentinel scale factor applied to overloaded links by the graded penalty
OVERLOAD = 1e9

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PowerModel:
    """Static + dynamic link power with optional discrete frequencies.

    Parameters
    ----------
    p_leak:
        Static (leakage) power of an active link, in the model's power unit
        (mW for the paper constants).
    p0:
        Dynamic power coefficient.
    alpha:
        Dynamic power exponent; the paper requires ``2 < alpha <= 3``.
    bandwidth:
        Maximum link bandwidth ``BW`` (same rate unit as communication
        rates; Mb/s for the paper constants).
    frequencies:
        Sorted tuple of available link bandwidths for discrete frequency
        scaling, or ``None`` for continuous scaling.  When given, the
        largest frequency must equal ``bandwidth``.
    freq_unit:
        Rate value corresponding to ``1.0`` inside the ``(f/unit)^alpha``
        term (1000 turns Mb/s rates into the Gb/s figures the paper's
        constants are calibrated for).
    """

    p_leak: float
    p0: float
    alpha: float
    bandwidth: float
    frequencies: Optional[Tuple[float, ...]] = None
    freq_unit: float = 1.0

    def __post_init__(self) -> None:
        check_positive("p0", self.p0)
        check_positive("bandwidth", self.bandwidth)
        check_positive("freq_unit", self.freq_unit)
        if self.p_leak < 0:
            raise InvalidParameterError(f"p_leak must be >= 0, got {self.p_leak}")
        if not 1.0 < self.alpha <= 3.0:
            # The paper states 2 < alpha <= 3; we accept any strictly convex
            # exponent > 1 (the theory only needs convexity) but reject
            # degenerate linear/concave models.
            raise InvalidParameterError(
                f"alpha must lie in (1, 3] (paper: (2, 3]), got {self.alpha}"
            )
        if self.frequencies is not None:
            freqs = tuple(float(f) for f in self.frequencies)
            if len(freqs) == 0:
                raise InvalidParameterError("frequencies must be non-empty or None")
            if any(f <= 0 for f in freqs):
                raise InvalidParameterError(f"frequencies must be > 0, got {freqs}")
            if list(freqs) != sorted(freqs) or len(set(freqs)) != len(freqs):
                raise InvalidParameterError(
                    f"frequencies must be strictly increasing, got {freqs}"
                )
            if not np.isclose(freqs[-1], self.bandwidth):
                raise InvalidParameterError(
                    f"highest frequency {freqs[-1]} must equal bandwidth "
                    f"{self.bandwidth}"
                )
            object.__setattr__(self, "frequencies", freqs)

    # ------------------------------------------------------------------
    # canonical instantiations
    # ------------------------------------------------------------------
    @classmethod
    def kim_horowitz(cls) -> "PowerModel":
        """The discrete-frequency model of the paper's simulations (§6).

        ``P_leak = 16.9 mW``, ``P0 = 5.41``, ``α = 2.95``, link frequencies
        ``{1000, 2500, 3500} Mb/s``.
        """
        return cls(
            p_leak=16.9,
            p0=5.41,
            alpha=2.95,
            bandwidth=3500.0,
            frequencies=(1000.0, 2500.0, 3500.0),
            freq_unit=1000.0,
        )

    @classmethod
    def continuous_kim_horowitz(cls) -> "PowerModel":
        """Continuous-frequency variant of :meth:`kim_horowitz`."""
        return cls(
            p_leak=16.9, p0=5.41, alpha=2.95, bandwidth=3500.0, freq_unit=1000.0
        )

    @classmethod
    def fig2_example(cls) -> "PowerModel":
        """The toy model of the paper's Figure 2 / Section 3.5.

        ``P_leak = 0``, ``P0 = 1``, ``α = 3``, ``BW = 4``, continuous
        frequencies — yields the worked powers 128 / 56 / 32.
        """
        return cls(p_leak=0.0, p0=1.0, alpha=3.0, bandwidth=4.0)

    @classmethod
    def dynamic_only(cls, alpha: float = 3.0, bandwidth: float = float("inf")) -> "PowerModel":
        """``P_leak = 0, P0 = 1`` — the setting of the Section 4 theory."""
        return cls(p_leak=0.0, p0=1.0, alpha=alpha, bandwidth=bandwidth)

    @property
    def is_discrete(self) -> bool:
        """True when a discrete frequency set is configured."""
        return self.frequencies is not None

    # ------------------------------------------------------------------
    # frequency quantisation and power
    # ------------------------------------------------------------------
    def quantize(self, loads: ArrayLike) -> np.ndarray:
        """Operating frequency for each load.

        Zero load maps to 0 (inactive link); a load above ``bandwidth``
        maps to ``inf`` (no frequency can serve it); otherwise the load
        itself (continuous) or the smallest available frequency at least
        equal to the load (discrete).
        """
        loads = np.asarray(loads, dtype=np.float64)
        if np.any(loads < 0):
            raise InvalidParameterError("link loads must be >= 0")
        if not self.is_discrete:
            out = loads.copy()
        else:
            freqs = np.asarray(self.frequencies, dtype=np.float64)
            idx = np.searchsorted(freqs, loads, side="left")
            padded = np.append(freqs, np.inf)
            out = padded[idx]
            out[loads == 0] = 0.0
        out = np.where(loads > self.bandwidth * (1 + 1e-12), np.inf, out)
        return out

    def link_power(
        self,
        loads: ArrayLike,
        *,
        scale: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Power of each link given its load (``inf`` when overloaded).

        ``scale`` multiplies each active link's power; any positive load on
        a ``dead`` link yields ``inf`` (the routing is invalid).
        """
        freqs = self.quantize(loads)
        active = freqs > 0
        with np.errstate(over="ignore", invalid="ignore"):
            dyn = self.p0 * np.power(freqs / self.freq_unit, self.alpha)
        out = np.where(active, self.p_leak + dyn, 0.0)
        if scale is not None:
            out = out * scale
        if dead is not None:
            out = np.where(dead & active, np.inf, out)
        return out

    def total_power(
        self,
        loads: ArrayLike,
        *,
        scale: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> float:
        """Chip-wide power: sum of link powers (``inf`` if any overload)."""
        return float(np.sum(self.link_power(loads, scale=scale, dead=dead)))

    def dynamic_power(
        self, loads: ArrayLike, *, scale: Optional[np.ndarray] = None
    ) -> float:
        """Sum of the dynamic terms only."""
        freqs = self.quantize(loads)
        active = freqs > 0
        with np.errstate(over="ignore", invalid="ignore"):
            dyn = self.p0 * np.power(freqs / self.freq_unit, self.alpha)
        if scale is not None:
            dyn = dyn * scale
        return float(np.sum(np.where(active, dyn, 0.0)))

    def static_power(
        self, loads: ArrayLike, *, scale: Optional[np.ndarray] = None
    ) -> float:
        """Sum of the leakage terms (``p_leak`` per active link)."""
        loads = np.asarray(loads, dtype=np.float64)
        if scale is None:
            return float(np.count_nonzero(loads > 0) * self.p_leak)
        return float(np.sum(np.where(loads > 0, self.p_leak * scale, 0.0)))

    @property
    def max_link_power(self) -> float:
        """Power of a single link running at full bandwidth."""
        return self.p_leak + self.p0 * (self.bandwidth / self.freq_unit) ** self.alpha

    @cached_property
    def _graded_tables(self):
        """Lazily cached per-level power tables for the graded fast path.

        ``functools.cached_property`` stores the result in the instance
        ``__dict__`` directly, which sidesteps the frozen dataclass's
        ``__setattr__`` without the previous ``object.__setattr__`` hack;
        the model stays hashable and picklable.
        """
        if self.is_discrete:
            freqs = np.asarray(self.frequencies, dtype=np.float64)
            level_powers = self.p_leak + self.p0 * (
                freqs / self.freq_unit
            ) ** self.alpha
        else:
            freqs = None
            level_powers = None
        return (freqs, level_powers, self.max_link_power)

    def link_power_graded(
        self,
        loads: ArrayLike,
        *,
        scale: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Like :meth:`link_power` but with a finite, graded overload cost.

        Overloaded links cost ``max_link_power * OVERLOAD * (1 + excess /
        bandwidth)``: any single overloaded link dominates the power of any
        feasible chip configuration, and reducing the excess always reduces
        the cost — heuristics comparing two invalid alternatives therefore
        prefer the less overloaded one (and any valid alternative over any
        invalid one).

        ``scale`` multiplies the regular (in-bandwidth) link power per
        link; the overload penalty itself is *not* scaled, so validity
        repair compares uniformly across regions.  A loaded ``dead`` link
        draws the penalty of a zero-bandwidth link — at least as costly as
        any overload, still strictly decreasing as the stray load shrinks.

        This is the heuristics' inner-loop primitive, so it is implemented
        directly on cached per-level tables rather than through
        :meth:`quantize`.
        """
        loads = np.asarray(loads, dtype=np.float64)
        if loads.size and loads.min() < 0:
            raise InvalidParameterError("link loads must be >= 0")
        freqs, level_powers, max_power = self._graded_tables
        bw = self.bandwidth
        capped = np.minimum(loads, bw)
        if freqs is not None:
            idx = np.searchsorted(freqs, capped, side="left")
            base = level_powers[idx]
        else:
            base = self.p_leak + self.p0 * (capped / self.freq_unit) ** self.alpha
        if scale is not None:
            base = base * scale
        base = np.where(loads > 0, base, 0.0)
        over = loads > bw * (1 + 1e-12)
        loaded_dead = None
        if dead is not None:
            loaded_dead = dead & (loads > 0)
            if not loaded_dead.any():
                loaded_dead = None
            else:
                over = over | loaded_dead
        if not over.any():
            return base
        if loaded_dead is None:
            penalty = max_power * OVERLOAD * (1.0 + (loads - bw) / bw)
        else:
            # a dead link behaves like bandwidth 0: its whole load is excess
            excess = np.where(loaded_dead, loads, loads - bw)
            penalty = max_power * OVERLOAD * (1.0 + excess / bw)
        return np.where(over, penalty, base)

    def total_power_graded(
        self,
        loads: ArrayLike,
        *,
        scale: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> float:
        """Sum of :meth:`link_power_graded` over all links."""
        return float(
            np.sum(self.link_power_graded(loads, scale=scale, dead=dead))
        )

    def total_power_graded_many(
        self,
        loads_matrix: ArrayLike,
        *,
        scale: Optional[np.ndarray] = None,
        dead: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Row-wise :meth:`total_power_graded` of a batch of load vectors.

        ``loads_matrix`` is ``(B, num_links)`` — one complete chip load
        vector per row (a GA population, a neighbourhood of candidate
        routings, a sweep batch).  All rows are graded in one NumPy pass;
        the result is the length-``B`` vector of graded totals, row ``b``
        equal to ``total_power_graded(loads_matrix[b])``.  Per-link
        ``scale`` / ``dead`` vectors broadcast over the batch axis.
        """
        loads_matrix = np.asarray(loads_matrix, dtype=np.float64)
        if loads_matrix.ndim != 2:
            raise InvalidParameterError(
                f"loads_matrix must be 2-D (batch, links), got shape "
                f"{loads_matrix.shape}"
            )
        return self.link_power_graded(
            loads_matrix, scale=scale, dead=dead
        ).sum(axis=1)

    def is_feasible_load(
        self,
        loads: ArrayLike,
        *,
        rtol: float = 1e-9,
        dead: Optional[np.ndarray] = None,
    ) -> bool:
        """True when no load exceeds the bandwidth (within tolerance).

        With a ``dead`` mask, any positive load on a dead link is also
        infeasible.
        """
        loads = np.asarray(loads, dtype=np.float64)
        if dead is not None and np.any(loads[dead] > 0):
            return False
        return bool(np.all(loads <= self.bandwidth * (1 + rtol)))

    def with_frequencies(
        self, frequencies: Optional[Sequence[float]]
    ) -> "PowerModel":
        """Copy of this model with a different (or no) frequency set."""
        freqs = tuple(frequencies) if frequencies is not None else None
        bw = freqs[-1] if freqs else self.bandwidth
        return PowerModel(
            p_leak=self.p_leak,
            p0=self.p0,
            alpha=self.alpha,
            bandwidth=bw,
            frequencies=freqs,
            freq_unit=self.freq_unit,
        )

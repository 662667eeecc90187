"""Packet-injection processes for the flit simulator.

The paper characterises a communication by its sustained rate (bytes per
second); how that rate arrives in time is a deployment property the
system-level model abstracts away.  The simulator supports three arrival
models per flow, all matching the demanded rate in expectation:

* :class:`DeterministicInjection` — a fluid credit counter emits a packet
  exactly every ``packet_flits / rate`` cycles (the smoothest arrival,
  and the default: it matches the system-level model's intent);
* :class:`BernoulliInjection` — geometric inter-arrivals (each cycle a
  packet appears with probability ``rate / packet_flits``), the standard
  open-loop NoC evaluation model;
* :class:`BurstInjection` — a two-state Markov-modulated Bernoulli
  process: an OFF state injecting nothing and an ON state injecting at
  ``rate / duty`` so that the long-run average still meets the demand;
  ``burst_length`` controls the expected ON-run in packets.

Burstier arrivals stress queues harder at equal mean load, which is what
the latency sweeps of :mod:`repro.noc.sweep` quantify.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.utils.rng import StreamReplica
from repro.utils.validation import InvalidParameterError


class InjectionProcess(Protocol):
    """Per-flow arrival process driven once per cycle."""

    def packets(self) -> int:
        """Number of packets to inject this cycle."""
        ...  # pragma: no cover - protocol


#: builds a process for (flow rate fraction in flits/cycle, packet size, rng)
InjectionFactory = Callable[
    [float, int, np.random.Generator], InjectionProcess
]


class DeterministicInjection:
    """Fluid credit counter — one packet every ``packet_flits/rate`` cycles."""

    __slots__ = ("rate_frac", "packet_flits", "credit")

    def __init__(
        self,
        rate_frac: float,
        packet_flits: int,
        rng: Optional[np.random.Generator] = None,
    ):
        _check_rate(rate_frac)
        self.rate_frac = rate_frac
        self.packet_flits = packet_flits
        self.credit = 0.0

    def packets(self) -> int:
        self.credit += self.rate_frac
        n = 0
        while self.credit >= self.packet_flits:
            self.credit -= self.packet_flits
            n += 1
        return n


class BernoulliInjection:
    """Geometric inter-arrivals with mean rate ``rate_frac`` flits/cycle."""

    __slots__ = ("p", "rng")

    def __init__(
        self, rate_frac: float, packet_flits: int, rng: np.random.Generator
    ):
        _check_rate(rate_frac)
        self.p = rate_frac / packet_flits
        if self.p > 1.0:
            raise InvalidParameterError(
                f"Bernoulli injection needs rate <= packet size; got "
                f"{rate_frac} flits/cycle over {packet_flits}-flit packets"
            )
        self.rng = rng

    def packets(self) -> int:
        return int(self.rng.random() < self.p)


class BurstInjection:
    """Two-state MMBP: OFF (silent) / ON (Bernoulli at ``rate/duty``).

    Parameters
    ----------
    duty:
        Long-run fraction of time in the ON state (0 < duty <= 1); the ON
        injection probability is scaled by ``1/duty`` so the mean rate is
        preserved.  ``duty=1`` degenerates to :class:`BernoulliInjection`.
    burst_length:
        Expected ON-dwell measured in packets.
    """

    __slots__ = ("p_on", "stay_on", "stay_off", "on", "rng")

    def __init__(
        self,
        rate_frac: float,
        packet_flits: int,
        rng: np.random.Generator,
        *,
        duty: float = 0.3,
        burst_length: float = 8.0,
    ):
        _check_rate(rate_frac)
        if not 0.0 < duty <= 1.0:
            raise InvalidParameterError(f"duty must lie in (0, 1], got {duty}")
        if burst_length <= 0:
            raise InvalidParameterError(
                f"burst_length must be > 0, got {burst_length}"
            )
        self.p_on = min(1.0, rate_frac / packet_flits / duty)
        # expected ON dwell = burst_length packets = burst_length / p_on cycles
        dwell_on = max(1.0, burst_length / max(self.p_on, 1e-12))
        dwell_off = dwell_on * (1.0 - duty) / duty
        self.stay_on = 1.0 - 1.0 / dwell_on
        self.stay_off = 1.0 - 1.0 / max(dwell_off, 1e-12) if dwell_off > 0 else 0.0
        self.on = rng.random() < duty
        self.rng = rng

    def packets(self) -> int:
        if self.on:
            emitted = int(self.rng.random() < self.p_on)
            if self.rng.random() > self.stay_on:
                self.on = False
            return emitted
        if self.rng.random() > self.stay_off:
            self.on = True
        return 0


def _check_rate(rate_frac: float) -> None:
    if rate_frac < 0:
        raise InvalidParameterError(
            f"injection rate must be >= 0 flits/cycle, got {rate_frac}"
        )


#: name → factory registry used by the simulator's ``injection=`` knob
INJECTION_MODELS: dict[str, InjectionFactory] = {
    "deterministic": DeterministicInjection,
    "bernoulli": BernoulliInjection,
    "burst": BurstInjection,
}


def _replay_burst(proc: BurstInjection, cycles: int) -> np.ndarray:
    """Replay the MMBP state machine on block-fetched raw words.

    ``proc`` has already drawn its initial-state word from its generator;
    the per-cycle draws are served by a :class:`~repro.utils.rng.
    StreamReplica` wrapped around the *same* generator, so the word stream
    is consumed in exactly the order ``packets()`` would consume it.
    """
    rep = StreamReplica(proc.rng)
    random = rep.random
    p_on, stay_on, stay_off = proc.p_on, proc.stay_on, proc.stay_off
    on = proc.on
    counts = [0] * cycles
    for t in range(cycles):
        if on:
            if random() < p_on:
                counts[t] = 1
            if random() > stay_on:
                on = False
        elif random() > stay_off:
            on = True
    return np.asarray(counts, dtype=np.int64)


def precompute_arrivals(
    factory: InjectionFactory,
    rate_fracs: Sequence[float],
    packet_flits: int,
    rng: np.random.Generator,
    cycles: int,
) -> List[np.ndarray]:
    """Per-flow packet-arrival schedules for an open-loop run.

    Returns ``arrivals`` with ``arrivals[f][t]`` = packets flow ``f``
    injects at cycle ``t`` — **bit-identical** to constructing one
    injection process per flow at the start of a run and calling
    ``packets()`` once per cycle, as the reference simulator
    (``tests/noc_reference.py``) does.  Arrival processes are open loop
    (they never observe network state), so the whole schedule can be
    drawn up front; this is what lets the array engine batch injection.

    The RNG draw-order contract of the reference simulator is replayed
    exactly: one ``rng.integers(2**63)`` seeding draw per flow, in flow
    order, each feeding a private child generator; Bernoulli flows then
    draw one vectorised ``random(cycles)`` block (the same words, in the
    same order, as ``cycles`` scalar draws), and burst flows replay their
    two-state machine on a :class:`~repro.utils.rng.StreamReplica` over
    the child stream.  Every other factory — the draw-free deterministic
    model included — is driven through ``packets()`` directly, which is
    bit-identical by construction.
    """
    out: List[np.ndarray] = []
    for rate_frac in rate_fracs:
        child = np.random.default_rng(rng.integers(2**63))
        proc = factory(rate_frac, packet_flits, child)
        if factory is BernoulliInjection:
            out.append((child.random(cycles) < proc.p).astype(np.int64))
        elif factory is BurstInjection:
            out.append(_replay_burst(proc, cycles))
        else:
            out.append(
                np.fromiter(
                    (proc.packets() for _ in range(cycles)),
                    dtype=np.int64,
                    count=cycles,
                )
            )
    return out


def injection_factory(name_or_factory) -> InjectionFactory:
    """Resolve a factory from a registry name (or pass a factory through)."""
    if callable(name_or_factory):
        return name_or_factory
    try:
        return INJECTION_MODELS[name_or_factory]
    except KeyError:
        raise InvalidParameterError(
            f"unknown injection model {name_or_factory!r}; "
            f"available: {sorted(INJECTION_MODELS)}"
        ) from None

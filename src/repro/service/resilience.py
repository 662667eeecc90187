"""Service resilience primitives: fault injection and retry schedules.

Two small, deterministic building blocks shared by the server, the
client, the chaos tests and the E-SOAK bench:

:class:`FaultPlan`
    A *scripted* sequence of infrastructure faults, keyed by the
    server's ``/route`` arrival index — "crash the pool worker handling
    request 3, delay request 5's compute by 200 ms, drop request 7's
    connection before answering".  The server consults the plan exactly
    once per arriving route request, so a plan replays identically on
    every run; because :func:`repro.service.server.handle_request_doc`
    is a pure function of the request document, the *answers* are
    bit-identical with or without the faults — only the latency and the
    recovery counters differ.  That is what lets ordinary tier-1 tests
    (and the E-SOAK bench) assert zero lost requests and byte-equal
    routings while workers are being killed under them.

:class:`RetryPolicy`
    A seeded exponential-backoff-with-jitter schedule.  The jitter
    stream comes from ``random.Random(seed)``, so a client's retry
    timing is reproducible — two soak runs with the same seeds issue
    the same sleeps.  The client retries connection errors, truncated
    responses and HTTP 429/503/504 on this schedule; ``wait_ready``
    polls startup on it too.

Faults can also be scripted from the environment (``REPRO_FAULTS``),
which is how the CI chaos smoke injects a worker crash into a stock
``repro serve`` process without any test scaffolding.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.utils.validation import ReproError

#: environment variable ``repro serve`` reads a fault plan from
FAULTS_ENV = "REPRO_FAULTS"

#: fault kinds a plan may script
FAULT_KINDS = ("crash", "delay", "drop")


class TruncatedResponseError(ReproError):
    """The service connection closed before the advertised body arrived.

    Distinguished from a complete-but-invalid body (never retried) so
    the client's retry loop can treat a mid-body connection cut like any
    other transient transport failure.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: ``kind`` fired at route-request ``index``.

    ``seconds`` is the injected compute delay for ``"delay"`` faults
    (ignored for the other kinds).
    """

    index: int
    kind: str
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ReproError(
                f"unknown fault kind {self.kind!r}; choose from "
                f"{', '.join(FAULT_KINDS)}"
            )
        if not isinstance(self.index, int) or self.index < 0:
            raise ReproError(
                f"fault index must be an integer >= 0, got {self.index!r}"
            )
        if self.seconds < 0:
            raise ReproError(
                f"fault delay must be >= 0 seconds, got {self.seconds!r}"
            )


class FaultPlan:
    """A deterministic schedule of injected faults, one-shot per index.

    The server numbers ``/route`` requests in arrival order (retries of
    a crashed in-flight request keep their number; a client resubmitting
    a dropped request arrives as a new number) and calls :meth:`take`
    with each number exactly once — the matching fault, if any, is
    consumed.  At most one fault per index.

    Construction::

        FaultPlan([FaultSpec(3, "crash"), FaultSpec(5, "delay", 0.2)])
        FaultPlan.parse("crash@3,delay@5:0.2,drop@7")
        FaultPlan.from_env()                                  # REPRO_FAULTS
    """

    def __init__(self, specs: Sequence[FaultSpec] = ()):
        by_index: Dict[int, FaultSpec] = {}
        for spec in specs:
            if spec.index in by_index:
                raise ReproError(
                    f"fault plan scripts two faults at index {spec.index}"
                )
            by_index[spec.index] = spec
        self._pending: Dict[int, FaultSpec] = by_index
        self._specs: Tuple[FaultSpec, ...] = tuple(
            sorted(by_index.values(), key=lambda s: s.index)
        )

    # ------------------------------------------------------------------
    @property
    def specs(self) -> Tuple[FaultSpec, ...]:
        """Every scripted fault, in index order (consumed ones included)."""
        return self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def pending(self) -> int:
        """How many scripted faults have not fired yet."""
        return len(self._pending)

    def take(self, index: int) -> Optional[FaultSpec]:
        """Consume and return the fault scripted at ``index`` (or None)."""
        return self._pending.pop(index, None)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Build a plan from its wire form.

        Comma-separated ``kind@index[:seconds]`` items, e.g.
        ``"crash@3,delay@5:0.2,drop@7"``.  An empty or whitespace-only
        string is the empty plan.
        """
        text = text.strip()
        if not text:
            return cls()
        specs = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            kind, at, rest = part.partition("@")
            if not at:
                raise ReproError(
                    f"bad fault {part!r}: expected kind@index[:seconds]"
                )
            idx_text, _, sec_text = rest.partition(":")
            try:
                index = int(idx_text)
                seconds = float(sec_text) if sec_text else 0.0
            except ValueError:
                raise ReproError(
                    f"bad fault {part!r}: expected kind@index[:seconds]"
                ) from None
            specs.append(FaultSpec(index=index, kind=kind.strip(), seconds=seconds))
        return cls(specs)

    @classmethod
    def from_env(cls, env: Optional[Dict[str, str]] = None) -> "FaultPlan":
        """The plan scripted in ``REPRO_FAULTS`` (empty plan when unset)."""
        mapping = os.environ if env is None else env
        return cls.parse(mapping.get(FAULTS_ENV, ""))


# ----------------------------------------------------------------------
# retry schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with jitter.

    ``attempts`` counts *tries*, not retries: ``attempts=5`` means one
    initial try plus up to four retries, sleeping between them.  The
    k-th sleep is ``min(max_delay, base * multiplier**k)`` scaled by a
    jitter factor drawn uniformly from ``[1, 1 + jitter]`` out of
    ``random.Random(seed)`` — fully deterministic per (policy, seed).
    """

    attempts: int = 5
    base: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.attempts, bool) or not isinstance(self.attempts, int) \
                or self.attempts < 1:
            raise ReproError(
                f"retry attempts must be an integer >= 1, got {self.attempts!r}"
            )
        if self.base < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ReproError("retry delays and jitter must be >= 0")
        if self.multiplier < 1.0:
            raise ReproError(
                f"retry multiplier must be >= 1, got {self.multiplier!r}"
            )

    def delays(self) -> Iterator[float]:
        """The sleep schedule between tries (``attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for k in range(self.attempts - 1):
            delay = min(self.max_delay, self.base * self.multiplier ** k)
            yield delay * (1.0 + self.jitter * rng.random())

    def reseeded(self, seed: int) -> "RetryPolicy":
        """The same schedule shape with a different jitter seed."""
        return RetryPolicy(
            attempts=self.attempts,
            base=self.base,
            multiplier=self.multiplier,
            max_delay=self.max_delay,
            jitter=self.jitter,
            seed=seed,
        )


#: statuses the client treats as transient and retries on the schedule
RETRYABLE_STATUSES = (429, 503, 504)


def parse_retry_after(value: Union[str, None]) -> Optional[float]:
    """Seconds from a ``Retry-After`` header value (None when unusable).

    Only the delta-seconds form is supported (the service never sends
    HTTP-dates); fractional values are accepted because both ends of
    this protocol are ours.
    """
    if value is None:
        return None
    try:
        seconds = float(value.strip())
    except ValueError:
        return None
    return seconds if seconds >= 0 else None

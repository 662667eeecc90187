"""Shared fixtures-in-code for the campaign store/engine/CLI tests.

Not a test module: both ``test_campaign_store.py`` and
``test_campaign_engine.py`` import the synthetic experiment from here so
there is exactly one ``CounterExperiment`` class object regardless of how
pytest imports the test files themselves.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.experiments.campaign import Experiment, Shard
from repro.experiments.campaign.spec import chunk_bounds
from repro.utils.validation import ReproError


def counter_shard(payload: Tuple) -> List[float]:
    lo, hi = payload
    return [math.sin(i) * 0.1 for i in range(lo, hi)]


@dataclass(frozen=True)
class CounterExperiment(Experiment):
    """A deterministic toy experiment: 3 shards of exact floats."""

    trials: int = 6
    chunk: int = 2

    def shards(self):
        return tuple(
            Shard(
                key=f"trials-{lo}-{hi}",
                func=counter_shard,
                payload=(lo, hi),
            )
            for lo, hi in chunk_bounds(self.trials, self.chunk)
        )

    def finalize(self, shard_records: List[Any]) -> dict:
        return {"total": sum(x for chunk in shard_records for x in chunk)}

    def render(self, payload: dict) -> str:
        return f"counter total {payload['total']:.12f} over {self.trials}"


def make_counter(**kw) -> CounterExperiment:
    return CounterExperiment(name="counter", title="test counter", **kw)


class ShardFault(ReproError):
    """Raised by :func:`flaky_shard` while its trigger file exists."""


def flaky_shard(payload: Tuple) -> List[float]:
    lo, hi, trigger = payload
    if trigger and os.path.exists(trigger):
        raise ShardFault(f"shard {lo}-{hi} failed")
    return counter_shard((lo, hi))


@dataclass(frozen=True)
class FlakyCounterExperiment(CounterExperiment):
    """:class:`CounterExperiment` whose shard ``fail_shard`` raises while
    the file ``trigger`` exists — deleting the file removes the fault
    without changing the spec, so a re-run resumes in the same slot."""

    trigger: str = ""
    fail_shard: int = 1

    def shards(self):
        out = []
        for i, shard in enumerate(super().shards()):
            trigger = self.trigger if i == self.fail_shard else ""
            out.append(
                Shard(shard.key, flaky_shard, (*shard.payload, trigger))
            )
        return tuple(out)

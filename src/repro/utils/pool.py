"""The process pool behind every Monte-Carlo fan-out outside the service.

One pool lives inside one call: it is sized to the work and joined before
the call returns, so no worker process outlives it.  (The routing
service keeps its own pool, which it rebuilds after a worker crash.)
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def worker_pool(jobs: int, tasks: int) -> Iterator[ProcessPoolExecutor]:
    """A ``ProcessPoolExecutor`` of ``min(jobs, tasks)`` workers.

    Sizing by ``tasks`` matters: under the fork start method the pool
    forks all its workers at the first submission, so ``jobs`` workers
    for fewer tasks would start idle processes.  On every exit path —
    normal return, a raising task, an interrupt — queued tasks are
    cancelled and every worker is joined, so an aborted call neither
    burns time on work nobody will read nor leaves a process behind.
    """
    pool = ProcessPoolExecutor(max_workers=min(jobs, tasks))
    try:
        yield pool
    finally:
        pool.shutdown(wait=True, cancel_futures=True)

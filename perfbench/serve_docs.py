"""Request documents and the live server for the serve workloads.

Documents are generated untimed, in the benchmark process, from
``churn_trace`` over four registry scenarios: each step re-routes warm
from the previous step's routing (``prev``).  The workload seed feeds the
churn draws, the cold/warm choice, the Zipf popularity draws and every
request seed.
"""

from __future__ import annotations

import functools
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from harness import OUT, ROOT, BenchError
from loadgen import get_json

#: the churn scenarios the documents come from
SCENARIOS = ("paper-baseline", "faulty-links", "hotspot-derate",
             "narrow-mesh")
#: independent churn traces per scenario, and steps per trace, in the
#: document pool (many short traces average the workload's cost over
#: more independent instances than a few long ones)
TRACES = 3
STEPS = 4
#: one request in this many carries no ``prev`` (a cold solve)
COLD_ONE_IN = 8
#: popularity exponent of the ``serve-repeat`` picks
ZIPF_EXPONENT = 1.0
#: Zipf picks drawn per generator (pick ``i`` comes from block
#: ``i // ZIPF_BLOCK``, so any request can be made on its own)
ZIPF_BLOCK = 4096


def churn_pool(seed: int) -> List[Dict]:
    """Warm re-route documents: ``STEPS - 1`` per trace.

    Each carries the previous step's routing as ``prev``; the chain is
    routed in-process with the service's own ``route_incremental``.  The
    pool interleaves the traces, so any prefix of it mixes scenarios.
    """
    from repro.io.jsonio import problem_to_dict, routing_to_dict
    from repro.scenarios import ChurnSpec, churn_trace
    from repro.service import route_incremental

    traces = []
    for t in range(TRACES):
        for k, name in enumerate(SCENARIOS):
            steps = churn_trace(ChurnSpec(
                scenario=name, requests=STEPS,
                seed=(seed * TRACES + t) * len(SCENARIOS) + k,
                fault_prob=0.15, rate_scale=0.5,
            ))
            chain = route_incremental(steps[0].problem)
            docs = []
            for step in steps[1:]:
                docs.append({
                    "problem": problem_to_dict(step.problem),
                    "prev": routing_to_dict(chain.routing),
                })
                chain = route_incremental(step.problem, chain.routing)
            traces.append(docs)
    return [doc for step_docs in zip(*traces) for doc in step_docs]


def churn_request(pool: List[Dict], seed: int, i: int) -> Dict:
    """Request ``i`` of the churn stream.

    The stream walks the pool round-robin, so every document is equally
    represented, and every ``COLD_ONE_IN``-th request drops ``prev`` (a
    cold solve).  Every request has its own ``seed``, so each one misses
    the cache and writes the store.
    """
    doc = dict(pool[(seed + i) % len(pool)])
    if i % COLD_ONE_IN == COLD_ONE_IN - 1:
        doc.pop("prev")
    doc["seed"] = seed * 1_000_000_000 + i
    return doc


@functools.lru_cache(maxsize=16)
def _zipf_block(size: int, seed: int, block: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 7, block])
    weights = 1.0 / np.arange(1, size + 1) ** ZIPF_EXPONENT
    return rng.choice(size, size=ZIPF_BLOCK, p=weights / weights.sum())


def zipf_pick(size: int, seed: int, i: int) -> int:
    """Pool index of request ``i``, drawn with Zipf popularity (index 0
    is the most popular); a pure function of ``(size, seed, i)``."""
    return int(_zipf_block(size, seed, i // ZIPF_BLOCK)[i % ZIPF_BLOCK])


def encode(doc: Dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode()


def strip_elapsed(body: Dict) -> str:
    """A response body's canonical form without its wall-clock field."""
    body = dict(body)
    body.pop("elapsed_ms", None)
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class Server:
    """A real ``repro serve`` subprocess on an ephemeral port.

    Every flag but the port, the worker count and a fresh cache
    directory keeps its default.
    """

    def __init__(self, env: Dict[str, str], jobs: int, tag: str):
        self.env = env
        self.jobs = jobs
        self.cache_dir = OUT / f"cache-{tag}"
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_s = 0.0

    def start(self) -> "Server":
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.parent.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(self.jobs), "--cache-dir", str(self.cache_dir)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        try:
            self.port = int(line.split("http://")[1].split(":")[1].split()[0])
        except (IndexError, ValueError):
            self.stop()
            raise BenchError(f"repro serve did not start: {line!r}")
        deadline = t0 + 60
        while True:
            try:
                if get_json("127.0.0.1", self.port, "/healthz").get("ok"):
                    break
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise BenchError("repro serve never answered /healthz")
            time.sleep(0.005)
        self.setup_s = time.perf_counter() - t0
        return self

    def stop(self) -> int:
        """SIGTERM (graceful drain), wait, remove the cache directory."""
        code = 0
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
            code = self.proc.returncode
            self.proc = None
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        return code

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def fresh_store(tag: str) -> Path:
    """An empty artifact-store directory for an in-process replay."""
    path = OUT / f"replay-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

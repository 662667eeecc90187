"""Shared plumbing of the benchmark: paths, host block, RSS, statistics.

Nothing here imports ``repro``: the workload modules do, after
:func:`prepare_source` has put the checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

#: the checkout root (the directory holding ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: everything a run leaves behind goes under here (git-ignored)
OUT = ROOT / ".bench_out"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build)."""


def prepare_source() -> Dict[str, str]:
    """Put ``src/`` on ``sys.path``; return the env for child processes.

    Raises :class:`BenchError` when the checkout holds no program to
    measure, so the benchmark fails fast instead of reporting nothing.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for knob in ("REPRO_FAULTS", "REPRO_TRIALS", "REPRO_JOBS",
                 "REPRO_NATIVE", "REPRO_STACKED", "REPRO_CACHE_DIR"):
        env.pop(knob, None)
        os.environ.pop(knob, None)
    return env


def ensure_native(env: Dict[str, str]) -> str:
    """Build the optional native tier once per checkout (untimed).

    Returns the tier string ``repro --version`` prints.  A checkout
    without a C toolchain or cffi keeps running on the Python tier; the
    host block records which tier was measured.
    """
    probe = [sys.executable, "-c",
             "import repro.native._native"]
    if subprocess.run(probe, env=env, cwd=ROOT, capture_output=True,
                      timeout=120).returncode != 0:
        subprocess.run([sys.executable, "-m", "repro.native.build"],
                       env=env, cwd=ROOT, capture_output=True, timeout=600)
    out = subprocess.run([sys.executable, "-m", "repro", "--version"],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=120)
    if out.returncode != 0:
        raise BenchError(f"repro --version failed: {out.stderr.strip()}")
    return out.stdout.strip()


def host_block(version_line: str, seed: int) -> Dict[str, object]:
    """Provenance of one run: machine, toolchain, program revision."""
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro_version": version_line,
        "git_commit": commit,
        "seed": seed,
    }


def nproc() -> int:
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1,
                   int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# ----------------------------------------------------------------------
# peak RSS of a process tree, sampled from /proc
# ----------------------------------------------------------------------
_PAGE = os.sysconf("SC_PAGE_SIZE")
#: seconds between two RSS samples
RSS_INTERVAL = 0.2


def _tree_rss_bytes(roots: Sequence[int]) -> int:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the ppid follows the parenthesised command name
        fields = stat[stat.rfind(b")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    total = 0
    todo = list(roots)
    seen = set()
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * _PAGE
        except (OSError, IndexError, ValueError):
            continue
        todo.extend(children.get(pid, ()))
    return total


class RssSampler:
    """Background sampler of the summed RSS of a process tree.

    ``roots`` may change while sampling (a serve workload swaps in the
    server it measures); the peak covers every tree sampled.
    """

    def __init__(self, roots: Sequence[int]):
        self.roots = list(roots)
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.sample()
            self._stop.wait(RSS_INTERVAL)

    def sample(self) -> None:
        self.peak = max(self.peak, _tree_rss_bytes(self.roots))

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 2**20


def time_subprocess(argv: List[str], env: Dict[str, str]) -> float:
    """Wall seconds from spawn to clean exit of ``argv``."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          timeout=120)
    elapsed = time.perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(
            f"{' '.join(argv)} exited {done.returncode}: "
            f"{done.stderr.decode(errors='replace')[-500:]}"
        )
    return elapsed


def import_setup_times(modules: Sequence[str], env: Dict[str, str],
                       repeats: int) -> List[float]:
    """Times to import ``modules`` and load the native tier.

    Each repeat is a fresh interpreter, so the figure is what a user
    pays before the first operation of a new process.
    """
    code = "; ".join(
        [f"import {m}" for m in modules]
        + ["from repro.native import native_kernels", "native_kernels()"]
    )
    return [time_subprocess([sys.executable, "-c", code], env)
            for _ in range(repeats)]


def digest(obj) -> str:
    """Canonical JSON of ``obj`` — equal iff the values are identical."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))

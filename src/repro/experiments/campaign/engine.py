"""Sharded, resumable campaign execution.

:func:`run_experiment` is the one execution path behind ``repro campaign
run/check`` and the benchmark suite:

1. resolve the experiment's shards and probe the artifact store — valid
   cached shards are *loaded*, everything else is *computed*;
2. run the missing shards, serially (``jobs=1``) or on one process pool
   from :func:`~repro.utils.pool.worker_pool` (``jobs>1``, validated by
   :func:`~repro.experiments.runner.check_jobs`, at most one worker per
   missing shard), persisting each shard **as it completes**
   — an interrupt loses at most the in-flight shards, cancels the queued
   ones, and a re-run resumes from the store;
3. fold all shard records *in shard order* through the experiment's
   ``finalize`` and render the artifact text.

Because every shard's records are wire-normalised (exact hex-float
round-trip) whether they were computed or cached, and the fold order is
the spec's shard order regardless of which worker ran what, a resumed or
parallel campaign aggregates **bit-identically** to an uninterrupted
serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.campaign.spec import Experiment, Shard
from repro.experiments.campaign.store import ArtifactStore, normalize
from repro.experiments.runner import check_jobs
from repro.utils.pool import worker_pool
from repro.utils.validation import ReproError

#: default location of the committed artifacts, relative to the cwd
RESULTS_DIR = Path("results")


def _call_shard(item: Tuple) -> Any:
    """Pool worker: run one shard (top-level for pickling)."""
    func, payload = item
    return func(payload)


@dataclass(frozen=True)
class CampaignRunReport:
    """Outcome of one campaign execution of one experiment."""

    name: str
    spec_hash: str
    text: str
    payload: Any
    shards_total: int
    shards_cached: int
    shards_computed: int
    wall_time_s: float

    def summary(self) -> str:
        return (
            f"[{self.name}] shards {self.shards_total} "
            f"(cached {self.shards_cached}, computed {self.shards_computed}) "
            f"in {self.wall_time_s:.2f}s  spec {self.spec_hash[:12]}"
        )


@dataclass(frozen=True)
class CampaignCheckReport:
    """Outcome of one byte-equality check against ``results/``."""

    name: str
    ok: bool
    message: str
    run: CampaignRunReport


def _compute_missing(
    missing: List[Shard],
    experiment: Experiment,
    store: ArtifactStore,
    jobs: int,
    use_cache: bool,
) -> Dict[str, Any]:
    """Run shards (serially or pooled), persisting each as it completes."""
    out: Dict[str, Any] = {}
    if not missing:
        return out
    if jobs == 1 or len(missing) == 1:
        for shard in missing:
            records = shard.func(shard.payload)
            if use_cache:
                out[shard.key] = store.save_shard(
                    experiment, shard.key, records
                )
            else:
                out[shard.key] = normalize(records)
        return out
    # submit shards individually and persist each in COMPLETION order —
    # pool.map would buffer finished results behind a slow head shard,
    # and an interrupt would then lose work that had actually completed.
    # (The fold in run_experiment stays in spec shard order either way,
    # so completion-order persistence cannot change any aggregate.)  A
    # persist failure or an interrupt aborts the drain, and the pool's
    # exit then cancels the queued shards instead of burning minutes of
    # Monte-Carlo work whose results nobody would persist.
    from concurrent.futures import as_completed

    first_error: Optional[BaseException] = None
    with worker_pool(jobs, len(missing)) as pool:
        futures = {
            pool.submit(_call_shard, (s.func, s.payload)): s for s in missing
        }
        for future in as_completed(futures):
            shard = futures[future]
            try:
                records = future.result()
            except Exception as exc:
                # keep draining: sibling shards that DID complete must
                # still be persisted, or a re-run would recompute them
                if first_error is None:
                    first_error = exc
                continue
            if use_cache:
                out[shard.key] = store.save_shard(
                    experiment, shard.key, records
                )
            else:
                out[shard.key] = normalize(records)
    if first_error is not None:
        raise first_error
    return out


def prefetch_shards(
    experiment: Union[str, Experiment],
    *,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    limit: Optional[int] = None,
) -> Tuple[int, int, int]:
    """Materialise up to ``limit`` missing shards into the store.

    Returns ``(cached, computed, remaining)``.  With ``limit`` this
    simulates / survives an interrupted campaign: whatever completed is
    persisted, and a later :func:`run_experiment` resumes from it.
    """
    experiment = resolve_experiment(experiment)
    check_jobs(jobs)
    store = store if store is not None else ArtifactStore()
    shards = experiment.shards()
    missing = [s for s in shards if store.load_shard(experiment, s.key) is None]
    cached = len(shards) - len(missing)
    to_run = missing if limit is None else missing[: max(limit, 0)]
    _compute_missing(to_run, experiment, store, jobs, use_cache=True)
    return cached, len(to_run), len(missing) - len(to_run)


def run_experiment(
    experiment: Union[str, Experiment],
    *,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    use_cache: bool = True,
) -> CampaignRunReport:
    """Execute one experiment through the cache and render its artifact."""
    experiment = resolve_experiment(experiment)
    check_jobs(jobs)
    store = store if store is not None else ArtifactStore()
    t0 = time.perf_counter()

    shards = experiment.shards()
    if len({s.key for s in shards}) != len(shards):
        raise ReproError(
            f"experiment {experiment.name!r} has duplicate shard keys"
        )
    results: Dict[str, Any] = {}
    missing: List[Shard] = []
    for shard in shards:
        records = store.load_shard(experiment, shard.key) if use_cache else None
        if records is None:
            missing.append(shard)
        else:
            results[shard.key] = records
    results.update(
        _compute_missing(missing, experiment, store, jobs, use_cache)
    )

    payload = normalize(
        experiment.finalize([results[s.key] for s in shards])
    )
    text = experiment.render(payload)
    wall = time.perf_counter() - t0
    if use_cache:
        store.save_result(
            experiment,
            payload,
            text,
            wall_time_s=wall,
            shards_cached=len(shards) - len(missing),
            shards_computed=len(missing),
        )
    return CampaignRunReport(
        name=experiment.name,
        spec_hash=experiment.spec_hash(),
        text=text,
        payload=payload,
        shards_total=len(shards),
        shards_cached=len(shards) - len(missing),
        shards_computed=len(missing),
        wall_time_s=wall,
    )


def artifact_path(name: str, results_dir: "Path | str | None" = None) -> Path:
    return Path(results_dir if results_dir is not None else RESULTS_DIR) / (
        name + ".txt"
    )


def write_artifact(
    report: CampaignRunReport, results_dir: "Path | str | None" = None
) -> Path:
    """Write the rendered artifact where the repo commits it."""
    path = artifact_path(report.name, results_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(report.text + "\n")
    return path


def check_experiment(
    experiment: Union[str, Experiment],
    *,
    jobs: int = 1,
    store: Optional[ArtifactStore] = None,
    results_dir: "Path | str | None" = None,
) -> CampaignCheckReport:
    """Regenerate one artifact and byte-compare it to the committed file."""
    report = run_experiment(experiment, jobs=jobs, store=store)
    path = artifact_path(report.name, results_dir)
    try:
        committed = path.read_bytes()
    except OSError:
        return CampaignCheckReport(
            report.name, False, f"missing artifact {path}", report
        )
    regenerated = (report.text + "\n").encode()
    if committed == regenerated:
        return CampaignCheckReport(report.name, True, "byte-identical", report)
    a = committed.decode(errors="replace").splitlines()
    b = regenerated.decode(errors="replace").splitlines()
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            msg = (
                f"first diff at line {i + 1}: "
                f"committed {la!r} != regenerated {lb!r}"
            )
            break
    else:
        msg = f"length differs: committed {len(a)} lines, regenerated {len(b)}"
    return CampaignCheckReport(report.name, False, msg, report)


def resolve_experiment(experiment: Union[str, Experiment]) -> Experiment:
    if isinstance(experiment, Experiment):
        return experiment
    from repro.experiments.campaign.registry import get_experiment

    return get_experiment(experiment)

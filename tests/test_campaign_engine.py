"""Tests for the campaign engine: cache hit/miss, resume, bit-identity."""

from __future__ import annotations

import json
import multiprocessing
import pathlib

import pytest

from repro.experiments.campaign import (
    ArtifactStore,
    check_experiment,
    get_experiment,
    prefetch_shards,
    run_experiment,
    write_artifact,
)
from repro.experiments.campaign.sweeps import SweepExperiment
from repro.utils.validation import ReproError
from tests.campaign_testlib import (
    CounterExperiment,
    FlakyCounterExperiment,
    ShardFault,
    make_counter,
)

_exp = make_counter

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _tiny_sweep() -> SweepExperiment:
    """A real (registry-family) sweep small enough for unit tests."""
    return SweepExperiment(
        name="tiny_sweep",
        title="tiny fig7a sweep for engine tests",
        figure="fig7",
        panel="a",
        x_values=(10, 20),
        trials=4,
        chunk=2,
    )


class TestCacheLifecycle:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_experiment(_exp(), store=store)
        assert (first.shards_cached, first.shards_computed) == (0, 3)
        second = run_experiment(_exp(), store=store)
        assert (second.shards_cached, second.shards_computed) == (3, 0)
        assert second.payload == first.payload
        assert second.text == first.text

    def test_no_cache_writes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiment(_exp(), store=store, use_cache=False)
        assert store.load_shard(_exp(), "trials-0-2") is None
        assert store.load_result(_exp()) is None

    def test_result_manifest_records_provenance(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiment(_exp(), store=store)
        doc = store.load_result(_exp())
        assert doc["manifest"]["shards_computed"] == 3
        assert doc["manifest"]["wall_time_s"] >= 0.0
        assert doc["manifest"]["spec"]["trials"] == 6

    def test_deleted_shard_recomputes_only_that_shard(self, tmp_path):
        store = ArtifactStore(tmp_path)
        baseline = run_experiment(_exp(), store=store)
        store.shard_path(_exp(), "trials-2-4").unlink()
        resumed = run_experiment(_exp(), store=store)
        assert (resumed.shards_cached, resumed.shards_computed) == (2, 1)
        assert resumed.payload == baseline.payload

    def test_corrupted_shard_recomputes_instead_of_serving(self, tmp_path):
        store = ArtifactStore(tmp_path)
        baseline = run_experiment(_exp(), store=store)
        path = store.shard_path(_exp(), "trials-0-2")
        doc = json.loads(path.read_text())
        doc["records"][0] = {"__float__": (99.0).hex()}  # poison, stale sum
        path.write_text(json.dumps(doc))
        resumed = run_experiment(_exp(), store=store)
        assert resumed.shards_computed == 1
        assert resumed.payload == baseline.payload  # poison was not served

    def test_stale_spec_lands_in_fresh_slot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        run_experiment(_exp(), store=store)
        changed = run_experiment(_exp(trials=4), store=store)
        assert changed.shards_computed == 2  # nothing reused across specs

    def test_interrupt_then_resume(self, tmp_path):
        store = ArtifactStore(tmp_path)
        # simulate an interrupt: only one shard completed before the kill
        cached, computed, remaining = prefetch_shards(
            _exp(), store=store, limit=1
        )
        assert (cached, computed, remaining) == (0, 1, 2)
        resumed = run_experiment(_exp(), store=store)
        assert (resumed.shards_cached, resumed.shards_computed) == (1, 2)
        fresh = run_experiment(
            _exp(), store=ArtifactStore(tmp_path / "other"), use_cache=False
        )
        assert resumed.payload == fresh.payload


class TestPooledShardFailure:
    def test_failed_shard_drains_siblings_and_resumes(self, tmp_path):
        trigger = tmp_path / "fault"
        trigger.touch()
        exp = FlakyCounterExperiment(
            name="flaky", title="t", trials=8, trigger=str(trigger)
        )
        keys = [s.key for s in exp.shards()]
        assert len(keys) == 4
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ShardFault, match="shard 2-4 failed"):
            run_experiment(exp, jobs=2, store=store)
        assert multiprocessing.active_children() == []
        # the three siblings were persisted although shard 1 failed
        stored = [store.load_shard(exp, key) is not None for key in keys]
        assert stored == [True, False, True, True]
        trigger.unlink()
        resumed = run_experiment(exp, jobs=2, store=store)
        assert (resumed.shards_cached, resumed.shards_computed) == (3, 1)
        fresh = run_experiment(
            exp, store=ArtifactStore(tmp_path / "fresh"), use_cache=False
        )
        assert resumed.payload == fresh.payload
        assert multiprocessing.active_children() == []


class TestBitIdentity:
    """The acceptance criterion: interrupted parallel == uninterrupted serial."""

    def test_parallel_equals_serial(self, tmp_path):
        exp = _tiny_sweep()
        serial = run_experiment(
            exp, store=ArtifactStore(tmp_path / "a"), use_cache=False
        )
        parallel = run_experiment(
            exp, jobs=2, store=ArtifactStore(tmp_path / "b"), use_cache=False
        )
        assert parallel.payload == serial.payload
        assert parallel.text == serial.text

    def test_interrupted_parallel_resume_equals_serial(self, tmp_path):
        exp = _tiny_sweep()
        serial = run_experiment(
            exp, store=ArtifactStore(tmp_path / "serial"), use_cache=False
        )
        store = ArtifactStore(tmp_path / "resume")
        # interrupt a jobs=2 campaign after two of four shards
        cached, computed, remaining = prefetch_shards(
            exp, jobs=2, store=store, limit=2
        )
        assert (cached, computed, remaining) == (0, 2, 2)
        resumed = run_experiment(exp, jobs=2, store=store)
        assert (resumed.shards_cached, resumed.shards_computed) == (2, 2)
        assert resumed.payload == serial.payload
        assert resumed.text == serial.text

    def test_cache_roundtrip_is_exact_for_sweeps(self, tmp_path):
        exp = _tiny_sweep()
        store = ArtifactStore(tmp_path)
        first = run_experiment(exp, store=store)
        again = run_experiment(exp, store=store)
        assert again.shards_computed == 0
        assert again.payload == first.payload


class TestCheckAndArtifacts:
    def test_check_ok_and_diff(self, tmp_path):
        store = ArtifactStore(tmp_path / "cache")
        results = tmp_path / "results"
        report = run_experiment(_exp(), store=store)
        path = write_artifact(report, results)
        assert path.read_text() == report.text + "\n"
        ok = check_experiment(_exp(), store=store, results_dir=results)
        assert ok.ok and ok.message == "byte-identical"
        path.write_text("tampered\n")
        bad = check_experiment(_exp(), store=store, results_dir=results)
        assert not bad.ok and "first diff" in bad.message

    def test_check_missing_artifact(self, tmp_path):
        report = check_experiment(
            _exp(),
            store=ArtifactStore(tmp_path / "cache"),
            results_dir=tmp_path / "nowhere",
        )
        assert not report.ok and "missing artifact" in report.message

    def test_registry_name_resolution(self, tmp_path):
        store = ArtifactStore(tmp_path)
        report = run_experiment("fig2_example", store=store)
        committed = (REPO_ROOT / "results" / "fig2_example.txt").read_text()
        assert report.text + "\n" == committed
        get_experiment("fig2_example").verify(report.payload)

    def test_unknown_experiment_raises(self):
        with pytest.raises(ReproError):
            run_experiment("no-such-experiment")

    def test_duplicate_shard_keys_rejected(self, tmp_path):
        class Dup(CounterExperiment):
            def shards(self):
                base = super().shards()
                return (base[0], base[0])

        with pytest.raises(ReproError):
            run_experiment(
                Dup(name="dup", title="t"), store=ArtifactStore(tmp_path)
            )

    def test_invalid_jobs_rejected(self, tmp_path):
        from repro.utils.validation import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            run_experiment(_exp(), jobs=0, store=ArtifactStore(tmp_path))
        with pytest.raises(InvalidParameterError):
            prefetch_shards(_exp(), jobs=0, store=ArtifactStore(tmp_path))

    def test_router_power_render_degenerate_is_clean_error(self):
        # a regime with zero doubly-valid instances must raise ReproError
        # (clean exit 2 in the CLI), not ZeroDivisionError
        exp = get_experiment("ablation_router_power")
        zero = {
            "both_sums": {"0": {"XYI": 0.0, "PR": 0.0}},
            "inv": {"0": {"XYI": 0.0, "PR": 0.0}},
            "succ": {"XYI": 0, "PR": 0},
            "routers": {"XYI": 0.0, "PR": 0.0},
            "both": 0,
        }
        payload = {
            "trials": 1,
            "regimes": {"light": zero, "constrained": zero},
        }
        with pytest.raises(ReproError, match="raise --trials"):
            exp.render(payload)

"""Mini-scale end-to-end runs of every campaign family.

The full-scale artifact regeneration lives in
``benchmarks/test_campaign.py``; here every family's worker / finalize /
render path is exercised at a reduced scale (fewer trials, shorter
simulations) so regressions in the campaign ports surface in the fast
tier-1 ``tests/`` suite too.  Scaled-down specs hash to their own cache
slots, so these runs never pollute (or get served from) the full-scale
cache entries.
"""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.experiments.campaign import (
    ArtifactStore,
    available_experiments,
    get_experiment,
    prefetch_shards,
    run_experiment,
)
from repro.experiments.campaign.sweeps import TrialExperiment
from repro.experiments.runner import BEST_KEY, run_point

#: per-experiment overrides that shrink the mini run (None = run as-is)
_MINI_OVERRIDES = {
    "fig7a_small_comms": dict(x_values=(20, 80, 140), trials=3, chunk=2),
    "fig7b_mixed_comms": dict(x_values=(10, 40), trials=2, chunk=2),
    "fig7c_big_comms": dict(x_values=(4, 28), trials=2, chunk=2),
    "fig8a_few_comms": dict(x_values=(200, 1400, 2000), trials=2, chunk=1),
    "fig8b_some_comms": dict(x_values=(200, 2300), trials=2, chunk=2),
    "fig8c_numerous_comms": dict(x_values=(200, 1000), trials=2, chunk=2),
    "fig9a_numerous_small": dict(x_values=(2, 6), trials=2, chunk=2),
    "fig9b_some_mixed": dict(x_values=(2, 4), trials=2, chunk=2),
    "fig9c_few_big": dict(x_values=(2, 6), trials=2, chunk=2),
    "summary_6_4": dict(trials=3, chunk=2),
    "fig2_example": None,
    "theorem1_ratio": dict(sizes=(4, 8)),
    "lemma2_ratio": dict(sizes=(4, 8, 16)),
    "ablation_best_members": dict(trials=3, chunk=2),
    "ablation_frequency_ladder": dict(trials=2, chunk=1),
    "ablation_improver_start": dict(trials=2, chunk=1),
    "ablation_leakage": dict(trials=2),
    "ablation_ordering": dict(trials=2, chunk=1),
    # needs enough trials for a doubly-valid instance in both regimes
    "ablation_router_power": dict(trials=8),
    "meta_heuristics": dict(trials=2, chunk=1),
    "multipath_gain": None,
    "noc_latency": dict(cycles=600, warmup=120),
    "open_problem": dict(segments=12),
    "optimality_gap": dict(trials=4, chunk=2),
    "reorder_overhead": dict(cycles=1500, warmup=150),
    "traffic_patterns": None,
    "app_workloads": None,
}


def test_every_experiment_has_a_mini_config():
    assert set(_MINI_OVERRIDES) == set(available_experiments())


@pytest.mark.parametrize("name", sorted(_MINI_OVERRIDES))
def test_family_end_to_end_mini(name, tmp_path):
    exp = get_experiment(name)
    overrides = _MINI_OVERRIDES[name]
    if overrides:
        exp = replace(exp, **overrides)
        assert exp.spec_hash() != get_experiment(name).spec_hash()
    store = ArtifactStore(tmp_path)
    report = run_experiment(exp, store=store)
    assert report.shards_computed == report.shards_total
    assert isinstance(report.text, str) and report.text
    # a second run is served entirely from cache, bit-identically
    again = run_experiment(exp, store=store)
    assert again.shards_computed == 0
    assert again.payload == report.payload
    assert again.text == report.text
    # the qualitative pins are calibrated to the full-scale budgets;
    # exercise them (full-scale assertions run in benchmarks/
    # test_campaign.py) but tolerate misses at mini scale
    try:
        exp.verify(report.payload)
    except AssertionError:
        assert overrides is not None, f"{name}: full-scale pins failed"


def test_campaign_summary_is_the_library_summary(tmp_path):
    """The §6.4 campaign shards and ``summary_statistics`` are one
    computation: the same trial records through the same fold."""
    from repro.experiments import summary_statistics

    exp = replace(get_experiment("summary_6_4"), trials=6, chunk=2)
    assert exp.seed == 64
    payload = run_experiment(
        exp, store=ArtifactStore(tmp_path), use_cache=False
    ).payload
    lib = summary_statistics(trials=6, seed=64)
    for key in ("success_ratio", "inverse_vs_xy"):
        assert {n: v.hex() for n, v in payload[key].items()} == {
            n: v.hex() for n, v in getattr(lib, key).items()
        }, key
    assert payload["static_fraction"].hex() == lib.static_fraction.hex()


#: the fields a campaign trial and a ``run_point`` trial must share, in hex
_TRIAL_FIELDS = (
    "successes",
    "norm_power_inverse",
    "mean_power_inverse",
    "mean_static_fraction",
)


def _trial_families():
    return [
        name
        for name in available_experiments()
        if isinstance(get_experiment(name), TrialExperiment)
    ]


def _stats_hex(point):
    return {
        n: [
            v.hex() if isinstance(v, float) else v
            for v in (getattr(st, f) for f in _TRIAL_FIELDS)
        ]
        for n, st in point.stats.items()
    }


@pytest.mark.parametrize("name", _trial_families())
def test_campaign_trial_is_a_run_point_trial(name, tmp_path):
    """Every Monte-Carlo family is ``run_point`` on its points and roster:
    the fold of its pooled shards equals ``run_point`` at ``jobs`` 1 and 2,
    labelled ``(label, factory)`` members included."""
    exp = get_experiment(name)
    mini = dict(trials=4)
    if "chunk" in {f.name for f in fields(exp)}:
        mini["chunk"] = 2
    if "x_values" in {f.name for f in fields(exp)}:
        mini["x_values"] = _MINI_OVERRIDES[name]["x_values"][:1]
    exp = replace(exp, **mini)
    store = ArtifactStore(tmp_path)
    assert prefetch_shards(exp, jobs=2, store=store)[2] == 0
    folded = exp.fold([store.load_shard(exp, s.key) for s in exp.shards()])
    assert len(folded) == len(exp.points())
    for point, (mesh, power, workload, seed, x) in zip(folded, exp.points()):
        assert list(point.stats)[-1] == BEST_KEY
        for jobs in (1, 2):
            direct = run_point(
                mesh, power, workload, 4, seed, exp.roster(), x=x, jobs=jobs
            )
            assert direct.x == point.x
            assert _stats_hex(direct) == _stats_hex(point), (x, jobs)

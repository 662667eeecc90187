"""Tests for the published app graphs and bandwidth-aware mapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mesh, RoutingProblem
from repro.heuristics import get_heuristic
from repro.utils.validation import InvalidParameterError
from repro.workloads import (
    PUBLISHED_APPS,
    annealed_placement,
    bandwidth_aware_placement,
    map_applications,
    mpeg4_app,
    mwd_app,
    pip_app,
    placement_cost,
    published_app,
    random_placement,
    region_split,
    vopd_app,
)
from repro.workloads.apps import (
    MPEG4_EDGES_MBPS,
    MWD_EDGES_MBPS,
    PIP_EDGES_MBPS,
    VOPD_EDGES_MBPS,
)


class TestPublishedApps:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_APPS))
    def test_builds_and_is_consistent(self, name):
        app = published_app(name)
        assert app.num_tasks >= 8
        assert app.edges, "published app must have edges"
        for (a, b), rate in app.edges.items():
            assert 0 <= a < app.num_tasks and 0 <= b < app.num_tasks
            assert rate > 0

    def test_scale_multiplies_rates(self):
        one = vopd_app(scale=1.0)
        four = vopd_app(scale=4.0)
        for edge, rate in one.edges.items():
            assert four.edges[edge] == pytest.approx(4.0 * rate)

    def test_edge_tables_match_builders(self):
        assert len(vopd_app().edges) == len(VOPD_EDGES_MBPS)
        assert len(mpeg4_app().edges) == len(MPEG4_EDGES_MBPS)
        assert len(mwd_app().edges) == len(MWD_EDGES_MBPS)
        assert len(pip_app().edges) == len(PIP_EDGES_MBPS)

    def test_mpeg4_hub_structure(self):
        """The SDRAM hub touches most tasks — the defining feature."""
        app = mpeg4_app(scale=1.0)
        from repro.workloads.apps import MPEG4_TASKS

        sdram = MPEG4_TASKS.index("sdram")
        touching = {
            a if b == sdram else b
            for (a, b) in app.edges
            if sdram in (a, b)
        }
        assert len(touching) >= 7

    def test_default_scale_is_link_routable(self):
        """Every edge must fit a 3500 Mb/s link at the default scale."""
        for name in PUBLISHED_APPS:
            app = published_app(name)
            assert max(app.edges.values()) <= 3500.0

    def test_unknown_app_rejected(self):
        with pytest.raises(InvalidParameterError):
            published_app("h264")

    def test_bad_scale_rejected(self):
        with pytest.raises(InvalidParameterError):
            vopd_app(scale=0.0)


class TestPlacementCost:
    def test_zero_for_adjacent_chain(self, mesh8):
        app = pip_app()
        # row-major placement of a chain: cost = sum(rate * distance)
        placement = [(0, v) for v in range(app.num_tasks)]
        cost = placement_cost(app, placement)
        expected = sum(
            rate * abs(a - b) for (a, b), rate in app.edges.items()
        )
        assert cost == pytest.approx(expected)

    def test_wrong_length_rejected(self, mesh8):
        with pytest.raises(InvalidParameterError):
            placement_cost(pip_app(), [(0, 0)])


class TestBandwidthAwarePlacement:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_APPS))
    def test_distinct_cores(self, name, mesh8):
        app = published_app(name)
        placement = bandwidth_aware_placement(mesh8, app, rng=1)
        assert len(placement) == app.num_tasks
        assert len(set(placement)) == app.num_tasks

    def test_beats_random_on_average(self, mesh8):
        app = vopd_app()
        greedy = placement_cost(
            app, bandwidth_aware_placement(mesh8, app, rng=0)
        )
        rnd = np.mean(
            [
                placement_cost(
                    app, random_placement(mesh8, app.num_tasks, rng=s)
                )
                for s in range(10)
            ]
        )
        assert greedy < rnd

    def test_respects_region(self, mesh8):
        app = pip_app()
        region = [(u, v) for u in range(4) for v in range(4)]
        placement = bandwidth_aware_placement(mesh8, app, region=region, rng=2)
        assert set(placement) <= set(region)

    def test_region_too_small_rejected(self, mesh8):
        with pytest.raises(InvalidParameterError):
            bandwidth_aware_placement(
                mesh8, vopd_app(), region=[(0, 0), (0, 1)]
            )

    def test_duplicate_region_rejected(self, mesh8):
        with pytest.raises(InvalidParameterError):
            bandwidth_aware_placement(
                mesh8, pip_app(), region=[(0, 0)] * 10
            )

    def test_deterministic_given_rng(self, mesh8):
        app = mwd_app()
        a = bandwidth_aware_placement(mesh8, app, rng=7)
        b = bandwidth_aware_placement(mesh8, app, rng=7)
        assert a == b


class TestAnnealedPlacement:
    def test_not_worse_than_greedy(self, mesh8):
        app = vopd_app()
        greedy = placement_cost(
            app, bandwidth_aware_placement(mesh8, app, rng=0)
        )
        annealed = placement_cost(
            app, annealed_placement(mesh8, app, iterations=1200, seed=0)
        )
        assert annealed <= greedy * (1 + 1e-9)

    def test_distinct_cores(self, mesh8):
        placement = annealed_placement(
            mesh8, mpeg4_app(), iterations=500, seed=3
        )
        assert len(set(placement)) == len(placement)

    def test_respects_region(self, mesh8):
        region = [(u, v) for u in range(3) for v in range(3)]
        placement = annealed_placement(
            mesh8, pip_app(), region=region, iterations=400, seed=4
        )
        assert set(placement) <= set(region)

    def test_deterministic(self, mesh8):
        a = annealed_placement(mesh8, mwd_app(), iterations=300, seed=9)
        b = annealed_placement(mesh8, mwd_app(), iterations=300, seed=9)
        assert a == b

    def test_iterations_validation(self, mesh8):
        with pytest.raises(InvalidParameterError):
            annealed_placement(mesh8, pip_app(), iterations=0)


class TestRegionSplit:
    def test_disjoint_and_sized(self, mesh8):
        regions = region_split(mesh8, [12, 12, 8])
        assert [len(r) for r in regions] == [12, 12, 8]
        flat = [c for r in regions for c in r]
        assert len(set(flat)) == len(flat)

    def test_overflow_rejected(self, mesh8):
        with pytest.raises(InvalidParameterError):
            region_split(mesh8, [60, 60])

    def test_bad_size_rejected(self, mesh8):
        with pytest.raises(InvalidParameterError):
            region_split(mesh8, [0])

    def test_regions_are_compact_strips(self, mesh8):
        """Full-column strips: the span of columns is minimal."""
        (region,) = region_split(mesh8, [16])
        cols = {v for _, v in region}
        assert len(cols) == 2  # 16 cores = 2 full 8-core columns


class TestEndToEnd:
    def test_four_apps_route_validly(self, mesh8, pm_kh):
        apps = [vopd_app(), mpeg4_app(), mwd_app(), pip_app()]
        regions = region_split(mesh8, [a.num_tasks for a in apps])
        placements = [
            annealed_placement(mesh8, a, region=r, iterations=400, seed=0)
            for a, r in zip(apps, regions)
        ]
        comms = map_applications(apps, placements)
        problem = RoutingProblem(mesh8, pm_kh, comms)
        res = get_heuristic("XYI").solve(problem)
        assert res.valid

    def test_better_mapping_means_less_power(self, mesh8, pm_kh):
        """Bandwidth-aware mapping beats random mapping downstream."""
        app = vopd_app(scale=4.0)
        good = bandwidth_aware_placement(mesh8, app, rng=0)
        bad = random_placement(mesh8, app.num_tasks, rng=0)
        powers = {}
        for label, placement in (("good", good), ("bad", bad)):
            comms = map_applications([app], [placement])
            problem = RoutingProblem(mesh8, pm_kh, comms)
            res = get_heuristic("XYI").solve(problem)
            powers[label] = res.power if res.valid else float("inf")
        assert powers["good"] < powers["bad"]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_annealed_beats_or_ties_greedy(seed):
    mesh = Mesh(6, 6)
    app = pip_app()
    greedy = placement_cost(
        app, bandwidth_aware_placement(mesh, app, rng=seed)
    )
    annealed = placement_cost(
        app, annealed_placement(mesh, app, iterations=600, seed=seed)
    )
    assert annealed <= greedy * (1 + 1e-9)

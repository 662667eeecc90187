"""Unit tests for the scenario engine (spec, registry, runner)."""

import pickle

import pytest

from repro import Mesh
from repro.scenarios import (
    MeshSpec,
    Scenario,
    available_scenarios,
    duplex,
    get_scenario,
    register_scenario,
    run_scenario,
)
from repro.scenarios.registry import _REGISTRY
from repro.experiments.config import UniformRandomFactory
from repro.utils.validation import InvalidParameterError


class TestMeshSpec:
    def test_pristine_build(self):
        spec = MeshSpec.pristine(3, 5)
        mesh = spec.build()
        assert mesh == Mesh(3, 5) and mesh.is_pristine
        assert spec.is_pristine

    def test_dead_links_build(self):
        spec = MeshSpec(4, 4, dead_links=duplex(((0, 0), (0, 1))))
        mesh = spec.build()
        base = Mesh(4, 4)
        expected = {base.link_east(0, 0), base.link_west(0, 1)}
        assert set(mesh.dead_link_ids()) == expected

    def test_scale_rect_hits_interior_links_only(self):
        spec = MeshSpec(4, 4, scale_rects=((1, 1, 2, 2, 2.0),))
        mesh = spec.build()
        scale = mesh.link_scale
        lid_in = mesh.link_east(1, 1)  # (1,1)->(1,2): both ends inside
        lid_cross = mesh.link_east(1, 0)  # (1,0)->(1,1): tail outside
        assert scale[lid_in] == 2.0
        assert scale[lid_cross] == 1.0

    def test_overlapping_rects_compose_multiplicatively(self):
        spec = MeshSpec(
            4, 4, scale_rects=((0, 0, 3, 3, 2.0), (1, 1, 2, 2, 1.5))
        )
        mesh = spec.build()
        assert mesh.link_scale[mesh.link_east(1, 1)] == 3.0
        assert mesh.link_scale[mesh.link_east(0, 0)] == 2.0

    def test_center_derated_helper(self):
        mesh = MeshSpec.center_derated(8, 8, factor=1.6, radius=1).build()
        assert mesh.link_scale is not None
        assert mesh.link_scale[mesh.link_east(4, 3)] == 1.6
        assert mesh.link_scale[mesh.link_east(0, 0)] == 1.0

    def test_specs_are_hashable_and_picklable(self):
        spec = MeshSpec(4, 4, dead_links=duplex(((0, 0), (0, 1))),
                        scale_rects=((0, 0, 1, 1, 1.5),))
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert spec.build() == spec.build()

    def test_rejects_empty_rect_and_bad_factor(self):
        with pytest.raises(InvalidParameterError):
            MeshSpec(4, 4, scale_rects=((2, 2, 1, 1, 1.5),))
        with pytest.raises(InvalidParameterError):
            MeshSpec(4, 4, scale_rects=((0, 0, 1, 1, 0.0),))

    def test_describe_mentions_profile(self):
        spec = MeshSpec(4, 4, dead_links=duplex(((0, 0), (0, 1))),
                        scale_rects=((0, 0, 1, 1, 1.5),))
        text = spec.describe()
        assert "4x4" in text and "dead" in text and "derated" in text


class TestRegistry:
    def test_builtins_present(self):
        names = available_scenarios()
        for expected in (
            "paper-baseline",
            "faulty-links",
            "hotspot-derate",
            "narrow-mesh",
            "hotspot-traffic",
        ):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(InvalidParameterError):
            get_scenario("definitely-not-registered")

    def test_duplicate_registration_rejected(self):
        sc = get_scenario("paper-baseline")
        with pytest.raises(InvalidParameterError):
            register_scenario(sc)

    def test_register_and_cleanup(self):
        sc = Scenario(
            name="tmp-test-scenario",
            description="temporary",
            mesh=MeshSpec.pristine(3, 3),
            workload=UniformRandomFactory(3, 100.0, 500.0),
            trials=1,
            seed=0,
        )
        register_scenario(sc)
        try:
            assert get_scenario("tmp-test-scenario") is sc
        finally:
            del _REGISTRY["tmp-test-scenario"]

    def test_scenario_validation(self):
        good = dict(
            name="x",
            description="d",
            mesh=MeshSpec.pristine(3, 3),
            workload=UniformRandomFactory(3, 100.0, 500.0),
            trials=1,
            seed=0,
        )
        with pytest.raises(InvalidParameterError):
            Scenario(**{**good, "trials": 0})
        with pytest.raises(InvalidParameterError):
            Scenario(**{**good, "power": "nope"})
        with pytest.raises(InvalidParameterError):
            Scenario(**{**good, "heuristics": ()})

    def test_scenarios_are_picklable(self):
        for name in available_scenarios():
            sc = get_scenario(name)
            assert pickle.loads(pickle.dumps(sc)) == sc


class TestRunner:
    def test_overrides_apply(self):
        res = run_scenario("paper-baseline", trials=2, seed=123)
        assert res.scenario.trials == 2
        assert res.scenario.seed == 123
        assert res.stats["BEST"].trials == 2

    def test_overrides_change_the_draw(self):
        a = run_scenario("paper-baseline", trials=2, seed=1).to_jsonable()
        b = run_scenario("paper-baseline", trials=2, seed=2).to_jsonable()
        assert a != b

    def test_text_report_lists_roster(self):
        res = run_scenario("faulty-links", trials=2)
        text = res.to_text()
        for name in res.scenario.heuristics + ("BEST",):
            assert name in text

    def test_jsonable_excludes_wallclock(self):
        doc = run_scenario("paper-baseline", trials=1).to_jsonable()
        flat = str(doc)
        assert "runtime" not in flat
        st = doc["stats"]["BEST"]
        # every float field is an exact hex string
        float.fromhex(st["norm_power_inverse"])
        float.fromhex(st["mean_power_inverse"])
        float.fromhex(st["mean_static_fraction"])

    def test_faulty_scenario_mesh_reaches_the_workers(self):
        """jobs=2 ships the profiled mesh through pickling intact."""
        a = run_scenario("faulty-derated", trials=2)
        b = run_scenario("faulty-derated", trials=2, jobs=2)
        assert a.to_jsonable() == b.to_jsonable()

    def test_accepts_scenario_object(self):
        sc = get_scenario("narrow-mesh")
        res = run_scenario(sc, trials=1)
        assert res.scenario.name == "narrow-mesh"

"""Property tests: the flat-array kernel must match the per-hop reference.

The vectorised primitives (`moves_to_links_array`, `FlatRoutingKernel`,
`PowerModel.total_power_graded_many`, `Path.from_validated`) exist purely
for speed — every test here pins them to the slow, obviously-correct
implementations they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mesh, PowerModel
from repro.mesh.kernel import (
    FlatRoutingKernel,
    moves_to_links_array,
    moves_to_vmask,
    stack_vmasks,
)
from repro.mesh.moves import moves_to_links, two_bend_moves, xy_moves
from repro.mesh.paths import CommDag, Path
from repro.utils.validation import InvalidParameterError


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def mesh_and_pair(draw):
    """A random mesh plus two distinct cores on it."""
    p = draw(st.integers(min_value=1, max_value=9))
    q = draw(st.integers(min_value=1, max_value=9))
    if p * q < 2:
        q = 2  # guarantee two distinct cores
    mesh = Mesh(p, q)
    a = draw(st.integers(min_value=0, max_value=mesh.num_cores - 1))
    b = draw(
        st.integers(min_value=0, max_value=mesh.num_cores - 2).map(
            lambda x: x if x < a else x + 1
        )
    )
    return mesh, mesh.core_coords(a), mesh.core_coords(b)


@st.composite
def mesh_pair_moves(draw):
    """A mesh, a pair, and a random Manhattan move string joining them."""
    mesh, src, snk = draw(mesh_and_pair())
    du = abs(snk[0] - src[0])
    dv = abs(snk[1] - src[1])
    slots = ["V"] * du + ["H"] * dv
    perm = draw(st.permutations(slots))
    return mesh, src, snk, "".join(perm)


class TestMovesToLinksArray:
    @given(mesh_pair_moves())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_single(self, data):
        mesh, src, snk, moves = data
        ref = moves_to_links(mesh, src, snk, moves)
        got = moves_to_links_array(mesh, src, snk, moves)
        assert got.dtype == np.int64
        assert got.tolist() == ref

    @given(mesh_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_two_bend_batch(self, data):
        mesh, src, snk = data
        cands = two_bend_moves(src, snk)
        batch = moves_to_links_array(mesh, src, snk, cands)
        assert batch.shape == (len(cands), len(cands[0]))
        for row, m in zip(batch, cands):
            assert row.tolist() == moves_to_links(mesh, src, snk, m)

    @given(mesh_pair_moves())
    @settings(max_examples=100, deadline=None)
    def test_accepts_precomputed_vmask(self, data):
        mesh, src, snk, moves = data
        vmask = moves_to_vmask(moves)
        got = moves_to_links_array(mesh, src, snk, vmask)
        assert got.tolist() == moves_to_links(mesh, src, snk, moves)

    def test_rejects_wrong_length(self):
        mesh = Mesh(4, 4)
        with pytest.raises(InvalidParameterError):
            moves_to_links_array(mesh, (0, 0), (2, 2), "HV")

    def test_rejects_wrong_counts(self):
        mesh = Mesh(4, 4)
        with pytest.raises(InvalidParameterError):
            moves_to_links_array(mesh, (0, 0), (2, 2), "HHHH")

    def test_rejects_foreign_moves(self):
        mesh = Mesh(4, 4)
        with pytest.raises(InvalidParameterError):
            moves_to_links_array(mesh, (0, 0), (2, 2), "HVXV")

    def test_rejects_ragged_batch(self):
        with pytest.raises(InvalidParameterError):
            stack_vmasks(["HV", "HVH"])


class TestPathFromValidated:
    @given(mesh_pair_moves())
    @settings(max_examples=100, deadline=None)
    def test_equals_validated_constructor(self, data):
        mesh, src, snk, moves = data
        fast = Path.from_validated(mesh, src, snk, moves)
        slow = Path(mesh, src, snk, moves)
        assert fast == slow
        assert fast.link_ids.tolist() == slow.link_ids.tolist()
        assert not fast.link_ids.flags.writeable

    def test_accepts_precomputed_links(self):
        mesh = Mesh(5, 5)
        moves = xy_moves((0, 0), (3, 4))
        lids = moves_to_links_array(mesh, (0, 0), (3, 4), moves)
        path = Path.from_validated(mesh, (0, 0), (3, 4), moves, lids)
        assert path == Path(mesh, (0, 0), (3, 4), moves)


class TestFlatRoutingKernel:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_loads_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        p, q = rng.integers(2, 8, size=2)
        mesh = Mesh(int(p), int(q))
        n = int(rng.integers(1, 10))
        endpoints, rates, movess = [], [], []
        for _ in range(n):
            a, b = rng.choice(mesh.num_cores, size=2, replace=False)
            src, snk = mesh.core_coords(int(a)), mesh.core_coords(int(b))
            endpoints.append((src, snk))
            rates.append(float(rng.uniform(1.0, 100.0)))
            movess.append(CommDag(mesh, src, snk).random_moves(rng))
        kernel = FlatRoutingKernel(mesh, endpoints, rates)
        vmask = kernel.routing_vmask(movess)
        # link ids, hop by hop
        ref_links = [
            lid
            for (src, snk), m in zip(endpoints, movess)
            for lid in moves_to_links(mesh, src, snk, m)
        ]
        assert kernel.links(vmask).tolist() == ref_links
        # loads
        ref_loads = np.zeros(mesh.num_links)
        for (src, snk), m, r in zip(endpoints, movess, rates):
            np.add.at(ref_loads, moves_to_links(mesh, src, snk, m), r)
        assert np.allclose(kernel.loads(vmask), ref_loads)
        # population form: stacked rows evaluate like the flat form
        pop = kernel.loads(kernel.population_vmask([movess, movess]))
        assert pop.shape == (2, mesh.num_links)
        assert np.array_equal(pop[0], pop[1])
        assert np.allclose(pop[0], ref_loads)

    def test_rejects_mismatched_rates(self):
        mesh = Mesh(3, 3)
        with pytest.raises(InvalidParameterError):
            FlatRoutingKernel(mesh, [((0, 0), (1, 1))], [1.0, 2.0])

    def test_rejects_wrong_genome_shape(self):
        mesh = Mesh(3, 3)
        kernel = FlatRoutingKernel(mesh, [((0, 0), (1, 1))], [1.0])
        with pytest.raises(InvalidParameterError):
            kernel.routing_vmask(["HV", "VH"])
        with pytest.raises(InvalidParameterError):
            kernel.routing_vmask(["HVH"])

    def test_rejects_per_comm_malformations(self):
        """Per-communication checks: compensating lengths and wrong V
        counts must raise, not silently shift the hop geometry."""
        mesh = Mesh(4, 4)
        kernel = FlatRoutingKernel(
            mesh, [((0, 0), (1, 1)), ((0, 0), (1, 1))], [1.0, 1.0]
        )
        with pytest.raises(InvalidParameterError):
            kernel.routing_vmask(["H", "VHV"])  # lengths compensate to 4
        with pytest.raises(InvalidParameterError):
            kernel.routing_vmask(["HH", "VV"])  # right lengths, wrong V count
        with pytest.raises(InvalidParameterError):
            kernel.routing_vmask(["HX", "VH"])  # foreign move character


class TestTotalPowerGradedMany:
    @pytest.mark.parametrize(
        "model",
        [
            PowerModel.kim_horowitz(),
            PowerModel.continuous_kim_horowitz(),
            PowerModel.fig2_example(),
        ],
        ids=["discrete", "continuous", "fig2"],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_scalar_evaluation(self, model, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 12))
        links = int(rng.integers(1, 64))
        # mix of idle, nominal and overloaded loads
        loads = rng.uniform(0.0, 1.5 * model.bandwidth, size=(rows, links))
        loads[rng.random(size=loads.shape) < 0.3] = 0.0
        batched = model.total_power_graded_many(loads)
        assert batched.shape == (rows,)
        for b in range(rows):
            assert batched[b] == model.total_power_graded(loads[b])

    def test_rejects_non_2d(self):
        model = PowerModel.fig2_example()
        with pytest.raises(InvalidParameterError):
            model.total_power_graded_many(np.zeros(5))


class TestGradedTablesCaching:
    def test_cached_property_survives_frozen_dataclass(self):
        model = PowerModel.kim_horowitz()
        first = model._graded_tables
        assert model._graded_tables is first  # cached, not rebuilt
        # the cache must not leak into equality or hashing
        assert model == PowerModel.kim_horowitz()
        assert hash(model) == hash(PowerModel.kim_horowitz())

    def test_model_picklable_after_caching(self):
        import pickle

        model = PowerModel.kim_horowitz()
        model.link_power_graded(np.array([0.0, 500.0, 5000.0]))  # warm cache
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        a = clone.link_power_graded(np.array([0.0, 500.0, 5000.0]))
        b = model.link_power_graded(np.array([0.0, 500.0, 5000.0]))
        assert np.array_equal(a, b)

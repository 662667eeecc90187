"""Hypothesis property tests for the masked kernel and fault-aware routing.

Three families of properties:

* the flat kernel's ``links`` / ``loads`` agree with a scalar per-path
  recomputation through :func:`repro.mesh.moves.moves_to_links` on random
  meshes, endpoints and move strings;
* ``dead_hop_mask`` / ``uses_dead_link`` agree with the scalar definition
  under random fault masks;
* the rectangle-reachability heuristics (SG, IG, PR) never route over a
  masked link when every communication still has a live Manhattan path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.heuristics import get_heuristic
from repro.mesh.kernel import FlatRoutingKernel
from repro.mesh.moves import moves_to_links
from repro.mesh.paths import CommDag


def draw_instance(seed: int, p: int, q: int, n: int, fault_prob: float):
    """Deterministic random mesh + fault mask + comms + one path each."""
    rng = np.random.default_rng(seed)
    pristine = Mesh(p, q)
    mask = rng.random(pristine.num_links) >= fault_prob
    mesh = Mesh(p, q, mask)
    cores = [(u, v) for u in range(p) for v in range(q)]
    comms, moves = [], []
    for _ in range(n):
        src, snk = [cores[i] for i in rng.choice(len(cores), 2, replace=False)]
        comms.append(Communication(src, snk, float(rng.uniform(50, 1000))))
        du, dv = abs(snk[0] - src[0]), abs(snk[1] - src[1])
        slots = ["V"] * du + ["H"] * dv
        rng.shuffle(slots)
        moves.append("".join(slots))
    return mesh, comms, moves


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(2, 5),
    q=st.integers(2, 5),
    n=st.integers(1, 6),
    fault_prob=st.floats(0.0, 0.35),
)
def test_masked_kernel_matches_scalar_recomputation(seed, p, q, n, fault_prob):
    mesh, comms, moves = draw_instance(seed, p, q, n, fault_prob)
    kernel = FlatRoutingKernel(
        mesh, [(c.src, c.snk) for c in comms], [c.rate for c in comms]
    )
    vmask = kernel.routing_vmask(moves)

    # links: hop-by-hop scalar reference
    scalar_links = np.concatenate(
        [
            np.asarray(moves_to_links(mesh, c.src, c.snk, m), dtype=np.int64)
            for c, m in zip(comms, moves)
        ]
    )
    assert np.array_equal(kernel.links(vmask), scalar_links)

    # loads: scalar accumulation
    scalar_loads = np.zeros(mesh.num_links)
    for c, m in zip(comms, moves):
        for lid in moves_to_links(mesh, c.src, c.snk, m):
            scalar_loads[lid] += c.rate
    assert np.allclose(kernel.loads(vmask), scalar_loads, rtol=0, atol=1e-9)

    # dead-hop detection: scalar definition
    if mesh.link_mask is None:
        assert not kernel.dead_hop_mask(vmask).any()
    else:
        scalar_dead = np.array(
            [not mesh.link_mask[lid] for lid in scalar_links]
        )
        assert np.array_equal(kernel.dead_hop_mask(vmask), scalar_dead)
        assert kernel.uses_dead_link(vmask) == scalar_dead.any()

    # population form agrees with the flat form row by row
    pop = kernel.population_vmask([moves, moves])
    assert np.array_equal(kernel.links(pop)[0], scalar_links)
    assert np.array_equal(kernel.links(pop)[1], scalar_links)
    assert np.allclose(kernel.loads(pop)[0], scalar_loads, rtol=0, atol=1e-9)
    assert np.array_equal(
        kernel.uses_dead_link(pop),
        np.array([kernel.uses_dead_link(vmask)] * 2),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(2, 5),
    q=st.integers(2, 5),
    fault_prob=st.floats(0.0, 0.35),
)
def test_live_enumeration_avoids_dead_links(seed, p, q, fault_prob):
    mesh, comms, _ = draw_instance(seed, p, q, 1, fault_prob)
    c = comms[0]
    dag = CommDag(mesh, c.src, c.snk)
    all_moves = set(dag.enumerate_moves())

    def is_live(m: str) -> bool:
        return all(
            mesh.is_alive(lid)
            for lid in moves_to_links(mesh, c.src, c.snk, m)
        )

    live = set(dag.enumerate_moves(alive_only=True))
    assert live == {m for m in all_moves if is_live(m)}
    assert dag.has_live_path() == bool(live)
    if live:
        rng = np.random.default_rng(seed)
        for _ in range(5):
            assert dag.random_moves(rng, alive_only=True) in live


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(3, 5),
    q=st.integers(3, 5),
    n=st.integers(1, 8),
    fault_prob=st.floats(0.0, 0.25),
    name=st.sampled_from(["SG", "IG", "PR"]),
)
def test_reachability_heuristics_never_use_dead_links(
    seed, p, q, n, fault_prob, name
):
    """SG/IG/PR avoid every masked link whenever live paths exist."""
    mesh, comms, _ = draw_instance(seed, p, q, n, fault_prob)
    problem = RoutingProblem(mesh, PowerModel.kim_horowitz(), comms)
    live = [problem.dag(i).has_live_path() for i in range(n)]
    res = get_heuristic(name).solve(problem)
    for i, ok in enumerate(live):
        (path,) = res.routing.paths(i)
        uses_dead = any(not mesh.is_alive(int(l)) for l in path.link_ids)
        if ok:
            assert not uses_dead, (
                f"{name} routed comm {i} over a dead link despite a live "
                f"Manhattan path"
            )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), factor=st.floats(1.1, 3.0))
def test_pristine_and_all_true_profile_agree(seed, factor):
    """An all-alive mask / all-ones scale normalises to the pristine mesh,
    and heuristic outputs are literally identical."""
    rng = np.random.default_rng(seed)
    mesh = Mesh(4, 4)
    same = Mesh(4, 4, np.ones(mesh.num_links, dtype=bool),
                np.ones(mesh.num_links))
    assert same == mesh and same.is_pristine
    cores = [(u, v) for u in range(4) for v in range(4)]
    idx = rng.choice(len(cores), 2, replace=False)
    comms = [Communication(cores[idx[0]], cores[idx[1]], 500.0)]
    pm = PowerModel.kim_horowitz()
    a = get_heuristic("TB").solve(RoutingProblem(mesh, pm, comms))
    b = get_heuristic("TB").solve(RoutingProblem(same, pm, comms))
    assert a.routing.paths(0)[0].moves == b.routing.paths(0)[0].moves
    assert a.power == b.power

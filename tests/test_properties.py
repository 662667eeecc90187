"""Cross-module property-based tests (Hypothesis).

Invariants that tie several subsystems together: conservation laws between
workloads, routings and loads; bound chains between the relaxations and
exact solvers; deadlock-freedom guarantees of the direction-class VC
scheme; serialisation round-trips for arbitrary generated instances.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, Routing, RoutingProblem
from repro.heuristics import get_heuristic
from repro.io import (
    problem_from_dict,
    problem_to_dict,
    routing_from_dict,
    routing_to_dict,
)
from repro.noc import direction_class_vc, is_deadlock_free, single_vc
from repro.optimal import frank_wolfe_relaxation
from repro.theory import diagonal_lower_bound

# ---------------------------------------------------------------------
# instance strategies
# ---------------------------------------------------------------------
MESH = Mesh(6, 6)
KH = PowerModel.kim_horowitz()


@st.composite
def communications(draw, max_n=10, rate_max=3000.0):
    n = draw(st.integers(1, max_n))
    comms = []
    for _ in range(n):
        su = draw(st.integers(0, MESH.p - 1))
        sv = draw(st.integers(0, MESH.q - 1))
        du = draw(st.integers(0, MESH.p - 1))
        dv = draw(st.integers(0, MESH.q - 1))
        if (su, sv) == (du, dv):
            dv = (dv + 1) % MESH.q
        rate = draw(
            st.floats(1.0, rate_max, allow_nan=False, allow_infinity=False)
        )
        comms.append(Communication((su, sv), (du, dv), rate))
    return comms


HEURISTIC_NAMES = st.sampled_from(("XY", "SG", "IG", "TB", "XYI", "PR"))


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(), name=HEURISTIC_NAMES)
def test_property_load_conservation(comms, name):
    """Sum of link loads == sum over comms of rate * chosen path length,
    and every path length equals the Manhattan distance."""
    prob = RoutingProblem(MESH, KH, comms)
    res = get_heuristic(name).solve(prob)
    loads = res.routing.link_loads()
    expected = sum(c.rate * c.length for c in comms)
    assert loads.sum() == pytest.approx(expected)


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(max_n=6, rate_max=1500.0))
def test_property_bound_chain(comms):
    """diagonal bound <= FW certified bound <= FW objective, and the FW
    objective is within bandwidth-relaxed reach of any valid routing's
    continuous dynamic power."""
    prob = RoutingProblem(MESH, PowerModel.continuous_kim_horowitz(), comms)
    fw = frank_wolfe_relaxation(prob, max_iter=150)
    assert diagonal_lower_bound(prob) <= fw.lower_bound + 1e-6
    assert fw.lower_bound <= fw.objective + 1e-9
    xy = Routing.xy(prob)
    dyn_xy = prob.power.dynamic_power(
        np.minimum(xy.link_loads(), prob.power.bandwidth)
    )
    assert fw.lower_bound <= dyn_xy + 1e-6


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(), name=HEURISTIC_NAMES)
def test_property_direction_class_deadlock_free(comms, name):
    """Every Manhattan routing is deadlock-free under direction-class VCs."""
    prob = RoutingProblem(MESH, KH, comms)
    res = get_heuristic(name).solve(prob)
    assert is_deadlock_free(res.routing, direction_class_vc)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications())
def test_property_single_direction_workloads_safe_on_one_vc(comms):
    """Workloads whose communications all share one direction class are
    deadlock-free even on a single VC (monotone diagonal progress)."""
    # project every communication into direction 1 (sort endpoints)
    projected = []
    for c in comms:
        lo = (min(c.src[0], c.snk[0]), min(c.src[1], c.snk[1]))
        hi = (max(c.src[0], c.snk[0]), max(c.src[1], c.snk[1]))
        if lo == hi:
            hi = (hi[0], hi[1] + 1) if hi[1] + 1 < MESH.q else (hi[0] - 1, hi[1])
        projected.append(Communication(lo, hi, c.rate))
    prob = RoutingProblem(MESH, KH, projected)
    res = get_heuristic("SG").solve(prob)
    assert is_deadlock_free(res.routing, single_vc)


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(), name=HEURISTIC_NAMES)
def test_property_serialisation_roundtrip(comms, name):
    """Any generated problem and any heuristic's routing survive the JSON
    round-trip with identical power."""
    prob = RoutingProblem(MESH, KH, comms)
    back = problem_from_dict(problem_to_dict(prob))
    assert back.comms == prob.comms
    res = get_heuristic(name).solve(prob)
    r2 = routing_from_dict(routing_to_dict(res.routing))
    assert r2.link_loads() == pytest.approx(res.routing.link_loads())


@settings(max_examples=40, deadline=None)
@given(
    loads=st.lists(st.floats(0, 5000, allow_nan=False), min_size=1, max_size=30)
)
def test_property_graded_power_dominates_strict(loads):
    """Graded power equals strict power on feasible loads and strictly
    exceeds the feasible maximum on overloads."""
    arr = np.asarray(loads)
    graded = KH.link_power_graded(arr)
    strict = KH.link_power(arr)
    feasible = arr <= KH.bandwidth
    assert np.allclose(graded[feasible], strict[feasible])
    assert np.all(graded[~feasible] > KH.max_link_power)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 5000),
)
def test_property_best_dominates_every_member(n, seed):
    """BEST's power is the member minimum on every instance."""
    from repro.heuristics import BestOf
    from repro.workloads import uniform_random_workload

    comms = uniform_random_workload(MESH, n, 100.0, 2500.0, rng=seed)
    prob = RoutingProblem(MESH, KH, comms)
    members = BestOf().solve_all(prob)
    best = BestOf().solve(prob)
    for m in members:
        if m.valid:
            assert best.valid
            assert best.power <= m.power + 1e-9


@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(max_n=8, rate_max=3400.0))
def test_property_band_infeasible_implies_universal_failure(comms):
    """A band-capacity certificate dooms every routing rule, split or not."""
    from repro.multipath import AdaptiveSplitRepair, SplitTwoBend
    from repro.theory import band_capacity_infeasible

    # force congestion: quadruple every rate so certificates show up often
    comms = [Communication(c.src, c.snk, 4 * c.rate) for c in comms]
    prob = RoutingProblem(MESH, KH, comms)
    if not band_capacity_infeasible(prob):
        return  # nothing to check for this draw
    for name in ("XY", "SG", "XYI", "PR"):
        assert not get_heuristic(name).solve(prob).valid, name
    assert not SplitTwoBend(s=4).solve(prob).valid
    assert not AdaptiveSplitRepair(s=4).solve(prob).valid


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    rates=st.lists(st.floats(1.0, 900.0, allow_nan=False), min_size=1, max_size=4),
    du=st.integers(1, 4),
    dv=st.integers(1, 4),
)
@example(rates=[25.0, 68.0, 69.0], du=1, dv=2)
def test_property_same_endpoint_chain(rates, du, dv):
    """flow_lower <= flow_upper <= DP-optimum dynamic <= XY dynamic."""
    from repro.optimal import optimal_same_endpoint_single_path, same_endpoint_flow

    pm = PowerModel.dynamic_only(alpha=2.95, bandwidth=float("inf"))
    mesh = Mesh(du + 1, dv + 1)
    comms = [Communication((0, 0), (du, dv), r) for r in rates]
    prob = RoutingProblem(mesh, pm, comms)

    def dyn(loads):
        return float(pm.p0 * np.sum((loads / pm.freq_unit) ** pm.alpha))

    flow = same_endpoint_flow(mesh, (0, 0), (du, dv), sum(rates), pm, segments=24)
    dp = optimal_same_endpoint_single_path(prob)
    xy = Routing.xy(prob)
    assert flow.lower_bound <= flow.upper_bound * (1 + 1e-9)
    # the PWL upper bound overestimates the convex objective by the
    # secant-chord error of its 24-segment discretisation, so when the
    # single-path optimum coincides with the relaxation optimum (tiny
    # meshes, the pinned example overshoots by ~2e-4) the slack must
    # budget that O(1/segments^2) error, not just float noise
    assert flow.upper_bound <= dyn(dp.routing.link_loads()) * (1 + 2e-3)
    assert dyn(dp.routing.link_loads()) <= dyn(xy.link_loads()) * (1 + 1e-9)


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(comms=communications(max_n=4, rate_max=1000.0))
def test_property_single_path_delivery_is_in_order(comms):
    """Wormhole on single-path routings never reorders any communication."""
    from repro.noc import ArrayFlitSimulator, reorder_stats

    prob = RoutingProblem(MESH, KH, comms)
    res = get_heuristic("PR").solve(prob)
    if not res.valid:
        return
    rep = ArrayFlitSimulator(res.routing, collect_packets=True).run(
        2500, warmup=200
    )
    if not rep.packets:
        return
    for st_ in reorder_stats(rep).values():
        assert st_.in_order
        assert st_.max_displacement == 0

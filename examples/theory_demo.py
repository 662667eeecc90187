#!/usr/bin/env python3
"""The Section 4 theory, numerically.

* Lemma 1: Manhattan path counts (closed form vs recursion).
* Theorem 1: on a square chip, the explicit max-MP flow pattern keeps the
  corner-to-corner power bounded while XY pays Θ(p) — the ratio grows
  linearly with the side.
* Lemma 2 / Theorem 2: the staircase instance where plain YX (a 1-MP
  routing!) beats XY by Θ(p^{α-1}).
* Theorem 3: the 2-PARTITION gadget — the witness routing is valid exactly
  for balanced subsets.
* The diagonal lower bound vs what the heuristics actually achieve.

Run:  python examples/theory_demo.py
"""

from repro import Mesh, PowerModel, RoutingProblem
from repro.heuristics import get_heuristic
from repro.theory import (
    build_reduction,
    diagonal_lower_bound,
    lemma2_powers,
    manhattan_path_count,
    routing_from_partition,
    theorem1_powers,
)
from repro.theory.counting import path_count_by_recursion
from repro.utils.tables import format_table
from repro.workloads import uniform_random_workload


def main() -> None:
    print("Lemma 1 — number of Manhattan paths corner to corner:")
    rows = [
        [f"{p}x{p}", manhattan_path_count(p, p), path_count_by_recursion(p, p)]
        for p in (2, 4, 8, 12)
    ]
    print(format_table(["mesh", "C(p+q-2,p-1)", "recursion"], rows))

    print("\nTheorem 1 — single pair, XY vs constructed max-MP (α = 3):")
    rows = []
    for p in (4, 8, 16, 32, 64):
        r = theorem1_powers(p)
        rows.append([p, f"{r['p_xy']:.1f}", f"{r['p_manhattan']:.3f}", f"{r['ratio']:.2f}"])
    print(format_table(["p", "P_XY", "P_maxMP", "ratio (Θ(p))"], rows))

    print("\nLemma 2 — staircase instance, XY vs YX (α = 3 ⇒ Θ(p²)):")
    rows = []
    for p in (4, 8, 16, 32):
        r = lemma2_powers(p)
        rows.append([p, f"{r['p_xy']:.0f}", f"{r['p_yx']:.0f}", f"{r['ratio']:.1f}"])
    print(format_table(["p", "P_XY", "P_YX", "ratio"], rows))

    print("\nTheorem 3 — 2-PARTITION gadget (a = [3,3,2,2,1,1], s = 2):")
    a, s = [3, 3, 2, 2, 1, 1], 2
    problem = build_reduction(a, s)
    print(
        f"  gadget: {problem.mesh.p}x{problem.mesh.q} chip, "
        f"BW = {problem.power.bandwidth:g}, {problem.num_comms} comms"
    )
    for subset, label in (({0, 3, 5}, "{3,2,1} (balanced)"), ({0}, "{3} (unbalanced)")):
        ok = routing_from_partition(a, s, subset).is_valid()
        print(f"  witness routing for subset {label}: valid = {ok}")

    print("\nDiagonal lower bound vs heuristics (8x8, 20 mixed comms):")
    mesh = Mesh(8, 8)
    power = PowerModel.continuous_kim_horowitz()
    comms = uniform_random_workload(mesh, 20, 100.0, 2500.0, rng=11)
    problem = RoutingProblem(mesh, power, comms)
    lb = diagonal_lower_bound(problem)
    rows = [["diagonal bound", f"{lb:.1f}", "-"]]
    for name in ("XY", "XYI", "PR"):
        res = get_heuristic(name).solve(problem)
        dyn = res.report.dynamic_power
        rows.append([name, f"{dyn:.1f}", f"{dyn / lb:.2f}x"])
    print(format_table(["source", "dynamic power", "vs bound"], rows))


if __name__ == "__main__":
    main()

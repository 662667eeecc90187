"""Communication-processing orders for greedy heuristics.

The paper sorts communications by decreasing weight (rate) and reports that
alternatives — decreasing length, decreasing weight/length density — were
tried and found worse.  The orderings are exposed here so the
``ablation_ordering`` campaign experiment can reproduce that claim.
"""

#: orderings understood by
#: :meth:`~repro.core.problem.RoutingProblem.order_by`
ORDERINGS = ("weight", "length", "density", "input")

#: the paper's default
DEFAULT_ORDERING = "weight"


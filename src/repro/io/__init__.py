"""Serialisation: JSON problems/routings, CSV workloads.

Routing problems and their solutions round-trip through plain JSON so
instances can be archived, shipped to the CLI, or diffed; workloads also
round-trip through a simple CSV (one communication per row) for
spreadsheet-friendly editing.
"""

from repro.io.jsonio import (
    problem_to_dict,
    problem_from_dict,
    routing_to_dict,
    routing_from_dict,
    save_problem,
    load_problem,
    save_routing,
    load_routing,
)
from repro.io.csvio import workload_to_csv, workload_from_csv

__all__ = [
    "problem_to_dict",
    "problem_from_dict",
    "routing_to_dict",
    "routing_from_dict",
    "save_problem",
    "load_problem",
    "save_routing",
    "load_routing",
    "workload_to_csv",
    "workload_from_csv",
]

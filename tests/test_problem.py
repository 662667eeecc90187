"""Tests for repro.core.problem: Communication and RoutingProblem."""

import numpy as np
import pytest

from repro import Communication, Mesh, RoutingProblem
from repro.utils.validation import InvalidParameterError


class TestCommunication:
    def test_derived_geometry(self):
        c = Communication((1, 2), (3, 5), 700.0)
        assert c.length == 5
        assert c.delta_u == 2 and c.delta_v == 3
        assert c.direction == 1
        assert c.path_count() == 10

    def test_directions(self):
        assert Communication((0, 3), (2, 0), 1.0).direction == 2
        assert Communication((3, 3), (0, 0), 1.0).direction == 3
        assert Communication((3, 0), (0, 3), 1.0).direction == 4

    def test_rejects_self_communication(self):
        with pytest.raises(InvalidParameterError):
            Communication((1, 1), (1, 1), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(InvalidParameterError):
            Communication((0, 0), (1, 1), 0.0)
        with pytest.raises(InvalidParameterError):
            Communication((0, 0), (1, 1), -5.0)

    def test_coordinates_normalised_to_int(self):
        c = Communication((np.int64(1), np.int64(2)), (3, 5), 1.0)
        assert isinstance(c.src[0], int)


class TestRoutingProblem:
    def test_basic_accessors(self, mesh8, pm_kh):
        comms = [
            Communication((0, 0), (1, 1), 100.0),
            Communication((2, 2), (0, 5), 300.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        assert prob.num_comms == 2 == len(prob)
        assert prob.total_rate == 400.0
        assert list(prob.rates) == [100.0, 300.0]
        assert list(prob) == list(comms)

    def test_rejects_off_mesh_endpoints(self, pm_kh):
        mesh = Mesh(2, 2)
        with pytest.raises(InvalidParameterError):
            RoutingProblem(mesh, pm_kh, [Communication((0, 0), (2, 1), 1.0)])

    def test_rejects_wrong_types(self, mesh8, pm_kh):
        with pytest.raises(InvalidParameterError):
            RoutingProblem("mesh", pm_kh, [])
        with pytest.raises(InvalidParameterError):
            RoutingProblem(mesh8, "power", [])
        with pytest.raises(InvalidParameterError):
            RoutingProblem(mesh8, pm_kh, ["nope"])

    def test_dag_cached(self, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((0, 0), (3, 3), 1.0)]
        )
        assert prob.dag(0) is prob.dag(0)

    def test_dag_index_range(self, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((0, 0), (3, 3), 1.0)]
        )
        with pytest.raises(InvalidParameterError):
            prob.dag(1)

    def test_diag_span_consistent_with_length(self, mesh8, pm_kh):
        comms = [
            Communication((0, 0), (3, 4), 1.0),
            Communication((5, 5), (2, 1), 1.0),
            Communication((7, 0), (0, 7), 1.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        for i, c in enumerate(comms):
            ks, kk = prob.diag_span(i)
            assert kk - ks == c.length

    def test_rates_read_only(self, random_problem):
        with pytest.raises(ValueError):
            random_problem.rates[0] = 1.0


class TestOrdering:
    @pytest.fixture
    def prob(self, mesh8, pm_kh):
        return RoutingProblem(
            mesh8,
            pm_kh,
            [
                Communication((0, 0), (0, 1), 500.0),  # len 1
                Communication((0, 0), (4, 4), 500.0),  # len 8, tie on weight
                Communication((0, 0), (2, 2), 900.0),  # len 4, heaviest
                Communication((0, 0), (0, 2), 100.0),  # len 2, lightest
            ],
        )

    def test_weight_ordering_with_stable_ties(self, prob):
        assert prob.order_by("weight") == [2, 0, 1, 3]

    def test_length_ordering(self, prob):
        assert prob.order_by("length") == [1, 2, 3, 0]

    def test_density_ordering(self, prob):
        # densities: 500, 62.5, 225, 50
        assert prob.order_by("density") == [0, 2, 1, 3]

    def test_input_ordering(self, prob):
        assert prob.order_by("input") == [0, 1, 2, 3]

    def test_unknown_ordering_rejected(self, prob):
        with pytest.raises(InvalidParameterError):
            prob.order_by("alphabetical")

import numpy as np
import pytest

from pairing_tsp.core import Pairing, ValidationError, enumerate_pairings, total_compatibility
from pairing_tsp.tsp_graph import (
    GraphNode,
    Tour,
    build_graph,
    pairing_from_tour,
    tour_from_pairing,
    validate_tour,
)

from conftest import NON_NUMBER_MATRICES, make_instance


def _nan_at_23() -> np.ndarray:
    c = np.zeros((4, 4))
    c[1][2] = c[2][1] = np.nan
    return c


#: Matrices `build_graph` must refuse, with the named error each raises.
BAD_ENTRIES = {**NON_NUMBER_MATRICES, "nan": (_nan_at_23(), r"c\[2\]\[3\]=nan is not finite")}


def enumerate_valid_tours(graph):
    """Every closed tour of the layered graph, up to rotation/reflection.

    Plain depth-first search from a fixed start node; only edge existence
    prunes, so this is independent of the validator's fragment rules.
    """
    start = GraphNode(1, 1)
    all_nodes = list(graph.nodes())
    found = {}

    def extend(path, visited):
        if len(path) == len(all_nodes):
            if graph.has_edge(path[-1], start):
                tour = Tour(path).normalized()
                found[tour.sequence] = tour
            return
        for nxt in graph.neighbors(path[-1]):
            if nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                extend(path, visited)
                path.pop()
                visited.remove(nxt)

    extend([start], {start})
    return list(found.values())


class TestGraphShape:
    def test_node_counts_n6(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        nodes = list(graph.nodes())
        assert len(nodes) == graph.node_count == 15
        assert sum(1 for u in nodes if u.layer == 1) == 6
        assert sum(1 for u in nodes if u.layer == 2) == 6
        assert sum(1 for u in nodes if u.layer == 3) == 3

    def test_edge_count_n6(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        assert graph.edge_count == 15 + 6 + 18 == 39
        assert sum(1 for _ in graph.edges()) == 39

    def test_first_layer_cost_is_negated_compatibility(self):
        inst = make_instance(4, seed=2)
        graph = build_graph(inst.c, 4)
        assert graph.edge_cost(GraphNode(1, 1), GraphNode(1, 2)) == -inst.value(1, 2)
        assert graph.edge_cost(GraphNode(1, 2), GraphNode(2, 2)) == 0.0
        assert graph.edge_cost(GraphNode(2, 4), GraphNode(3, 1)) == 0.0

    def test_forbidden_edges_absent(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        assert not graph.has_edge(GraphNode(1, 1), GraphNode(2, 2))  # cross vertical
        assert not graph.has_edge(GraphNode(1, 1), GraphNode(3, 1))  # layer 1 to 3
        assert not graph.has_edge(GraphNode(2, 1), GraphNode(2, 2))  # intra layer 2
        assert not graph.has_edge(GraphNode(3, 1), GraphNode(3, 2))  # intra layer 3

    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError):
            build_graph(np.zeros((5, 5)), 5)

    def test_ragged_matrix_named(self):
        with pytest.raises(ValidationError, match="matrix is not a rectangular array"):
            build_graph([[0, 1], [1, 0, 3]], 4)

    @pytest.mark.filterwarnings("error")  # a complex cast would warn and drop the imaginary part
    @pytest.mark.parametrize("case", BAD_ENTRIES)
    def test_bad_entries_named(self, case):
        matrix, message = BAD_ENTRIES[case]
        with pytest.raises(ValidationError, match=message):
            build_graph(matrix, 4)


class TestValidateTour:
    def test_constructed_tours_accepted(self):
        inst = make_instance(6, seed=3)
        graph = build_graph(inst.c, 6)
        for pairing in enumerate_pairings(6):
            assert validate_tour(graph, tour_from_pairing(graph, pairing)).ok

    def test_three_consecutive_first_layer_rejected(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        seq = [
            GraphNode(1, 1), GraphNode(1, 2), GraphNode(1, 3),  # forbidden run
            GraphNode(2, 3), GraphNode(3, 1), GraphNode(2, 4),
            GraphNode(1, 4), GraphNode(2, 1), GraphNode(3, 2), GraphNode(2, 2),
        ]
        verdict = validate_tour(graph, Tour(seq))
        assert not verdict.ok
        assert verdict.reason == "three consecutive first-layer visits"
        assert verdict.position == 0

    def test_missing_edge_rejected(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        seq = [
            GraphNode(1, 1), GraphNode(1, 2), GraphNode(2, 2), GraphNode(3, 1),
            GraphNode(2, 3), GraphNode(1, 3), GraphNode(1, 4), GraphNode(2, 4),
            GraphNode(3, 2), GraphNode(2, 1),
        ]
        # break one hop: L1:4 cannot reach L3:2 directly
        seq[7:9] = [GraphNode(3, 2), GraphNode(2, 4)]
        verdict = validate_tour(graph, Tour(seq))
        assert not verdict.ok
        assert "no such edge" in verdict.reason

    def test_duplicate_node_rejected(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        seq = [GraphNode(1, 1)] * 10
        verdict = validate_tour(graph, Tour(seq))
        assert not verdict.ok
        assert "visited twice" in verdict.reason

    def test_wrong_length_rejected(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        verdict = validate_tour(graph, Tour([GraphNode(1, 1)]))
        assert not verdict.ok
        assert "expected 10" in verdict.reason

    def test_bridge_fragment_reported(self):
        # a full edge-valid cycle can never contain the bounce, so feed a
        # sequence whose only early defect is the bounce itself: the
        # validator must name it rather than a downstream edge problem
        graph = build_graph(np.zeros((6, 6)), 6)
        seq = [
            GraphNode(1, 1), GraphNode(1, 2), GraphNode(2, 2),
            GraphNode(3, 1), GraphNode(2, 3), GraphNode(3, 2),  # L3-L2-L3 bounce
            GraphNode(2, 4), GraphNode(1, 4), GraphNode(1, 3),
            GraphNode(2, 1),
            GraphNode(3, 3), GraphNode(2, 5), GraphNode(1, 5),
            GraphNode(1, 6), GraphNode(2, 6),
        ]
        verdict = validate_tour(graph, Tour(seq))
        assert not verdict.ok
        assert verdict.reason == "second-layer node bridges two third-layer visits"
        assert verdict.position == 3


class TestRoundTrip:
    def test_pairing_from_tour_simple(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        tour = tour_from_pairing(graph, Pairing([(1, 2), (3, 4)]))
        assert pairing_from_tour(tour) == Pairing([(1, 2), (3, 4)])

    def test_round_trip_identity_all_pairings_n6(self):
        inst = make_instance(6, seed=4)
        graph = build_graph(inst.c, 6)
        for pairing in enumerate_pairings(6):
            assert pairing_from_tour(tour_from_pairing(graph, pairing)) == pairing

    def test_tour_cost_is_negated_score(self):
        inst = make_instance(8, seed=5)
        graph = build_graph(inst.c, 8)
        from pairing_tsp.solvers import solve_random

        for seed in range(20):
            pairing = solve_random(8, seed).pairing
            tour = tour_from_pairing(graph, pairing)
            assert tour.cost(graph) == pytest.approx(
                -total_compatibility(inst, pairing)
            )

    def test_canonical_third_layer_assignment(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        tour = tour_from_pairing(graph, Pairing([(1, 6), (2, 5), (3, 4)]))
        thirds = [node.index for node in tour.sequence if node.layer == 3]
        assert thirds == [1, 2, 3]

    def test_invalid_tour_rejected(self):
        with pytest.raises(ValidationError):
            pairing_from_tour(Tour([GraphNode(1, 1)] * 10))


class TestTourNormalization:
    def test_rotations_and_reflections_compare_equal(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        tour = tour_from_pairing(graph, Pairing([(1, 4), (2, 6), (3, 5)]))
        seq = tour.sequence
        rotated = Tour(seq[3:] + seq[:3])
        reflected = Tour(tuple(reversed(seq)))
        assert rotated.normalized() == tour.normalized()
        assert reflected.normalized() == tour.normalized()

    def test_distinct_tours_stay_distinct(self):
        graph = build_graph(np.zeros((6, 6)), 6)
        t1 = tour_from_pairing(graph, Pairing([(1, 2), (3, 4), (5, 6)]))
        t2 = tour_from_pairing(graph, Pairing([(1, 3), (2, 4), (5, 6)]))
        assert t1.normalized() != t2.normalized()


class TestExhaustiveCorrespondence:
    def test_brute_force_n4(self):
        inst = make_instance(4, seed=6)
        graph = build_graph(inst.c, 4)
        tours = enumerate_valid_tours(graph)
        assert tours, "search must find tours"
        for tour in tours:
            assert validate_tour(graph, tour).ok
            pairing = pairing_from_tour(tour)
            assert tour.cost(graph) == pytest.approx(
                -total_compatibility(inst, pairing)
            )
        seen_pairings = {pairing_from_tour(t) for t in tours}
        assert seen_pairings == set(enumerate_pairings(4))
        best = max(total_compatibility(inst, p) for p in enumerate_pairings(4))
        assert min(t.cost(graph) for t in tours) == pytest.approx(-best)

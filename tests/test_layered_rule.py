"""The layered graph reads one adjacency rule, and its entry points admit
every node, tour and argument by name.

Every graph method agrees with `has_edge` on every pair of nodes; the
`graph` command's bytes are pinned, with digests taken before the rule was
written as a table; and each malformed node, tour, oracle, plan or repeated
algorithm name is a `ValidationError` that names it, or exit 1 with one
`error:` line, with no numpy warning on the way.
"""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np
import pytest

from pairing_tsp.bench import ExperimentSpec
from pairing_tsp.cli import main
from pairing_tsp.core import Pairing, ValidationError
from pairing_tsp.observation import reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.plan import execute_plan, minimal_observation_plan
from pairing_tsp.tsp_graph import GraphNode, Tour, build_graph, tour_from_pairing, validate_tour

from conftest import RecordingOracle, make_instance

pytestmark = pytest.mark.filterwarnings("error")


class TestOneRule:
    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_every_graph_method_agrees_with_has_edge(self, n):
        graph = build_graph(make_instance(n, seed=n).c, n)
        nodes = list(graph.nodes())
        for u in nodes:
            for v in nodes:
                assert graph.has_edge(u, v) == graph.has_edge(v, u)
            assert graph.neighbors(u) == [v for v in nodes if graph.has_edge(u, v)]
        linked = {frozenset((u, v)) for u, v in combinations(nodes, 2) if graph.has_edge(u, v)}
        edges = list(graph.edges())
        assert len({frozenset((u, v)) for u, v, _ in edges}) == len(edges)
        assert {frozenset((u, v)) for u, v, _ in edges} == linked
        for u, v, cost in edges:
            expected = graph.edge_cost(u, v)
            assert cost == expected and type(cost) is type(expected)
        assert graph.edge_count == len(edges)


#: sha256 of the `graph` command's output for `gen -n N --seed 7`, taken
#: before the graph's structure was written as one rule.
GRAPH_DIGESTS = {
    12: "624a4b8ad7abf6c679d7d3c61c285af2f85404493882837c93032ac0d5c59b2d",
    40: "5384e332e5041dbc731a580c65625df0825f2d686c23c77bba9d3ed00a2fbb45",
}


@pytest.mark.parametrize("n", sorted(GRAPH_DIGESTS))
def test_graph_command_bytes_pinned(n, tmp_path):
    instance, out = tmp_path / "inst.txt", tmp_path / "graph.json"
    assert main(["gen", "-n", str(n), "--seed", "7", "--out", str(instance)]) == 0
    assert main(["graph", str(instance), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GRAPH_DIGESTS[n]


def _graph_calls():
    """Each malformed argument to a graph entry point, with its refusal."""
    graph = build_graph(np.zeros((4, 4)), 4)
    return {
        "Tour of ints": (lambda: Tour([1, 2]), r"node must be a pair of integers, got 1$"),
        "Tour(None)": (lambda: Tour(None), r"tour must be an iterable of graph nodes, got None"),
        "float index": (lambda: Tour([(1, 1.5)]), r"node must be a pair of integers, got \(1, 1\.5\)"),
        "bool layer": (lambda: Tour([(True, 1)]), r"got \(True, 1\)"),
        "validate a list": (
            lambda: validate_tour(graph, [GraphNode(1, 1)]),
            r"tour must be a Tour, got list",
        ),
        "edge_cost of ints": (lambda: graph.edge_cost(1, 2), r"node must be a pair of integers, got 1$"),
        "has_edge of ints": (lambda: graph.has_edge(1, 2), r"got 1$"),
        "has_node of a string": (lambda: graph.has_node("a"), r"got 'a'"),
        "neighbors of None": (lambda: graph.neighbors(None), r"got None"),
        "empty Tour": (lambda: Tour([]), r"^tour must contain at least one node$"),
        "validate on None": (
            lambda: validate_tour(None, tour_from_pairing(graph, Pairing([(1, 2), (3, 4)]))),
            r"^graph must be a PairingTspGraph, got NoneType$",
        ),
        "tour_from_pairing on None": (
            lambda: tour_from_pairing(None, Pairing([(1, 2), (3, 4)])),
            r"^graph must be a PairingTspGraph, got NoneType$",
        ),
        "cost on None": (
            lambda: tour_from_pairing(graph, Pairing([(1, 2), (3, 4)])).cost(None),
            r"^graph must be a PairingTspGraph, got NoneType$",
        ),
    }


class TestGraphRefusals:
    @pytest.mark.parametrize("case", _graph_calls())
    def test_refused_by_name(self, case):
        call, message = _graph_calls()[case]
        with pytest.raises(ValidationError, match=message):
            call()

    def test_nodes_are_stored_as_python_ints(self):
        tour = Tour([(np.int64(1), np.int64(2))])
        assert tour.sequence == (GraphNode(1, 2),)
        assert all(type(x) is int for x in tour.sequence[0])

    def test_well_formed_nodes_outside_the_graph(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        for node in [GraphNode(1, 5), GraphNode(3, 3), GraphNode(0, 1), (2, -1)]:
            assert not graph.has_node(node)
            assert graph.neighbors(node) == []
            assert not graph.has_edge(node, GraphNode(2, 1))


class TestObservationRefusals:
    def test_oracle_needs_an_instance(self):
        with pytest.raises(ValidationError, match="instance must be an Instance, got NoneType"):
            ObservationOracle(None)

    def test_reconstruct_tilde_needs_an_oracle(self):
        with pytest.raises(ValidationError, match="oracle must be an ObservationOracle, got NoneType"):
            reconstruct_tilde(None)

    def test_execute_plan_needs_an_oracle_and_a_plan(self):
        oracle, plan = ObservationOracle(make_instance(4, seed=1)), minimal_observation_plan(4)
        with pytest.raises(ValidationError, match="oracle must be an ObservationOracle, got NoneType"):
            execute_plan(None, plan)
        with pytest.raises(ValidationError, match="plan must be an ObservationPlan, got NoneType"):
            execute_plan(oracle, None)

    def test_subclasses_still_pass(self):
        instance = make_instance(6, seed=2)
        shadow, spent = reconstruct_tilde(RecordingOracle(instance))
        planned = execute_plan(RecordingOracle(instance), minimal_observation_plan(6))
        assert np.allclose(shadow.t, planned.t)


class TestRepeatedAlgorithm:
    def test_spec_refuses_a_repeated_name(self):
        with pytest.raises(ValidationError, match="algorithm 'pnn' is listed more than once"):
            ExperimentSpec(n_values=[4], trials=1, algorithms=["pnn", "pnn"])

    def test_bench_exits_one_before_any_report(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_values": [4], "trials": 1, "algorithms": ["pnn", "random", "pnn"]}')
        report = tmp_path / "report"
        assert main(["bench", "perf", "--spec", str(spec), "--out", str(report)]) == 1
        assert capsys.readouterr().err == "error: algorithm 'pnn' is listed more than once\n"
        assert not any(tmp_path.glob("report*"))

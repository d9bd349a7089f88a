"""Every public name of `pairing_tsp` declares its arguments, and each
library-object or element argument is refused by name.

`ARGUMENTS` lists each public callable's arguments in order, each with a
kind and a valid value, and also the public methods that take a library
object or an element. `TAKES_NONE` lists the public names that take none:
constants, exceptions, modules, and the records the library builds for its
callers. A public name in neither, or in both, fails the first test.

A library-object argument (`Obj`) is called with None, a list, a library
object of another type and a matrix, the other arguments valid, and must
raise a `ValidationError` reading exactly "<refusal>, got <type>". An
element argument (`Element`) is called with 0, n+1, 1.5, True and "2" on
N = 4. Every call runs under `-W error` and draws no random example, so no
Hypothesis database is read or written.
"""

from __future__ import annotations

import inspect
import os
import re
from typing import NamedTuple

import numpy as np
import pytest

import pairing_tsp
from pairing_tsp import (
    ExperimentSpec,
    Instance,
    ObservationOracle,
    ObservationPlan,
    Pairing,
    PairingTspGraph,
    SolverConfig,
    TildeMatrix,
    Tour,
    ValidationError,
    build_graph,
    dumps_instance_json,
    dumps_instance_text,
    minimal_observation_plan,
    reconstruct_tilde,
    solve_pnn,
    tour_from_pairing,
)

from conftest import make_instance

pytestmark = pytest.mark.filterwarnings("error")

N = 4


class Obj(NamedTuple):
    """A library-object argument: an instance of `kind`, else refused as
    "<refusal>, got <type name>"."""

    kind: type | tuple
    refusal: str


class Element(NamedTuple):
    """An element number in 1..N, which its refusal calls `name`."""

    name: str


class Arg(NamedTuple):
    name: str
    kind: Obj | Element | str  # a str names a kind this module does not sweep
    valid: object


#: Arguments of the kinds this module only declares.
OTHER_KINDS = {
    "count": "an element count, admitted by `checked_count`",
    "integer": "an integer that is not an element count",
    "seed": "a seed, admitted by `checked_seed`",
    "number": "a real number",
    "matrix": "a square matrix, admitted by `checked_entries`",
    "pairs": "the pairs of a `Pairing`",
    "nodes": "the nodes of a `Tour`",
    "study": "a study name",
    "field": "a field of a config or spec, admitted by its own rule",
}

INSTANCE = Obj(Instance, "instance must be an Instance")
PAIRING = Obj(Pairing, "pairing must be a Pairing")
ORACLE = Obj(ObservationOracle, "oracle must be an ObservationOracle")
PLAN = Obj(ObservationPlan, "plan must be an ObservationPlan")
GRAPH = Obj(PairingTspGraph, "graph must be a PairingTspGraph")
TOUR = Obj(Tour, "tour must be a Tour")
CONFIG = Obj(SolverConfig, "config must be a SolverConfig")
SPEC = Obj(ExperimentSpec, "spec must be an ExperimentSpec")
TEXT = Obj((str, bytes, bytearray), "text must be a str or bytes or bytearray")
PATH = Obj((str, os.PathLike), "path must be a str or PathLike")

inst = make_instance(N, seed=1)
pairing = Pairing([(1, 2), (3, 4)])
graph = build_graph(inst.c, N)
tour = tour_from_pairing(graph, pairing)
shadow, _ = reconstruct_tilde(ObservationOracle(inst))
spec = ExperimentSpec(n_values=[N], trials=1)
#: Stands for an instance file, which `test_valid_call` writes.
INSTANCE_FILE = object()
#: Stands for a library object of another type than the argument's.
OTHER = object()

#: Each public callable, or public method, with its arguments in order.
ARGUMENTS = {
    "ExperimentSpec": (
        ExperimentSpec,
        [
            Arg("n_values", "field", [N]),
            Arg("trials", "field", 1),
            Arg("value_range", "field", (0.0, 1.0)),
            Arg("exchange_limit", "field", 600),
            Arg("algorithms", "field", ["pnn"]),
            Arg("master_seed", "field", 0),
            Arg("start_node", "field", None),
        ],
    ),
    "Instance": (
        Instance,
        [
            Arg("n", "count", N),
            Arg("c", "matrix", inst.c),
            Arg("c_min", "number", 0.0),
            Arg("c_max", "number", 10000.0),
        ],
    ),
    "Instance.value": (
        inst.value,
        [Arg("i", Element("element"), 1), Arg("j", Element("element"), 2)],
    ),
    "ObservationOracle": (ObservationOracle, [Arg("instance", INSTANCE, inst)]),
    "ObservationOracle.observe": (
        ObservationOracle(inst).observe,
        [Arg("pairing", Obj(Pairing, "observe takes a Pairing"), pairing)],
    ),
    "ObservationPlan": (ObservationPlan, [Arg("n", "count", N)]),
    "Pairing": (Pairing, [Arg("pairs", "pairs", [(1, 2), (3, 4)])]),
    "PairingTspGraph": (PairingTspGraph, [Arg("n", "count", N), Arg("c", "matrix", inst.c)]),
    "SolverConfig": (
        SolverConfig,
        [
            Arg("seed", "seed", 0),
            Arg("start_node", "field", None),
            Arg("exchange_limit", "field", 600),
        ],
    ),
    "TildeMatrix": (TildeMatrix, [Arg("n", "count", N), Arg("t", "matrix", shadow.t)]),
    "TildeMatrix.total": (shadow.total, [Arg("pairing", PAIRING, pairing)]),
    "Tour": (Tour, [Arg("sequence", "nodes", tour.sequence)]),
    "Tour.cost": (tour.cost, [Arg("graph", GRAPH, graph)]),
    "anchor_pairing": (pairing_tsp.anchor_pairing, [Arg("n", "count", N)]),
    "build_graph": (build_graph, [Arg("matrix", "matrix", inst.c), Arg("n", "count", N)]),
    "definitional_tilde": (pairing_tsp.definitional_tilde, [Arg("matrix", "matrix", inst.c)]),
    "double_factorial": (pairing_tsp.double_factorial, [Arg("n", "integer", 5)]),
    "dumps_instance_json": (dumps_instance_json, [Arg("instance", INSTANCE, inst)]),
    "dumps_instance_text": (dumps_instance_text, [Arg("instance", INSTANCE, inst)]),
    "enumerate_pairings": (
        pairing_tsp.enumerate_pairings,
        [Arg("n", "count", N), Arg("max_n", "integer", 12)],
    ),
    "exact_best_pairing": (
        pairing_tsp.exact_best_pairing,
        [Arg("instance", INSTANCE, inst), Arg("max_n", "integer", 12)],
    ),
    "exchange_rule_value": (
        pairing_tsp.exchange_rule_value,
        [
            Arg("i", Element("rule index"), 1),
            Arg("j", Element("rule index"), 2),
            Arg("k", Element("rule index"), 3),
            Arg("l", Element("rule index"), 4),
            Arg("matrix", "matrix", inst.c),
        ],
    ),
    "execute_plan": (
        pairing_tsp.execute_plan,
        [
            Arg("oracle", ORACLE, ObservationOracle(inst)),
            Arg("plan", PLAN, minimal_observation_plan(N)),
        ],
    ),
    "generate_instance": (
        pairing_tsp.generate_instance,
        [
            Arg("n", "count", N),
            Arg("c_min", "number", 0.0),
            Arg("c_max", "number", 1.0),
            Arg("seed", "seed", 0),
        ],
    ),
    "load_instance": (pairing_tsp.load_instance, [Arg("path", PATH, INSTANCE_FILE)]),
    "loads_instance_json": (
        pairing_tsp.loads_instance_json,
        [Arg("text", TEXT, dumps_instance_json(inst))],
    ),
    "loads_instance_text": (
        pairing_tsp.loads_instance_text,
        [Arg("text", TEXT, dumps_instance_text(inst))],
    ),
    "minimal_observation_plan": (minimal_observation_plan, [Arg("n", "count", N)]),
    "observation_budget": (pairing_tsp.observation_budget, [Arg("n", "count", N)]),
    "pairing_count": (pairing_tsp.pairing_count, [Arg("n", "count", N)]),
    "pairing_from_tour": (pairing_tsp.pairing_from_tour, [Arg("tour", TOUR, tour)]),
    "pairing_sum": (
        pairing_tsp.pairing_sum,
        [Arg("matrix", "matrix", inst.c), Arg("pairing", PAIRING, pairing)],
    ),
    "performance_indicator": (
        pairing_tsp.performance_indicator,
        [
            Arg("score", "number", 1.0),
            Arg("n", "count", N),
            Arg("c_min", "number", 0.0),
            Arg("c_max", "number", 1.0),
        ],
    ),
    "plan_size": (pairing_tsp.plan_size, [Arg("n", "count", N)]),
    "reconstruct_tilde": (reconstruct_tilde, [Arg("oracle", ORACLE, ObservationOracle(inst))]),
    "run_exchange_limit_sweep": (
        pairing_tsp.run_exchange_limit_sweep,
        [Arg("spec", SPEC, ExperimentSpec(n_values=[N], trials=1, exchange_limit=[0, 1]))],
    ),
    "run_initial_node_study": (pairing_tsp.run_initial_node_study, [Arg("spec", SPEC, spec)]),
    "run_noc_study": (pairing_tsp.run_noc_study, [Arg("spec", SPEC, spec)]),
    "run_performance_study": (pairing_tsp.run_performance_study, [Arg("spec", SPEC, spec)]),
    "run_study": (pairing_tsp.run_study, [Arg("study", "study", "perf"), Arg("spec", SPEC, spec)]),
    "solve_p2opt": (
        pairing_tsp.solve_p2opt,
        [
            Arg("matrix", "matrix", inst.c),
            Arg("initial", Obj(Pairing, "initial must be a Pairing"), pairing),
            Arg("config", CONFIG, SolverConfig()),
        ],
    ),
    "solve_pnn": (
        solve_pnn,
        [Arg("matrix", "matrix", inst.c), Arg("config", CONFIG, SolverConfig())],
    ),
    "solve_pnn_p2opt": (
        pairing_tsp.solve_pnn_p2opt,
        [Arg("matrix", "matrix", inst.c), Arg("config", CONFIG, SolverConfig())],
    ),
    "solve_random": (
        pairing_tsp.solve_random,
        [Arg("n", "count", N), Arg("seed", "seed", 0), Arg("matrix", "matrix", inst.c)],
    ),
    "total_compatibility": (
        pairing_tsp.total_compatibility,
        [Arg("instance", INSTANCE, inst), Arg("pairing", PAIRING, pairing)],
    ),
    "tour_from_pairing": (
        tour_from_pairing,
        [Arg("graph", GRAPH, graph), Arg("pairing", PAIRING, pairing)],
    ),
    "validate_tour": (
        pairing_tsp.validate_tour,
        [Arg("graph", GRAPH, graph), Arg("tour", TOUR, tour)],
    ),
}

#: Public names that take no argument this module sweeps: a constant,
#: exceptions, the modules, and records that hold what the library computed
#: (a `GraphNode` of the graph, a verdict, a result, study rows and reports).
TAKES_NONE = {
    "DEFAULT_ENUMERATION_CAP",
    "InternalError",
    "PlanRankError",
    "ValidationError",
    "AggregateRow",
    "ExperimentReport",
    "GraphNode",
    "SolveResult",
    "TourVerdict",
    "TrialRecord",
    "bench",
    "core",
    "observation",
    "oracle",
    "plan",
    "solvers",
    "tsp_graph",
}


def _call(name: str, **changed):
    """Call `name` with its valid arguments, some of them `changed`."""
    target, args = ARGUMENTS[name]
    result = target(**{arg.name: changed.get(arg.name, arg.valid) for arg in args})
    return list(result) if inspect.isgenerator(result) else result


def _cases(kind: type) -> list:
    return [
        (name, arg.name, arg.kind)
        for name, (_, args) in ARGUMENTS.items()
        for arg in args
        if isinstance(arg.kind, kind)
    ]


def _other_object(kind) -> object:
    """A library object that is not a `kind`."""
    return inst if isinstance(pairing, kind) else pairing


class TestDeclarations:
    def test_every_public_name_is_declared(self):
        declared = {name.split(".")[0] for name in ARGUMENTS}
        assert not declared & TAKES_NONE
        assert set(pairing_tsp.__all__) == declared | TAKES_NONE

    @pytest.mark.parametrize("name", ARGUMENTS)
    def test_arguments_are_the_signature_in_order(self, name):
        target, args = ARGUMENTS[name]
        assert [arg.name for arg in args] == list(inspect.signature(target).parameters)
        for arg in args:
            assert isinstance(arg.kind, (Obj, Element)) or arg.kind in OTHER_KINDS

    @pytest.mark.parametrize("name", ARGUMENTS)
    def test_valid_call(self, name, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(dumps_instance_text(inst))
        changed = {a.name: path for a in ARGUMENTS[name][1] if a.valid is INSTANCE_FILE}
        _call(name, **changed)


@pytest.mark.parametrize("name,argument,kind", _cases(Obj))
@pytest.mark.parametrize(
    "value",
    [None, [], OTHER, np.zeros((N, N))],
    ids=["None", "list", "other library object", "matrix"],
)
def test_object_argument_refused_by_name(name, argument, kind, value):
    value = _other_object(kind.kind) if value is OTHER else value
    message = f"^{re.escape(kind.refusal)}, got {type(value).__name__}$"
    with pytest.raises(ValidationError, match=message):
        _call(name, **{argument: value})


@pytest.mark.parametrize("name,argument,kind", _cases(Element))
@pytest.mark.parametrize("value", [0, N + 1, 1.5, True, "2"], ids=repr)
def test_element_argument_refused_by_name(name, argument, kind, value):
    if type(value) is int:
        message = f"{kind.name} {value} is outside 1..{N}"
    else:
        message = f"{kind.name} must be an integer, got {value!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        _call(name, **{argument: value})


@pytest.mark.parametrize("start", [0, N + 1])
def test_start_node_outside_the_matrix(start):
    """`solve_pnn`'s start node is an element of its matrix; a `SolverConfig`
    has admitted it as an integer already."""
    with pytest.raises(ValidationError, match=f"^start node {start} is outside 1..{N}$"):
        solve_pnn(inst.c, SolverConfig(start_node=start))

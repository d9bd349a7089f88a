"""Each decision has one home, and the arguments it admits are refused by name.

The command line takes its algorithm names, their solves and the start-node
rule from `bench`, and its file kinds from `core`; the layered graph's
`neighbors` read the one adjacency rule that `has_edge` reads too, and give
the lists the graph's definition gives, in node order; and every entry
point that takes a pairing admits it through `core.checked_pairing`. The
rest covers branches no other test reaches. Every refusal here is a
`ValidationError`, or exit 1 with one `error:` line, and no numpy warning
is raised on the way.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from pairing_tsp import bench
from pairing_tsp.cli import _build_parser, main
from pairing_tsp.core import (
    DEFAULT_ENUMERATION_CAP,
    Pairing,
    ValidationError,
    _read_instance,
    double_factorial,
    pairing_sum,
    quotient_sum,
    total_compatibility,
)
from pairing_tsp.observation import observation_budget, reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.solvers import SolverConfig, solve_p2opt
from pairing_tsp.tsp_graph import GraphNode, Tour, build_graph, tour_from_pairing

from conftest import make_instance

pytestmark = pytest.mark.filterwarnings("error")


class TestCommandLineTakesBenchDecisions:
    def test_algo_choices_are_the_studies_names_and_exact(self, capsys):
        assert main(["solve", "inst.txt", "--algo", "bogus"]) == 1
        choices = ",".join((*bench.KNOWN_ALGORITHMS, "exact"))
        assert f"--algo {{{choices}}}" in capsys.readouterr().err

    def test_every_known_algorithm_has_one_solve(self):
        assert tuple(bench.SOLVERS) == bench.KNOWN_ALGORITHMS

    @pytest.mark.parametrize("algo", bench.KNOWN_ALGORITHMS)
    def test_solve_matches_the_studies_solve(self, tmp_path, capsys, algo):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "8", "--seed", "3", "--out", str(path)]) == 0
        assert main(["solve", str(path), "--algo", algo, "--seed", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = bench.SOLVERS[algo](8, _read_instance(path).c, SolverConfig(seed=5, start_node=1))
        assert out["pairing"] == [list(p) for p in expected.pairing.pairs]

    @pytest.mark.parametrize("start_node", [None, "random", 3])
    def test_start_node_resolution_is_shared(self, start_node):
        expected = {None: 1, "random": bench.random_start_node(11, 8), 3: 3}[start_node]
        assert bench._resolve_start(start_node, 8, 11) == expected

    def test_solve_start_node_random_is_the_studies_draw(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "10", "--seed", "2", "--out", str(path)]) == 0
        argv = ["solve", str(path), "--algo", "pnn", "--seed", "9", "--start-node", "random"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["start_node"] == bench.random_start_node(9, 10)

    def test_start_node_that_is_not_a_number_exits_one(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "6", "--out", str(path)]) == 0
        assert main(["solve", str(path), "--algo", "pnn", "--start-node", "x"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: argument --start-node: start node must be an integer or 'random', got 'x'"
        ]


class TestCommandLineTakesOwnersDefaults:
    def test_strategy_choices_are_the_observers(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "8", "--seed", "3", "--out", str(path)]) == 0
        assert main(["observe", str(path)]) == 0
        reconstructed = json.loads(capsys.readouterr().out)
        reconstruct = bench.OBSERVERS["reconstruct"]

        def twice(oracle):
            reconstruct(oracle)
            return reconstruct(oracle)

        monkeypatch.setitem(bench.OBSERVERS, "twice", twice)
        assert main(["observe", str(path), "--strategy", "twice"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strategy"] == "twice"
        assert out["observations"] == 2 * observation_budget(8)
        assert out["tilde"] == reconstructed["tilde"]

    def test_unknown_strategy_lists_the_observers(self, tmp_path, capsys):
        assert main(["observe", str(tmp_path / "inst.txt"), "--strategy", "bogus"]) == 1
        assert f"--strategy {{{','.join(bench.OBSERVERS)}}}" in capsys.readouterr().err

    def test_parser_defaults_are_their_owners(self):
        parser = _build_parser()
        solve = parser.parse_args(["solve", "inst.txt", "--algo", "pnn"])
        owner = SolverConfig()
        assert (solve.seed, solve.start_node, solve.exchange_limit) == (
            owner.seed,
            owner.start_node,
            owner.exchange_limit,
        )
        assert solve.enumeration_cap == DEFAULT_ENUMERATION_CAP
        gen = parser.parse_args(["gen", "-n", "8"])
        spec = bench.ExperimentSpec(n_values=(8,), trials=1)
        assert (gen.cmin, gen.cmax) == spec.value_range
        assert spec.exchange_limit == owner.exchange_limit

    def test_solve_follows_the_solvers_exchange_limit(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "inst.txt"
        assert main(["gen", "-n", "12", "--seed", "4", "--out", str(path)]) == 0
        monkeypatch.setattr(SolverConfig, "exchange_limit", 1)
        assert main(["solve", str(path), "--algo", "pnn+p2opt"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["exchange_limit"] == 1 and out["exchanges"] <= 1
        assert out["start_node"] == 1

    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    def test_bench_writes_only_the_requested_formats(self, tmp_path, capsys, fmt):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_values": [6], "trials": 1}')
        base = tmp_path / "report"
        assert main(["bench", "noc", "--spec", str(spec), "--format", fmt, "--out", str(base)]) == 0
        suffixes = ["csv", "json"] if fmt == "both" else [fmt]
        expected = [str(base.with_suffix(f".{suffix}")) for suffix in suffixes]
        assert capsys.readouterr().out.splitlines() == expected
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["spec.json", *(f"report.{suffix}" for suffix in suffixes)]
        )


class TestFileKinds:
    def test_text_json_and_shadow_files_are_told_apart(self, tmp_path):
        text, data = tmp_path / "inst.txt", tmp_path / "inst.json"
        assert main(["gen", "-n", "6", "--seed", "4", "--out", str(text)]) == 0
        assert main(["gen", "-n", "6", "--seed", "4", "--format", "json", "--out", str(data)]) == 0
        assert _read_instance(text).c.tobytes() == _read_instance(data).c.tobytes()
        shadow = tmp_path / "shadow.json"
        assert main(["observe", str(text), "--out", str(shadow)]) == 0
        assert "tilde" in _read_instance(shadow, shadows=True)
        with pytest.raises(ValidationError, match="missing field 'upper_triangle'"):
            _read_instance(shadow)

    def test_null_upper_triangle_exits_one_with_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "null.json"
        path.write_text('{"n": 4, "c_min": 0, "c_max": 1, "upper_triangle": null}')
        assert main(["solve", str(path), "--algo", "pnn"]) == 1
        err = capsys.readouterr().err
        assert err == "error: upper_triangle must be a list of numbers, got None\n"


def _hand_built_neighbors(n: int, u: GraphNode) -> list[GraphNode]:
    """The adjacency lists as the layered graph's definition states them."""
    if u.layer == 1:
        out = [GraphNode(1, i) for i in range(1, n + 1) if i != u.index]
        return out + [GraphNode(2, u.index)]
    if u.layer == 2:
        return [GraphNode(1, u.index)] + [GraphNode(3, k) for k in range(1, n // 2 + 1)]
    return [GraphNode(2, i) for i in range(1, n + 1)]


class TestLayeredGraph:
    @pytest.mark.parametrize("n", [4, 6, 10, 30])
    def test_neighbors_are_the_definitions_lists_in_order(self, n):
        graph = build_graph(np.zeros((n, n)), n)
        for u in graph.nodes():
            assert graph.neighbors(u) == _hand_built_neighbors(n, u)

    def test_unknown_layer_and_self_loop(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        assert not graph.has_node(GraphNode(4, 1))
        assert not graph.has_edge(GraphNode(1, 2), GraphNode(1, 2))
        assert graph.neighbors(GraphNode(4, 1)) == []

    def test_tour_length(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        tour = tour_from_pairing(graph, Pairing([(1, 2), (3, 4)]))
        assert len(tour) == 10 == len(tour.sequence)
        assert isinstance(tour, Tour)


def _non_pairing_calls():
    """Each entry point that takes a pairing, called with `pairing` on N=4."""
    inst = make_instance(4, seed=1)
    shadow, _ = reconstruct_tilde(ObservationOracle(inst))
    graph = build_graph(inst.c, 4)
    return {
        "observe": lambda p: ObservationOracle(inst).observe(p),
        "solve_p2opt": lambda p: solve_p2opt(inst.c, p, SolverConfig()),
        "pairing_sum": lambda p: pairing_sum(inst.c, p),
        "quotient_sum": lambda p: quotient_sum(inst.c, 1, p),
        "total_compatibility": lambda p: total_compatibility(inst, p),
        "TildeMatrix.total": lambda p: shadow.total(p),
        "tour_from_pairing": lambda p: tour_from_pairing(graph, p),
    }


ENTRY_POINTS = _non_pairing_calls()

#: How each entry point names a value that is not a Pairing.
REFUSALS = {"observe": "observe takes", "solve_p2opt": "initial must be"}


class TestPairingArguments:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_list_refused_by_name(self, entry):
        refusal = REFUSALS.get(entry, "pairing must be")
        with pytest.raises(ValidationError, match=f"^{refusal} a Pairing, got list$"):
            ENTRY_POINTS[entry]([(1, 2), (3, 4)])

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_other_size_refused(self, entry):
        with pytest.raises(ValidationError, match="^pairing covers 6 elements, not 4$"):
            ENTRY_POINTS[entry](Pairing([(1, 2), (3, 4), (5, 6)]))

    def test_tour_from_a_larger_pairing_on_a_smaller_graph(self):
        graph = build_graph(np.zeros((4, 4)), 4)
        with pytest.raises(ValidationError, match="pairing covers 6 elements, not 4"):
            tour_from_pairing(graph, Pairing([(1, 2), (3, 4), (5, 6)]))

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Pairing(5), "pairs must be an iterable of pairs, got 5"),
            (lambda: Pairing([1, 2]), "pair 1 does not contain exactly two elements"),
            (lambda: Pairing([(1, 2), 3]), "pair 3 does not contain exactly two elements"),
            (
                lambda: Pairing.from_permutation(None),
                "permutation must be an iterable of integers, got None",
            ),
            (lambda: double_factorial("4"), "n must be an integer, got '4'"),
            (lambda: double_factorial(True), "n must be an integer, got True"),
            (lambda: double_factorial(2.5), "n must be an integer, got 2.5"),
        ],
        ids=[
            "int", "flat list", "one bare element", "permutation None",
            "string n", "bool n", "float n",
        ],
    )
    def test_malformed_pairing_input_named(self, make, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            make()

    def test_ragged_batch_refused_before_the_counter_moves(self):
        oracle = ObservationOracle(make_instance(4, seed=2))
        expected = r"^rows and cols must be two \(Q, N/2\) arrays of one shape: "
        with pytest.raises(ValidationError, match=expected):
            oracle.observe_batch([[0, 2], [0]], [[1, 3], [1]])
        assert oracle.query_count == 0


class TestPairingSumAdmitsItsMatrix:
    def test_nested_list_is_summed(self):
        c = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]
        assert pairing_sum(c, Pairing([(1, 2), (3, 4)])) == 7
        assert pairing_sum(np.array(c, dtype=float), Pairing([(1, 3), (2, 4)])) == 7.0

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.full((4, 4), "a"), "matrix entries must be numbers"),
            (np.full((4, 4), np.nan), r"c\[1\]\[2\]=nan is not finite"),
            (np.zeros((2, 2)), "element count must be even and >= 4"),
        ],
        ids=["strings", "all NaN", "too small"],
    )
    def test_bad_matrix_refused(self, matrix, message):
        n = len(matrix)
        with pytest.raises(ValidationError, match=message):
            pairing_sum(matrix, Pairing.from_permutation(range(1, n + 1)))

    def test_solver_scores_do_not_admit_again(self, monkeypatch):
        from pairing_tsp import core, solvers

        calls = []
        real = core.checked_entries
        monkeypatch.setattr(solvers, "checked_entries", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(core, "checked_entries", lambda *a: calls.append(2) or real(*a))
        inst = make_instance(8, seed=4)
        solvers.solve_pnn_p2opt(inst.c, SolverConfig(seed=1))
        assert calls == [1, 1]  # one admission each for pnn and p2opt, none for their scores


class TestSpecBranches:
    def test_infinite_value_range_refused(self):
        with pytest.raises(ValidationError, match="value_range must be two finite numbers"):
            bench.ExperimentSpec.from_json_dict(
                json.loads('{"n_values": [8], "trials": 1, "value_range": [0, Infinity]}')
            )

    def test_perf_study_runs_p2opt_to_convergence_without_a_limit(self):
        spec = bench.ExperimentSpec.from_json_dict(
            {"n_values": [8], "trials": 1, "exchange_limit": None, "algorithms": ["pnn+p2opt"]}
        )
        assert spec.exchange_limit is None
        (record,) = bench.run_study("perf", spec).records
        assert record.algo == "pnn+p2opt" and 0 <= record.p <= 1

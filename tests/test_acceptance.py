"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines as they complete. Tolerances are pinned here, not configurable.
"""

import json
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pairing_tsp.bench import (
    ExperimentSpec,
    run_exchange_limit_sweep,
    run_initial_node_study,
    run_performance_study,
)
from pairing_tsp.cli import main as cli_main
from pairing_tsp.core import (
    Pairing,
    enumerate_pairings,
    pairing_count,
    total_compatibility,
)
from pairing_tsp.observation import observation_budget, reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.plan import execute_plan, minimal_observation_plan, plan_size
from pairing_tsp.solvers import SolverConfig, solve_p2opt, solve_pnn_p2opt
from pairing_tsp.tsp_graph import build_graph, pairing_from_tour, tour_from_pairing

from conftest import make_instance, make_integer_instance, matrix_from_pairs, reference_rank
from test_plan import observation_rows
from test_tsp_graph import enumerate_valid_tours


def _report(number: int, message: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS: {message}")


def _pairing_index_arrays(n: int):
    pairings = list(enumerate_pairings(n))
    rows = np.array([[p[0] - 1 for p in pairing.pairs] for pairing in pairings])
    cols = np.array([[p[1] - 1 for p in pairing.pairs] for pairing in pairings])
    return pairings, rows, cols


def _all_pairing_sums(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return matrix[rows, cols].sum(axis=1)


def test_criterion_01_reconstruction_exactness():
    started = time.perf_counter()
    for n in (4, 6, 8, 10):
        _, rows, cols = _pairing_index_arrays(n)
        for trial in range(20):
            instance = make_instance(n, seed=10_000 + 100 * n + trial)
            tilde, _ = reconstruct_tilde(ObservationOracle(instance))
            true_sums = _all_pairing_sums(instance.c, rows, cols)
            shadow_sums = _all_pairing_sums(tilde.t, rows, cols)
            tolerance = 1e-6 * (n / 2) * instance.c_max
            worst = np.abs(shadow_sums - true_sums).max()
            assert worst <= tolerance, (n, trial, worst)
        exact_instance = make_integer_instance(n, seed=77 + n)
        exact_tilde, _ = reconstruct_tilde(ObservationOracle(exact_instance))
        for pairing in enumerate_pairings(n):
            diff = exact_tilde.total(pairing) - total_compatibility(exact_instance, pairing)
            assert diff == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, budget is 10s"
    _report(1, f"shadow sums match hidden sums on all pairings, N=4..10 ({elapsed:.1f}s)")


def test_criterion_02_observation_budget():
    expected = {6: 19, 10: 71, 50: 2351}
    for n, budget in expected.items():
        assert observation_budget(n) == budget
        instance = make_instance(n, seed=n)
        oracle = ObservationOracle(instance)
        _, spent = reconstruct_tilde(oracle)
        assert spent == oracle.query_count == budget, (n, spent)
    _report(2, "reconstruction spends exactly 19 / 71 / 2351 queries at N=6, 10, 50")


def test_criterion_03_minimal_observation_plan():
    expected_sizes = {4: 3, 6: 10, 8: 21, 10: 36}
    for n, size in expected_sizes.items():
        plan = minimal_observation_plan(n)
        assert plan.size == plan_size(n) == size
        assert reference_rank(observation_rows(plan)) == size
        _, rows, cols = _pairing_index_arrays(n)
        instance = make_instance(n, seed=31_000 + n)
        oracle = ObservationOracle(instance)
        tilde = execute_plan(oracle, plan)
        assert oracle.query_count == size
        tolerance = 1e-6 * (n / 2) * instance.c_max
        worst = np.abs(
            _all_pairing_sums(tilde.t, rows, cols) - _all_pairing_sums(instance.c, rows, cols)
        ).max()
        assert worst <= tolerance
        exact_instance = make_integer_instance(n, seed=32_000 + n)
        exact_tilde = execute_plan(ObservationOracle(exact_instance), plan)
        for pairing in enumerate_pairings(n):
            assert exact_tilde.total(pairing) == total_compatibility(exact_instance, pairing)
    _report(3, "plans of size 3 / 10 / 21 / 36 have full rank and recover exactly")


def test_criterion_04_heuristic_quality_vs_exact():
    started = time.perf_counter()
    n, trials = 10, 100
    _, rows, cols = _pairing_index_arrays(n)
    ratios = []
    for trial in range(trials):
        instance = make_instance(n, seed=40_000 + trial)
        result = solve_pnn_p2opt(
            instance.c, SolverConfig(seed=trial, exchange_limit=600)
        )
        optimum = _all_pairing_sums(instance.c, rows, cols).max()
        assert result.score <= optimum + 1e-9 * optimum
        ratios.append(result.score / optimum)
    elapsed = time.perf_counter() - started
    mean_ratio = float(np.mean(ratios))
    assert mean_ratio >= 0.95, mean_ratio
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.1f}s, budget is 30s"
    _report(
        4,
        f"mean heuristic/optimum ratio {mean_ratio:.4f} >= 0.95 over {trials} "
        f"instances at N=10 ({elapsed:.1f}s)",
    )


def test_criterion_05_performance_study_desk_scale():
    started = time.perf_counter()
    spec = ExperimentSpec(
        n_values=(100, 200),
        trials=100,
        value_range=(0.0, 10000.0),
        exchange_limit=600,
        algorithms=("random", "pnn", "pnn+p2opt"),
        master_seed=2024,
    )
    report = run_performance_study(spec)
    elapsed = time.perf_counter() - started
    means = {(a.n, a.algo): a.mean_p for a in report.aggregates}
    for n in (100, 200):
        assert 0.45 <= means[(n, "random")] <= 0.55, means
        assert means[(n, "pnn+p2opt")] > 0.9, means
        assert means[(n, "random")] < means[(n, "pnn")] < means[(n, "pnn+p2opt")], means
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s, budget is 120s"
    summary = ", ".join(
        f"n={n}: {means[(n, 'random')]:.3f} < {means[(n, 'pnn')]:.3f} < "
        f"{means[(n, 'pnn+p2opt')]:.3f}"
        for n in (100, 200)
    )
    _report(5, f"{summary} ({elapsed:.1f}s)")


def test_criterion_06_exchange_limit_saturation():
    limits = (0, 25, 50, 100, 600)
    spec = ExperimentSpec(
        n_values=(100,),
        trials=100,
        value_range=(0.0, 10000.0),
        exchange_limit=limits,
        algorithms=("pnn+p2opt",),
        master_seed=606,
    )
    report = run_exchange_limit_sweep(spec)
    means = report.extras["sweep"]["100"]["mean_p"]
    for before, after in zip(means, means[1:]):
        assert after >= before - 1e-3, means
    assert abs(means[limits.index(100)] - means[limits.index(600)]) <= 1e-3, means
    _report(
        6,
        "mean P non-decreasing in the exchange limit and saturated by l=100: "
        + ", ".join(f"l={l}: {m:.4f}" for l, m in zip(limits, means)),
    )


def test_criterion_07_p2opt_invariants():
    # monotone strict improvement per accepted exchange
    instance = make_instance(12, seed=70_000)
    initial = Pairing.from_permutation(range(1, 13))
    previous = None
    for limit in range(0, 40):
        result = solve_p2opt(instance.c, initial, SolverConfig(exchange_limit=limit))
        if previous is not None:
            assert result.score >= previous
            if result.exchanges_used == limit:
                assert result.score > previous
        previous = result.score
        if result.exchanges_used < limit:
            break

    # exhaustive local-optimum check from every initial pairing at N=6
    instance6 = make_instance(6, seed=70_001)
    c = instance6.c

    def is_two_pair_local_optimum(pairing: Pairing) -> bool:
        for (i, j), (k, l) in combinations(pairing.pairs, 2):
            a = c[i - 1][j - 1] + c[k - 1][l - 1]
            b = c[i - 1][l - 1] + c[k - 1][j - 1]
            d = c[i - 1][k - 1] + c[l - 1][j - 1]
            if b > a or d > a:
                return False
        return True

    local_optima = {p for p in enumerate_pairings(6) if is_two_pair_local_optimum(p)}
    assert local_optima
    for start in enumerate_pairings(6):
        result = solve_p2opt(c, start, SolverConfig(exchange_limit=None))
        assert result.pairing in local_optima, start
        assert is_two_pair_local_optimum(result.pairing)

    # worked rewiring scenario: two rejections then one accepted exchange
    fig = matrix_from_pairs(6, {(1, 2): 10, (3, 4): 1, (5, 6): 1, (3, 5): 6, (4, 6): 6})
    scenario = solve_p2opt(
        fig, Pairing([(1, 2), (3, 4), (5, 6)]), SolverConfig(exchange_limit=1)
    )
    assert scenario.noc == 3
    assert scenario.pairing == Pairing([(1, 2), (3, 5), (4, 6)])
    _report(7, "strict monotone exchanges, exhaustive N=6 local optimality, worked scenario NOC=3")


def test_criterion_08_initial_node_sensitivity():
    spec = ExperimentSpec(
        n_values=(100,),
        trials=100,
        value_range=(0.0, 10000.0),
        exchange_limit=600,
        algorithms=("pnn", "pnn+p2opt"),
        master_seed=808,
    )
    report = run_initial_node_study(spec)
    summary = report.extras["mean_std_p_over_starts"]["100"]
    assert summary["pnn"] < 0.015, summary
    assert summary["pnn+p2opt"] < 0.015, summary
    _report(
        8,
        f"mean per-instance std over all 100 starts: pnn {summary['pnn']:.5f}, "
        f"pnn+p2opt {summary['pnn+p2opt']:.5f} (< 0.015)",
    )


def test_criterion_09_tour_pairing_correspondence():
    for n in (4, 6):
        instance = make_instance(n, seed=90_000 + n)
        graph = build_graph(instance.c, n)
        tours = enumerate_valid_tours(graph)
        assert tours
        best_score = max(total_compatibility(instance, p) for p in enumerate_pairings(n))
        min_cost = min(tour.cost(graph) for tour in tours)
        assert min_cost == pytest.approx(-best_score)
        for tour in tours:
            pairing = pairing_from_tour(tour)
            assert tour.cost(graph) == pytest.approx(-total_compatibility(instance, pairing))
        for pairing in enumerate_pairings(n):
            assert pairing_from_tour(tour_from_pairing(graph, pairing)) == pairing
    _report(9, "min tour cost equals negated max pairing score at N=4 and 6; round trips hold")


def test_criterion_10_cli_determinism(tmp_path):
    instance_path = tmp_path / "inst.txt"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "n_values": [8, 10],
                "trials": 3,
                "value_range": [0, 10000],
                "exchange_limit": 600,
                "algorithms": ["random", "pnn", "pnn+p2opt"],
                "master_seed": 10,
            }
        )
    )
    invocations = [
        ["gen", "-n", "10", "--seed", "42", "--out", str(instance_path)],
        ["observe", str(instance_path), "--out", str(tmp_path / "obs.json")],
        [
            "observe", str(instance_path), "--strategy", "minimal",
            "--out", str(tmp_path / "plan.json"),
        ],
        [
            "solve", str(instance_path), "--algo", "pnn+p2opt", "--seed", "7",
            "--start-node", "random", "--mode", "observed",
            "--out", str(tmp_path / "solve.json"),
        ],
        ["graph", str(instance_path), "--out", str(tmp_path / "graph.json")],
        ["bench", "perf", "--spec", str(spec_path), "--out", str(tmp_path / "bench")],
    ]
    snapshots = []
    for round_index in range(2):
        outputs = {}
        for argv in invocations:
            assert cli_main(list(argv)) == 0, argv
        for path in sorted(tmp_path.iterdir()):
            if path.suffix in (".txt", ".json", ".csv") and path != spec_path:
                outputs[path.name] = path.read_bytes()
        snapshots.append(outputs)
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], f"{name} differs between runs"
    _report(10, f"{len(snapshots[0])} CLI output files byte-identical across repeated runs")

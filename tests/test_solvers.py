import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from pairing_tsp.core import (
    Instance,
    Pairing,
    ValidationError,
    enumerate_pairings,
    exact_best_pairing,
    pairing_sum,
    total_compatibility,
)
from pairing_tsp.solvers import (
    SolverConfig,
    solve_p2opt,
    solve_pnn,
    solve_pnn_p2opt,
    solve_random,
    _slot_pairs,
)
from pairing_tsp.bench import generate_instance
from pairing_tsp.observation import reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.tsp_graph import build_graph, pairing_from_tour, validate_tour

from conftest import (
    make_fraction_instance,
    make_instance,
    make_integer_instance,
    matrix_from_pairs,
    reference_p2opt,
    reference_pnn,
)


def zeros_but_pair(value, i=1, j=3):
    # a 4x4 zero matrix with `value` at (i, j) and (j, i), 0-based
    c = np.zeros((4, 4))
    c[i][j] = c[j][i] = value
    return c


def greedy_trap_matrix():
    # greedy from node 1 grabs {1,2}; the optimum is {1,3},{2,4}
    return matrix_from_pairs(4, {(1, 2): 10, (3, 4): 1, (1, 3): 9, (2, 4): 9, (1, 4): 0, (2, 3): 0})


class TestSolveRandom:
    def test_deterministic_per_seed(self):
        assert solve_random(12, 5).pairing == solve_random(12, 5).pairing
        assert solve_random(12, 5).pairing != solve_random(12, 6).pairing

    def test_result_shape(self):
        result = solve_random(4, 9)
        assert result.noc == 0 and result.exchanges_used == 0
        assert result.score is None

    def test_score_with_matrix(self):
        inst = make_instance(6, seed=2)
        result = solve_random(6, 3, matrix=inst.c)
        assert result.score == pytest.approx(total_compatibility(inst, result.pairing))

    def test_uniform_over_pairings_n6(self):
        counts = Counter(solve_random(6, seed).pairing for seed in range(10_000))
        assert len(counts) == 15
        expected = 10_000 / 15
        sigma = math.sqrt(10_000 * (1 / 15) * (14 / 15))
        for pairing, count in counts.items():
            assert abs(count - expected) <= 3 * sigma, (pairing, count)


class TestSolvePnn:
    def test_hand_example_greedy(self):
        c = matrix_from_pairs(4, {(1, 2): 9, (3, 4): 9, (1, 3): 5, (2, 4): 5, (1, 4): 1, (2, 3): 1})
        result = solve_pnn(c, SolverConfig(seed=0, start_node=1))
        assert result.pairing == Pairing([(1, 2), (3, 4)])
        assert result.score == 18

    def test_constant_matrix_any_start_same_score(self):
        c = np.full((8, 8), 4.0)
        np.fill_diagonal(c, 0)
        for start in range(1, 9):
            result = solve_pnn(c, SolverConfig(seed=start, start_node=start))
            assert result.score == 16.0

    def test_tour_is_valid(self):
        inst = make_instance(10, seed=3)
        for seed in range(10):
            result = solve_pnn(inst.c, SolverConfig(seed=seed, start_node=1 + seed % 10))
            assert result.tour is not None
            assert validate_tour(build_graph(inst.c, 10), result.tour).ok
            assert result.pairing.n == 10

    def test_greedy_trap_not_optimal(self):
        c = greedy_trap_matrix()
        inst = Instance(n=4, c=c, c_min=0, c_max=10)
        result = solve_pnn(c, SolverConfig(seed=0, start_node=1))
        _, best = exact_best_pairing(inst)
        assert result.pairing == Pairing([(1, 2), (3, 4)])
        assert result.score == 11 < best == 18

    def test_default_start_is_node_one(self):
        c = greedy_trap_matrix()
        assert solve_pnn(c, SolverConfig(seed=0)).pairing == Pairing([(1, 2), (3, 4)])

    def test_seed_reproducibility(self):
        inst = make_instance(20, seed=4)
        a = solve_pnn(inst.c, SolverConfig(seed=11))
        b = solve_pnn(inst.c, SolverConfig(seed=11))
        assert a.pairing == b.pairing and a.tour == b.tour

    def test_bad_start_rejected(self):
        inst = make_instance(6, seed=5)
        with pytest.raises(ValidationError):
            solve_pnn(inst.c, SolverConfig(seed=0, start_node=7))

    def test_score_never_below_worst_pairing(self):
        inst = make_instance(8, seed=6)
        scores = [total_compatibility(inst, p) for p in enumerate_pairings(8)]
        result = solve_pnn(inst.c, SolverConfig(seed=1))
        assert min(scores) <= result.score <= max(scores)


class TestSolveP2opt:
    def test_initial_list_of_pairs_refused(self):
        with pytest.raises(ValidationError, match="initial must be a Pairing, got list"):
            solve_p2opt(np.zeros((4, 4)), [(1, 2), (3, 4)], SolverConfig())

    def test_worked_scenario_three_checks(self):
        # pairs {1,2},{3,4},{5,6}: the first two comparisons keep the current
        # wiring, the third accepts {3,5},{4,6}; with a limit of one exchange
        # the count of checks is exactly three
        c = matrix_from_pairs(
            6, {(1, 2): 10, (3, 4): 1, (5, 6): 1, (3, 5): 6, (4, 6): 6}
        )
        initial = Pairing([(1, 2), (3, 4), (5, 6)])
        result = solve_p2opt(c, initial, SolverConfig(exchange_limit=1))
        assert result.noc == 3
        assert result.exchanges_used == 1
        assert result.pairing == Pairing([(1, 2), (3, 5), (4, 6)])
        assert result.trace == (3,)

    def test_limit_zero_returns_initial(self):
        inst = make_instance(6, seed=7)
        initial = Pairing([(1, 4), (2, 5), (3, 6)])
        result = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=0))
        assert result.pairing == initial
        assert result.noc == 0 and result.exchanges_used == 0

    def test_from_exact_optimum_no_exchange(self):
        inst = make_instance(8, seed=8)
        best, _ = exact_best_pairing(inst)
        result = solve_p2opt(inst.c, best, SolverConfig(exchange_limit=None))
        assert result.pairing == best
        assert result.exchanges_used == 0
        assert result.noc == 6  # one clean scan of C(4,2) slot pairs

    def test_monotone_improvement_per_exchange(self):
        inst = make_instance(12, seed=9)
        initial = solve_random(12, 1).pairing
        scores = []
        for limit in range(0, 30):
            result = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=limit))
            scores.append(result.score)
            if result.exchanges_used < limit:
                break
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        strict_until = len(scores) - 1
        assert all(b > a for a, b in zip(scores[:strict_until], scores[1:strict_until]))

    def test_terminates_at_two_pair_local_optimum(self):
        inst = make_instance(10, seed=10)
        initial = solve_random(10, 2).pairing
        result = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=None))
        pairs = result.pairing.pairs
        for x in range(len(pairs)):
            for y in range(x + 1, len(pairs)):
                (i, j), (k, l) = pairs[x], pairs[y]
                a = inst.c[i - 1][j - 1] + inst.c[k - 1][l - 1]
                b = inst.c[i - 1][l - 1] + inst.c[k - 1][j - 1]
                d = inst.c[i - 1][k - 1] + inst.c[l - 1][j - 1]
                assert a >= b - 1e-12 and a >= d - 1e-12

    def test_exhaustive_local_optimality_n4(self):
        inst = make_instance(4, seed=44)
        c = inst.c
        for start in enumerate_pairings(4):
            result = solve_p2opt(c, start, SolverConfig(exchange_limit=None))
            (i, j), (k, l) = result.pairing.pairs
            a = c[i - 1][j - 1] + c[k - 1][l - 1]
            b = c[i - 1][l - 1] + c[k - 1][j - 1]
            d = c[i - 1][k - 1] + c[l - 1][j - 1]
            assert a >= b and a >= d

    def test_exact_arithmetic_matrix(self):
        from conftest import make_integer_instance

        inst = make_integer_instance(8, seed=45)
        initial = Pairing.from_permutation(range(1, 9))
        result = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=None))
        assert result.score == total_compatibility(inst, result.pairing)
        constructed = solve_pnn(inst.c, SolverConfig(seed=1))
        assert constructed.score == total_compatibility(inst, constructed.pairing)

    def test_constant_matrix_converges_immediately(self):
        c = np.full((6, 6), 3.0)
        np.fill_diagonal(c, 0)
        initial = Pairing([(1, 2), (3, 4), (5, 6)])
        result = solve_p2opt(c, initial, SolverConfig(exchange_limit=None))
        assert result.exchanges_used == 0
        assert result.pairing == initial

    def test_round_robin_restart_counts_rechecks(self):
        # two exchanges: the scan restarts after the first, so early pair
        # combinations are evaluated again and counted again
        c = matrix_from_pairs(
            6, {(1, 3): 10, (2, 4): 10, (1, 2): 1, (3, 4): 1, (5, 6): 5, (3, 5): 0}
        )
        initial = Pairing([(1, 2), (3, 4), (5, 6)])
        result = solve_p2opt(c, initial, SolverConfig(exchange_limit=None))
        assert result.exchanges_used >= 1
        assert result.noc > sum(result.trace[:1])
        assert result.noc == sum(result.trace)

    def test_exchange_limit_caps_exchanges(self):
        inst = make_instance(20, seed=11)
        initial = solve_random(20, 3).pairing
        unlimited = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=None))
        assert unlimited.exchanges_used > 2
        capped = solve_p2opt(inst.c, initial, SolverConfig(exchange_limit=2))
        assert capped.exchanges_used == 2
        assert capped.noc <= unlimited.noc

    def test_invalid_inputs(self):
        inst = make_instance(6, seed=12)
        with pytest.raises(ValidationError):
            solve_p2opt(inst.c, Pairing([(1, 2), (3, 4)]), SolverConfig())
        with pytest.raises(ValidationError):
            solve_p2opt(inst.c, Pairing([(1, 4), (2, 5), (3, 6)]), SolverConfig(exchange_limit=-1))


class TestComposition:
    def test_never_worse_than_construction(self):
        for seed in range(30):
            inst = make_instance(14, seed=100 + seed)
            cfg = SolverConfig(seed=seed, exchange_limit=600)
            constructed = solve_pnn(inst.c, cfg)
            refined = solve_pnn_p2opt(inst.c, cfg)
            assert refined.score >= constructed.score - 1e-9

    def test_bounded_by_exact_optimum_n10(self):
        hits = 0
        for seed in range(25):
            inst = make_instance(10, seed=200 + seed)
            refined = solve_pnn_p2opt(inst.c, SolverConfig(seed=seed, exchange_limit=600))
            _, best = exact_best_pairing(inst)
            assert refined.score <= best + 1e-9
            hits += refined.score >= best - 1e-9
        assert hits > 10  # the refinement finds the optimum often at this size

    def test_constant_matrix_zero_exchanges(self):
        c = np.full((8, 8), 2.0)
        np.fill_diagonal(c, 0)
        result = solve_pnn_p2opt(c, SolverConfig(seed=0, exchange_limit=600))
        assert result.exchanges_used == 0
        assert result.score == 8.0

    def test_noc_at_least_exchanges(self):
        inst = make_instance(16, seed=13)
        result = solve_pnn_p2opt(inst.c, SolverConfig(seed=5, exchange_limit=600))
        assert result.noc >= result.exchanges_used
        assert result.score == pytest.approx(pairing_sum(inst.c, result.pairing))


def tie_heavy_matrix(n: int, seed: int) -> np.ndarray:
    """A symmetric float matrix with entries in 0..2, so most rows tie."""
    upper = np.triu(np.random.default_rng(seed).integers(0, 3, (n, n)), 1)
    return (upper + upper.T).astype(np.float64)


def pnn_matrices(n: int) -> dict[str, np.ndarray]:
    """Every kind of matrix pnn runs on, by name."""
    tie_heavy = tie_heavy_matrix(n, seed=n)

    def shadow(inst):
        return reconstruct_tilde(ObservationOracle(inst))[0].t

    return {
        "float": make_instance(n, seed=n).c,
        "float shadow": shadow(make_instance(n, seed=n + 1)),
        "integer": make_integer_instance(n, seed=n).c,
        "integer shadow": shadow(make_integer_instance(n, seed=n + 2)),
        "fraction": make_fraction_instance(n, seed=n, low=0, high=30).c,
        "tie-heavy": tie_heavy,
        "tie-heavy exact": tie_heavy.astype(int).astype(object),
        "int64": tie_heavy.astype(np.int64),
        "float32": make_instance(n, seed=n).c.astype(np.float32),
    }


class TestPnnAgainstReference:
    """Block draws against the step loop that makes one draw per call."""

    @pytest.mark.parametrize("n", [4, 6, 12, 28, 100])
    def test_every_start_node_matches_the_step_loop(self, n):
        for name, matrix in pnn_matrices(n).items():
            for start in range(1, n + 1):
                config = SolverConfig(seed=1000 * n + start, start_node=start)
                result = solve_pnn(matrix, config)
                pairing, visits, score = reference_pnn(matrix, config)
                assert result.pairing == pairing, (name, start)
                assert result.visits.tolist() == visits, (name, start)
                assert result.score == score and type(result.score) is type(score), (name, start)

    def test_numpy_array_bounds_draw_like_sequential_calls(self):
        # solve_pnn's block draws rest on this numpy behaviour: one
        # rng.integers(array) call gives the values, and leaves the generator
        # in the state, of one rng.integers(k) call per bound, and a bound of
        # 1 draws nothing. If numpy changes it, this test names the cause.
        for seed in range(20):
            ks = np.random.default_rng(seed).integers(1, 200, 60)
            ks[::7] = 1
            ks[3] = 2**40
            sequential = np.random.Generator(np.random.PCG64(seed))
            values = [int(sequential.integers(k)) for k in ks.tolist()]
            block = np.random.Generator(np.random.PCG64(seed))
            assert block.integers(ks).tolist() == values
            assert block.bit_generator.state == sequential.bit_generator.state
        rng = np.random.Generator(np.random.PCG64(0))
        before = rng.bit_generator.state
        assert rng.integers(np.ones(5, dtype=np.int64)).tolist() == [0] * 5
        assert int(rng.integers(1)) == 0
        assert rng.bit_generator.state == before


class TestPnnExactAgainstFloat:
    @pytest.mark.parametrize("hi", [10000, 3])
    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_object_and_float_copy_give_identical_runs(self, n, hi):
        # with hi=3 most rows hold ties, so the tie-break draws decide the run
        for seed in range(10):
            inst = make_integer_instance(n, seed=4000 + 100 * n + seed, hi=hi)
            config = SolverConfig(seed=seed, start_node=1 + seed % n)
            exact = solve_pnn(inst.c, config)
            floats = solve_pnn(inst.c.astype(np.float64), config)
            assert exact.pairing == floats.pairing
            assert exact.tour == floats.tour
            assert exact.score == floats.score


class TestP2optOnShadowAndNearTies:
    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("n", [8, 16, 30])
    def test_exact_shadow_run_identical_to_instance_run(self, n, limit):
        # the shadow preserves every exchange-rule difference, so in exact
        # arithmetic each comparison, and hence the whole run, is the same
        exchanges = 0
        for seed in range(10):
            inst = make_integer_instance(n, seed=3000 + 100 * n + seed)
            shadow, _ = reconstruct_tilde(ObservationOracle(inst))
            assert shadow.t.dtype == object
            initial = solve_random(n, seed).pairing
            config = SolverConfig(exchange_limit=limit)
            raw = solve_p2opt(inst.c, initial, config)
            tilde = solve_p2opt(shadow.t, initial, config)
            assert tilde.pairing == raw.pairing
            assert (tilde.noc, tilde.exchanges_used, tilde.trace) == (
                raw.noc,
                raw.exchanges_used,
                raw.trace,
            )
            exchanges += raw.exchanges_used
        assert exchanges > 0

    def test_unlimited_terminates_on_near_tie_floats(self):
        n = 40
        rng = np.random.default_rng(40)
        values = 5000.0 + rng.integers(-1000, 1001, (n, n)) * 1e-12
        c = np.triu(values, 1)
        c = c + c.T
        result = solve_p2opt(c, solve_random(n, 4).pairing, SolverConfig(exchange_limit=None))
        m = n // 2
        assert result.exchanges_used > 0
        assert result.noc == sum(result.trace)
        # converged: the last scan segment checked every pair of pairs cleanly
        assert result.trace[-1] == m * (m - 1) // 2


def near_tie_matrix(n: int, seed: int) -> np.ndarray:
    # entries 5000 +- 1e-9: the three sums of a slot pair differ in the last bits
    rng = np.random.default_rng(seed)
    values = 5000.0 + rng.integers(-1000, 1001, (n, n)) * 1e-12
    c = np.triu(values, 1)
    return c + c.T


def shadow_matrix(n: int, seed: int) -> np.ndarray:
    return reconstruct_tilde(ObservationOracle(generate_instance(n, 0, 10000, seed)))[0].t


MATRIX_KINDS = {
    "float": lambda n, seed: make_instance(n, seed=seed).c,
    "shadow": shadow_matrix,
    # values 0..3 in exact arithmetic: most comparisons are ties
    "object-ties": lambda n, seed: make_integer_instance(n, seed=seed, hi=3).c,
    "near-tie": near_tie_matrix,
}


class TestP2optAgainstScalarReference:
    """The outcome table against the plain rescan it replaces, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(MATRIX_KINDS))
    @pytest.mark.parametrize("n", [4, 6, 10, 30, 64, 100])
    def test_identical_runs(self, kind, n):
        c = MATRIX_KINDS[kind](n, 5000 + n)
        initials = [solve_random(n, n).pairing] + [
            solve_pnn(c, SolverConfig(seed=start, start_node=start)).pairing
            for start in sorted({1, n // 2, n})
        ]
        exchanges = 0
        for initial in initials:
            # solvers build their pairings unchecked; a checked one must equal them
            assert initial == Pairing(initial.pairs)
            for limit in (None, 0, 1, 3, 600):
                result = solve_p2opt(c, initial, SolverConfig(exchange_limit=limit))
                pairing, noc, used, trace, score = reference_p2opt(c, initial, limit)
                assert result.pairing == Pairing(result.pairing.pairs)
                assert result.pairing.pairs == pairing.pairs
                assert (result.noc, result.exchanges_used, result.trace) == (noc, used, trace)
                assert result.score == score and type(result.score) is type(score)
                exchanges += used
        assert exchanges > 0 or n == 4

    def test_first_improvement_is_found_before_a_later_d_win(self):
        # slot pair (0, 1) is a b win and (0, 2) a d win: the scan must stop
        # at the first improving pair whichever rewiring wins there
        c = matrix_from_pairs(6, {(1, 4): 5, (2, 3): 5, (1, 5): 9, (2, 6): 9})
        initial = Pairing([(1, 2), (3, 4), (5, 6)])
        result = solve_p2opt(c, initial, SolverConfig(exchange_limit=1))
        reference = reference_p2opt(c, initial, 1)
        assert result.trace == reference[3] == (1,)
        assert result.pairing == reference[0] == Pairing([(1, 4), (2, 3), (5, 6)])

    def test_other_dtypes_sum_as_python_scalars(self):
        # float32 entries are summed in double precision and ints exactly,
        # as the scalar loop over matrix.tolist() sums them
        base = make_instance(12, seed=17).c
        initial = solve_random(12, 3).pairing
        for c in (base.astype(np.float32), np.round(base).astype(np.int64)):
            result = solve_p2opt(c, initial, SolverConfig(exchange_limit=None))
            pairing, noc, used, trace, score = reference_p2opt(c, initial, None)
            assert (result.pairing, result.noc, result.exchanges_used, result.trace) == (
                pairing,
                noc,
                used,
                trace,
            )
            assert result.score == score


def _improving_slot_pairs(c, pairing: Pairing) -> list:
    """Every slot pair (x, y) of the pairing where a rewiring strictly gains."""
    pairs = pairing.pairs
    found = []
    for x in range(len(pairs)):
        for y in range(x + 1, len(pairs)):
            (i, j), (k, l) = pairs[x], pairs[y]
            a = c[i - 1][j - 1] + c[k - 1][l - 1]
            b = c[i - 1][l - 1] + c[k - 1][j - 1]
            d = c[i - 1][k - 1] + c[l - 1][j - 1]
            if b > a or d > a:
                found.append((x, y))
    return found


class TestP2optLocalOptimumAtScale:
    @pytest.mark.parametrize("kind", ["float", "shadow", "object-ties"])
    def test_converged_result_is_two_pair_optimal_n200(self, kind):
        n = 200
        c = MATRIX_KINDS[kind](n, 7)
        for initial in (solve_random(n, 1).pairing, solve_pnn(c, SolverConfig(seed=2)).pairing):
            result = solve_p2opt(c, initial, SolverConfig(exchange_limit=None))
            assert result.exchanges_used > 0
            assert _improving_slot_pairs(c, result.pairing) == []
            assert result.trace[-1] == (n // 2) * (n // 2 - 1) // 2


def _with_diagonal(c: np.ndarray, value) -> np.ndarray:
    c = c.copy()
    np.fill_diagonal(c, value)
    return c


def sentinel_matrices(n: int) -> dict[str, np.ndarray]:
    """Matrices that only the masked rows keep pnn from misreading: a NaN or
    infinite diagonal, which a step must never take as a candidate, and
    exact numerators beyond float range, which must still compare with the
    -inf mask; by name."""
    floats = make_instance(n, seed=n).c
    ties = tie_heavy_matrix(n, seed=n + 1)
    exact_ties = ties.astype(int).astype(object)
    sign = np.triu(np.random.default_rng(n).integers(-1, 2, (n, n)), 1)
    huge = exact_ties + (sign + sign.T).astype(object) * 2**1100
    out = {}
    for name, value in (("nan", math.nan), ("+inf", math.inf), ("-inf", -math.inf)):
        out[f"float, {name} diagonal"] = _with_diagonal(floats, value)
        out[f"tie-heavy float, {name} diagonal"] = _with_diagonal(ties, value)
        # an object matrix holding a float computes in floating point
        out[f"object, {name} diagonal"] = _with_diagonal(exact_ties, value)
    # a diagonal of +-2**1101 outweighs every entry off it
    for name, value in (("zero", 0), ("+2**1101", 2**1101), ("-2**1101", -(2**1101))):
        out[f"beyond float range, {name} diagonal"] = _with_diagonal(huge, value)
    return out


SENTINEL_KINDS = sorted(sentinel_matrices(4))


class TestMaskedRowsAndTermTable:
    """The masked pnn rows and the p2opt term table against the step loop
    and the plain rescan, on the diagonals and magnitudes admission lets in."""

    @pytest.mark.parametrize("kind", SENTINEL_KINDS)
    @pytest.mark.parametrize("n", [4, 28, 100])
    def test_pnn_every_start_matches_the_step_loop(self, n, kind):
        matrix = sentinel_matrices(n)[kind]
        for start in range(1, n + 1):
            config = SolverConfig(seed=7 * n + start, start_node=start)
            result = solve_pnn(matrix, config)
            pairing, visits, score = reference_pnn(matrix, config)
            assert result.pairing == pairing, start
            assert result.visits.tolist() == visits, start
            assert result.score == score and type(result.score) is type(score), start

    @pytest.mark.parametrize("kind", SENTINEL_KINDS)
    @pytest.mark.parametrize("n", [4, 28, 100])
    def test_p2opt_matches_the_plain_rescan(self, n, kind):
        matrix = sentinel_matrices(n)[kind]
        initials = [solve_random(n, n).pairing] + [
            solve_pnn(matrix, SolverConfig(seed=start, start_node=start)).pairing
            for start in sorted({1, n})
        ]
        exchanges = 0
        for initial in initials:
            for limit in (None, 0, 1, 600):
                result = solve_p2opt(matrix, initial, SolverConfig(exchange_limit=limit))
                pairing, noc, used, trace, score = reference_p2opt(matrix, initial, limit)
                assert result.pairing.pairs == pairing.pairs
                assert (result.noc, result.exchanges_used, result.trace) == (noc, used, trace)
                assert result.score == score and type(result.score) is type(score)
                exchanges += used
        assert exchanges > 0 or n == 4

    def test_term_table_read_only_and_built_once_per_m(self):
        _slot_pairs.cache_clear()
        c = make_instance(30, seed=3).c
        for seed in range(3):
            solve_p2opt(c, solve_random(30, seed).pairing, SolverConfig())
        info = _slot_pairs.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        _, terms, touching = _slot_pairs(15)
        for array in (terms, touching):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0

    @pytest.mark.parametrize("m", [2, 3, 14, 50])
    def test_term_table_columns_hold_each_pairs_terms(self, m):
        n = 2 * m
        pairs, terms, _ = _slot_pairs(m)
        assert terms.shape == (12, m * (m - 1) // 2)
        for k, (i, j) in enumerate(pairs):
            x, y, u, v = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            # a = c[x][y] + c[u][v], b = c[x][v] + c[u][y], d = c[x][u] + c[v][y]:
            # the six rows' slots, then the six columns' slots plus n
            assert terms[:, k].tolist() == [x, x, x, u, u, v, y + n, v + n, u + n, v + n, y + n, y + n]


def _tour_digest(tour) -> str:
    return hashlib.sha256(json.dumps([list(node) for node in tour.sequence]).encode()).hexdigest()


class TestPnnLazyTour:
    # digests of the tours the construction built and validated on every
    # call before the tour became lazy; a changed draw changes them
    @pytest.mark.parametrize(
        "n, seed, start, on_shadow, digest",
        [
            (10, 0, 1, False, "2d552a2c5b350e120ac37787ab506f2718ddbcb58cacc286898c852ba4d6c879"),
            (10, 1, 10, False, "14c1d078533efa0d32bc209dd2714e935242cec3a347ce89d71c20617e11c673"),
            (10, 2, 4, True, "ed17d01b619b08e76819b3d1ba7f18c916130134f87ef16b1fc39b75135f25fc"),
            (100, 0, 1, False, "aa51da8cb2785403570ed342b464176b542be55816a01b11ad9340adf16f755a"),
            (100, 1, 100, False, "6d6588ebe9127b107acfcf685043006b3cb3d215ae6eecb5440f717e7055b9c1"),
            # on a shadow row 1 is zero, so the first partner is a tie draw
            (100, 2, 1, True, "fa595fb9de104f3c891686f2a21640201dcbf50f4bf00f6735b26e91de33fab7"),
            (100, 3, 57, True, "40527bf377fc59f5607edce92ead568efea6406a7c166a4f33a358dfb7afccd1"),
        ],
    )
    def test_tour_pinned(self, n, seed, start, on_shadow, digest):
        c = shadow_matrix(n, seed) if on_shadow else generate_instance(n, 0, 10000, seed).c
        result = solve_pnn(c, SolverConfig(seed=seed, start_node=start))
        assert _tour_digest(result.tour) == digest

    @pytest.mark.parametrize("on_shadow", [False, True])
    def test_tour_valid_and_matches_pairing_n200(self, on_shadow):
        n = 200
        c = shadow_matrix(n, 9) if on_shadow else generate_instance(n, 0, 10000, 9).c
        for start in (1, 77, 200):
            result = solve_pnn(c, SolverConfig(seed=start, start_node=start))
            assert validate_tour(build_graph(c, n), result.tour).ok
            assert pairing_from_tour(result.tour) == result.pairing

    def test_tour_built_once_and_only_for_pnn(self):
        c = make_instance(12, seed=21).c
        result = solve_pnn(c, SolverConfig(seed=3))
        assert result.tour is result.tour
        assert len(result.visits) == 5 * 12 // 2 - 1
        assert solve_p2opt(c, result.pairing, SolverConfig()).tour is None
        assert solve_random(12, 3).tour is None


class TestSolverInputErrors:
    """Malformed solver inputs raise a named ValidationError, not a numpy error."""

    @pytest.mark.parametrize("matrix", [np.float64(3), [[0, 1, 2, 3], [1, 0]], np.zeros((4, 4, 4))])
    def test_non_matrix_rejected(self, matrix):
        with pytest.raises(ValidationError):
            solve_pnn(matrix, SolverConfig())
        with pytest.raises(ValidationError):
            solve_p2opt(matrix, Pairing([(1, 2), (3, 4)]), SolverConfig())
        with pytest.raises(ValidationError):
            solve_random(4, 0, matrix=matrix)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (zeros_but_pair(math.nan, 0, 1), r"c\[1\]\[2\]=nan is not finite"),
            (zeros_but_pair(math.nan), r"c\[2\]\[4\]=nan is not finite"),
            (zeros_but_pair(math.inf), r"c\[2\]\[4\]=inf is not finite"),
            (zeros_but_pair(-math.inf), r"c\[2\]\[4\]=-inf is not finite"),
            (np.array([[1.0, 2.0, 3.0, math.nan]] * 4, dtype=object), "c\\[1\\]\\[4\\]=nan"),
            (np.full((4, 4), "1"), "numbers, got dtype <U1"),
            (np.ones((4, 4), dtype=bool), "numbers, got dtype bool"),
            (np.full((4, 4), "1", dtype=object), "numbers, got '1'"),
            (np.full((4, 4), True, dtype=object), "numbers, got True"),
            (np.zeros((4, 4), dtype=complex), "numbers, got dtype complex128"),
        ],
    )
    @pytest.mark.parametrize(
        "solve",
        [
            lambda matrix, seed: solve_pnn(matrix, SolverConfig(seed=seed)),
            lambda matrix, seed: solve_p2opt(matrix, Pairing([(1, 2), (3, 4)]), SolverConfig(seed=seed)),
            lambda matrix, seed: solve_random(4, seed, matrix=matrix),
        ],
        ids=["pnn", "p2opt", "random"],
    )
    def test_bad_entries_named(self, matrix, message, solve):
        for seed in range(4):
            with pytest.raises(ValidationError, match=message):
                solve(matrix, seed)

    def test_nan_diagonal_admitted(self):
        c = make_instance(8, seed=5).c.copy()
        clean = c.copy()
        np.fill_diagonal(c, math.nan)
        config = SolverConfig(seed=2)
        assert solve_pnn(c, config) == solve_pnn(clean, config)
        start = solve_random(8, 2).pairing
        assert solve_p2opt(c, start, config) == solve_p2opt(clean, start, config)
        assert solve_random(8, 2, matrix=c) == solve_random(8, 2, matrix=clean)

    @pytest.mark.parametrize("start", [2.5, "3", [1], True])
    def test_non_integer_start_node_rejected(self, start):
        with pytest.raises(ValidationError, match="start_node must be an integer"):
            SolverConfig(start_node=start)

    @pytest.mark.parametrize("limit", [1.5, "2", True])
    def test_non_integer_exchange_limit_rejected(self, limit):
        with pytest.raises(ValidationError, match="exchange_limit must be an integer"):
            SolverConfig(exchange_limit=limit)

    @pytest.mark.parametrize("limit", [-1, -5, np.int64(-2)])
    def test_negative_exchange_limit_rejected(self, limit):
        with pytest.raises(ValidationError, match="exchange_limit must be >= 0"):
            SolverConfig(exchange_limit=limit)

    @pytest.mark.parametrize("seed", [1.5, "3", -1, None])
    def test_bad_seed_named(self, seed):
        c = np.zeros((4, 4))
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            solve_pnn(c, SolverConfig(seed=seed))
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            solve_pnn_p2opt(c, SolverConfig(seed=seed))
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            solve_random(4, seed, matrix=c)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_config_checks_seed(self, seed):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            SolverConfig(seed=seed)

    def test_float_element_count_rejected(self):
        with pytest.raises(ValidationError, match="element count must be even and >= 4, got 6.0"):
            solve_random(6.0, 0)

    def test_numpy_seed_stored_as_int(self):
        config = SolverConfig(seed=np.uint64(7))
        assert config == SolverConfig(seed=7) and type(config.seed) is int

    def test_numpy_integers_accepted(self):
        config = SolverConfig(start_node=np.int64(3), exchange_limit=np.int32(2))
        assert config == SolverConfig(start_node=3, exchange_limit=2)
        assert type(config.start_node) is int and type(config.exchange_limit) is int
        c = make_instance(8, seed=22).c
        assert solve_pnn(c, config).pairing == solve_pnn(c, SolverConfig(start_node=3)).pairing

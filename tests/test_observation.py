import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairing_tsp.core import (
    Pairing,
    ValidationError,
    enumerate_pairings,
    integral,
    loads_instance_text,
    pairing_sum,
    total_compatibility,
)
from pairing_tsp.observation import (
    TildeMatrix,
    _BLOCK_ENDS,
    _completion,
    _grid,
    _rows,
    _rule_table,
    anchor_pairing,
    definitional_tilde,
    exchange_rule_value,
    observation_budget,
    reconstruct_tilde,
)
from pairing_tsp import observation
from pairing_tsp.oracle import ObservationOracle

from pairing_tsp.solvers import SolverConfig, solve_p2opt, solve_pnn, solve_random

from conftest import (
    NON_NUMBER_MATRICES,
    RecordingOracle,
    make_fraction_instance,
    make_instance,
    make_integer_instance,
    matrix_from_pairs,
    reference_completion,
    reference_p2opt,
    reference_rule_pairings,
)
from test_plan import round_robin_pairings


def distinct_quadruples(n):
    return st.lists(
        st.integers(min_value=1, max_value=n), min_size=4, max_size=4, unique=True
    )


class TestExchangeRuleValue:
    def test_constant_matrix_is_zero(self):
        c = np.full((6, 6), 42.0)
        assert exchange_rule_value(1, 2, 3, 4, c) == 0.0

    def test_single_entries(self):
        c = matrix_from_pairs(4, {(1, 3): 1.0, (2, 4): 1.0})
        assert exchange_rule_value(1, 2, 3, 4, c) == 2.0

    @pytest.mark.parametrize("case", NON_NUMBER_MATRICES)
    def test_non_number_matrix_named(self, case):
        matrix, message = NON_NUMBER_MATRICES[case]
        with pytest.raises(ValidationError, match=message):
            exchange_rule_value(1, 2, 3, 4, matrix)

    def test_nested_list_matrix(self):
        c = matrix_from_pairs(4, {(1, 3): 1.0, (2, 4): 1.0})
        assert exchange_rule_value(1, 2, 3, 4, c.tolist()) == 2.0

    def test_rejects_repeated_indices(self):
        c = np.zeros((6, 6))
        with pytest.raises(ValidationError):
            exchange_rule_value(1, 2, 2, 4, c)

    def test_rejects_out_of_range(self):
        c = np.zeros((6, 6))
        with pytest.raises(ValidationError):
            exchange_rule_value(1, 2, 3, 7, c)

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_rejects_non_integer_index(self, index):
        with pytest.raises(ValidationError, match="rule index must be an integer"):
            exchange_rule_value(index, 2, 3, 4, np.zeros((6, 6)))

    @settings(max_examples=100, deadline=None)
    @given(distinct_quadruples(8), st.integers(min_value=0, max_value=2**31))
    def test_antisymmetry_under_jk_swap(self, quad, seed):
        inst = make_instance(8, seed=seed)
        i, j, k, l = quad
        assert exchange_rule_value(i, j, k, l, inst.c) == pytest.approx(
            -exchange_rule_value(i, k, j, l, inst.c)
        )

    def test_same_value_on_shadow_matrix(self):
        # decisions derived from exchange rules are invariant under the shadow transform
        inst = make_instance(10, seed=8)
        shadow = definitional_tilde(inst.c)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j, k, l = (int(v) + 1 for v in rng.choice(10, size=4, replace=False))
            assert exchange_rule_value(i, j, k, l, shadow.t) == pytest.approx(
                exchange_rule_value(i, j, k, l, inst.c)
            )


def observe_rules(oracle, rules) -> np.ndarray:
    """Rule values as the reconstruction measures them: one batch of `_rows`
    holding each rule's `after` and then its `before` pairing."""
    ends = (np.array(rules) - 1)[:, [[0, 2, 1, 3], [0, 1, 2, 3]]]
    values = oracle.observe_batch(*_rows(oracle.n, ends))
    return values[0::2] - values[1::2]


class TestMeasureExchangeRule:
    def test_paired_observations_at_n8(self):
        inst = make_instance(8, seed=2)
        oracle = RecordingOracle(inst)
        (value,) = observe_rules(oracle, [(1, 2, 3, 4)])
        assert oracle.query_count == 2
        (p1, v1), (p2, v2) = oracle.queries
        # completion {5..8} in ascending adjacent order on both sides
        assert p1 == Pairing([(1, 3), (2, 4), (5, 6), (7, 8)])
        assert p2 == Pairing([(1, 2), (3, 4), (5, 6), (7, 8)])
        assert value == pytest.approx(v1 - v2)
        assert value == pytest.approx(exchange_rule_value(1, 2, 3, 4, inst.c))

    def test_constant_hidden_matrix_measures_zero(self):
        c = np.full((6, 6), 5.0)
        from pairing_tsp.core import Instance

        oracle = ObservationOracle(Instance(n=6, c=c, c_min=5, c_max=5))
        assert observe_rules(oracle, [(2, 5, 3, 6)]).tolist() == [0.0]

    def test_twenty_random_rules_match_hidden_matrix(self):
        inst = make_instance(6, seed=31)
        oracle = RecordingOracle(inst)
        rng = np.random.default_rng(9)
        rules = [[int(v) + 1 for v in rng.choice(6, size=4, replace=False)] for _ in range(20)]
        got = observe_rules(oracle, rules)
        for rule, value in zip(rules, got):
            assert value == pytest.approx(exchange_rule_value(*rule, inst.c))
        expected = [p for rule in rules for p in reversed(reference_rule_pairings(6, *rule))]
        assert oracle.pairings == expected

    def test_rule_pairings_share_completion(self):
        # rule [1,5,2,8]: after {1,2},{5,8}, before {1,5},{2,8}
        rows, cols = _rows(10, np.array([[[0, 1, 4, 7], [0, 4, 1, 7]]]))
        assert rows.shape == cols.shape == (2, 5)
        after, before = (set(zip((r + 1).tolist(), (c + 1).tolist())) for r, c in zip(rows, cols))
        assert after - {(1, 2), (5, 8)} == before - {(1, 5), (2, 8)} == {(3, 4), (6, 7), (9, 10)}


def test_canonical_completion_orders_ascending():
    assert reference_completion(10, {1, 4, 2, 7}) == [(3, 5), (6, 8), (9, 10)]


def test_reference_rule_pairings_pinned():
    before, after = reference_rule_pairings(8, 1, 2, 3, 4)
    assert before.pairs == ((1, 2), (3, 4), (5, 6), (7, 8))
    assert after.pairs == ((1, 3), (2, 4), (5, 6), (7, 8))


def test_array_completion_matches_canonical_completion():
    # the plan and the reconstruction both pair consecutive entries of
    # _completion; it must give the reference completion on any fixed set
    rng = np.random.default_rng(7)
    for n in (4, 6, 10, 28, 80):
        for width in range(0, min(n, 9), 2):
            fixed = np.array([rng.choice(n, width, replace=False) for _ in range(20)])
            fixed = fixed.reshape(20, width)
            rest = _completion(n, fixed)
            assert rest.shape == (20, n - width)
            for used, row in zip(fixed, rest):
                pairs = list(zip((row[0::2] + 1).tolist(), (row[1::2] + 1).tolist()))
                assert pairs == reference_completion(n, set((used + 1).tolist()))


@pytest.mark.parametrize("width", range(1, 9))
def test_mask_completion_matches_canonical_completion_any_width(width):
    # odd fixed sets too, on an n of the same parity, up to n = 60
    rng = np.random.default_rng(width)
    for n in range(width + 2, 61, 2):
        fixed = np.array([rng.choice(n, width, replace=False) for _ in range(5)])
        rest = _completion(n, fixed)
        assert rest.shape == (5, n - width)
        for used, row in zip(fixed, rest):
            pairs = list(zip((row[0::2] + 1).tolist(), (row[1::2] + 1).tolist()))
            assert pairs == reference_completion(n, set((used + 1).tolist()))


@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_rows_are_fixed_pairs_plus_reference_completion(pairs):
    # every variant of a row pairs its own shuffle of the row's elements
    rng = np.random.default_rng(pairs)
    for n in range(2 * pairs + 2, 41, 2):
        used = np.array([rng.choice(n, 2 * pairs, replace=False) for _ in range(4)])
        fixed = np.array([[rng.permutation(row) for _ in range(3)] for row in used])
        rows, cols = _rows(n, fixed)
        got = [Pairing(zip((r + 1).tolist(), (c + 1).tolist())) for r, c in zip(rows, cols)]
        expected = []
        for row in fixed + 1:
            rest = reference_completion(n, set(row[0].tolist()))
            for v in row:
                expected.append(Pairing(list(zip(v[0::2].tolist(), v[1::2].tolist())) + rest))
        assert got == expected
        assert (rows[:, :pairs] == fixed[:, :, 0::2].reshape(-1, pairs)).all()
        assert (cols[:, :pairs] == fixed[:, :, 1::2].reshape(-1, pairs)).all()


class TestTildeMatrix:
    def test_first_row_must_be_zero(self):
        t = np.zeros((4, 4))
        t[0][2] = 1.0
        with pytest.raises(ValidationError):
            TildeMatrix(n=4, t=t)

    def test_object_matrix_copied_before_freezing(self):
        t = np.full((4, 4), Fraction(0), dtype=object)
        t[2][3] = t[3][2] = Fraction(5, 2)
        tilde = TildeMatrix(n=4, t=t)
        assert t.flags.writeable
        t[2][3] = Fraction(0)
        assert tilde.t[2][3] == Fraction(5, 2)
        with pytest.raises(ValueError):
            tilde.t[2][3] = 1

    def test_asymmetric_matrix_named(self):
        for dtype in (np.float64, object):
            t = np.zeros((4, 4), dtype=dtype)
            t[1][2], t[2][1] = 5, -5
            with pytest.raises(ValidationError, match=r"not symmetric at c\[2\]\[3\]"):
                TildeMatrix(n=4, t=t)

    def test_nan_entry_named(self):
        t = np.zeros((4, 4))
        t[1][2], t[2][1], t[2][3] = 5, -5, np.nan
        with pytest.raises(ValidationError, match=r"c\[3\]\[4\]=nan is not finite"):
            TildeMatrix(n=4, t=t)

    def test_ragged_matrix_named(self):
        with pytest.raises(ValidationError, match="matrix is not a rectangular array"):
            TildeMatrix(n=4, t=[[0, 1], [1, 0, 3]])

    @pytest.mark.filterwarnings("error")  # a complex cast would warn and drop the imaginary part
    @pytest.mark.parametrize("case", NON_NUMBER_MATRICES)
    def test_non_number_entries_named(self, case):
        matrix, message = NON_NUMBER_MATRICES[case]
        with pytest.raises(ValidationError, match=message):
            TildeMatrix(n=4, t=matrix)

    def test_free_entry_count(self):
        assert TildeMatrix(n=6, t=np.zeros((6, 6))).free_entry_count == 10
        assert TildeMatrix(n=10, t=np.zeros((10, 10))).free_entry_count == 36


class TestReconstruction:
    @pytest.mark.parametrize("n,budget", [(4, 5), (6, 19), (8, 41), (10, 71)])
    def test_observation_budget_formula(self, n, budget):
        assert observation_budget(n) == budget == 2 * (n - 3) + (n - 2) * (n - 3) + 1

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_sum_preserved_on_every_pairing(self, n):
        inst = make_instance(n, seed=n * 11)
        tilde, spent = reconstruct_tilde(ObservationOracle(inst))
        assert spent == observation_budget(n)
        tol = 1e-6 * (n / 2) * inst.c_max
        for pairing in enumerate_pairings(n):
            assert abs(tilde.total(pairing) - total_compatibility(inst, pairing)) <= tol

    def test_matches_definitional_shadow_matrix(self):
        inst = make_instance(8, seed=50)
        tilde, _ = reconstruct_tilde(ObservationOracle(inst))
        direct = definitional_tilde(inst.c)
        assert np.allclose(tilde.t, direct.t, atol=1e-6)

    def test_first_row_zero_exactly(self):
        inst = make_instance(10, seed=51)
        tilde, _ = reconstruct_tilde(ObservationOracle(inst))
        assert all(tilde.t[0][j] == 0 for j in range(10))
        assert all(tilde.t[j][0] == 0 for j in range(10))

    def test_constant_matrix_anchor(self):
        from pairing_tsp.core import Instance

        n, v = 6, 12.5
        c = np.full((n, n), v)
        inst = Instance(n=n, c=c, c_min=v, c_max=v)
        oracle = RecordingOracle(inst)
        tilde, _ = reconstruct_tilde(oracle)
        anchor_obs = dict(oracle.queries)[anchor_pairing(n)]
        assert anchor_obs == (n / 2) * v
        for pairing in enumerate_pairings(n):
            assert tilde.total(pairing) == pytest.approx((n / 2) * v)

    def test_exact_mode_zero_error(self):
        inst = make_integer_instance(8, seed=13)
        tilde, spent = reconstruct_tilde(ObservationOracle(inst))
        assert spent == observation_budget(8)
        assert tilde.t.dtype == object
        for pairing in enumerate_pairings(8):
            assert tilde.total(pairing) == total_compatibility(inst, pairing)

    def test_exact_mode_matches_definitional_entrywise(self):
        inst = make_integer_instance(6, seed=14)
        tilde, _ = reconstruct_tilde(ObservationOracle(inst))
        direct = definitional_tilde(inst.c)
        for i in range(6):
            for j in range(6):
                assert tilde.t[i][j] == direct.t[i][j]

    @staticmethod
    def assert_float_totals_preserved(n, seed):
        # the n-1 round-robin pairings hold every pair once, plus 20 random ones
        inst = make_instance(n, seed=seed)
        tilde, spent = reconstruct_tilde(ObservationOracle(inst))
        assert spent == observation_budget(n)
        tol = 1e-9 * (n / 2) * inst.c_max
        checks = round_robin_pairings(n) + [solve_random(n, k).pairing for k in range(20)]
        for pairing in checks:
            assert abs(tilde.total(pairing) - total_compatibility(inst, pairing)) <= tol

    def test_float_totals_preserved_n200(self):
        self.assert_float_totals_preserved(200, seed=201)

    def test_float_totals_preserved_n400(self):
        self.assert_float_totals_preserved(400, seed=401)

    def test_many_random_instances_all_sizes(self):
        for n in (4, 6, 8, 10):
            for trial in range(20):
                inst = make_instance(n, seed=1000 * n + trial)
                tilde, _ = reconstruct_tilde(ObservationOracle(inst))
                tol = 1e-6 * (n / 2) * inst.c_max
                for pairing in enumerate_pairings(n):
                    assert abs(tilde.total(pairing) - total_compatibility(inst, pairing)) <= tol


def reference_queries(n):
    """The reconstruction's submissions, one Pairing at a time: each rule's
    `after` then `before` pairing, rows then columns, then the anchor."""
    rules = [(1, j, 3, 2) for j in range(4, n + 1)]
    rules += [(1, i, 2, j) for j in range(4, n + 1) for i in range(3, j)]
    out = []
    for rule in rules:
        before, after = reference_rule_pairings(n, *rule)
        out += [after, before]
    return out + [Pairing((k, k + 1) for k in range(1, n, 2))]


class TestBatchedReconstruction:
    # from n = 10 on, the n-rule slices end inside columns of [1,i,2,j] rules
    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 28])
    def test_query_log_is_the_one_at_a_time_sequence(self, n):
        oracle = RecordingOracle(make_instance(n, seed=n + 3))
        _, spent = reconstruct_tilde(oracle)
        expected = reference_queries(n)
        assert oracle.pairings == expected
        assert spent == len(expected)

    @pytest.mark.parametrize("n", [4, 12, 80])
    def test_batches_hold_at_most_2n_rows(self, monkeypatch, n):
        sizes = []
        observe_batch = ObservationOracle.observe_batch

        def spy(self, rows, cols):
            sizes.append(len(rows))
            return observe_batch(self, rows, cols)

        monkeypatch.setattr(ObservationOracle, "observe_batch", spy)
        _, spent = reconstruct_tilde(ObservationOracle(make_instance(n, seed=n)))
        assert max(sizes) <= 2 * n
        assert sum(sizes) == spent == observation_budget(n)

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (1, "9805de1c315c9bcaa9b31197ffadb2fd2597459192a0f6ab3fbf0c2cef6331b6"),
            (2, "949ba69ae379fce523357a6301e8effd97db65aa0d57691b380e65ddf9aaa8b1"),
        ],
    )
    def test_float_shadow_bytes_pinned(self, seed, digest):
        # digests of the one-query-at-a-time reconstruction the batch replaced
        from pairing_tsp.bench import generate_instance

        tilde, _ = reconstruct_tilde(ObservationOracle(generate_instance(80, 0, 10000, seed)))
        assert hashlib.sha256(tilde.t.tobytes()).hexdigest() == digest


class TestBlockBuild:
    """`reconstruct_tilde` builds several slices' rows in one `_rows` block and
    submits them slice by slice. From n = 30 to 60 a block spans several
    slices and the last block (or slice) is partial; at n = 130 a block is one
    slice."""

    @pytest.mark.parametrize("n", [30, 44, 60])
    def test_query_log_is_the_one_at_a_time_sequence(self, n):
        oracle = RecordingOracle(make_instance(n, seed=n + 3))
        _, spent = reconstruct_tilde(oracle)
        expected = reference_queries(n)
        assert oracle.pairings == expected
        assert spent == len(expected)

    @pytest.mark.parametrize("n", [30, 44, 60, 130])
    def test_batches_hold_at_most_2n_rows_from_fewer_blocks(self, monkeypatch, n):
        sizes, blocks = [], []
        observe_batch, build_rows = ObservationOracle.observe_batch, observation._rows

        def spy(self, rows, cols):
            sizes.append(len(rows))
            return observe_batch(self, rows, cols)

        def block_spy(n, fixed):
            built = build_rows(n, fixed)
            blocks.append(built[0].size + built[1].size)
            return built

        monkeypatch.setattr(ObservationOracle, "observe_batch", spy)
        monkeypatch.setattr(observation, "_rows", block_spy)
        _, spent = reconstruct_tilde(ObservationOracle(make_instance(n, seed=n)))
        assert max(sizes) <= 2 * n
        assert sum(sizes) == spent == observation_budget(n)
        # every slice but the last is full, then the anchor's one row
        assert sizes[:-2] == [2 * n] * (len(sizes) - 2) and sizes[-1] == 1
        assert max(blocks) <= max(_BLOCK_ENDS, 2 * n * n)
        if 2 * n * n <= _BLOCK_ENDS // 2:
            assert len(blocks) < len(sizes) - 1
        else:
            assert len(blocks) == len(sizes) - 1


@pytest.mark.parametrize("width", [2, 4, 6])
def test_completion_is_the_sorted_set_difference(width):
    rng = np.random.default_rng(40 + width)
    for n in range(max(4, width), 61, 2):
        for count in (0, 1, 9):
            fixed = [rng.choice(n, width, replace=False) for _ in range(count)]
            fixed = np.array(fixed, dtype=np.intp).reshape(count, width)
            rest = _completion(n, fixed)
            assert rest.shape == (count, n - width)
            for used, row in zip(fixed, rest):
                assert row.tolist() == sorted(set(range(n)) - set(used.tolist()))


@pytest.mark.parametrize("n", [4, 28, 80])
def test_cached_grid_and_rule_table_are_read_only(n):
    grid, table = _grid(n), _rule_table(n)
    assert grid is _grid(n) and table is _rule_table(n)
    for shared in (grid, table, grid[:3], table[:3]):
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 1
    assert (grid[:5] == np.arange(n)).all()
    assert grid.strides[0] == 0
    assert len(table) == observation_budget(n) // 2
    # a reconstruction leaves both as they were
    before = table.copy()
    reconstruct_tilde(ObservationOracle(make_instance(n, seed=n)))
    assert np.array_equal(_rule_table(n), before) and (_grid(n)[:5] == np.arange(n)).all()


class TestNumericLayer:
    @pytest.mark.parametrize("n", [4, 6, 30, 100])
    def test_exact_shadows_hold_only_fractions_and_agree(self, n):
        from pairing_tsp.plan import execute_plan, minimal_observation_plan

        inst = make_integer_instance(n, seed=50 + n)
        shadows = [
            definitional_tilde(inst.c).t,
            reconstruct_tilde(ObservationOracle(inst))[0].t,
            execute_plan(ObservationOracle(inst), minimal_observation_plan(n)).t,
        ]
        for t in shadows:
            assert t.dtype == object
            assert {type(v) for v in t.flat} == {Fraction}
            assert np.array_equal(t, shadows[0])

    @pytest.mark.parametrize(
        "seed,digest",
        [
            (0, "0c91e66fcbf60f6723857d8fde7e29065f8f0a504101c3bd3b8a448d79ba73cd"),
            (1, "ed6c4cbc5b1819e40a4fcbd51f575b44ee45a2917a6bfa2b3c6df449b67ad405"),
        ],
    )
    def test_definitional_float_bytes_pinned(self, seed, digest):
        # digests of the per-entry loop the vectorized gather replaced
        from pairing_tsp.bench import generate_instance

        tilde = definitional_tilde(generate_instance(80, 0, 10000, seed).c)
        assert hashlib.sha256(tilde.t.tobytes()).hexdigest() == digest


def nan_at_23() -> np.ndarray:
    c = np.zeros((4, 4))
    c[1][2] = c[2][1] = np.nan
    return c


class TestDefinitionalAdmission:
    """`definitional_tilde` admits its matrix through `checked_entries`, as
    the solvers do, and refuses an asymmetric one, whose lower triangle it
    would never read."""

    @pytest.mark.filterwarnings("error")  # a complex cast would warn and drop the imaginary part
    @pytest.mark.parametrize("case", NON_NUMBER_MATRICES)
    def test_non_number_entries_named(self, case):
        matrix, message = NON_NUMBER_MATRICES[case]
        with pytest.raises(ValidationError, match=message):
            definitional_tilde(matrix)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.zeros((5, 5)), "element count must be even"),
            ([[0, 1], [1, 0, 3]], "matrix is not a rectangular array"),
            (nan_at_23(), r"c\[2\]\[3\]=nan is not finite"),
        ],
        ids=["odd", "ragged", "nan"],
    )
    def test_malformed_matrix_named(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            definitional_tilde(matrix)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_asymmetric_matrix_named(self, dtype):
        c = np.zeros((4, 4), dtype=dtype)
        c[1][2], c[2][1] = 5, -5
        with pytest.raises(ValidationError, match=r"not symmetric at c\[2\]\[3\]"):
            definitional_tilde(c)


def exact_shadows(inst) -> dict:
    """The shadow of each library builder on an exact instance, by name."""
    from pairing_tsp.plan import execute_plan, minimal_observation_plan

    return {
        "definitional": definitional_tilde(inst.c),
        "reconstruct": reconstruct_tilde(ObservationOracle(inst))[0],
        "execute": execute_plan(ObservationOracle(inst), minimal_observation_plan(inst.n)),
    }


EXACT_INSTANCES = {
    "integer": lambda n: make_integer_instance(n, seed=70 + n),
    "fraction": lambda n: make_fraction_instance(n, seed=70 + n),
    "big fraction": lambda n: make_fraction_instance(n, seed=70 + n, low=2**70, high=2**70 + 99),
}


def assert_same_integral(got, expected):
    (numerators, denominator), (fresh, fresh_denominator) = got, expected
    assert denominator == fresh_denominator
    assert numerators.shape == fresh.shape
    assert numerators.tolist() == fresh.tolist()
    assert {type(v) for v in numerators.flat} <= {int}


class TestKeptNumerators:
    """An exact shadow keeps its numerators, and they are integral's own."""

    @pytest.mark.parametrize("kind", sorted(EXACT_INSTANCES))
    @pytest.mark.parametrize("n", [4, 12, 30])
    def test_kept_pair_is_the_fresh_integral(self, kind, n):
        for name, shadow in exact_shadows(EXACT_INSTANCES[kind](n)).items():
            t = shadow.t
            plain = np.array(t.tolist(), dtype=object)
            assert_same_integral(integral(t), integral(plain))
            assert integral(t)[0] is integral(t)[0], name  # kept, not recomputed

    @pytest.mark.parametrize("kind", sorted(EXACT_INSTANCES))
    def test_derived_arrays_are_computed_afresh(self, kind):
        for shadow in exact_shadows(EXACT_INSTANCES[kind](12)).values():
            t = shadow.t
            plain = np.array(t.tolist(), dtype=object)
            for derive in (lambda a: a[1:, 1:], lambda a: a.T, lambda a: a.copy(), lambda a: -a):
                assert_same_integral(integral(derive(t)), integral(derive(plain)))

    @pytest.mark.parametrize("kind", sorted(EXACT_INSTANCES))
    def test_t_is_read_only_fractions_built_once(self, kind):
        for name, shadow in exact_shadows(EXACT_INSTANCES[kind](8)).items():
            t = shadow.t
            assert shadow.t is t, name
            assert t.dtype == object and {type(v) for v in t.flat} == {Fraction}, name
            with pytest.raises(ValueError):
                t[2, 3] = Fraction(1)
            with pytest.raises(ValueError):
                t.setflags(write=True)
            with pytest.raises(ValueError):
                integral(t)[0][2, 3] = 1

    @pytest.mark.parametrize("kind", sorted(EXACT_INSTANCES))
    def test_total_reads_the_kept_numerators(self, kind):
        inst = EXACT_INSTANCES[kind](12)
        pairings = [solve_random(12, seed).pairing for seed in range(5)]
        for name, shadow in exact_shadows(inst).items():
            totals = [shadow.total(p) for p in pairings]
            assert "t" not in vars(shadow), name
            assert totals == [total_compatibility(inst, p) for p in pairings], name
            assert {type(v) for v in totals} == {Fraction}, name
            shadow.t
            assert [shadow.total(p) for p in pairings] == totals, name

    def test_float_total_is_the_same_before_and_after_t(self):
        inst = make_instance(12, seed=5)
        pairings = [solve_random(12, seed).pairing for seed in range(5)]
        for name, shadow in exact_shadows(inst).items():
            before = [shadow.total(p) for p in pairings]
            assert "t" not in vars(shadow), name
            shadow.t
            after = [shadow.total(p) for p in pairings]
            assert [v.hex() for v in before] == [v.hex() for v in after], name
            assert {type(v) for v in before} == {float}, name

    def test_fractions_are_built_on_first_read(self):
        shadow = exact_shadows(make_integer_instance(8, seed=3))["execute"]
        assert "t" not in vars(shadow)
        shadow.t
        assert "t" in vars(shadow)

    @pytest.mark.parametrize("kind", sorted(EXACT_INSTANCES))
    def test_solvers_read_no_fraction_for_numerators(self, kind, monkeypatch):
        # integral's fresh path takes the lcm of the entries' denominators
        import math

        shadow = exact_shadows(EXACT_INSTANCES[kind](12))["reconstruct"]
        t = shadow.t
        config = SolverConfig(seed=2, exchange_limit=None)
        expected = solve_p2opt(np.array(t), solve_pnn(np.array(t), config).pairing, config)

        def no_lcm(*args):
            raise AssertionError("numerators recomputed from Fractions")

        monkeypatch.setattr(math, "lcm", no_lcm)
        refined = solve_p2opt(t, solve_pnn(t, config).pairing, config)
        assert (refined.pairing, refined.noc, refined.score) == (
            expected.pairing,
            expected.noc,
            expected.score,
        )


class TestFractionInstances:
    """Fraction-valued instances, whose shadows have a real lcm denominator.

    The pinned digests are of the solver outputs computed with Fraction
    arithmetic throughout, before the exact stages moved to integer
    numerators.
    """

    @pytest.mark.parametrize(
        "n,seed,low,high,digest",
        [
            (20, 3, 0, 10000, "516801327d175a2bcda6c85d0f3de0195cb8d7d53a5023d56de750b0e416386c"),
            (30, 4, 0, 10000, "af30ecf43c03e9c99fd249c817973275384727b8672aec912ac492b27c47d983"),
            # three numerators over nine denominators: ties everywhere
            (16, 6, 0, 3, "4488d12682f321cb445738cdd687a1e11af3663517c9d3d54265138d2097ab36"),
            (12, 5, 2**70 - 2**60, 2**70 + 2**60, "16c3620bb3aefe7836d012a6cb387eb932864a3069b8cdd89aa52ed4e111a05b"),
        ],
    )
    def test_exact_stages_and_solvers_agree(self, n, seed, low, high, digest):
        from pairing_tsp.plan import execute_plan, minimal_observation_plan

        inst = make_fraction_instance(n, seed, low, high)
        shadows = [
            definitional_tilde(inst.c).t,
            reconstruct_tilde(ObservationOracle(inst))[0].t,
            execute_plan(ObservationOracle(inst), minimal_observation_plan(n)).t,
        ]
        for t in shadows:
            assert {type(v) for v in t.flat} == {Fraction}
            assert np.array_equal(t, shadows[0])
        t = shadows[0]
        for pairing in round_robin_pairings(n):
            assert total_compatibility(inst, pairing) == pairing_sum(t, pairing)

        config = SolverConfig(seed=seed, exchange_limit=None)
        pnn = solve_pnn(t, config)
        refined = solve_p2opt(t, pnn.pairing, config)
        pairing, noc, exchanges, trace, score = reference_p2opt(t, pnn.pairing, None)
        assert (refined.pairing, refined.noc, refined.exchanges_used) == (pairing, noc, exchanges)
        assert refined.trace == tuple(trace)
        assert refined.score == score
        assert type(pnn.score) is Fraction and type(refined.score) is Fraction
        outputs = [
            pnn.pairing.pairs,
            str(pnn.score),
            refined.pairing.pairs,
            refined.noc,
            refined.trace,
            refined.exchanges_used,
            str(refined.score),
        ]
        assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == digest


class TestFloatOverflowShadow:
    """Every pairing total of this instance is +-1.6e308, finite, so it is
    admitted; its float shadow overflows, and the shadow is refused by name."""

    TEXT = "4 -8e307 8e307\n8e307 -8e307 8e307\n8e307 -8e307\n8e307\n"

    def test_instance_admitted_with_finite_totals(self):
        inst = loads_instance_text(self.TEXT)
        totals = [total_compatibility(inst, p) for p in enumerate_pairings(4)]
        assert totals == [1.6e308, -1.6e308, 1.6e308]

    def test_reconstruction_refused(self):
        inst = loads_instance_text(self.TEXT)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"shadow entry t\[2\]\[3\]=nan is not"):
                reconstruct_tilde(ObservationOracle(inst))

    def test_definitional_shadow_refused(self):
        inst = loads_instance_text(self.TEXT)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError, match=r"shadow entry t\[2\]\[4\]=-inf is not"):
                definitional_tilde(inst.c)

    def test_exact_shadow_of_the_same_entries(self):
        inst = loads_instance_text(self.TEXT)
        exact = np.array([[int(v) for v in row] for row in inst.c], dtype=object)
        tilde = definitional_tilde(exact)
        # t[2][4] = c24 - c12 - c14 + (c12 + c13 + c14), past float range on the way
        assert tilde.t[1, 3] == -2 * int(8e307)


@pytest.mark.parametrize("n", ["x", 3, 5, 2, 4.0, True], ids=repr)
def test_observation_budget_admits_its_count(n):
    with pytest.raises(ValidationError, match="element count must be even and >= 4"):
        observation_budget(n)


class TestOneShadowState:
    """A shadow keeps its `integral` pair for life: `t` is built from it
    when first read, and `total` sums it the same way before and after."""

    def test_readmitted_exact_shadow_keeps_t_and_totals(self):
        inst = make_fraction_instance(6, 3)
        shadow, _ = reconstruct_tilde(ObservationOracle(inst))
        again = TildeMatrix(n=6, t=shadow.t)
        assert again.t.tolist() == shadow.t.tolist()
        assert {type(v) for v in again.t.flat} == {Fraction}
        for pairing in enumerate_pairings(6):
            total = total_compatibility(inst, pairing)
            assert again.total(pairing) == shadow.total(pairing) == total

    def test_float_total_same_bits_before_and_after_t_is_read(self):
        inst = make_instance(8, 5)
        pairings = list(enumerate_pairings(8))
        for make in (
            lambda: reconstruct_tilde(ObservationOracle(inst))[0],
            lambda: definitional_tilde(inst.c),
            lambda: TildeMatrix(n=8, t=definitional_tilde(inst.c).t),
        ):
            shadow = make()
            before = [shadow.total(p).hex() for p in pairings]
            t = shadow.t
            assert not t.flags.writeable
            assert [shadow.total(p).hex() for p in pairings] == before
            assert [pairing_sum(t, p).hex() for p in pairings] == before

    def test_exact_total_same_value_before_and_after_t_is_read(self):
        inst = make_integer_instance(6, 2)
        pairings = list(enumerate_pairings(6))
        for shadow in (
            reconstruct_tilde(ObservationOracle(inst))[0],
            definitional_tilde(inst.c),
        ):
            before = [shadow.total(p) for p in pairings]
            assert before == [total_compatibility(inst, p) for p in pairings]
            t = shadow.t
            assert [shadow.total(p) for p in pairings] == before
            assert [pairing_sum(t, p) for p in pairings] == before

    def test_total_of_admitted_ints_is_an_equal_fraction(self):
        t = np.zeros((4, 4), dtype=object)
        t[1, 2] = t[2, 1] = 7
        shadow = TildeMatrix(n=4, t=t)
        total = shadow.total(Pairing([(1, 4), (2, 3)]))
        assert total == 7 and isinstance(total, Fraction)
        assert shadow.t[1, 2] == 7 and type(shadow.t[1, 2]) is int

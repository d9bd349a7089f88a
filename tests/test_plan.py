import hashlib
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pairing_tsp.core import (
    InternalError,
    Pairing,
    ValidationError,
    enumerate_pairings,
    total_compatibility,
)
from pairing_tsp.observation import (
    anchor_pairing,
    definitional_tilde,
    exchange_rule_value,
    observation_budget,
)
from pairing_tsp.oracle import ObservationOracle, pair_keys
from pairing_tsp.plan import (
    PlanRankError,
    _recover_entries,
    _sweep,
    _zero_u_residuals,
    execute_plan,
    minimal_observation_plan,
    plan_size,
)

from conftest import (
    RecordingOracle,
    make_instance,
    make_integer_instance,
    reference_rank,
    reference_sweep,
)


def observation_rows(plan) -> list[list[int]]:
    """0/1 matrix: one row per pairing over the free shadow coordinates."""
    coords = {
        pair: idx for idx, pair in enumerate(combinations(range(2, plan.n + 1), 2))
    }
    rows = []
    for pairing in plan.pairings:
        row = [0] * len(coords)
        for pair in pairing.pairs:
            if 1 not in pair:
                row[coords[pair]] = 1
        rows.append(row)
    return rows


class TestPlanConstruction:
    @pytest.mark.parametrize("n,size", [(4, 3), (6, 10), (8, 21), (10, 36)])
    def test_plan_sizes(self, n, size):
        plan = minimal_observation_plan(n)
        assert plan.size == size == plan_size(n)
        assert len(set(plan.pairings)) == size

    def test_n4_is_all_three_pairings(self):
        plan = minimal_observation_plan(4)
        assert set(plan.pairings) == set(enumerate_pairings(4))

    def test_anchor_scheduled_first(self):
        for n in (4, 6, 10):
            assert minimal_observation_plan(n).pairings[0] == anchor_pairing(n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
    def test_full_rank_by_independent_rational_elimination(self, n):
        plan = minimal_observation_plan(n)
        assert reference_rank(observation_rows(plan)) == plan_size(n)

    def test_every_plan_pairing_is_valid(self):
        plan = minimal_observation_plan(10)
        for pairing in plan.pairings:
            assert pairing.n == 10
            assert sorted(e for pair in pairing.pairs for e in pair) == list(range(1, 11))

    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError):
            minimal_observation_plan(7)

    def test_float_n_rejected(self):
        with pytest.raises(ValidationError, match="element count"):
            minimal_observation_plan(6.0)

    def test_rank_deficiency_raises_never_silent(self):
        # a duplicated observation cannot determine all entries: the solver
        # must refuse with the dedicated error, not return garbage
        values = [Fraction(0)] * plan_size(6)
        import pairing_tsp.plan as plan_mod

        original = plan_mod._plan_rows

        def broken(n):
            rows, cols = (ends.copy() for ends in original(n))
            rows[-1], cols[-1] = rows[1], cols[1]
            return rows, cols

        plan_mod._plan_rows = broken
        try:
            with pytest.raises(PlanRankError):
                minimal_observation_plan(6)
        finally:
            plan_mod._plan_rows = original


class TestExecutePlan:
    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_query_count_is_exactly_minimal(self, n):
        inst = make_instance(n, seed=63 + n)
        oracle = ObservationOracle(inst)
        execute_plan(oracle, minimal_observation_plan(n))
        assert oracle.query_count == plan_size(n) < observation_budget(n)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_sum_preservation(self, n):
        inst = make_instance(n, seed=70 + n)
        tilde = execute_plan(ObservationOracle(inst), minimal_observation_plan(n))
        tol = 1e-6 * (n / 2) * inst.c_max
        for pairing in enumerate_pairings(n):
            assert abs(tilde.total(pairing) - total_compatibility(inst, pairing)) <= tol

    def test_matches_definitional_shadow(self):
        inst = make_instance(10, seed=81)
        tilde = execute_plan(ObservationOracle(inst), minimal_observation_plan(10))
        assert np.allclose(tilde.t, definitional_tilde(inst.c).t, atol=1e-6)

    def test_exact_mode_zero_error(self):
        inst = make_integer_instance(10, seed=82)
        tilde = execute_plan(ObservationOracle(inst), minimal_observation_plan(10))
        direct = definitional_tilde(inst.c)
        for i in range(10):
            for j in range(10):
                assert tilde.t[i][j] == direct.t[i][j]

    def test_spot_check_n8_random_pairings(self):
        from pairing_tsp.solvers import solve_random

        inst = make_instance(8, seed=83)
        tilde = execute_plan(ObservationOracle(inst), minimal_observation_plan(8))
        for seed in range(50):
            pairing = solve_random(8, seed).pairing
            assert tilde.total(pairing) == pytest.approx(
                total_compatibility(inst, pairing)
            )

    def test_size_mismatch_rejected(self):
        inst = make_instance(6, seed=1)
        with pytest.raises(ValidationError):
            execute_plan(ObservationOracle(inst), minimal_observation_plan(8))


class TestDerivations:
    def test_combinations_reproduce_rule_values(self):
        n = 8
        inst = make_instance(n, seed=90)
        plan = minimal_observation_plan(n)
        oracle = ObservationOracle(inst)
        values = [oracle.observe(p) for p in plan.pairings]
        for label, combo in plan.derivations.items():
            got = sum(float(coef) * values[idx] for coef, idx in combo)
            if label == "anchor":
                expected = total_compatibility(inst, anchor_pairing(n))
            else:
                i, j, k, l = (int(v) for v in label.strip("[]").split(","))
                expected = exchange_rule_value(i, j, k, l, inst.c)
            assert got == pytest.approx(expected), label

    def test_covers_whole_value_set(self):
        n = 10
        labels = set(minimal_observation_plan(n).derivations)
        expected = {"anchor"}
        expected.update(f"[1,{j},3,2]" for j in range(4, n + 1))
        expected.update(f"[1,{i},2,{j}]" for j in range(4, n + 1) for i in range(3, j))
        assert labels == expected
        assert len(labels) == plan_size(n)


def test_recovery_rejects_wrong_observation_count():
    from pairing_tsp.core import InternalError

    with pytest.raises((InternalError, IndexError)):
        _recover_entries(6, [Fraction(0)] * 4)


def round_robin_pairings(n: int):
    """The n-1 rounds of the circle method; together they hold every pair once."""
    out = []
    for r in range(n - 1):
        pairs = [(r + 1, n)]
        for k in range(1, n // 2):
            pairs.append(((r + k) % (n - 1) + 1, (r - k) % (n - 1) + 1))
        out.append(Pairing(pairs))
    return out


def coordinate_vector(n: int, pairs, signs) -> list[Fraction]:
    """Signed 0/1 vector over the free shadow coordinates (pairs without 1)."""
    coords = {pair: idx for idx, pair in enumerate(combinations(range(2, n + 1), 2))}
    vec = [Fraction(0)] * len(coords)
    for pair, sign in zip(pairs, signs):
        pair = tuple(sorted(pair))
        if 1 not in pair:
            vec[coords[pair]] += sign
    return vec


class TestRecoveryAtScale:
    def test_float_totals_preserved_n200(self):
        from pairing_tsp.solvers import solve_random

        n = 200
        inst = make_instance(n, seed=200)
        oracle = ObservationOracle(inst)
        plan = minimal_observation_plan(n)
        tilde = execute_plan(oracle, plan)
        assert oracle.query_count == plan_size(n)
        tol = 1e-9 * (n / 2) * inst.c_max
        rounds = round_robin_pairings(n)
        assert len({pair for p in rounds for pair in p.pairs}) == n * (n - 1) // 2
        checks = rounds + [solve_random(n, seed).pairing for seed in range(20)]
        for pairing in checks:
            assert abs(tilde.total(pairing) - total_compatibility(inst, pairing)) <= tol

    def test_exact_matches_definitional_n60_and_float_copy_agrees(self):
        from pairing_tsp.core import Instance

        n = 60
        inst = make_integer_instance(n, seed=60)
        plan = minimal_observation_plan(n)
        exact = execute_plan(ObservationOracle(inst), plan)
        direct = definitional_tilde(inst.c)
        assert exact.t.dtype == object
        assert all(type(v) is Fraction for v in exact.t.flat)
        assert all(exact.t[i][j] == direct.t[i][j] for i in range(n) for j in range(n))

        float_copy = Instance(n=n, c=inst.c.astype(np.float64), c_min=inst.c_min, c_max=inst.c_max)
        floats = execute_plan(ObservationOracle(float_copy), plan)
        assert floats.t.dtype == np.float64
        expected = exact.t.astype(np.float64)
        assert np.abs(floats.t - expected).max() <= 1e-9 * inst.c_max

    def test_observes_each_planned_pairing_once_in_order(self):
        inst = make_instance(12, seed=12)
        oracle = RecordingOracle(inst)
        plan = minimal_observation_plan(12)
        execute_plan(oracle, plan)
        assert oracle.pairings == list(plan.pairings)


class TestCertification:
    def test_singular_t_coefficients_raise(self, monkeypatch):
        import pairing_tsp.plan as plan_mod

        def singular(n):
            m = len(range(6, n + 1, 2))
            return np.ones((m, m), dtype=np.int64)  # rank one

        monkeypatch.setattr(plan_mod, "_t_coefficients", singular)
        with pytest.raises(PlanRankError, match="T equations"):
            minimal_observation_plan(10)

    @pytest.mark.parametrize("n", [6, 8, 10, 12, 20])
    def test_t_coefficients_are_identity_plus_ones(self, n):
        from pairing_tsp.plan import _t_coefficients

        m = len(range(6, n + 1, 2))
        assert np.array_equal(_t_coefficients(n), np.eye(m, dtype=np.int64) + 1)

    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_derivations_reproduce_rule_coordinates_exactly(self, n):
        plan = minimal_observation_plan(n)
        rows = observation_rows(plan)
        for label, combo in plan.derivations.items():
            got = [Fraction(0)] * len(rows[0])
            for coef, idx in combo:
                assert type(coef) is Fraction
                for col, bit in enumerate(rows[idx]):
                    if bit:
                        got[col] += coef
            if label == "anchor":
                expected = coordinate_vector(n, anchor_pairing(n).pairs, [1] * (n // 2))
            else:
                i, j, k, l = (int(v) for v in label.strip("[]").split(","))
                expected = coordinate_vector(
                    n, [(i, k), (j, l), (i, j), (k, l)], [1, 1, -1, -1]
                )
            assert got == expected, label


class TestStructuredPlan:
    def test_pairings_are_canonical(self):
        # the schedule is assembled from shared canonical pairs without
        # validation; re-validating each one must change nothing
        for n in range(4, 31, 2):
            for pairing in minimal_observation_plan(n).pairings:
                assert Pairing(pairing.pairs).pairs == pairing.pairs

    def test_schedule_pinned(self):
        # digest of every schedule for n = 4..60 as built by the original
        # validated, set-difference construction
        h = hashlib.sha256()
        for n in range(4, 61, 2):
            h.update(repr([p.pairs for p in minimal_observation_plan(n).pairings]).encode())
        assert h.hexdigest() == "54d44ea74f4678937d74a24fc079f2d344e7d268621eec14e047b9d023478ab0"

    @pytest.mark.parametrize(
        "n,seed,digest",
        [
            (28, 1, "81615af81707e16668c348c4e74ce7bd51c52f641d7e4872f3fe95270df80849"),
            (60, 2, "91429f465da9f2c1178feac85217ccb28cca5f750555ce27a3e6ef56059c9f61"),
        ],
    )
    def test_float_shadow_bytes_pinned(self, n, seed, digest):
        # digests of the one-query-at-a-time execution the batch replaced
        from pairing_tsp.bench import generate_instance

        oracle = ObservationOracle(generate_instance(n, 0, 10000, seed))
        tilde = execute_plan(oracle, minimal_observation_plan(n))
        assert hashlib.sha256(tilde.t.tobytes()).hexdigest() == digest

    def test_schedule_pinned_n200(self):
        # digest of the N=200 schedule as built from stored Pairing tuples
        h = hashlib.sha256(repr([p.pairs for p in minimal_observation_plan(200).pairings]).encode())
        assert h.hexdigest() == "b7949b800bbf9b31e0b7e67762e722b676da61e424c3efb7bc565f0ca99792da"

    @pytest.mark.parametrize("n", [4, 6, 12, 30])
    def test_index_arrays_read_only_and_canonical(self, n):
        rows, cols = minimal_observation_plan(n)._index_arrays
        assert not rows.flags.writeable and not cols.flags.writeable
        first, second = np.divmod(pair_keys(rows, cols, n), n)
        assert np.array_equal(first, rows) and np.array_equal(second, cols)

    def test_row_that_is_not_a_pairing_fails_the_build(self, monkeypatch):
        import pairing_tsp.plan as plan_mod

        original = plan_mod._plan_rows

        def broken(n):
            rows, cols = (ends.copy() for ends in original(n))
            cols[-1, 0] = rows[-1, 0]  # an element paired with itself
            return rows, cols

        monkeypatch.setattr(plan_mod, "_plan_rows", broken)
        with pytest.raises(InternalError, match="not a pairing"):
            minimal_observation_plan(10)

    def test_execute_builds_no_pairing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Pairing was built")

        inst = make_instance(12, seed=5)
        monkeypatch.setattr(Pairing, "_from_canonical", refuse)
        plan = minimal_observation_plan(12)
        tilde = execute_plan(ObservationOracle(inst), plan)
        assert np.allclose(tilde.t, definitional_tilde(inst.c).t, atol=1e-6)

    def test_index_arrays_follow_pairings(self):
        plan = minimal_observation_plan(10)
        rows, cols = plan._index_arrays
        assert rows.shape == cols.shape == (plan.size, 5)
        for q, pairing in enumerate(plan.pairings):
            assert list(zip(rows[q] + 1, cols[q] + 1)) == list(pairing.pairs)


def sweep_inputs(n: int, kind: str, batch: tuple, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Observations and a u for `_sweep(n, ...)`.

    "float" mixes -0.0, small integers (whose differences are often exact
    zeros) and large reals, in both; "zeros" is -0.0 and some +0.0 alone,
    where an added or dropped zero term flips a sign bit; "object" is
    Python ints beyond 2**63, as exact recovery makes.
    """
    rng = np.random.default_rng(seed)
    out = []
    for shape in [(plan_size(n),) + batch, (len(range(6, n + 1, 2)),) + batch]:
        if kind == "object":
            big = [int(v) * 2**70 + 1 for v in rng.integers(-(2**40), 2**40, shape).flat]
            out.append(np.array(big, object).reshape(shape))
            continue
        signed_zero = np.where(rng.random(shape) < (0.9 if kind == "zeros" else 0.5), -0.0, 0.0)
        if kind == "zeros":
            out.append(signed_zero)
            continue
        small, large = rng.integers(-2, 3, shape) * 1.0, rng.normal(0, 1e4, shape)
        out.append(np.choose(rng.integers(0, 3, shape), [signed_zero, small, large]))
    return tuple(out)


def same_bits(got: np.ndarray, expected: np.ndarray) -> bool:
    """Equal dtype, shape and bits; object entries equal and of one type."""
    if got.dtype != expected.dtype or got.shape != expected.shape:
        return False
    if got.dtype == object:
        pairs = zip(got.ravel().tolist(), expected.ravel().tolist())
        return all(type(a) is type(b) and a == b for a, b in pairs)
    return got.tobytes() == expected.tobytes()


SWEEP_KINDS = [("float", ()), ("float", (3,)), ("zeros", ()), ("zeros", (3,)), ("object", ()), ("object", (3,))]


class TestSweep:
    """The sweep and the u = 0 residuals against the level-by-level loop,
    byte for byte, for every n up to 120."""

    @pytest.mark.parametrize("n", range(4, 121, 2))
    def test_matches_level_by_level_sweep(self, n):
        for kind, batch in SWEEP_KINDS:
            values, u = sweep_inputs(n, kind, batch, seed=n)
            t, residuals = _sweep(n, values, u)
            expected_t, expected_residuals = reference_sweep(n, values, u)
            assert same_bits(t, expected_t), (kind, batch)
            assert same_bits(residuals, expected_residuals), (kind, batch)

    @pytest.mark.parametrize("n", range(4, 121, 2))
    def test_zero_u_residuals_closed_form(self, n):
        for kind, batch in SWEEP_KINDS:
            values, u = sweep_inputs(n, kind, batch, seed=n)
            zero = np.zeros(u.shape, values.dtype)
            assert same_bits(_zero_u_residuals(n, values), reference_sweep(n, values, zero)[1]), (kind, batch)

    @pytest.mark.parametrize("n", [12, 40, 120])
    def test_signed_zeros_keep_their_bits(self, n):
        # -0.0 observations, and u = +0.0 below -0.0 u: the sweep's first
        # even prefix and its last-entry recurrence both meet -0.0 + -0.0
        values = np.full(plan_size(n), -0.0)
        u = np.full(len(range(6, n + 1, 2)), -0.0)
        u[0] = 0.0
        for got, expected in zip(_sweep(n, values, u), reference_sweep(n, values, u)):
            assert same_bits(got, expected)

    @pytest.mark.parametrize("n", [4, 6, 12, 40])
    def test_t_coefficients_sweep_matches(self, n):
        m = len(range(6, n + 1, 2))
        values, u = np.zeros((plan_size(n), m), dtype=np.int64), np.eye(m, dtype=np.int64)
        for got, expected in zip(_sweep(n, values, u), reference_sweep(n, values, u)):
            assert same_bits(got, expected)

    def test_build_and_execute_sweep_once_each(self, monkeypatch):
        # the build certifies I + J through the sweep; execution recovers
        # the shadow with one sweep, its u = 0 residuals in closed form
        import pairing_tsp.plan as plan_mod

        calls = []

        def counted(n, values, u):
            calls.append(values.dtype)
            return _sweep(n, values, u)

        monkeypatch.setattr(plan_mod, "_sweep", counted)
        plan = minimal_observation_plan(28)
        assert calls == [np.int64]
        calls.clear()
        execute_plan(ObservationOracle(make_instance(28, seed=3)), plan)
        assert calls == [np.float64]


@pytest.mark.parametrize("n", ["x", 5, 3, 2, 4.0, True], ids=repr)
def test_plan_size_admits_its_count(n):
    with pytest.raises(ValidationError, match="element count must be even and >= 4"):
        plan_size(n)

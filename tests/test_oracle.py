import functools
import operator
import threading

import numpy as np
import pytest

from pairing_tsp.core import Instance, Pairing, ValidationError, total_compatibility
from pairing_tsp.observation import observation_budget, reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle, pair_keys
from pairing_tsp.solvers import solve_random

from conftest import make_instance, make_integer_instance, reference_score


def test_fresh_oracle_counts_zero(instance6):
    assert ObservationOracle(instance6).query_count == 0


def test_constant_matrix_observation():
    c = np.full((4, 4), 5000.0)
    inst = Instance(n=4, c=c, c_min=5000, c_max=5000)
    oracle = ObservationOracle(inst)
    assert oracle.observe(Pairing([(1, 3), (2, 4)])) == 10000.0


def test_observation_is_pair_sum(instance8):
    oracle = ObservationOracle(instance8)
    pairing = Pairing([(1, 2), (3, 4), (5, 6), (7, 8)])
    expected = sum(instance8.value(i, j) for i, j in pairing.pairs)
    assert oracle.observe(pairing) == pytest.approx(expected)


def test_hundred_random_pairings_match_reference():
    inst = make_instance(10, seed=77)
    oracle = ObservationOracle(inst)
    for seed in range(100):
        pairing = solve_random(10, seed).pairing
        assert oracle.observe(pairing) == pytest.approx(
            reference_score(inst.c, pairing.pairs)
        )
    assert oracle.query_count == 100


def test_exhaustive_agreement_small_n():
    from pairing_tsp.core import enumerate_pairings

    for n in (4, 6, 8):
        inst = make_instance(n, seed=n)
        oracle = ObservationOracle(inst)
        for pairing in enumerate_pairings(n):
            assert oracle.observe(pairing) == pytest.approx(
                total_compatibility(inst, pairing)
            )


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [4, 80, 400])
def test_observe_equals_total_compatibility_bit_for_bit(n, exact):
    # both add the same entries left to right (core.row_totals), so a float
    # total is the same double whichever path computed it
    inst = (make_integer_instance if exact else make_instance)(n, seed=n + 1)
    oracle = ObservationOracle(inst)
    for seed in range(200):
        pairing = solve_random(n, seed).pairing
        observed, direct = oracle.observe(pairing), total_compatibility(inst, pairing)
        assert type(observed) is type(direct)
        assert observed == direct


def test_duplicate_queries_count_twice(instance6):
    oracle = ObservationOracle(instance6)
    pairing = Pairing([(1, 2), (3, 4), (5, 6)])
    first = oracle.observe(pairing)
    second = oracle.observe(pairing)
    assert first == second
    assert oracle.query_count == 2


def test_invalid_pairing_not_counted(instance6):
    oracle = ObservationOracle(instance6)
    with pytest.raises(ValidationError):
        oracle.observe(Pairing([(1, 2), (3, 4)]))
    assert oracle.query_count == 0


def test_reset_zeroes_the_count(instance6):
    oracle = ObservationOracle(instance6)
    oracle.observe(Pairing([(1, 4), (2, 5), (3, 6)]))
    oracle.reset()
    assert oracle.query_count == 0


def test_budget_after_full_reconstruction_n6(instance6):
    oracle = ObservationOracle(instance6)
    reconstruct_tilde(oracle)
    assert oracle.query_count == observation_budget(6) == 19


def test_concurrent_observation_counts_exactly():
    inst = make_instance(8, seed=3)
    oracle = ObservationOracle(inst)
    pairing = Pairing([(1, 2), (3, 4), (5, 6), (7, 8)])

    def hammer():
        for _ in range(200):
            oracle.observe(pairing)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert oracle.query_count == 800


def python_sum(instance, pairing):
    # the summation the batch must reproduce: the canonical pairs' entries
    # folded left to right from 0 (not `sum`, which compensates floats on
    # Python 3.12 and later)
    rows = instance.c.tolist()
    return functools.reduce(operator.add, (rows[i - 1][j - 1] for i, j in pairing.pairs), 0)


def shuffled_rows(pairings, seed):
    """(Q, N/2) index arrays of `pairings` with pairs and ends in random order."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for pairing in pairings:
        pairs = [list(p) for p in pairing.pairs]
        rng.shuffle(pairs)
        for pair in pairs:
            rng.shuffle(pair)
        rows.append([p[0] - 1 for p in pairs])
        cols.append([p[1] - 1 for p in pairs])
    return np.array(rows), np.array(cols)


class TestObserveBatch:
    @pytest.mark.parametrize("exact", [False, True])
    def test_bit_identical_to_observe_per_row(self, exact):
        n = 40
        inst = make_integer_instance(n, seed=5) if exact else make_instance(n, seed=5)
        pairings = [solve_random(n, seed).pairing for seed in range(60)]
        batch = ObservationOracle(inst).observe_batch(*shuffled_rows(pairings, seed=1))
        single = ObservationOracle(inst)
        assert len(batch) == len(pairings)
        for value, pairing in zip(batch.tolist(), pairings):
            expected = single.observe(pairing)
            assert type(value) is type(expected) is type(python_sum(inst, pairing))
            if exact:
                assert value == expected == python_sum(inst, pairing)
            else:
                assert value.hex() == expected.hex() == python_sum(inst, pairing).hex()

    @pytest.mark.parametrize(
        "rows,cols",
        [
            ([[0, 2, 0]], [[1, 3, 5]]),  # element 0 twice, 4 missing
            ([[0, 2, 4]], [[1, 3, 6]]),  # out of range
            ([[0, 2, -1]], [[1, 3, 4]]),  # negative
            ([[0, 2, 4]], [[0, 3, 5]]),  # i == j
            ([[0, 2, 0]], [[1, 3, 0]]),  # 0 paired with itself as well as with 1
            ([[0, 2]], [[1, 3]]),  # wrong width
            ([[0, 2, 4]], [[1, 3, 5], [1, 3, 5]]),  # mismatched shapes
            ([0, 2, 4], [1, 3, 5]),  # one-dimensional
            (np.array([[0.0, 2.0, 4.0]]), np.array([[1.0, 3.0, 5.0]])),  # float dtype
        ],
    )
    def test_bad_rows_raise_before_counting(self, instance6, rows, cols):
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError):
            oracle.observe_batch(rows, cols)
        assert oracle.query_count == 0

    def test_one_bad_row_spoils_the_batch(self, instance6):
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError, match="row 2"):
            oracle.observe_batch(
                [[0, 2, 4], [0, 1, 2], [0, 2, 4]], [[1, 3, 5], [5, 4, 3], [1, 3, 2]]
            )
        assert oracle.query_count == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
    def test_any_integer_dtype(self, instance6, dtype):
        rows = np.array([[0, 2, 4], [5, 0, 3]], dtype=dtype)
        cols = np.array([[1, 3, 5], [4, 2, 1]], dtype=dtype)
        pairings = [Pairing([(1, 2), (3, 4), (5, 6)]), Pairing([(1, 3), (2, 4), (5, 6)])]
        expected = [ObservationOracle(instance6).observe(p) for p in pairings]
        assert ObservationOracle(instance6).observe_batch(rows, cols).tolist() == expected

    @pytest.mark.parametrize("unit", ["m8[s]", "M8[s]"])
    def test_time_dtype_refused_before_counting(self, instance6, unit):
        # numpy counts timedelta64 among its integer types; it is no element
        rows, cols = np.array([[0, 2, 4]]), np.array([[1, 3, 5]])
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError, match="pair elements must be integers"):
            oracle.observe_batch(rows.astype(unit), cols.astype(unit))
        with pytest.raises(ValidationError, match="pair elements must be integers"):
            oracle.observe_batch(rows, cols.astype(unit))
        assert oracle.query_count == 0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_narrow_dtype_keys_do_not_overflow(self, dtype):
        # keys lo * n + hi reach n * n - 2 = 1598, beyond both dtypes, so
        # they must be made after the cast to intp
        n = 40
        inst = make_instance(n, seed=9)
        rows, cols = shuffled_rows([solve_random(n, seed).pairing for seed in range(30)], seed=4)
        wide = ObservationOracle(inst).observe_batch(rows.astype(np.intp), cols.astype(np.intp))
        narrow = ObservationOracle(inst).observe_batch(rows.astype(dtype), cols.astype(dtype))
        assert [v.hex() for v in narrow.tolist()] == [v.hex() for v in wide.tolist()]

    @pytest.mark.parametrize("row_dtype,col_dtype", [(np.int8, np.uint64), (np.uint8, np.int16)])
    def test_mixed_dtypes_give_the_intp_keys(self, row_dtype, col_dtype):
        n = 40
        rows, cols = shuffled_rows([solve_random(n, seed).pairing for seed in range(30)], seed=5)
        keys = pair_keys(rows.astype(row_dtype), cols.astype(col_dtype), n)
        assert keys.dtype == np.intp
        assert (keys == pair_keys(rows.astype(np.intp), cols.astype(np.intp), n)).all()
        one_based = pair_keys((rows + 1).astype(row_dtype), (cols + 1).astype(col_dtype), n, first=1)
        assert (one_based == keys).all()

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_end_in_a_later_row_raises_the_range_error(self, instance6, bad):
        # without the range check, -1 in row 1 would mark row 0's last slot
        # and 6 would mark a slot past the end of the coverage array
        oracle = ObservationOracle(instance6)
        rows = [[0, 2, 4], [0, 2, 4]]
        cols = [[1, 3, 5], [1, 3, bad]]
        with pytest.raises(ValidationError, match="must lie in 0..5"):
            oracle.observe_batch(rows, cols)
        assert oracle.query_count == 0

    def test_unsigned_end_beyond_intp_raises_the_range_error(self, instance6):
        rows = np.array([[0, 2, 4]], dtype=np.uint64)
        cols = np.array([[1, 3, 2**64 - 1]], dtype=np.uint64)
        with pytest.raises(ValidationError, match="must lie in 0..5"):
            ObservationOracle(instance6).observe_batch(rows, cols)

    @pytest.mark.parametrize(
        "rows,cols,message",
        [
            ([[0, 2, 4]], [[1, 3, 2]], "row 0 is not a pairing: element 2 appears in more than one pair"),
            ([[0, 2, 4]], [[1, 3, 4]], "row 0 is not a pairing: element 4 is paired with itself"),
            ([[0, 2, 4], [0, 2, 4]], [[1, 3, 5], [1, 3, 3]], "row 1 is not a pairing: element 3 appears"),
            # the first bad row is named, though a later one is out of range
            ([[0, 0, 4], [0, 2, 4]], [[1, 3, 5], [1, 3, 9]], "row 0 is not a pairing: element 0 appears"),
            ([[0, 2, 4], [0, 2, 4]], [[1, 3, 5], [1, 3, 9]], "row 1 is not a pairing: element 9 must lie"),
        ],
    )
    def test_faulty_element_named(self, instance6, rows, cols, message):
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError, match=message):
            oracle.observe_batch(rows, cols)
        assert oracle.query_count == 0

    def test_unsigned_end_beyond_intp_named_as_given(self, instance6):
        rows = np.array([[0, 2, 4]], dtype=np.uint64)
        cols = np.array([[1, 3, 2**64 - 1]], dtype=np.uint64)
        with pytest.raises(ValidationError, match="element 18446744073709551615 must lie in 0..5"):
            ObservationOracle(instance6).observe_batch(rows, cols)

    def test_observe_refuses_a_list_of_pairs(self, instance6):
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError, match="observe takes a Pairing, got list"):
            oracle.observe([(1, 2), (3, 4), (5, 6)])
        assert oracle.query_count == 0

    def test_pair_given_in_both_orientations_raises(self, instance6):
        # (0, 1) and (1, 0) are one pair twice: elements 4 and 5 go unpaired
        oracle = ObservationOracle(instance6)
        with pytest.raises(ValidationError, match="row 0 is not a pairing"):
            oracle.observe_batch([[0, 1, 2]], [[1, 0, 3]])
        assert oracle.query_count == 0

    def test_pair_keys_decode_to_canonical_pairs(self):
        n = 12
        pairings = [solve_random(n, seed).pairing for seed in range(20)]
        keys = pair_keys(*shuffled_rows(pairings, seed=3), n)
        first, second = np.divmod(keys, n)
        assert keys.dtype == np.intp
        assert np.array_equal(keys, first * n + second)
        decoded = [list(zip(a, b)) for a, b in zip((first + 1).tolist(), (second + 1).tolist())]
        assert decoded == [list(p.pairs) for p in pairings]

    @pytest.mark.parametrize("exact", [False, True])
    def test_totals_own_their_data(self, exact):
        # a view into the row sums' cumsum would keep the whole (Q, N/2) buffer alive
        n = 20
        inst = make_integer_instance(n, seed=6) if exact else make_instance(n, seed=6)
        pairings = [solve_random(n, seed).pairing for seed in range(8)]
        totals = ObservationOracle(inst).observe_batch(*shuffled_rows(pairings, seed=2))
        assert totals.flags.owndata and totals.base is None

    def test_empty_batch(self, instance6):
        oracle = ObservationOracle(instance6)
        empty = np.zeros((0, 3), dtype=np.intp)
        assert len(oracle.observe_batch(empty, empty)) == 0
        assert oracle.query_count == 0

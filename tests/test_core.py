import functools
import json
import math
import operator
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairing_tsp.core import (
    FractionArray,
    Instance,
    Pairing,
    ValidationError,
    checked_count,
    double_factorial,
    dumps_instance_json,
    dumps_instance_text,
    enumerate_pairings,
    exact_best_pairing,
    integer,
    integral,
    loads_instance_json,
    loads_instance_text,
    pairing_count,
    pairing_sum,
    quotients,
    row_totals,
    total_compatibility,
)
from pairing_tsp.bench import generate_instance
from pairing_tsp.observation import exchange_rule_value

from conftest import (
    NON_NUMBER_MATRICES,
    make_instance,
    matrix_from_pairs,
    reference_pairing,
    reference_pairings,
    reference_score,
)


def test_double_factorial_values():
    assert [double_factorial(k) for k in (-1, 0, 1, 3, 5, 9, 11)] == [
        1, 1, 1, 3, 15, 945, 10395,
    ]
    assert pairing_count(10) == 945
    assert pairing_count(12) == 10395


class TestPairing:
    def test_canonical_form(self):
        p = Pairing([(4, 3), (2, 1)])
        assert p.pairs == ((1, 2), (3, 4))
        assert p == Pairing([(1, 2), (3, 4)])
        assert str(p) == "{{1,2}, {3,4}}"

    def test_duplicate_element_named(self):
        with pytest.raises(ValidationError, match="element 2"):
            Pairing([(1, 2), (2, 3)])

    def test_out_of_range_element_named(self):
        with pytest.raises(ValidationError, match="element 7"):
            Pairing([(1, 2), (3, 7)])

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="paired with itself"):
            Pairing([(1, 1), (2, 3)])

    def test_bool_element_rejected(self):
        with pytest.raises(ValidationError, match="element True is not an integer"):
            Pairing([(True, 2), (3, 4)])

    @pytest.mark.parametrize("time", [np.timedelta64, np.datetime64])
    def test_time_element_rejected(self, time):
        # np.timedelta64 subclasses np.integer, but int() of it is no element
        with pytest.raises(ValidationError, match="is not an integer"):
            Pairing([(time(1, "s"), time(2, "s")), (3, 4)])
        with pytest.raises(ValidationError, match="is not an integer"):
            Pairing([(1, 2), (3, time(4, "s"))])

    def test_from_permutation(self):
        assert Pairing.from_permutation([3, 1, 4, 2]) == Pairing([(1, 3), (2, 4)])

    def test_immutable(self):
        p = Pairing([(1, 2), (3, 4)])
        with pytest.raises(Exception):
            p.pairs = ()


#: The integer types a pair list may mix; a value outside a numpy type's
#: range stays a Python int.
ELEMENT_TYPES = (int, np.int8, np.uint8, np.int32, np.int64, np.uint64)


def _typed(value: int, kind):
    if kind is not int and not np.iinfo(kind).min <= value <= np.iinfo(kind).max:
        return value
    return kind(value)


def _named_element(exc: ValidationError) -> int:
    return int(re.search(r"element (-?\d+)", str(exc)).group(1))


def _outcome(build, pairs):
    try:
        return build(pairs), None
    except ValidationError as exc:
        return None, exc


def assert_matches_reference(pairs, faulty=None):
    """`Pairing` accepts `pairs` exactly when `reference_pairing` does, with
    the same canonical pairs of Python ints; when the one faulty element is
    known, both name it."""
    expected, expected_error = _outcome(reference_pairing, pairs)
    got, error = _outcome(Pairing, pairs)
    assert (got is None) == (expected is None), (pairs, expected_error, error)
    if expected is not None:
        assert got.pairs == expected
        assert all(type(e) is int for pair in got.pairs for e in pair)
    elif faulty is not None:
        assert _named_element(error) == _named_element(expected_error) == faulty


class TestPairingAgainstReference:
    """`Pairing` checks through `pair_keys`; the plain loops of
    `reference_pairing` must agree with it on every pair list."""

    @pytest.mark.parametrize(
        "pairs,faulty",
        [
            ([(1, 2), (2, 3)], 2),  # duplicate
            ([(3, 4), (2, 2)], 2),  # self-pair
            ([(0, 1)], 0),
            ([(1, 2), (-3, 4)], -3),
            ([(2**70, 1)], 2**70),
            ([(np.uint64(2**64 - 1), 2)], 2**64 - 1),
            ([(np.int8(1), np.int8(1))], 1),
            ([(np.int8(4), np.uint64(3)), (np.int32(2), np.int64(1))], None),
            ([(np.uint64(3), np.int8(-1)), (2, 1)], -1),
            ([(np.uint8(200), 1)], 200),
        ],
    )
    def test_named_cases(self, pairs, faulty):
        assert_matches_reference(pairs, faulty)

    def test_seeded_pair_lists(self):
        rng = np.random.default_rng(2024)
        sizes = list(range(2, 42, 2)) + [50, 64, 100, 128, 200, 256, 400]
        for n in sizes:
            for _ in range(30):
                ends = (rng.permutation(n) + 1).tolist()
                faults = int(rng.choice(4, p=[0.25, 0.45, 0.15, 0.15]))
                faulty = None
                for _ in range(faults):
                    slot = int(rng.integers(n))
                    value = [
                        ends[int(rng.integers(n))],  # a duplicate, or a self-pair
                        ends[slot ^ 1],  # the slot's partner: a self-pair
                        0,
                        -int(rng.integers(1, 1000)),
                        n + int(rng.integers(1, 1000)),
                        2**70,
                        2**64 - 1,
                    ][int(rng.integers(7))]
                    faulty = value if value != ends[slot] else faulty
                    ends[slot] = value
                typed = [_typed(e, ELEMENT_TYPES[int(rng.integers(len(ELEMENT_TYPES)))]) for e in ends]
                pairs = list(zip(typed[0::2], typed[1::2]))
                assert_matches_reference(pairs, faulty if faults == 1 else None)


class TestTotalCompatibility:
    def test_constant_matrix(self):
        c = np.full((4, 4), 5000.0)
        inst = Instance(n=4, c=c, c_min=5000, c_max=5000)
        assert total_compatibility(inst, Pairing([(1, 2), (3, 4)])) == 10000

    def test_two_entries(self):
        c = matrix_from_pairs(4, {(1, 2): 1, (3, 4): 2})
        inst = Instance(n=4, c=c, c_min=0, c_max=2)
        assert total_compatibility(inst, Pairing([(1, 2), (3, 4)])) == 3

    def test_matches_nested_loop_oracle_on_all_pairings(self):
        inst = make_instance(6, seed=7, c_max=100)
        for pairing in enumerate_pairings(6):
            assert total_compatibility(inst, pairing) == pytest.approx(
                reference_score(inst.c, pairing.pairs)
            )

    def test_wrong_size_rejected(self):
        inst = make_instance(6, seed=0)
        with pytest.raises(ValidationError):
            total_compatibility(inst, Pairing([(1, 2), (3, 4)]))

    def test_matrix_with_extra_columns_rejected(self):
        # the pair keys are flat indices into an n x n matrix, so wider rows
        # would gather the wrong entries
        with pytest.raises(ValidationError, match=r"matrix is \(4, 6\)"):
            pairing_sum(np.zeros((4, 6)), Pairing([(1, 2), (3, 4)]))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(4, 3), (6, 15), (8, 105), (10, 945)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_pairings(n)) == count == pairing_count(n)

    def test_n4_explicit(self):
        got = list(enumerate_pairings(4))
        assert got == [
            Pairing([(1, 2), (3, 4)]),
            Pairing([(1, 3), (2, 4)]),
            Pairing([(1, 4), (2, 3)]),
        ]

    def test_matches_reference_enumeration(self):
        got = {frozenset(frozenset(p) for p in pairing.pairs) for pairing in enumerate_pairings(8)}
        assert got == set(reference_pairings(8))

    def test_all_valid_and_distinct(self):
        seen = set()
        for pairing in enumerate_pairings(8):
            assert pairing.n == 8
            seen.add(pairing.pairs)
        assert len(seen) == 105

    def test_lexicographic_order(self):
        stream = [p.pairs for p in enumerate_pairings(8)]
        assert stream == sorted(stream)

    def test_cap_refusal_mentions_count(self):
        with pytest.raises(ValidationError, match="2027025"):
            list(enumerate_pairings(16))

    def test_cap_override(self):
        assert sum(1 for _ in enumerate_pairings(14, max_n=14)) == 135135


class TestExactBest:
    def test_hand_instance(self):
        c = matrix_from_pairs(
            4, {(1, 2): 9, (3, 4): 9, (1, 3): 5, (2, 4): 5, (1, 4): 1, (2, 3): 1}
        )
        inst = Instance(n=4, c=c, c_min=0, c_max=9)
        best, score = exact_best_pairing(inst)
        assert best == Pairing([(1, 2), (3, 4)])
        assert score == 18

    def test_constant_matrix_ties_to_canonical_smallest(self):
        c = np.full((6, 6), 3.0)
        inst = Instance(n=6, c=c, c_min=3, c_max=3)
        best, score = exact_best_pairing(inst)
        assert best == Pairing([(1, 2), (3, 4), (5, 6)])
        assert score == 9

    def test_equals_enumerated_maximum(self):
        inst = make_instance(8, seed=21)
        _, score = exact_best_pairing(inst)
        scores = [total_compatibility(inst, p) for p in enumerate_pairings(8)]
        assert score == max(scores)
        assert all(s <= score for s in scores)


def test_pair_swap_difference_equals_exchange_rule():
    # rewiring {i,j},{k,l} into {i,k},{j,l} changes the total by [i,j,k,l]
    inst = make_instance(8, seed=5)
    s1 = Pairing([(1, 2), (3, 4), (5, 6), (7, 8)])
    s2 = Pairing([(1, 3), (2, 4), (5, 6), (7, 8)])
    delta = total_compatibility(inst, s2) - total_compatibility(inst, s1)
    assert delta == pytest.approx(exchange_rule_value(1, 2, 3, 4, inst.c))


class TestAdmission:
    @pytest.mark.parametrize("n", [5, 2, -4, 6.0, True, "6", None])
    def test_checked_count_rejects(self, n):
        with pytest.raises(ValidationError, match="element count must be even and >= 4, got"):
            checked_count(n)

    def test_checked_count_returns_int(self):
        assert type(checked_count(np.int64(6))) is int
        assert checked_count(0, 0) == 0 and checked_count(2, 2) == 2
        with pytest.raises(ValidationError, match="even and >= 0, got 5"):
            pairing_count(5)

    @pytest.mark.parametrize("value", [True, False, np.True_, 1.0, "1", [1], None])
    def test_integer_refuses_non_integers(self, value):
        with pytest.raises(TypeError):
            integer(value)


class TestInstance:
    def test_asymmetric_rejected(self):
        c = np.zeros((4, 4))
        c[0][1] = 1.0
        with pytest.raises(ValidationError, match="not symmetric"):
            Instance(n=4, c=c, c_min=0, c_max=1)

    def test_bounds_violation_names_entry(self):
        c = matrix_from_pairs(4, {(2, 4): 11.0})
        with pytest.raises(ValidationError, match=r"c\[2\]\[4\]"):
            Instance(n=4, c=c, c_min=0, c_max=10)

    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError):
            Instance(n=5, c=np.zeros((5, 5)), c_min=0, c_max=1)

    @pytest.mark.parametrize(
        "c_min,c_max,message",
        [
            ("0", 1, "c_min must be a number"),
            (False, 1, "c_min must be a number"),
            (0, True, "c_max must be a number"),
            (0, None, "c_max must be a number"),
            (2, 1, "c_min <= c_max"),
        ],
    )
    def test_bad_bounds_named(self, c_min, c_max, message):
        with pytest.raises(ValidationError, match=message):
            Instance(n=4, c=np.zeros((4, 4)), c_min=c_min, c_max=c_max)

    def test_exact_bounds_beyond_float_range(self):
        exact = np.zeros((4, 4), dtype=object)
        exact[1, 2] = exact[2, 1] = 10**399
        inst = Instance(n=4, c=exact, c_min=0, c_max=10**400)
        assert inst.c_max == 10**400
        third = Fraction(-1, 3)
        assert Instance(n=4, c=exact, c_min=third, c_max=Fraction(10**400, 3)).c_min == third
        # a float matrix compares with such a bound as with an infinity
        assert Instance(n=4, c=np.ones((4, 4)), c_min=-(10**400), c_max=10**400).c_max == 10**400
        with pytest.raises(ValidationError, match="c_min <= c_max"):
            Instance(n=4, c=exact, c_min=10**400 + 1, c_max=10**400)
        with pytest.raises(ValidationError, match="is outside"):
            Instance(n=4, c=exact, c_min=0, c_max=10**398)
        with pytest.raises(ValidationError, match="is outside"):
            Instance(n=4, c=np.ones((4, 4)), c_min=10**400, c_max=10**401)

    def test_file_bounds_beyond_float_range_are_not_numbers(self):
        for c_max, message in [(10**400, "c_max must be a number"), ("1e400", "must be finite")]:
            text = f'{{"n": 4, "c_min": 0, "c_max": {c_max}, "upper_triangle": [0, 0, 0, 0, 0, 0]}}'
            with pytest.raises(ValidationError, match=message):
                loads_instance_json(text)
        with pytest.raises(ValidationError, match="c_max must be a number"):
            generate_instance(4, 0, 10**400, seed=1)

    def test_ragged_matrix_named(self):
        with pytest.raises(ValidationError, match="matrix is not a rectangular array"):
            Instance(n=4, c=[[0, 1], [1, 0, 3]], c_min=0, c_max=3)

    def test_matrix_read_only(self):
        inst = make_instance(4, seed=0)
        with pytest.raises(ValueError):
            inst.c[0][1] = 5.0

    def test_object_matrix_copied_before_freezing(self):
        c = np.zeros((4, 4), dtype=object)
        c[0][1] = c[1][0] = 7
        inst = Instance(n=4, c=c, c_min=0, c_max=10)
        assert c.flags.writeable
        c[0][1] = 9
        assert inst.value(1, 2) == 7
        with pytest.raises(ValueError):
            inst.c[0][1] = 5

    @pytest.mark.filterwarnings("error")  # a complex cast would warn and drop the imaginary part
    @pytest.mark.parametrize("case", NON_NUMBER_MATRICES)
    def test_non_number_entries_named(self, case):
        matrix, message = NON_NUMBER_MATRICES[case]
        with pytest.raises(ValidationError, match=message):
            Instance(n=4, c=matrix, c_min=0, c_max=1)

    def test_diagonal_not_validated(self):
        for diagonal in (123456.0, float("nan")):
            c = np.zeros((4, 4))
            np.fill_diagonal(c, diagonal)
            Instance(n=4, c=c, c_min=0, c_max=1)

    @pytest.mark.parametrize(
        "upper,lower,message",
        [
            (Fraction(1, 2), Fraction(1, 3), r"not symmetric at c\[3\]\[4\]"),
            (Fraction(7, 2), Fraction(7, 2), r"c\[3\]\[4\]=7/2 is outside \[0, 1\]"),
            (float("nan"), float("nan"), r"c\[3\]\[4\]"),
        ],
    )
    def test_object_matrix_fault_named(self, upper, lower, message):
        c = np.full((4, 4), Fraction(1, 3), dtype=object)
        c[2][3], c[3][2] = upper, lower
        with pytest.raises(ValidationError, match=message):
            Instance(n=4, c=c, c_min=0, c_max=1)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_asymmetry_named_before_an_earlier_bounds_fault(self, dtype):
        c = np.zeros((4, 4), dtype=dtype)
        c[0][1] = c[1][0] = 11
        c[2][3] = 1
        with pytest.raises(ValidationError, match=r"not symmetric at c\[3\]\[4\]"):
            Instance(n=4, c=c, c_min=0, c_max=10)


class TestInstanceFiles:
    def test_text_round_trip(self):
        inst = make_instance(6, seed=11)
        again = loads_instance_text(dumps_instance_text(inst))
        assert again.n == 6
        assert np.array_equal(again.c, inst.c)
        assert (again.c_min, again.c_max) == (inst.c_min, inst.c_max)

    def test_json_round_trip(self):
        inst = make_instance(6, seed=12)
        again = loads_instance_json(dumps_instance_json(inst))
        assert np.array_equal(again.c, inst.c)

    def test_text_accepts_arbitrary_whitespace(self):
        inst = loads_instance_text("4 0 10\n1 2\n 3\n4 5\n\t6\n")
        assert inst.value(1, 2) == 1
        assert inst.value(3, 4) == 6

    def test_truncated_text_rejected(self):
        with pytest.raises(ValidationError, match="expected 6"):
            loads_instance_text("4 0 10\n1 2 3\n")

    def test_json_missing_field_rejected(self):
        with pytest.raises(ValidationError, match="upper_triangle"):
            loads_instance_json(json.dumps({"n": 4, "c_min": 0, "c_max": 1}))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("c_min", False, "c_min must be a number, got False"),
            ("c_max", "1e1", "c_max must be a number, got '1e1'"),
            ("upper_triangle", [True] + [1] * 5, "upper_triangle entry must be a number, got True"),
            ("upper_triangle", ["1"] + [1] * 5, "upper_triangle entry must be a number, got '1'"),
        ],
    )
    def test_json_bool_or_string_number_named(self, field, value, message):
        data = {"n": 4, "c_min": 0, "c_max": 10, "upper_triangle": [1] * 6, field: value}
        with pytest.raises(ValidationError, match=message):
            loads_instance_json(json.dumps(data))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.randoms(use_true_random=False))
def test_random_valid_pairings_round_trip(half, rnd):
    n = 2 * half
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    pairing = Pairing.from_permutation(order)
    assert pairing.n == n
    assert sorted(e for pair in pairing.pairs for e in pair) == list(range(1, n + 1))
    assert Pairing(list(pairing.pairs)) == pairing


class TestNumericHelpers:
    def test_integral_chooses_the_arithmetic_by_dtype(self):
        # an integer dtype computes exactly, on Python ints
        numerators, denominator = integral(np.array([[3, -4], [0, 2**62]], dtype=np.int64))
        assert denominator == 1 and numerators.dtype == object
        assert numerators.tolist() == [[3, -4], [0, 2**62]]
        assert {type(v) for v in numerators.flat} == {int}
        # float32, and Python floats in an object array, compute in float64
        for floats in (np.array([1.5, -0.1], np.float32), np.array([1.5, -0.1], object)):
            numerators, denominator = integral(floats, 3)
            assert denominator == 1 and numerators.dtype == np.float64
            assert numerators.tobytes() == (floats.astype(np.float64) / 3).tobytes()
        # a divisor divides floats as `v / k` does, bit for bit
        values = np.random.default_rng(0).uniform(-1e6, 1e6, (5, 7))
        for k in (1, 3, 7, 49):
            assert integral(values, k)[0].tobytes() == (values / k).tobytes()
            assert integral(values[2, 3], k)[0] == values[2, 3] / k
        # and exact values into numerators over the lcm times the divisor
        big = np.array([[2**70 + 1, -3], [0, Fraction(5, 2)]], dtype=object)
        numerators, denominator = integral(big, 3)
        assert denominator == 6
        assert {type(v) for v in numerators.flat} == {int}
        got = [Fraction(v, denominator) for v in numerators.flat]
        assert got == [Fraction(2**70 + 1, 3), -1, 0, Fraction(5, 6)]

    def test_integral_passes_float_bytes_through(self):
        values = np.array([[0.1, -2.5], [1e300, 0.0]])
        numerators, denominator = integral(values)
        assert denominator == 1
        assert numerators.dtype == np.float64
        assert numerators.tobytes() == values.tobytes()

    def test_integral_of_object_ints(self):
        numerators, denominator = integral(np.array([[3, -4], [0, 5]], dtype=object))
        assert denominator == 1
        assert numerators.tolist() == [[3, -4], [0, 5]]
        assert {type(v) for v in numerators.flat} == {int}

    def test_integral_of_mixed_fractions_uses_the_lcm(self):
        values = np.array([Fraction(1, 6), Fraction(3, 4), 2], dtype=object)
        numerators, denominator = integral(values)
        assert denominator == 12
        assert numerators.tolist() == [2, 9, 24]
        assert {type(v) for v in numerators} == {int}

    def test_integral_of_empty_arrays(self):
        for empty in (np.empty((0, 3), dtype=object), np.empty(0)):
            numerators, denominator = integral(empty)
            assert denominator == 1
            assert numerators.shape == empty.shape

    def test_integral_keeps_numerators_beyond_int64_exact(self):
        values = np.array([2**70 + 1, Fraction(-(2**64), 3)], dtype=object)
        numerators, denominator = integral(values)
        assert denominator == 3
        assert numerators.tolist() == [3 * (2**70 + 1), -(2**64)]
        assert {type(v) for v in numerators} == {int}
        numpy_ints = np.array([np.int64(2**62), np.int64(3)], dtype=object)
        assert integral(numpy_ints)[0].tolist() == [2**62, 3]
        assert {type(v) for v in integral(numpy_ints)[0]} == {int}


class TestQuotients:
    def test_exact_numerators_keep_the_reduced_pair(self):
        t = quotients(np.array([[0, 6], [-4, 2]], dtype=object), 4)
        assert isinstance(t, FractionArray)
        assert t.tolist() == [[0, Fraction(3, 2)], [-1, Fraction(1, 2)]]
        assert {type(v) for v in t.flat} == {Fraction}
        numerators, denominator = integral(t)
        assert (numerators.tolist(), denominator) == ([[0, 3], [-2, 1]], 2)
        fresh = integral(np.array(t.tolist(), dtype=object))
        assert (fresh[0].tolist(), fresh[1]) == (numerators.tolist(), denominator)
        assert not t.flags.writeable and not numerators.flags.writeable

    def test_all_zero_numerators_are_over_one(self):
        t = quotients(np.zeros((2, 2), dtype=object), 6)
        assert integral(t)[1] == 1 and t.tolist() == [[0, 0], [0, 0]]

    def test_floats_divide_in_float64(self):
        values = np.array([[0.5, -3.0]], dtype=np.float32)
        t = quotients(values, 1)
        assert t.dtype == np.float64 and not t.flags.writeable
        assert t.tolist() == [[0.5, -3.0]]
        t = quotients(*integral(np.array([1.5, 3.0], dtype=object), 2))
        assert t.dtype == np.float64 and t.tolist() == [0.75, 1.5]

    def test_derived_arrays_carry_no_pair(self):
        t = quotients(np.array([[2, 4], [6, 9]], dtype=object), 3)
        for derived in (t[1:], t.T, t.copy(), -t, t[[1, 0]]):
            assert derived._integral is None
        assert integral(t.T)[0].tolist() == [[2, 6], [4, 9]]


def fold(row):
    """The reference order: left to right from 0, one addition at a time."""
    return functools.reduce(operator.add, row, 0)


def cancelling_rows(q, width, seed):
    """(q, width) floats mixing 1e16, 1 and -1e16, where each addition's
    rounding depends on the order; row 0 is 1e16, then ones, then -1e16,
    which left to right is 0 but pairwise keeps the ones."""
    rng = np.random.default_rng(seed)
    rows = rng.choice([1e16, 1.0, -1e16, 0.5, 3.0], size=(q, width))
    if width >= 9:
        rows[0] = 1.0
        rows[0, 0], rows[0, -1] = 1e16, -1e16
    return rows


class TestRowTotals:
    @pytest.mark.parametrize("width", [1, 9, 40, 200])
    @pytest.mark.parametrize("q", [1, 2, 3, 160])
    def test_floats_fold_left_to_right_bit_for_bit(self, q, width):
        entries = cancelling_rows(q, width, seed=q * 1000 + width)
        totals = row_totals(entries)
        expected = [fold(row) for row in entries.tolist()]
        assert totals.shape == (q,) and totals.dtype == np.float64
        assert [v.hex() for v in totals.tolist()] == [v.hex() for v in expected]
        if width >= 9:
            # numpy's own row sum adds pairwise and so differs on this data;
            # if it ever stops doing so, the order above needs a new look
            pairwise = entries.sum(axis=1)
            assert [v.hex() for v in pairwise.tolist()] != [v.hex() for v in expected]

    @pytest.mark.parametrize("width", [1, 9, 40, 200])
    @pytest.mark.parametrize("q", [1, 2, 3, 160])
    def test_exact_values_fold_left_to_right(self, q, width):
        rng = np.random.default_rng(q * 1000 + width)
        ints = rng.integers(-(10**6), 10**6, size=(q, width)).astype(object) * 2**70
        dens = rng.integers(1, 10, size=(q, width))
        fractions = np.array(
            [[Fraction(int(v), int(d)) for v, d in zip(r, e)] for r, e in zip(ints, dens)],
            dtype=object,
        ).reshape(q, width)
        for entries in (ints, fractions):
            totals = row_totals(entries)
            expected = [fold(row) for row in entries.tolist()]
            assert totals.dtype == object
            assert totals.tolist() == expected
            assert [type(v) for v in totals] == [type(v) for v in expected]

    def test_object_floats_fold_left_to_right(self):
        # Python floats in an object array add in the same order
        entries = cancelling_rows(3, 40, seed=5).astype(object)
        expected = [fold(row) for row in entries.tolist()]
        assert [v.hex() for v in row_totals(entries).tolist()] == [v.hex() for v in expected]


class TestInstanceValue:
    """`Instance.value` checks both elements as `exchange_rule_value` does."""

    @pytest.mark.parametrize(
        "i,j,message",
        [
            (0, 2, "element 0 is outside 1..4"),
            (2, 0, "element 0 is outside 1..4"),
            (5, 1, "element 5 is outside 1..4"),
            (1, -1, "element -1 is outside 1..4"),
            (1.5, 2, "element must be an integer, got 1.5"),
            (2, "3", "element must be an integer, got '3'"),
            (True, 2, "element must be an integer, got True"),
            (3, 3, "the diagonal carries no compatibility value"),
        ],
    )
    def test_bad_elements_are_named(self, i, j, message):
        inst = Instance(n=4, c=matrix_from_pairs(4, {(1, 2): 1, (3, 4): 6}), c_min=0, c_max=10)
        with pytest.raises(ValidationError, match=re.escape(message)):
            inst.value(i, j)

    def test_valid_elements_read_the_entry(self):
        inst = Instance(n=4, c=matrix_from_pairs(4, {(1, 2): 1, (3, 4): 6}), c_min=0, c_max=10)
        assert inst.value(4, 3) == 6
        assert inst.value(np.int64(1), np.uint8(2)) == 1
        assert inst.value(1, 4) == 0


class TestFloatOverflowAdmission:
    """A float matrix is refused when n/2 times its largest off-diagonal
    magnitude exceeds float64, so no pairing total can overflow; exact
    matrices and bounds are not read for it."""

    def test_entries_summing_past_float_range_refused(self):
        with pytest.raises(ValidationError, match="overflow float64 in a pairing total of 3"):
            Instance(n=6, c=np.full((6, 6), 1e308), c_min=0, c_max=1e308)

    def test_negative_entries_count_by_magnitude(self):
        c = np.zeros((4, 4))
        c[0, 1] = c[1, 0] = -1e308
        with pytest.raises(ValidationError, match="overflow float64"):
            Instance(n=4, c=c, c_min=-1e308, c_max=0)

    def test_diagonal_is_not_read(self):
        c = np.ones((4, 4))
        np.fill_diagonal(c, 1e308)
        assert Instance(n=4, c=c, c_min=0, c_max=1).n == 4

    def test_just_under_the_limit_admitted(self):
        top = np.nextafter(sys.float_info.max / 3, 0)
        assert 3 * top <= sys.float_info.max
        inst = Instance(n=6, c=np.full((6, 6), top), c_min=0, c_max=top)
        assert all(
            math.isfinite(total_compatibility(inst, p)) for p in enumerate_pairings(6)
        )

    def test_exact_entries_beyond_float_range_admitted(self):
        exact = np.full((4, 4), 10**400, dtype=object)
        assert Instance(n=4, c=exact, c_min=0, c_max=10**400).n == 4


class TestUnreachedFaults:
    def test_pair_of_three_elements(self):
        with pytest.raises(ValidationError, match=r"pair \(1, 2, 3\) does not contain exactly two"):
            Pairing([(1, 2, 3), (4, 5)])

    def test_no_pairs(self):
        with pytest.raises(ValidationError, match="at least one pair"):
            Pairing([])

    def test_odd_permutation(self):
        with pytest.raises(ValidationError, match="permutation length 3 is odd"):
            Pairing.from_permutation([1, 2, 3])

    def test_instance_json_array(self):
        with pytest.raises(ValidationError, match="instance JSON must be an object"):
            loads_instance_json("[4, 0, 10]")


class TestEnumerationCapAdmitted:
    """`max_n` passes `_checked` with the `integer` converter, as every
    other integer argument does."""

    @pytest.mark.parametrize("max_n", ["x", None, 4.0, True], ids=repr)
    def test_enumeration_cap_that_is_not_an_int_named(self, max_n):
        with pytest.raises(ValidationError, match="max_n must be an integer"):
            list(enumerate_pairings(4, max_n=max_n))

    @pytest.mark.parametrize("max_n", ["x", None, True], ids=repr)
    def test_exact_best_pairing_cap_named(self, max_n):
        with pytest.raises(ValidationError, match="max_n must be an integer"):
            exact_best_pairing(make_instance(4, 0), max_n=max_n)

    def test_numpy_cap_accepted(self):
        assert len(list(enumerate_pairings(4, max_n=np.int64(4)))) == 3

"""Pairing totals of bounded all-int instances are summed in int64.

`Instance` chooses the summation array `_sums` once at admission: an int64
copy of `c` when every entry is a Python int and n/2 times the largest
magnitude fits int64, else `c` itself. These tests hold the bound, the
types and values of the totals, and the exact stages built on them.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import pairing_tsp.core as core
from pairing_tsp.core import (
    FractionArray,
    Instance,
    Pairing,
    pairing_sum,
    quotients,
    total_compatibility,
)
from pairing_tsp.observation import definitional_tilde, reconstruct_tilde
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.plan import execute_plan, minimal_observation_plan

from conftest import make_fraction_instance, make_instance, make_integer_instance

INT64_MAX = 2**63 - 1


def _bound(n: int) -> int:
    return INT64_MAX // (n // 2)


def _ints(n: int, entry, at=(0, 1)) -> Instance:
    """An n x n instance of Python-int zeros but `entry` at `at` and its mirror."""
    c = np.zeros((n, n), dtype=object)
    i, j = at
    c[i][j] = c[j][i] = entry
    return Instance(n=n, c=c, c_min=-(2**80), c_max=2**80)


def _random_pairings(n: int, count: int, seed: int):
    rnd = random.Random(seed)
    for _ in range(count):
        order = list(range(1, n + 1))
        rnd.shuffle(order)
        yield Pairing.from_permutation(order)


@pytest.mark.parametrize("n", [4, 6, 28, 60])
def test_int64_up_to_the_bound(n):
    for entry in (_bound(n), -_bound(n)):
        inst = _ints(n, entry)
        assert inst._sums.dtype == np.int64
        assert inst._sums.tolist() == inst.c.tolist()
    for entry in (_bound(n) + 1, -_bound(n) - 1, 2**70):
        inst = _ints(n, entry)
        assert inst._sums is inst.c


@pytest.mark.parametrize("entry", [Fraction(3, 1), Fraction(1, 2), 0.5, np.int64(3)])
@pytest.mark.parametrize("at", [(0, 1), (2, 3)])
def test_any_other_entry_keeps_c(entry, at):
    c = np.zeros((6, 6), dtype=object)
    c[at[0]][at[1]] = c[at[1]][at[0]] = entry
    inst = Instance(n=6, c=c, c_min=0, c_max=10)
    assert inst._sums is inst.c


@pytest.mark.parametrize("entry", [_bound(6) + 1, Fraction(1, 2), 0.5, 2**70])
def test_the_diagonal_is_read(entry):
    c = np.zeros((6, 6), dtype=object)
    c[2][2] = entry
    inst = Instance(n=6, c=c, c_min=0, c_max=10)
    assert inst._sums is inst.c


def test_float_instances_sum_c():
    inst = make_instance(8, seed=1)
    assert inst._sums is inst.c
    assert inst._sums.dtype == np.float64


def test_sums_are_read_only():
    inst = make_integer_instance(8, seed=2)
    assert inst._sums.dtype == np.int64 and not inst._sums.flags.writeable
    with pytest.raises(ValueError):
        inst._sums[1, 2] = 7
    assert inst.c.dtype == object and not inst.c.flags.writeable


def _near_bound(n: int, seed: int) -> Instance:
    rnd = random.Random(seed)
    b = _bound(n)
    c = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = c[j][i] = rnd.choice((b, -b, rnd.randint(-b, b)))
    return Instance(n=n, c=c, c_min=-b, c_max=b)


@pytest.mark.parametrize(
    "inst",
    [make_integer_instance(28, seed=3), _near_bound(28, seed=4), _near_bound(6, seed=5)],
    ids=["ints", "near-bound-28", "near-bound-6"],
)
def test_totals_are_python_ints_equal_to_sum(inst):
    assert inst._sums.dtype == np.int64
    n = inst.n
    oracle = ObservationOracle(inst)
    pairings = list(_random_pairings(n, 20, seed=n))
    for p in pairings:
        expected = sum(inst.c[a - 1][b - 1] for a, b in p)
        for total in (total_compatibility(inst, p), oracle.observe(p)):
            assert type(total) is int and total == expected
    keys = np.vstack([p._keys for p in pairings])
    totals = oracle.observe_batch(*np.divmod(keys, n))
    assert totals.dtype == object
    assert [type(v) for v in totals] == [int] * len(pairings)
    assert totals.tolist() == [sum(inst.c[a - 1][b - 1] for a, b in p) for p in pairings]
    # a one-row batch takes row_totals' other branch
    one = oracle.observe_batch(*np.divmod(keys[:1], n))
    assert one.dtype == object and type(one[0]) is int


def test_totals_beyond_the_bound_are_python_ints_too():
    n = 6
    inst = _ints(n, _bound(n) + 1, at=(0, 1))
    p = Pairing([(1, 2), (3, 4), (5, 6)])
    assert inst._sums is inst.c
    for total in (total_compatibility(inst, p), ObservationOracle(inst).observe(p)):
        assert type(total) is int and total == _bound(n) + 1


@pytest.mark.parametrize("n", [28, 60])
@pytest.mark.parametrize("make", [make_integer_instance, make_fraction_instance])
def test_exact_stages_equal_definitional_tilde(n, make):
    inst = make(n, n + 7)
    assert (inst._sums.dtype == np.int64) == (make is make_integer_instance)
    expected = definitional_tilde(inst.c).t
    for shadow in (
        reconstruct_tilde(ObservationOracle(inst))[0],
        execute_plan(ObservationOracle(inst), minimal_observation_plan(n)),
    ):
        assert shadow.t.dtype == object
        assert {type(v) for v in shadow.t.flat} == {Fraction}
        assert np.array_equal(shadow.t, expected)


def test_near_bound_reconstruction_is_exact():
    inst = _near_bound(28, seed=6)
    assert inst._sums.dtype == np.int64
    assert np.array_equal(reconstruct_tilde(ObservationOracle(inst))[0].t, definitional_tilde(inst.c).t)


def _fraction_array(n: int, seed: int) -> np.ndarray:
    rnd = random.Random(seed)
    numerators = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1, n):
            numerators[i][j] = numerators[j][i] = rnd.randint(-(2**70), 2**70)
    return quotients(numerators, rnd.randint(1, 3600))


@pytest.mark.parametrize("n", [4, 10, 28])
def test_pairing_sum_on_kept_numerators_is_the_fraction_sum(n, monkeypatch):
    f = _fraction_array(n, seed=n)
    assert isinstance(f, FractionArray) and f._integral is not None
    view = f.view(FractionArray)
    assert view._integral is None
    calls = []
    real_quotients = core.quotients

    def counting(*args):
        calls.append(args)
        return real_quotients(*args)

    monkeypatch.setattr(core, "quotients", counting)
    for p in _random_pairings(n, 10, seed=n + 1):
        expected = sum((f[a - 1][b - 1] for a, b in p), Fraction(0))
        kept = pairing_sum(f, p)
        assert type(kept) is Fraction and kept == expected
        assert len(calls) == 1  # divided once
        fallback = pairing_sum(view, p)
        assert type(fallback) is Fraction and fallback == expected
        assert len(calls) == 1  # the view adds its Fractions
        calls.clear()


def test_pairing_sum_on_kept_numerators_checks_the_shape():
    f = _fraction_array(6, seed=1)
    with pytest.raises(core.ValidationError, match="pairing covers 4 elements"):
        pairing_sum(f, Pairing([(1, 2), (3, 4)]))

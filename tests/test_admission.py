"""Every entry point that takes a matrix admits it through one gate.

`Instance`, `TildeMatrix`, `definitional_tilde`, `build_graph` and the three
solvers must refuse the same bad matrices with the same named error, whatever
the dtype, and those that take an element count must refuse one that is not
an int.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from pairing_tsp.core import Instance, Pairing, ValidationError
from pairing_tsp.core import total_compatibility
from pairing_tsp.observation import TildeMatrix, definitional_tilde
from pairing_tsp.solvers import SolverConfig, solve_p2opt, solve_pnn, solve_random
from pairing_tsp.tsp_graph import build_graph

from conftest import NON_FINITE_MATRICES, NON_INTEGER_COUNTS

#: Each entry point, given a 4x4 matrix and the element count it takes.
ENTRY_POINTS = {
    "Instance": lambda c, n=4: Instance(n=n, c=c, c_min=0, c_max=1),
    "TildeMatrix": lambda c, n=4: TildeMatrix(n=n, t=c),
    "definitional_tilde": lambda c: definitional_tilde(c),
    "build_graph": lambda c, n=4: build_graph(c, n),
    "solve_pnn": lambda c: solve_pnn(c, SolverConfig()),
    "solve_p2opt": lambda c: solve_p2opt(c, Pairing([(1, 2), (3, 4)]), SolverConfig()),
    "solve_random": lambda c: solve_random(4, 0, matrix=c),
}

#: The entry points that take an element count.
COUNTED = ("Instance", "TildeMatrix", "build_graph")


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("case", NON_FINITE_MATRICES)
def test_non_finite_entry_named(entry, case):
    matrix, message = NON_FINITE_MATRICES[case]
    with pytest.raises(ValidationError, match=message):
        ENTRY_POINTS[entry](matrix)


@pytest.mark.parametrize("entry", COUNTED)
@pytest.mark.parametrize("n", NON_INTEGER_COUNTS, ids=repr)
def test_non_integer_count_named(entry, n):
    with pytest.raises(ValidationError, match="element count must be even and >= 4"):
        ENTRY_POINTS[entry](np.zeros((4, 4)), n)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_float_beside_an_int_beyond_float_range_named(entry):
    # an object array holding a float computes in floating point, where
    # 2**1100 has no value
    c = np.zeros((4, 4), dtype=object)
    c[2, 3] = c[3, 2] = 2**1100
    np.fill_diagonal(c, 0.5)
    with pytest.raises(ValidationError, match="not finite as floats"):
        ENTRY_POINTS[entry](c)


@pytest.mark.parametrize("entry", COUNTED)
def test_numpy_count_kept_as_int(entry):
    assert type(ENTRY_POINTS[entry](np.zeros((4, 4)), np.int64(4)).n) is int


def test_object_floats_meet_the_float_overflow_rule():
    # Python floats in an object array compute in float64, so N/2 entries
    # of 1e308 would add up to inf
    with pytest.raises(ValidationError, match="overflow float64 in a pairing total of 3"):
        Instance(n=6, c=np.full((6, 6), 1e308, dtype=object), c_min=0, c_max=1e308)


def test_object_floats_shadow_meets_the_float_overflow_rule():
    t = np.full((6, 6), 1e308, dtype=object)
    t[0, :] = t[:, 0] = 0.0
    with pytest.raises(ValidationError, match="overflow float64 in a pairing total of 3"):
        TildeMatrix(n=6, t=t)


@pytest.mark.parametrize(
    "entry,c_max",
    [(Fraction(10000) + Fraction(1, 10**30), 10000.0), (2**53 + 1, float(2**53))],
    ids=["fraction", "int"],
)
def test_exact_entry_compared_exactly_with_a_float_bound(entry, c_max):
    # as floats both entries equal the bound; exactly, both exceed it
    c = np.zeros((4, 4), dtype=object)
    c[1, 2] = c[2, 1] = entry
    with pytest.raises(ValidationError, match=r"c\[2\]\[3\]=.* is outside"):
        Instance(n=4, c=c, c_min=0, c_max=c_max)


def test_int64_instance_is_stored_and_summed_as_float64():
    rng = np.random.default_rng(5)
    c = np.triu(rng.integers(0, 10001, (10, 10)), 1)
    c = c + c.T
    inst = Instance(n=10, c=c, c_min=0, c_max=10000)
    floats = Instance(n=10, c=c.astype(np.float64), c_min=0, c_max=10000)
    assert inst.c.dtype == np.float64 and inst._sums is inst.c
    assert inst.c.tobytes() == floats.c.tobytes()
    pairings = [Pairing.from_permutation(rng.permutation(10) + 1) for _ in range(20)]
    totals = [total_compatibility(inst, p) for p in pairings]
    assert [type(v) for v in totals] == [float] * 20
    assert np.array(totals).tobytes() == np.array(
        [total_compatibility(floats, p) for p in pairings]
    ).tobytes()

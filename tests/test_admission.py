"""Every entry point that takes a matrix admits it through one gate.

`Instance`, `TildeMatrix`, `definitional_tilde`, `build_graph` and the three
solvers must refuse the same bad matrices with the same named error, whatever
the dtype, and those that take an element count must refuse one that is not
an int.
"""

from __future__ import annotations

import numpy as np
import pytest

from pairing_tsp.core import Instance, Pairing, ValidationError
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

"""Each public record has one way to be built, and compares as it should.

`PairingTspGraph(n, c)` and `ObservationPlan(n)` are their own admission:
they refuse what `build_graph` and `minimal_observation_plan` refuse, with
the same message, and those factories only call them. `Instance` and
`PairingTspGraph` hold a matrix, so they compare and hash by identity, as
`TildeMatrix` does; two graphs of one n over different matrices are
unequal. A plan, which its n determines, compares and hashes by n. Every
call runs under `-W error`.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from pairing_tsp import (
    ObservationPlan,
    PairingTspGraph,
    ValidationError,
    build_graph,
    minimal_observation_plan,
)

from conftest import make_instance

pytestmark = pytest.mark.filterwarnings("error")


def _asymmetric() -> np.ndarray:
    """A 4x4 matrix whose (1, 2) entry reads 1 one way and 4 the other."""
    c = np.zeros((4, 4))
    c[0, 1], c[1, 0] = 1.0, 4.0
    return c


#: Each refused construction, with the exact message it raises.
REFUSED = {
    "graph count 'a'": (
        lambda: PairingTspGraph("a", None),
        "element count must be even and >= 4, got 'a'",
    ),
    "graph matrix None": (lambda: PairingTspGraph(4, None), "matrix is (), not square"),
    "graph asymmetric": (
        lambda: PairingTspGraph(4, _asymmetric()),
        "matrix is not symmetric at c[1][2]",
    ),
    "graph shape": (
        lambda: PairingTspGraph(6, np.zeros((4, 4))),
        "matrix shape (4, 4) does not match n=6",
    ),
    "plan count 5": (lambda: ObservationPlan(5), "element count must be even and >= 4, got 5"),
    "plan count 'a'": (
        lambda: ObservationPlan("a"),
        "element count must be even and >= 4, got 'a'",
    ),
    "plan count True": (
        lambda: ObservationPlan(True),
        "element count must be even and >= 4, got True",
    ),
}


class TestConstructorsAdmit:
    @pytest.mark.parametrize("case", REFUSED)
    def test_refused_by_name(self, case):
        build, message = REFUSED[case]
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_plan_takes_no_index_arrays(self):
        with pytest.raises(TypeError):
            ObservationPlan(4, None)

    def test_graph_keeps_the_admitted_matrix(self):
        graph = PairingTspGraph(np.int64(4), [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])
        assert type(graph.n) is int and graph.n == 4
        assert isinstance(graph.c, np.ndarray) and graph.c.shape == (4, 4)
        assert graph.edge_cost((1, 2), (1, 3)) == graph.edge_cost((1, 3), (1, 2)) == -4

    def test_plan_compares_by_count(self):
        plan = ObservationPlan(np.int64(6))
        assert type(plan.n) is int
        assert plan == minimal_observation_plan(6) != ObservationPlan(8)
        assert len({plan, ObservationPlan(6)}) == 1


class TestRecordEquality:
    @pytest.fixture
    def instances(self):
        return make_instance(6, seed=1), make_instance(6, seed=1)

    def test_instances_compare_by_identity(self, instances):
        a, b = instances
        assert a == a and not a != a
        assert a != b and not a == b

    def test_instances_hash(self, instances):
        a, b = instances
        assert hash(a) == hash(a)
        assert a in {a} and b not in {a}
        assert len({a, b}) == 2

    def test_graphs_compare_by_identity(self, instances):
        a, b = (build_graph(inst.c, 6) for inst in instances)
        assert a == a and not a != a
        assert a != b and not a == b

    def test_graphs_hash(self, instances):
        a, b = (build_graph(inst.c, 6) for inst in instances)
        assert hash(a) == hash(a)
        assert a in {a} and b not in {a}
        assert len({a, b}) == 2

    def test_graphs_of_one_n_over_different_matrices_unequal(self):
        zeros = PairingTspGraph(6, np.zeros((6, 6)))
        other = PairingTspGraph(6, make_instance(6, seed=2).c)
        assert zeros != other
        assert len({zeros, other}) == 2


"""Three-layer tour formulation of the pairing problem.

The graph's structure is one rule, written once: `_layers` gives each
layer's nodes (N in layers one and two, N/2 in layer three) and `_LINKS`
the linked layer pairs. Layer one is complete, each layer-one node is
linked only to its same-index twin in layer two, and layers two and three
are completely linked. `nodes`, `has_node`, `has_edge` (in O(1)),
`neighbors`, `edges`, `edge_count` and the tour check all read that rule
through `_Structure`, which needs only n: `pairing_from_tour` checks a tour
against it without any matrix. Links inside layer one cost the negated
compatibility and all others cost zero, so a closed tour's cost is the
negated total compatibility of the pairing read off its layer-one
adjacencies, and minimizing tour cost maximizes the pairing.

`PairingTspGraph(n, c)` is the one way to build a graph, and its one
admission: `c` must pass `checked_symmetric` for an `n` that passes
`checked_count`, and `build_graph` only calls it. Graphs compare and hash
by identity, as every record holding a matrix does.

The graph is deliberately not complete: a closed tour that visits every node
can neither take three consecutive layer-one steps nor bounce from layer
three through layer two straight back to layer three, which is exactly the
structural guarantee that tours and pairings correspond.

A node is admitted once, by `_node`: a pair of `core.integer`s becomes a
`GraphNode` of two Python ints, and anything else is a ValidationError that
names it. `Tour` admits each node it is given, and refuses an empty
sequence, so the tour check reads them as they are; `has_node`,
`has_edge`, `neighbors` and `edge_cost` admit their arguments. A graph or
tour argument passes `core.checked_type`: `validate_tour`,
`tour_from_pairing` and `Tour.cost` refuse a graph that is not a
`PairingTspGraph`, and `validate_tour` and `pairing_from_tour` a tour that
is not a `Tour`. A well-formed node outside the graph is not in it:
`has_node` and `has_edge` say False and `neighbors` gives [].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    InternalError,
    Pairing,
    ValidationError,
    _checked,
    checked_count,
    checked_pairing,
    checked_symmetric,
    checked_type,
    integer,
)


class GraphNode(NamedTuple):
    layer: int
    index: int

    @property
    def label(self) -> str:
        return f"L{self.layer}:{self.index}"


def _node(value) -> GraphNode:
    """`value` as a `GraphNode` of two Python ints: the one node admission. A
    node already in that form, as every node the graph gives out is, is
    returned as it is."""
    if type(value) is GraphNode and type(value.layer) is type(value.index) is int:
        return value
    return _checked("node", "a pair of integers", lambda v: GraphNode(*map(integer, v)), value)


@lru_cache(maxsize=8)
def _layers(n: int) -> dict[int, dict[GraphNode, None]]:
    """Each layer's nodes in index order, as dict keys: N, N and N/2 of them."""
    sizes = {1: n, 2: n, 3: n // 2}
    return {k: dict.fromkeys(GraphNode(k, i + 1) for i in range(s)) for k, s in sizes.items()}


#: The linked layer pairs: True where a link joins same-index twins only,
#: False where it joins every node of one layer to every node of the other.
_LINKS = {(1, 1): False, (1, 2): True, (2, 3): False}
#: `_LINKS` read in either direction.
_LINKED = {**_LINKS, **{(b, a): twin for (a, b), twin in _LINKS.items()}}


@dataclass(frozen=True, eq=False)
class _Structure:
    """The rule alone, for n elements: the nodes and which pairs are linked.
    The public methods admit their nodes; the private ones take admitted
    nodes."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "_layers", _layers(self.n))

    @property
    def node_count(self) -> int:
        return sum(map(len, self._layers.values()))

    def nodes(self) -> Iterator[GraphNode]:
        return chain.from_iterable(self._layers.values())

    def has_node(self, node) -> bool:
        return self._inside(_node(node))

    def has_edge(self, u, v) -> bool:
        return self._linked(_node(u), _node(v))

    def neighbors(self, u) -> list[GraphNode]:
        """The nodes linked to `u`, in `nodes()` order."""
        u = _node(u)
        return [v for layer in self._layers for v in self._partners(u, layer) if v != u]

    @property
    def edge_count(self) -> int:
        """Half the degree sum, since each edge has two ends."""
        return sum(len(self.neighbors(u)) for u in self.nodes()) // 2

    def _inside(self, node: GraphNode) -> bool:
        return node in self._layers.get(node.layer, ())

    def _linked(self, u: GraphNode, v: GraphNode) -> bool:
        return u != v and self._inside(v) and v in self._partners(u, v.layer)

    def _partners(self, u: GraphNode, layer: int):
        """The nodes of `layer` that `_LINKS` joins to u: its twin across a
        twin link, or the whole of `layer` (u itself too, when it is u's own
        layer) across a complete one. None if u is not in the graph."""
        twin = _LINKED.get((u.layer, layer))
        if twin is None or not self._inside(u):
            return ()
        return (GraphNode(layer, u.index),) if twin else self._layers[layer]


@dataclass(frozen=True, eq=False)
class PairingTspGraph(_Structure):
    """The layered graph; holds the compatibility matrix for edge costs.

    The constructor is the one admission: `c` must pass
    `checked_symmetric` for `n`, which must pass `checked_count`. An
    asymmetric matrix is refused, since `edge_cost` reads the entry in the
    direction travelled and a tour's cost would depend on its direction.
    Graphs compare and hash by identity, as records holding a matrix do.
    """

    c: np.ndarray

    def __post_init__(self):
        c, n, _ = checked_symmetric(self.c, self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        super().__post_init__()

    def _cost(self, u: GraphNode, v: GraphNode):
        if u.layer == v.layer == 1:
            return -self.c[u.index - 1][v.index - 1]
        return self.c.dtype.type(0)

    def edge_cost(self, u, v):
        """Cost of an existing edge; negated compatibility inside layer one."""
        u, v = _node(u), _node(v)
        if not self._linked(u, v):
            raise ValidationError(f"no edge between {u.label} and {v.label}")
        return self._cost(u, v)

    def edges(self) -> Iterator[tuple[GraphNode, GraphNode, float]]:
        """Every edge once, with its cost: link by link in `_LINKS` order,
        each node u of the link's first layer with its partners after u in
        `nodes()` order, which is the order in which nodes compare."""
        for a, b in _LINKS:
            for u in self._layers[a]:
                yield from ((u, v, self._cost(u, v)) for v in self._partners(u, b) if v > u)


def build_graph(matrix: np.ndarray, n: int) -> PairingTspGraph:
    """`PairingTspGraph(n, matrix)`: the layered graph over an n x n
    symmetric value matrix, admitted by the constructor."""
    return PairingTspGraph(n=n, c=matrix)


@dataclass(frozen=True)
class Tour:
    """A closed node sequence. Equality compares sequences as given, so a
    rotated or reflected tour is not equal to the original; compare
    `normalized()` tours to compare the closed cycles."""

    sequence: tuple[GraphNode, ...]

    def __init__(self, sequence):
        nodes = _checked("tour", "an iterable of graph nodes", iter, sequence)
        sequence = tuple(map(_node, nodes))
        if not sequence:
            raise ValidationError("tour must contain at least one node")
        object.__setattr__(self, "sequence", sequence)

    def __len__(self) -> int:
        return len(self.sequence)

    def normalized(self) -> "Tour":
        """Rotate to the smallest node and fix the direction for comparison."""
        seq = self.sequence
        pivot = seq.index(min(seq))
        rotated = seq[pivot:] + seq[:pivot]
        backward = (rotated[0],) + tuple(reversed(rotated[1:]))
        return Tour(min(rotated, backward))

    def cost(self, graph: PairingTspGraph):
        """Sum of edge costs along the closed sequence."""
        checked_type(graph, PairingTspGraph, "graph must be")
        total = graph.edge_cost(self.sequence[-1], self.sequence[0])
        for a, b in zip(self.sequence, self.sequence[1:]):
            total = total + graph.edge_cost(a, b)
        return total


def rhythm_tour(indices: list[int]) -> Tour:
    """The tour of 5N/2 - 1 node indices laid on the layers 1, 1, 2, 3, 2 by
    position mod 5 (two layer-one nodes, up to layer two, across layer
    three, back to layer two), closed on the layer-two twin of the first
    node."""
    seq = [GraphNode((1, 1, 2, 3, 2)[pos % 5], index) for pos, index in enumerate(indices)]
    return Tour(seq + [GraphNode(2, indices[0])])


@dataclass(frozen=True)
class TourVerdict:
    ok: bool
    reason: Optional[str] = None
    position: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


#: The layers of three consecutive visits that no tour may take, and why.
_FRAGMENTS = {
    (1, 1, 1): "three consecutive first-layer visits",
    (3, 2, 3): "second-layer node bridges two third-layer visits",
}


def validate_tour(graph: PairingTspGraph, tour: Tour) -> TourVerdict:
    """Check a tour against the layered-graph constraints.

    Rejections report the first violated constraint and the 0-based position
    in the sequence where it bites. Beyond node coverage and edge existence,
    the two forbidden fragments are re-checked explicitly: three consecutive
    layer-one visits, and a layer-three node reached again straight through
    layer two. Only the graph's rule is read, never its costs. A `graph`
    that is not a `PairingTspGraph`, or a `tour` that is not a `Tour`, is a
    ValidationError.
    """
    checked_type(graph, PairingTspGraph, "graph must be")
    return _verdict(graph, checked_type(tour, Tour, "tour must be").sequence)


def _verdict(graph: _Structure, seq: tuple[GraphNode, ...]) -> TourVerdict:
    """`validate_tour` of an admitted tour's nodes, against the rule alone."""
    m = len(seq)
    if m != graph.node_count:
        return TourVerdict(False, f"tour has {m} nodes, expected {graph.node_count}", None)
    seen = set()
    for pos, node in enumerate(seq):
        if not graph._inside(node):
            return TourVerdict(False, f"unknown node {node.label}", pos)
        if node in seen:
            return TourVerdict(False, f"node {node.label} visited twice", pos)
        seen.add(node)
    # all nodes exactly once follows: 5n/2 distinct valid nodes
    # the fragment rules are implied by edge existence plus Hamiltonicity,
    # but they are re-checked first and explicitly so violations are named
    layers = [node.layer for node in seq]
    for pos, visits in enumerate(zip(layers, layers[1:] + layers[:1], layers[2:] + layers[:2])):
        if visits in _FRAGMENTS:
            return TourVerdict(False, _FRAGMENTS[visits], pos)
    for pos, (a, b) in enumerate(zip(seq, seq[1:] + seq[:1])):
        if not graph._linked(a, b):
            return TourVerdict(False, f"no such edge: {a.label} to {b.label}", pos)
    return TourVerdict(True)


def pairing_from_tour(tour: Tour) -> Pairing:
    """Read the pairing off a valid tour's layer-one adjacencies, checking
    the tour against the rule for the N its length gives."""
    seq = checked_type(tour, Tour, "tour must be").sequence
    m = len(seq)
    if m % 5 != 0:
        raise ValidationError(f"tour length {m} is not a multiple of 5")
    n = checked_count(2 * m // 5)
    verdict = _verdict(_Structure(n), seq)
    if not verdict:
        raise ValidationError(f"invalid tour: {verdict.reason} (position {verdict.position})")
    pairs = [(a.index, b.index) for a, b in zip(seq, seq[1:] + seq[:1]) if a.layer == b.layer == 1]
    if len(pairs) != n // 2:
        raise InternalError(
            f"valid tour produced {len(pairs)} first-layer adjacencies, "
            f"expected {n // 2}"
        )
    return Pairing(pairs)


def tour_from_pairing(graph: PairingTspGraph, pairing: Pairing) -> Tour:
    """Canonical tour visiting the pairing's pairs in sorted order.

    Pair number k bridges through layer-three node k; the block for pair
    {i, j} runs L2:i, L1:i, L1:j, L2:j, L3:k, so each pair is entered
    through its first element's layer-two twin. The tour starts at the first
    block's L1:i, so that block's L2:i closes it.
    """
    checked_type(graph, PairingTspGraph, "graph must be")
    checked_pairing(pairing, graph.n)
    blocks = [v for k, (i, j) in enumerate(pairing.pairs, start=1) for v in (i, i, j, j, k)]
    tour = rhythm_tour(blocks[1:])
    verdict = validate_tour(graph, tour)
    if not verdict:
        raise InternalError(f"constructed tour failed validation: {verdict.reason}")
    return tour

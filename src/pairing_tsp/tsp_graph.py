"""Three-layer tour formulation of the pairing problem.

Layers one and two each hold N nodes, layer three N/2. Inside layer one every
pair of nodes is linked with cost equal to the negated compatibility; each
layer-one node is linked only to its same-index twin in layer two; layers two
and three are completely linked. All links outside layer one cost zero, so a
closed tour's cost is the negated total compatibility of the pairing read off
its layer-one adjacencies, and minimizing tour cost maximizes the pairing.

The graph is deliberately not complete: a closed tour that visits every node
can neither take three consecutive layer-one steps nor bounce from layer
three through layer two straight back to layer three, which is exactly the
structural guarantee that tours and pairings correspond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .core import (
    InternalError,
    Pairing,
    ValidationError,
    _check_symmetric_bounded,
    checked_entries,
)


class GraphNode(NamedTuple):
    layer: int
    index: int

    @property
    def label(self) -> str:
        return f"L{self.layer}:{self.index}"


@dataclass(frozen=True)
class PairingTspGraph:
    """The layered graph; holds the compatibility matrix for edge costs."""

    n: int
    c: np.ndarray

    @property
    def node_count(self) -> int:
        return 5 * self.n // 2

    def nodes(self) -> Iterator[GraphNode]:
        for i in range(1, self.n + 1):
            yield GraphNode(1, i)
        for i in range(1, self.n + 1):
            yield GraphNode(2, i)
        for k in range(1, self.n // 2 + 1):
            yield GraphNode(3, k)

    def has_node(self, node: GraphNode) -> bool:
        if node.layer in (1, 2):
            return 1 <= node.index <= self.n
        if node.layer == 3:
            return 1 <= node.index <= self.n // 2
        return False

    def has_edge(self, u: GraphNode, v: GraphNode) -> bool:
        if not (self.has_node(u) and self.has_node(v)) or u == v:
            return False
        layers = {u.layer, v.layer}
        if layers == {1}:
            return True
        if layers == {1, 2}:
            return u.index == v.index
        if layers == {2, 3}:
            return True
        return False

    def edge_cost(self, u: GraphNode, v: GraphNode):
        """Cost of an existing edge; negated compatibility inside layer one."""
        if not self.has_edge(u, v):
            raise ValidationError(f"no edge between {u.label} and {v.label}")
        if u.layer == 1 and v.layer == 1:
            return -self.c[u.index - 1][v.index - 1]
        return self.c.dtype.type(0)

    def neighbors(self, u: GraphNode) -> list[GraphNode]:
        if u.layer == 1:
            out = [GraphNode(1, i) for i in range(1, self.n + 1) if i != u.index]
            out.append(GraphNode(2, u.index))
            return out
        if u.layer == 2:
            out = [GraphNode(1, u.index)]
            out.extend(GraphNode(3, k) for k in range(1, self.n // 2 + 1))
            return out
        return [GraphNode(2, i) for i in range(1, self.n + 1)]

    def edges(self) -> Iterator[tuple[GraphNode, GraphNode, float]]:
        """Every edge once, in a deterministic order, with its cost."""
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                yield GraphNode(1, i), GraphNode(1, j), -self.c[i - 1][j - 1]
        for i in range(1, self.n + 1):
            yield GraphNode(1, i), GraphNode(2, i), self.c.dtype.type(0)
        for i in range(1, self.n + 1):
            for k in range(1, self.n // 2 + 1):
                yield GraphNode(2, i), GraphNode(3, k), self.c.dtype.type(0)

    @property
    def edge_count(self) -> int:
        n = self.n
        return n * (n - 1) // 2 + n + n * (n // 2)


def build_graph(matrix: np.ndarray, n: int) -> PairingTspGraph:
    """Assemble the layered graph over a symmetric n x n value matrix that
    passes `checked_entries`. An asymmetric matrix is refused: `edge_cost`
    reads the entry in the direction travelled, so a tour's cost would
    depend on its direction."""
    matrix, n, (numerators, _) = checked_entries(matrix, n)
    _check_symmetric_bounded(numerators, n)
    return PairingTspGraph(n=n, c=matrix)


@dataclass(frozen=True)
class Tour:
    """A closed node sequence. Equality compares sequences as given, so a
    rotated or reflected tour is not equal to the original; compare
    `normalized()` tours to compare the closed cycles."""

    sequence: tuple[GraphNode, ...]

    def __init__(self, sequence):
        object.__setattr__(self, "sequence", tuple(GraphNode(*node) for node in sequence))

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
    seq.append(GraphNode(2, indices[0]))
    return Tour(seq)


@dataclass(frozen=True)
class TourVerdict:
    ok: bool
    reason: Optional[str] = None
    position: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_tour(graph: PairingTspGraph, tour: Tour) -> TourVerdict:
    """Check a tour against the layered-graph constraints.

    Rejections report the first violated constraint and the 0-based position
    in the sequence where it bites. Beyond node coverage and edge existence,
    the two forbidden fragments are re-checked explicitly: three consecutive
    layer-one visits, and a layer-three node reached again straight through
    layer two.
    """
    n = graph.n
    seq = tour.sequence
    if len(seq) != 5 * n // 2:
        return TourVerdict(False, f"tour has {len(seq)} nodes, expected {5 * n // 2}", None)
    seen = set()
    for pos, node in enumerate(seq):
        if not graph.has_node(node):
            return TourVerdict(False, f"unknown node {node.label}", pos)
        if node in seen:
            return TourVerdict(False, f"node {node.label} visited twice", pos)
        seen.add(node)
    # all nodes exactly once follows: 5n/2 distinct valid nodes
    m = len(seq)
    # the fragment rules are implied by edge existence plus Hamiltonicity,
    # but they are re-checked first and explicitly so violations are named
    layers = [node.layer for node in seq]
    for pos in range(m):
        if layers[pos] == layers[(pos + 1) % m] == layers[(pos + 2) % m] == 1:
            return TourVerdict(False, "three consecutive first-layer visits", pos)
        if (
            layers[pos] == 3
            and layers[(pos + 1) % m] == 2
            and layers[(pos + 2) % m] == 3
        ):
            return TourVerdict(
                False, "second-layer node bridges two third-layer visits", pos
            )
    for pos in range(m):
        a, b = seq[pos], seq[(pos + 1) % m]
        if not graph.has_edge(a, b):
            return TourVerdict(False, f"no such edge: {a.label} to {b.label}", pos)
    return TourVerdict(True)


def _structural_graph(tour: Tour) -> PairingTspGraph:
    # a zero matrix carries the topology; costs are irrelevant for validity
    if len(tour.sequence) % 5 != 0:
        raise ValidationError(f"tour length {len(tour.sequence)} is not a multiple of 5")
    n = 2 * len(tour.sequence) // 5
    return build_graph(np.zeros((n, n)), n)


def pairing_from_tour(tour: Tour) -> Pairing:
    """Read the pairing off a valid tour's layer-one adjacencies."""
    graph = _structural_graph(tour)
    verdict = validate_tour(graph, tour)
    if not verdict:
        raise ValidationError(f"invalid tour: {verdict.reason} (position {verdict.position})")
    seq = tour.sequence
    m = len(seq)
    pairs = []
    for pos in range(m):
        a, b = seq[pos], seq[(pos + 1) % m]
        if a.layer == 1 and b.layer == 1:
            pairs.append((a.index, b.index))
    if len(pairs) != graph.n // 2:
        raise InternalError(
            f"valid tour produced {len(pairs)} first-layer adjacencies, "
            f"expected {graph.n // 2}"
        )
    return Pairing(pairs)


def tour_from_pairing(graph: PairingTspGraph, pairing: Pairing) -> Tour:
    """Canonical tour visiting the pairing's pairs in sorted order.

    Pair number k bridges through layer-three node k; the block for pair
    {i, j} runs L2:i, L1:i, L1:j, L2:j, L3:k, so each pair is entered
    through its first element's layer-two twin. The tour starts at the first
    block's L1:i, so that block's L2:i closes it.
    """
    if pairing.n != graph.n:
        raise ValidationError(
            f"pairing covers {pairing.n} elements but graph has {graph.n}"
        )
    blocks = [v for k, (i, j) in enumerate(pairing.pairs, start=1) for v in (i, i, j, j, k)]
    tour = rhythm_tour(blocks[1:])
    verdict = validate_tour(graph, tour)
    if not verdict:
        raise InternalError(f"constructed tour failed validation: {verdict.reason}")
    return tour

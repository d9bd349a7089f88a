"""Heuristics over the layered tour formulation, plus the random baseline.

The nearest-neighbor construction walks the three layers in the fixed
five-step rhythm (two first-layer nodes, up through layer two, across layer
three, back down), always choosing the unvisited partner of maximum
compatibility inside layer one and uniformly at random elsewhere. The 2-opt
style refinement scans ordered pairs of pairs round-robin, compares the two
possible rewirings against the current configuration, applies the best
strictly improving one, and restarts the scan, up to an exchange limit.

Both run equally well on a raw compatibility matrix or a reconstructed
shadow matrix: rewiring comparisons are exchange-rule differences, which the
shadow matrix preserves exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InternalError, Pairing, ValidationError, pairing_sum
from .tsp_graph import GraphNode, Tour, build_graph, validate_tour


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the solvers.

    `start_node` is the first-layer node the construction starts from
    (defaults to 1 when omitted); `exchange_limit` caps accepted rewirings,
    with None meaning run to convergence.
    """

    seed: int = 0
    start_node: Optional[int] = None
    exchange_limit: Optional[int] = 600


@dataclass(frozen=True)
class SolveResult:
    pairing: Pairing
    score: Optional[float]
    noc: int
    exchanges_used: int
    trace: Optional[tuple[int, ...]] = None
    tour: Optional[Tour] = None


def _check_solver_matrix(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape[1] != n:
        raise ValidationError(f"matrix must be square, got shape {matrix.shape}")
    if n % 2 != 0 or n < 4:
        raise ValidationError(f"element count must be even and >= 4, got {n}")
    return matrix, n


def solve_random(n: int, seed: int, matrix: Optional[np.ndarray] = None) -> SolveResult:
    """A uniformly random pairing: shuffle 1..n, pair adjacent entries.

    Every pairing corresponds to the same number of permutations, so the
    outcome is uniform over all (n-1)!! pairings. Score is filled in when a
    matrix is supplied.
    """
    if n % 2 != 0 or n < 4:
        raise ValidationError(f"element count must be even and >= 4, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(n) + 1
    pairing = Pairing.from_permutation(int(v) for v in order)
    score = pairing_sum(np.asarray(matrix), pairing) if matrix is not None else None
    return SolveResult(pairing=pairing, score=score, noc=0, exchanges_used=0)


def solve_pnn(matrix: np.ndarray, config: SolverConfig) -> SolveResult:
    """Nearest-neighbor tour construction on the layered graph.

    The salesman starts at `config.start_node` in layer one and the slot
    after the last is pinned to that node's layer-two twin, so the tour
    closes. Step t moves by t mod 5: (1) to the unvisited layer-one node of
    maximum compatibility, ties broken uniformly; (2) up to the current
    node's layer-two twin; (3) to a uniformly random unvisited layer-three
    node; (4) to a uniformly random unvisited layer-two node, which decides
    the next pair's lead element; (0) down to that node's layer-one twin.
    The layer-two and layer-three draws come from the same seeded generator
    as the tie-breaks, so a seed pins down the full trajectory. Runs in
    O(n^2). The finished tour is validated before returning.
    """
    matrix, n = _check_solver_matrix(matrix)
    start = 1 if config.start_node is None else config.start_node
    if not 1 <= start <= n:
        raise ValidationError(f"start node {start} is outside 1..{n}")
    rng = np.random.Generator(np.random.PCG64(config.seed))

    free_l1 = np.ones(n + 1, dtype=bool)  # 1-based; slot 0 unused
    free_l2 = np.ones(n + 1, dtype=bool)
    free_l3 = np.ones(n // 2 + 1, dtype=bool)
    free_l1[0] = free_l2[0] = free_l3[0] = False
    free_l1[start] = False
    free_l2[start] = False  # the preset closing slot is already taken

    def draw(candidates: np.ndarray) -> int:
        if len(candidates) == 1:
            return int(candidates[0])
        return int(rng.choice(candidates))

    def nearest_l1(s: int) -> int:
        candidates = np.flatnonzero(free_l1)
        values = matrix[s - 1][candidates - 1]
        return draw(candidates[values == values.max()])

    seq = [GraphNode(1, start)]
    pairs = []
    s = start
    total_moves = 5 * n // 2 - 2
    for t in range(1, total_moves + 1):
        step = t % 5
        if step == 1:
            partner = nearest_l1(s)
            free_l1[partner] = False
            pairs.append((s, partner))
            s = partner
            seq.append(GraphNode(1, s))
        elif step == 2:
            free_l2[s] = False
            seq.append(GraphNode(2, s))
        elif step == 3:
            k = draw(np.flatnonzero(free_l3))
            free_l3[k] = False
            seq.append(GraphNode(3, k))
        elif step == 4:
            s = draw(np.flatnonzero(free_l2))
            free_l2[s] = False
            seq.append(GraphNode(2, s))
        else:  # step == 0: forced descent to the layer-one twin
            if not free_l1[s]:
                raise InternalError(f"first-layer node {s} revisited during construction")
            free_l1[s] = False
            seq.append(GraphNode(1, s))
    seq.append(GraphNode(2, start))

    tour = Tour(seq)
    verdict = validate_tour(build_graph(matrix, n), tour)
    if not verdict:
        raise InternalError(f"construction produced an invalid tour: {verdict.reason}")
    pairing = Pairing(pairs)
    return SolveResult(
        pairing=pairing,
        score=pairing_sum(matrix, pairing),
        noc=0,
        exchanges_used=0,
        tour=tour,
    )


def solve_p2opt(matrix: np.ndarray, initial: Pairing, config: SolverConfig) -> SolveResult:
    """Round-robin two-pair rewiring until no strict improvement remains.

    For pair slots (i, j) the current value a is compared against the two
    rewirings b and c; the best one is applied only when it strictly beats a
    (b wins ties against c), the scan restarts from the beginning, and the
    loop stops after `exchange_limit` accepted rewirings or after one full
    clean scan. Every comparison counts toward `noc`, including the one that
    triggers an exchange; `trace` records the checks of each scan segment.
    """
    matrix, n = _check_solver_matrix(matrix)
    if initial.n != n:
        raise ValidationError(f"initial pairing covers {initial.n} elements, matrix has {n}")
    limit = config.exchange_limit
    if limit is not None and limit < 0:
        raise ValidationError(f"exchange limit must be >= 0, got {limit}")

    if limit == 0:
        return SolveResult(
            pairing=initial,
            score=pairing_sum(matrix, initial),
            noc=0,
            exchanges_used=0,
            trace=(),
        )

    c = matrix.tolist()
    # slot layout: pair k occupies slots 2k and 2k+1 (0-based elements)
    s = [e - 1 for pair in initial.pairs for e in pair]
    m = n // 2
    noc = 0
    exchanges = 0
    trace: list[int] = []
    while True:
        swapped = False
        segment = 0
        for i in range(m - 1):
            si, sj = 2 * i, 2 * i + 1
            for j in range(i + 1, m):
                ti, tj = 2 * j, 2 * j + 1
                a = c[s[si]][s[sj]] + c[s[ti]][s[tj]]
                b = c[s[si]][s[tj]] + c[s[ti]][s[sj]]
                d = c[s[si]][s[ti]] + c[s[tj]][s[sj]]
                segment += 1
                if b > a and b >= d:
                    s[sj], s[tj] = s[tj], s[sj]
                    swapped = True
                elif d > a:
                    s[sj], s[ti] = s[ti], s[sj]
                    swapped = True
                if swapped:
                    break
            if swapped:
                break
        noc += segment
        trace.append(segment)
        if not swapped:
            break
        exchanges += 1
        if limit is not None and exchanges >= limit:
            break
    pairing = Pairing((s[2 * k] + 1, s[2 * k + 1] + 1) for k in range(m))
    return SolveResult(
        pairing=pairing,
        score=pairing_sum(matrix, pairing),
        noc=noc,
        exchanges_used=exchanges,
        trace=tuple(trace),
    )


def solve_pnn_p2opt(matrix: np.ndarray, config: SolverConfig) -> SolveResult:
    """Construction followed by rewiring refinement; the usual pipeline."""
    constructed = solve_pnn(matrix, config)
    refined = solve_p2opt(matrix, constructed.pairing, config)
    return refined

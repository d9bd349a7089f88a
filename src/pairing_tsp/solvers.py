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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .core import (
    InternalError,
    Pairing,
    ValidationError,
    _checked,
    checked_count,
    checked_entries,
    checked_seed,
    integer,
    pairing_sum,
    seeded_rng,
)
from .tsp_graph import Tour, rhythm_tour


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the solvers.

    `start_node` is the first-layer node the construction starts from
    (defaults to 1 when omitted); `exchange_limit` caps accepted rewirings,
    with None meaning run to convergence. Both must be None or pass
    `core.integer`, so 2.5 or True is rejected rather than truncated, and
    the limit must not be negative. The seed must be a non-negative integer,
    whether or not the solver draws from it.
    """

    seed: int = 0
    start_node: Optional[int] = None
    exchange_limit: Optional[int] = 600

    def __post_init__(self):
        object.__setattr__(self, "seed", checked_seed(self.seed))
        for name in ("start_node", "exchange_limit"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _checked(name, "an integer or None", integer, value))
        if self.exchange_limit is not None and self.exchange_limit < 0:
            raise ValidationError(f"exchange_limit must be >= 0 or None, got {self.exchange_limit}")


@dataclass(frozen=True)
class SolveResult:
    pairing: Pairing
    score: Optional[float]
    noc: int
    exchanges_used: int
    trace: Optional[tuple[int, ...]] = None
    #: Node index at each of the construction's first 5N/2-1 tour positions
    #: (pnn only); the layer follows from the position.
    visits: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    @cached_property
    def tour(self) -> Optional[Tour]:
        """The constructed layered tour, built from `visits` when first read."""
        if self.visits is None:
            return None
        return rhythm_tour(self.visits.tolist())


def _built_pairing(pairs) -> Pairing:
    """The `Pairing` of pairs a solver built as a permutation of 1..n, put in
    canonical order without re-validating what construction guarantees."""
    return Pairing._from_canonical(tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs)))


def solve_random(n: int, seed: int, matrix: Optional[np.ndarray] = None) -> SolveResult:
    """A uniformly random pairing: shuffle 1..n, pair adjacent entries.

    Every pairing corresponds to the same number of permutations, so the
    outcome is uniform over all (n-1)!! pairings. Score is filled in when a
    matrix is supplied.
    """
    n = checked_count(n)
    rng = seeded_rng(seed)
    order = rng.permutation(n) + 1
    pairing = Pairing.from_permutation(int(v) for v in order)
    score = None if matrix is None else pairing_sum(checked_entries(matrix)[0], pairing)
    return SolveResult(pairing=pairing, score=score, noc=0, exchanges_used=0)


class _BlockDraws:
    """The bounded draws of a pnn walk, made in blocks of one numpy call.

    `bounds` lists every layer-three and layer-two draw bound in walk order;
    they do not depend on the data. `rng.integers(array)` draws each bound
    in turn and leaves the generator where as many `rng.integers(k)` calls
    would (a bound of 1 draws nothing), so `next` hands out the values of
    one block drawn ahead. A layer-one tie draws between two of them:
    `tie` restores the state saved before the block, replays the draws
    handed out so far, draws the tie and drops the rest of the block, so
    the values and the stream are those of one call per draw.
    """

    def __init__(self, rng: np.random.Generator, bounds: np.ndarray):
        self.rng = rng
        self.bounds = bounds
        self.pos = 0  # bounds handed out
        self.block: list[int] = []
        self.used = 0  # of the block
        self.saved = None

    def next(self) -> int:
        if self.used == len(self.block):
            self.saved = self.rng.bit_generator.state
            self.block, self.used = self.rng.integers(self.bounds[self.pos :]).tolist(), 0
        self.used += 1
        self.pos += 1
        return self.block[self.used - 1]

    def tie(self, k: int) -> int:
        if self.used < len(self.block):
            self.rng.bit_generator.state = self.saved
            if self.used:
                self.rng.integers(self.bounds[self.pos - self.used : self.pos])
            self.block, self.used = [], 0
        return int(self.rng.integers(k))


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
    as the tie-breaks, so a seed pins down the full trajectory; they are
    drawn in blocks (`_BlockDraws`), which gives the values and stream of
    one `rng.integers` call per draw. Step (1) reads the current node's row
    of a copy of the matrix in which every visited node's column is -inf,
    so its tie set, ascending, is one max, one == and one nonzero. Runs in
    O(n^2) and holds one n x n copy. The visited node
    indices are kept as an integer array; the `Tour` itself is built only
    when `result.tour` is read, and is valid by construction (the tests
    validate it against the layered graph).
    """
    # ties are found on integer numerators: a positive scale keeps every ==
    matrix, n, (numerators, _) = checked_entries(matrix)
    start = 1 if config.start_node is None else config.start_node
    if not 1 <= start <= n:
        raise ValidationError(f"start node {start} is outside 1..{n}")
    m = n // 2
    cycle = np.arange(m)
    # cycle c draws among m - c layer-three and then n - 2 - 2c layer-two
    # nodes; the last cycle ends at layer three
    bounds = np.column_stack([m - cycle, n - 2 - 2 * cycle]).ravel()[:-1]
    draws = _BlockDraws(seeded_rng(config.seed), bounds)

    free_l1 = np.ones(n + 1, dtype=bool)  # 1-based; slot 0 unused
    free_l1[0] = free_l1[start] = False
    # the rows with every visited node's column masked to -inf; s is visited
    # before its row is read, so the diagonal (where NaN or an infinity is
    # admitted) is never a candidate, and the finite maximum ties free nodes only
    rows = numerators.copy()
    rows[:, start - 1] = -np.inf
    # unvisited layer-two and layer-three nodes, ascending; the closing
    # layer-two slot of the start node is already taken
    free_l2 = [v for v in range(1, n + 1) if v != start]
    free_l3 = list(range(1, m + 1))

    visits = [start]
    pairs = []
    s = start
    for c in range(m):
        # (1) the best unvisited layer-one partner, (2) up to its twin
        row = rows[s - 1]
        ties = (row == np.maximum.reduce(row)).nonzero()[0]
        partner = int(ties[0] if len(ties) == 1 else ties[draws.tie(len(ties))]) + 1
        free_l1[partner] = False
        rows[:, partner - 1] = -np.inf
        pairs.append((s, partner))
        s = partner
        free_l2.remove(s)
        # (3) across to layer three, leaving s where it is
        visits += [s, s, free_l3.pop(draws.next())]
        if c == m - 1:
            break
        # (4) to a layer-two node, (0) forced descent to its layer-one twin
        s = free_l2.pop(draws.next())
        if not free_l1[s]:
            raise InternalError(f"first-layer node {s} revisited during construction")
        free_l1[s] = False
        rows[:, s - 1] = -np.inf
        visits += [s, s]

    pairing = _built_pairing(pairs)
    return SolveResult(
        pairing=pairing,
        score=pairing_sum(matrix, pairing),
        noc=0,
        exchanges_used=0,
        visits=np.array(visits, dtype=np.intp),
    )


#: Element-slot offsets, within a slot pair's four slots (x, y, u, v), of the
#: first and then the second terms of the three sums the rewiring compares:
#: a = c[x][y] + c[u][v], b = c[x][v] + c[u][y], d = c[x][u] + c[v][y].
_ROWS = np.array([0, 0, 0, 2, 2, 3])
_COLS = np.array([1, 3, 2, 3, 1, 1])


@lru_cache(maxsize=8)
def _slot_pairs(m: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Every slot pair in scan order, their term table, each slot's pairs.

    Built once per pair count m and shared, so the arrays are read-only.
    The k-th pair (i, j) of `np.triu_indices(m, 1)` is k-th in the tuple and
    owns column k of the (12, P) term table: of its element slots
    (2i, 2i+1, 2j, 2j+1), rows 0-5 hold those of the six terms' rows and
    rows 6-11 those of their columns plus n = 2m, where `solve_p2opt`'s
    `ends` keeps each slot's column. Row t of the third array holds the
    scan positions of the m-1 pairs that contain pair slot t.
    """
    i, j = np.triu_indices(m, 1)
    quads = np.stack([2 * i, 2 * i + 1, 2 * j, 2 * j + 1])
    terms = np.concatenate([quads[_ROWS], quads[_COLS] + 2 * m])
    position = np.zeros((m, m), dtype=np.intp)
    position[i, j] = position[j, i] = np.arange(len(i))
    touching = position[~np.eye(m, dtype=bool)].reshape(m, m - 1)
    for array in (terms, touching):
        array.setflags(write=False)
    return tuple(zip(i.tolist(), j.tolist())), terms, touching


def _outcomes(flat: np.ndarray, ends: np.ndarray, terms: np.ndarray):
    """Whether the slot pair of each column of `terms` improves, and whether
    `b` wins it.

    `ends` holds every slot's element times n, then every slot's element,
    so one gather and one add give the six terms' flat indices. The sums
    are the scalar rule's, term for term. The rule is "b wins when b > a and
    b >= d, else d wins when d > a"; the second array is read only where the
    first holds, and there max(b, d) > a makes `b >= d` that rule. No sum is
    NaN: admission refuses non-finite entries off the diagonal, and no term
    reads the diagonal.
    """
    at = ends.take(terms)
    t = flat.take(at[:6] + at[6:])
    a, b, d = t[:3] + t[3:]
    return np.maximum(b, d) > a, b >= d


def solve_p2opt(matrix: np.ndarray, initial: Pairing, config: SolverConfig) -> SolveResult:
    """Round-robin two-pair rewiring until no strict improvement remains.

    For pair slots (i, j) the current value a is compared against the two
    rewirings b and d; the best one is applied only when it strictly beats a
    (b wins ties against d), the scan restarts from the beginning, and the
    loop stops after `exchange_limit` accepted rewirings or after one full
    clean scan. Every comparison counts toward `noc`, including the one that
    triggers an exchange; `trace` records the checks of each scan segment.

    Whether a slot pair improves depends only on its four elements, so the
    outcomes of all slot pairs are held in a table in scan order, computed
    once; an exchange at (i, j) recomputes only the 2m-3 pairs touching slot
    i or j, in one pass of `_outcomes` over their columns of the term table.
    The restarted scan then ends at the table's first improving entry, so
    the first-improvement order, and every count, is that of the plain
    rescan. Float64 and exact object matrices take the same path.
    """
    # exact entries are compared as integer numerators, which a positive
    # common denominator leaves in the same order
    matrix, n, (numerators, _) = checked_entries(matrix)
    if not isinstance(initial, Pairing):
        raise ValidationError(f"initial must be a Pairing, got {type(initial).__name__}")
    if initial.n != n:
        raise ValidationError(f"initial pairing covers {initial.n} elements, matrix has {n}")
    flat = numerators.ravel()
    # slot layout: pair k occupies slots 2k and 2k+1 (0-based elements);
    # ends[t] is slot t's element times n and ends[n + t] the element itself
    slots = np.array([e - 1 for pair in initial.pairs for e in pair], dtype=np.intp)
    ends = np.concatenate([slots * n, slots])
    m = n // 2
    pairs, terms, touching = _slot_pairs(m)
    improves, b_wins = _outcomes(flat, ends, terms)
    exchanges = 0
    trace: list[int] = []
    # the limit is tested before each scan; None never equals a count
    while exchanges != config.exchange_limit:
        # the restarted scan checks every pair up to the first improving one
        first = int(improves.argmax())
        if not improves[first]:
            trace.append(len(pairs))
            break
        trace.append(first + 1)
        i, j = pairs[first]
        # b pairs x with v and u with y; d pairs x with u and v with y
        y, other = 2 * i + 1, 2 * j + (1 if b_wins[first] else 0)
        ends[y], ends[other] = ends[other], ends[y]
        ends[n + y], ends[n + other] = ends[n + other], ends[n + y]
        exchanges += 1
        # the shared pair (i, j) is listed twice and written twice
        stale = touching.take((i, j), 0).ravel()
        improves[stale], b_wins[stale] = _outcomes(flat, ends, terms.take(stale, 1))
    pairing = _built_pairing((ends[n:] + 1).reshape(m, 2).tolist())
    return SolveResult(
        pairing=pairing,
        score=pairing_sum(matrix, pairing),
        noc=sum(trace),
        exchanges_used=exchanges,
        trace=tuple(trace),
    )


def solve_pnn_p2opt(matrix: np.ndarray, config: SolverConfig) -> SolveResult:
    """Construction followed by rewiring refinement; the usual pipeline."""
    constructed = solve_pnn(matrix, config)
    refined = solve_p2opt(matrix, constructed.pairing, config)
    return refined

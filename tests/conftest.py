"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately do not reuse library code paths:
enumeration matches the largest element first (the library matches the
smallest), scoring is a nested loop, the rank check is a from-scratch
Gaussian elimination over fractions, two-pair rewiring is the plain scalar
rescan, and nearest-neighbor construction is the step loop with one
draw per call. They exist so library results are checked against something
that cannot share their bugs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from pairing_tsp.core import Instance, InternalError, Pairing, integral, pairing_sum, seeded_rng
from pairing_tsp.oracle import ObservationOracle


class RecordingOracle(ObservationOracle):
    """An oracle that records every accepted query as (canonical Pairing,
    value), in submission order. Every query passes through `observe_batch`,
    so overriding it alone sees them all; a rejected batch records nothing."""

    def __init__(self, instance: Instance):
        super().__init__(instance)
        self.queries: list[tuple[Pairing, object]] = []

    def observe_batch(self, rows, cols):
        totals = super().observe_batch(rows, cols)
        for r, c, value in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist(), totals.tolist()):
            self.queries.append((Pairing((a + 1, b + 1) for a, b in zip(r, c)), value))
        return totals

    @property
    def pairings(self) -> list[Pairing]:
        return [pairing for pairing, _ in self.queries]


def make_instance(n: int, seed: int, c_min: float = 0.0, c_max: float = 10000.0) -> Instance:
    rng = np.random.default_rng(seed)
    c = rng.uniform(c_min, c_max, (n, n))
    c = (c + c.T) / 2
    np.fill_diagonal(c, 0.0)
    return Instance(n=n, c=c, c_min=c_min, c_max=c_max)


def make_integer_instance(n: int, seed: int, lo: int = 0, hi: int = 10000) -> Instance:
    rng = np.random.default_rng(seed)
    raw = rng.integers(lo, hi + 1, (n, n))
    c = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            c[i][j] = int(raw[min(i, j)][max(i, j)])
        c[i][i] = 0
    return Instance(n=n, c=c, c_min=lo, c_max=hi)


def make_fraction_instance(n: int, seed: int, low: int = 0, high: int = 10000) -> Instance:
    """Entries numerator / denominator with numerators in [low, high) and
    denominators 1..9, so the shadow's common denominator is a real lcm."""
    rnd = random.Random(seed)
    c = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = c[j][i] = Fraction(rnd.randrange(low, high), rnd.randint(1, 9))
    return Instance(n=n, c=c, c_min=0, c_max=high)


def matrix_from_pairs(n: int, entries: dict[tuple[int, int], float]) -> np.ndarray:
    c = np.zeros((n, n))
    for (i, j), value in entries.items():
        c[i - 1][j - 1] = value
        c[j - 1][i - 1] = value
    return c


def reference_pairings(n: int) -> list[frozenset[frozenset[int]]]:
    """All pairings of 1..n, matching the largest element first."""
    def recurse(elements: tuple[int, ...]):
        if not elements:
            yield []
            return
        last = elements[-1]
        rest = elements[:-1]
        for pos in range(len(rest)):
            partner = rest[pos]
            remaining = rest[:pos] + rest[pos + 1 :]
            for tail in recurse(remaining):
                yield [(partner, last)] + tail

    return [
        frozenset(frozenset(p) for p in pairing)
        for pairing in recurse(tuple(range(1, n + 1)))
    ]


def reference_score(matrix: np.ndarray, pairs) -> float:
    total = 0.0
    for pair in pairs:
        i, j = sorted(pair)
        total += float(matrix[i - 1][j - 1])
    return total


def reference_p2opt(matrix: np.ndarray, initial: Pairing, limit) -> tuple:
    """Two-pair rewiring as a plain rescan from the first slot pair.

    The scalar loop the library's outcome table replaces: after every
    exchange the scan restarts at slot pair (0, 1). Returns (pairing, noc,
    exchanges, trace, score); the score is the library's `pairing_sum`, so
    a float result compares bit for bit.
    """
    if limit == 0:
        return initial, 0, 0, (), pairing_sum(matrix, initial)
    c = matrix.tolist()
    # slot layout: pair k occupies slots 2k and 2k+1 (0-based elements)
    s = [e - 1 for pair in initial.pairs for e in pair]
    m = len(s) // 2
    noc = 0
    exchanges = 0
    trace = []
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
    return pairing, noc, exchanges, tuple(trace), pairing_sum(matrix, pairing)


def reference_pnn(matrix: np.ndarray, config) -> tuple:
    """Nearest-neighbor construction as the plain step loop, one draw per call.

    The loop the library's block draws replace: every layer-two and
    layer-three step, and every layer-one tie of k > 1 nodes, makes its own
    `rng.integers(k)` call. Ties are found on numerators computed afresh from
    a plain copy of the matrix, never on numerators an array carries.
    Returns (pairing, visits, score); the score is the library's
    `pairing_sum`, so a float result compares bit for bit.
    """
    matrix = np.array(matrix)  # a plain copy, which carries no numerators
    n = matrix.shape[0]
    start = 1 if config.start_node is None else config.start_node
    rng = seeded_rng(config.seed)
    numerators = integral(matrix)[0]

    free_l1 = np.ones(n + 1, dtype=bool)  # 1-based; slot 0 unused
    free_l1[0] = free_l1[start] = False
    free_l2 = [v for v in range(1, n + 1) if v != start]
    free_l3 = list(range(1, n // 2 + 1))

    def pick(k: int) -> int:
        return 0 if k == 1 else int(rng.integers(k))

    visits = [start]
    pairs = []
    s = start
    total_moves = 5 * n // 2 - 2
    for t in range(1, total_moves + 1):
        step = t % 5
        if step == 1:
            candidates = np.flatnonzero(free_l1)
            values = numerators[s - 1][candidates - 1]
            ties = candidates[values == values.max()]
            partner = int(ties[pick(len(ties))])
            free_l1[partner] = False
            pairs.append((s, partner))
            s = partner
        elif step == 2:
            free_l2.remove(s)
        elif step == 4:
            s = free_l2.pop(pick(len(free_l2)))
        elif step == 0:
            if not free_l1[s]:
                raise InternalError(f"first-layer node {s} revisited during construction")
            free_l1[s] = False
        visits.append(free_l3.pop(pick(len(free_l3))) if step == 3 else s)

    pairing = Pairing(pairs)
    return pairing, visits, pairing_sum(matrix, pairing)


def reference_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by textbook Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    cols = len(work[0]) if work else 0
    rank = 0
    pivot_row = 0
    for col in range(cols):
        chosen = None
        for r in range(pivot_row, len(work)):
            if work[r][col] != 0:
                chosen = r
                break
        if chosen is None:
            continue
        work[pivot_row], work[chosen] = work[chosen], work[pivot_row]
        pivot = work[pivot_row][col]
        work[pivot_row] = [v / pivot for v in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


@pytest.fixture
def instance6() -> Instance:
    return make_instance(6, seed=1234)


@pytest.fixture
def instance8() -> Instance:
    return make_instance(8, seed=99)

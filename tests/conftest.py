"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately do not reuse library code paths:
enumeration matches the largest element first (the library matches the
smallest), scoring is a nested loop, the rank check is a from-scratch
Gaussian elimination over fractions, two-pair rewiring is the plain scalar
rescan, nearest-neighbor construction is the step loop with one draw per
call, the minimal plan's recovery sweep resolves one level at a time, an
exchange rule's two pairings are assembled pair by pair from sets, and a
pairing is canonicalized and checked by Python loops, not `pair_keys`. They
exist so library results are checked against something that cannot share
their bugs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pairing_tsp.core import (
    Instance,
    InternalError,
    Pairing,
    ValidationError,
    integral,
    pairing_sum,
    seeded_rng,
)
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


def _with_entry(fill, entry, dtype=None) -> np.ndarray:
    """A 4x4 matrix of `fill` with `entry` at (2, 3) and (3, 2), 1-based."""
    c = np.full((4, 4), fill, dtype=dtype)
    c[1][2] = c[2][1] = entry
    return c


#: Matrices that are symmetric with a zero first row and column, bounded by
#: [0, 1], but do not hold numbers, with the named error each must raise.
NON_NUMBER_MATRICES = {
    "bool": (_with_entry(False, True), "numbers, got dtype bool"),
    "str": (_with_entry("0", "1"), "numbers, got dtype <U1"),
    "complex": (_with_entry(0j, 1 + 0j), "numbers, got dtype complex128"),
    "object-bool": (_with_entry(0, True, object), "numbers, got True"),
    "object-str": (_with_entry(0, "1", object), "numbers, got '1'"),
}


def _zeros_but_34(value, dtype) -> np.ndarray:
    """A 4x4 zero matrix with `value` at (3, 4) and (4, 3), 1-based."""
    c = np.zeros((4, 4), dtype=dtype)
    c[2, 3] = c[3, 2] = value
    return c


#: Matrices, float64 and object, that are zero but for a non-finite entry at
#: (3, 4) and (4, 3), with the named error every entry point must raise.
NON_FINITE_MATRICES = {
    f"{kind} {value}": (_zeros_but_34(value, dtype), rf"c\[3\]\[4\]={value} is not finite")
    for kind, dtype in (("float64", np.float64), ("object", object))
    for value in (math.nan, math.inf, -math.inf)
}

#: Element counts that are not ints, which an entry point given a 4x4
#: matrix must refuse by name.
NON_INTEGER_COUNTS = (4.0, "4", True)


def matrix_from_pairs(n: int, entries: dict[tuple[int, int], float]) -> np.ndarray:
    c = np.zeros((n, n))
    for (i, j), value in entries.items():
        c[i - 1][j - 1] = value
        c[j - 1][i - 1] = value
    return c


def reference_completion(n: int, used) -> list[tuple[int, int]]:
    """The elements of 1..n outside `used`, paired in ascending adjacent order."""
    rest = sorted(set(range(1, n + 1)) - set(used))
    return [(rest[k], rest[k + 1]) for k in range(0, len(rest), 2)]


def reference_rule_pairings(n: int, i: int, j: int, k: int, l: int) -> tuple[Pairing, Pairing]:
    """The `before` pairing {i,j},{k,l} and the `after` pairing {i,k},{j,l}
    of exchange rule [i,j,k,l] (1-based ints), both completed by
    `reference_completion` of the other elements."""
    completion = reference_completion(n, {i, j, k, l})
    return Pairing([(i, j), (k, l)] + completion), Pairing([(i, k), (j, l)] + completion)


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


def reference_pairing(pairs) -> tuple[tuple[int, int], ...]:
    """The canonical pairs of a list of pairs, or the ValidationError naming
    its first offending element, by plain Python loops: sort each pair
    (refusing a self-pair), sort the pairs, then scan them for an element
    outside 1..n or seen before."""
    canonical = []
    for p in pairs:
        t = tuple(p)
        if len(t) != 2:
            raise ValidationError(f"pair {t} does not contain exactly two elements")
        for e in t:
            if isinstance(e, bool) or not isinstance(e, (int, np.integer)):
                raise ValidationError(f"element {e!r} is not an integer")
        a, b = sorted(int(e) for e in t)
        if a == b:
            raise ValidationError(f"element {a} is paired with itself")
        canonical.append((a, b))
    pairs = tuple(sorted(canonical))
    n = 2 * len(pairs)
    if n == 0:
        raise ValidationError("a pairing must contain at least one pair")
    seen = [False] * (n + 1)
    for p in pairs:
        for e in p:
            if not 1 <= e <= n:
                raise ValidationError(
                    f"element {e} is outside 1..{n} for a pairing of {n // 2} pairs"
                )
            if seen[e]:
                raise ValidationError(f"element {e} appears in more than one pair")
            seen[e] = True
    # full coverage follows: n slots, n distinct in-range elements
    return pairs


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


def reference_sweep(n: int, values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The minimal plan's recovery sweep, one level at a time.

    The loop `plan._sweep` replaces, kept as it was: same arguments, same
    returns, and the float operations whose order `plan._sweep` keeps.
    Returns the 1-based upper triangle t[i, j] (i < j) and the residuals of
    the T equations.
    """
    batch = values.shape[1:]
    t = np.zeros((n + 1, n + 1) + batch, values.dtype)
    zero_row = np.zeros((1,) + batch, values.dtype)
    # tau[k] = sum of u_l over levels above the k-th; tau[0] serves the base
    tau = np.concatenate([np.cumsum(u[::-1], axis=0)[::-1], zero_row])
    odd = np.arange(5, n, 2)
    t[odd, odd + 1] = u
    t[3, 4], t[2, 4], t[2, 3] = values[0] - tau[0], values[1] - tau[0], values[2] - tau[0]
    residuals = np.zeros(u.shape, values.dtype)
    pos = 3
    for k, level in enumerate(range(6, n + 1, 2)):
        a = np.arange(2, level - 1)
        adjacent = t[a[:-1], a[:-1] + 1]  # t[s, s+1] for s = 2..level-3
        even_prefix = np.concatenate([zero_row, np.cumsum(adjacent[0::2], axis=0)])
        odd_suffix = np.concatenate([np.cumsum(adjacent[1::2][::-1], axis=0)[::-1], zero_row])
        rest = even_prefix[(a - 2) // 2] + odd_suffix[(a - 1) // 2]
        rest[1::2] += t[a[1::2] - 1, a[1::2] + 1]
        rest += tau[k + 1]
        width = len(a)
        t[a, level - 1] = values[pos : pos + width] - rest
        t[a, level] = values[pos + width : pos + 2 * width] - rest
        pos += 2 * width
        residuals[k] = t[3, level - 1] + t[4, level] + odd_suffix[1] + tau[k + 1] - values[pos]
        pos += 1
    return t, residuals


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

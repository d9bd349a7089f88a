"""Recovering pairing-sum-equivalent compatibilities from sum-only queries.

Individual compatibilities are not identifiable from pairing totals; what is
identifiable is a shadow matrix with zero first row and column that preserves
the total of every pairing. The exchange rule

    [i,j,k,l] = (C[i][k] + C[j][l]) - (C[i][j] + C[k][l])

is the observable difference between two pairings that agree except for
rewiring {i,j},{k,l} into {i,k},{j,l}; two queries realize one rule. The
reconstruction below measures the rules [1,j,3,2] (row offsets along element
2), the rules [1,i,2,j] (column offsets), and one direct anchor observation,
then solves for the single remaining unknown. Observation cost is exactly
2(N-3) + (N-2)(N-3) + 1 queries, `observation_budget(N)`.

The reconstruction builds one table of every rule it measures, in query
order: the [1,j,3,2] rules for j = 4..N, then the [1,i,2,j] rules column by
column (3 <= i < j). Each rule is realized by its `after` pairing
{i,k},{j,l} and then its `before` pairing {i,j},{k,l}, both completed by the
ascending pairing of the other elements. `_rows` turns the table into index
arrays, never `Pairing` objects. The rows of several N-rule slices are
built in one `_rows` call, a block of at most `_BLOCK_ENDS` pair ends or
else one slice (from N = 128 on). The reconstruction submits its rows
through `ObservationOracle.observe_batch` one slice at a time, then observes
the anchor, so a batch never holds more than 2N pairings of N/2 pairs.

The rows depend on N alone, so up to N = 162 they are built once per N and
kept: `_schedule(n)` holds them within `_KEPT_BYTES` = 4 MB (0.49 MB at
N = 80, 0.97 MB at N = 100). A warm reconstruction then builds no rows at
all: about 2.9 ms against 3.8 ms at N = 80 and 6.0 against 7.0 ms at
N = 100 (2 CPUs, numpy 2.4). Larger N build and submit one block at a time
on every call. The oracle still checks every row it is given.

`_kept` is the one form a kept schedule takes, for both strategies: two
read-only (count, N/2) arrays of the narrowest unsigned dtype that holds
N - 1 (uint8 up to N = 256, uint16 beyond), filled block by block. The
kept reconstruction schedule and every minimal plan's rows, built level by
level through `_rows`, are held in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
import numpy as np

from .core import (
    Pairing,
    ValidationError,
    _admitted,
    _check_finite,
    _float_stage,
    checked_count,
    checked_element,
    checked_symmetric,
    checked_type,
    integral,
    quotient_sum,
    quotients,
    row_totals,
)
from .oracle import ObservationOracle


def exchange_rule_value(i: int, j: int, k: int, l: int, matrix: np.ndarray):
    """(m[i][k] + m[j][l]) - (m[i][j] + m[k][l]) for a symmetric matrix that
    passes `checked_entries` and four distinct rule indices that pass
    `checked_element`, else a ValidationError."""
    m = checked_symmetric(matrix)[0]
    i, j, k, l = (checked_element(e, len(m), "rule index") for e in (i, j, k, l))
    if len({i, j, k, l}) != 4:
        raise ValidationError(f"exchange rule needs four distinct indices, got {(i, j, k, l)}")
    return (m[i - 1][k - 1] + m[j - 1][l - 1]) - (m[i - 1][j - 1] + m[k - 1][l - 1])


@dataclass(frozen=True, init=False, eq=False)
class TildeMatrix:
    """Shadow compatibilities: zero first row/column, pairing sums preserved.

    A shadow keeps its `integral` pair (numerators over one denominator)
    for life. `TildeMatrix(n=..., t=...)` admits a given matrix, finite off
    the diagonal and symmetric with a zero first row and column, through
    the admission it shares with `Instance`, and keeps a read-only copy of
    it as `t` with the pair that admission computed (a `FractionArray` that
    keeps its numerators is kept as it is, with them). The shadows the
    library computes come from `_of_integral` as the pair alone, and `t` is
    built from it by `core.quotients` the first time it is read: an exact
    shadow's `t` is then a `FractionArray`, whose numerators `integral`
    returns as kept, and a float one's `t` is its numerators themselves.
    """

    n: int

    def __init__(self, n: int, t) -> None:
        t, n, pair, _ = _admitted(t, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "_integral", pair)

    @classmethod
    def _of_integral(cls, numerators: np.ndarray, denominator: int) -> "TildeMatrix":
        """The shadow numerators / denominator, trusted: the caller computed
        an (n, n) array with a zero first row and column."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", len(numerators))
        object.__setattr__(self, "_integral", (numerators, denominator))
        return self

    @cached_property
    def t(self) -> np.ndarray:
        return quotients(*self._integral)

    @property
    def free_entry_count(self) -> int:
        """Structurally free entries below the diagonal: (n-1)(n-2)/2."""
        return (self.n - 1) * (self.n - 2) // 2

    def total(self, pairing: Pairing):
        """Pairing total over the shadow matrix; equals the hidden total.
        It sums the numerators and divides once, so `t` is not built: a
        float, or an exact `Fraction` even when the entries are ints."""
        return quotient_sum(*self._integral, pairing)


@lru_cache(maxsize=8)
def _free_entries(n: int) -> np.ndarray:
    """(n, n) mask of a shadow's free entries (i, j), 0 < i < j, 0-based.
    Built once per n and shared, so it is read-only."""
    k = np.arange(n)
    upper = (0 < k[:, None]) & (k[:, None] < k)
    upper.setflags(write=False)
    return upper


def _mirrored(upper: np.ndarray, numerators: np.ndarray, denominator: int) -> TildeMatrix:
    """The shadow of `numerators` over `denominator`, row by row at the
    `upper` mask and mirrored below the diagonal; every other entry is zero.
    Every shadow the library computes is made here, and a float one that
    overflowed on the way is refused: an entry that is not finite."""
    n = len(upper)
    full = np.zeros((n, n), numerators.dtype)
    full[upper] = full.T[upper] = numerators
    full.setflags(write=False)  # kept for life, and shared by a float `t`
    _check_finite(full, "float64 overflowed: shadow entry t")
    return TildeMatrix._of_integral(full, denominator)


@_float_stage
def definitional_tilde(matrix: np.ndarray) -> TildeMatrix:
    """Shadow matrix computed directly from a known matrix (no oracle).

    Entry (i, j) with i, j >= 2 is
        C[i][j] - C[1][i] - C[1][j] + (2 / (N-2)) * sum_k C[1][k];
    row and column 1 are zero. Exact inputs produce exact fractions. The
    matrix must pass `checked_symmetric`, since only its upper triangle is
    read. The shadow is computed on the check's `integral` pair, so an
    exact matrix's entries are added as int numerators.
    """
    _, n, (numerators, denominator) = checked_symmetric(matrix)
    row1 = numerators[0]
    # the correction as a numerator over its denominator, so that integer
    # numerators give integer numerators; on floats the scale is 1
    correction, scale = integral(2 * row_totals(row1[None, 1:])[0], n - 2)
    upper = _free_entries(n)
    i, j = np.nonzero(upper)
    shadow = (numerators[i, j] - row1[i] - row1[j]) * scale + correction
    return _mirrored(upper, shadow, denominator * scale)


def anchor_pairing(n: int) -> Pairing:
    """The pairing {{1,2},{3,4},...,{N-1,N}}."""
    n = checked_count(n, 2)
    return Pairing._from_canonical(tuple((k, k + 1) for k in range(1, n, 2)))


def observation_budget(n: int) -> int:
    """Query count of the reconstruction: exactly what `reconstruct_tilde`
    spends. `n` must pass `checked_count`."""
    n = checked_count(n)
    return 2 * (n - 3) + (n - 2) * (n - 3) + 1


@lru_cache(maxsize=8)
def _grid(n: int) -> np.ndarray:
    """Read-only (M, n) view whose every row is 0..n-1. Its row stride is
    zero, so it holds one row whatever M is, and M is the most numpy allows:
    `_completion` compresses its first R rows for any R."""
    row = np.arange(n)
    return np.broadcast_to(row, (np.iinfo(np.intp).max // row.nbytes, n))


def _completion(n: int, fixed: np.ndarray) -> np.ndarray:
    """(R, n - F): per row, the elements of 0..n-1 outside the row's F distinct
    `fixed` ones, ascending, so consecutive entries pair them in ascending
    adjacent order.
    One (R, n) mask clears each row's fixed elements; compressing `_grid(n)`
    through it keeps the rest in order."""
    count = len(fixed)
    free = np.ones((count, n), dtype=bool)
    free[np.arange(count)[:, None], fixed] = False
    return _grid(n)[:count][free].reshape(count, n - fixed.shape[1])


@lru_cache(maxsize=8)
def _rule_table(n: int) -> np.ndarray:
    """(Q, 4): every rule the reconstruction measures, 1-based, in query
    order: [1,j,3,2] for j = 4..n, then [1,i,2,j] for each j and 3 <= i < j.
    Built once per n and shared, so it is read-only."""
    j, i = np.tril_indices(n + 1, k=-1)  # ordered by j, then i
    keep = i >= 3
    table = np.concatenate(
        [
            np.column_stack(np.broadcast_arrays(1, np.arange(4, n + 1), 3, 2)),
            np.column_stack(np.broadcast_arrays(1, i[keep], 2, j[keep])),
        ]
    )
    table.setflags(write=False)
    return table


#: The columns of a rule [i,j,k,l] that give, in `_rows` layout, the ends of
#: its `after` pairing {i,k},{j,l} and then those of its `before` {i,j},{k,l}.
_AFTER_BEFORE = np.array([[0, 2, 1, 3], [0, 1, 2, 3]])

#: Pair ends (rows and cols together) that one `_rows` block of the
#: reconstruction may hold, unless it is one slice: 2**15 intp ends are
#: 256 KB. A slice of N rules has 2N rows of N/2 pairs, 2N**2 ends, so from
#: N = 128 on a block is one slice.
_BLOCK_ENDS = 2**15


def _rows(n: int, fixed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of pairings made of fixed pairs plus a shared completion.

    `fixed` is an (R, V, 2F) array of 0-based ends: variant v of row r pairs
    `fixed[r, v, 2f]` with `fixed[r, v, 2f + 1]`, and the V variants of a
    row fix the same elements, so they share one `_completion` of the rest.
    Returns 0-based (R*V, N/2) rows and cols for
    `ObservationOracle.observe_batch`, row r's variants at r*V .. r*V + V-1;
    each row holds its fixed pairs first, then the completion's.
    """
    count, variants, width = fixed.shape
    pairs = width // 2
    rest = _completion(n, fixed[:, 0])
    rows = np.empty((count, variants, n // 2), dtype=np.intp)
    cols = np.empty_like(rows)
    rows[:, :, :pairs], cols[:, :, :pairs] = fixed[:, :, 0::2], fixed[:, :, 1::2]
    rows[:, :, pairs:], cols[:, :, pairs:] = rest[:, None, 0::2], rest[:, None, 1::2]
    return rows.reshape(-1, n // 2), cols.reshape(-1, n // 2)


#: The most bytes `_schedule` keeps for one n. Its rows and cols hold
#: about `observation_budget(n) * n` uint8 ends, so n <= 162 is kept.
_KEPT_BYTES = 2**22


def _built_blocks(n: int):
    """The reconstruction's rows and cols, one `_rows` block at a time: at
    most `_BLOCK_ENDS` pair ends, or else one N-rule slice, per block."""
    rules = _rule_table(n)
    block = n * max(1, _BLOCK_ENDS // (2 * n * n))  # rules per block
    for s in range(0, len(rules), block):
        yield _rows(n, rules[s : s + block, _AFTER_BEFORE] - 1)


def _kept(blocks, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The one kept form of a schedule: read-only (count, n/2) rows and cols
    of dtype `np.min_scalar_type(n - 1)`, uint8 up to n = 256 and uint16
    beyond, filled in order from `blocks` of (rows, cols) that hold count
    rows in all. No whole-schedule intp array is made here."""
    rows = np.empty((count, n // 2), np.min_scalar_type(n - 1))
    cols = np.empty_like(rows)
    end = 0
    for block_rows, block_cols in blocks:
        start, end = end, end + len(block_rows)
        rows[start:end], cols[start:end] = block_rows, block_cols
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=8)
def _schedule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The `_kept` rows and cols of every rule pairing the reconstruction
    submits, in query order, filled from `_built_blocks`: uint8, since
    `_blocks` keeps it only within `_KEPT_BYTES`. Built once per n and
    shared."""
    return _kept(_built_blocks(n), 2 * len(_rule_table(n)), n)


def _blocks(n: int):
    """The reconstruction's rows and cols in blocks of whole slices: the
    kept `_schedule(n)` as one block when it fits in `_KEPT_BYTES`, else
    `_built_blocks(n)` as they are built."""
    if observation_budget(n) * n <= _KEPT_BYTES:
        return [_schedule(n)]
    return _built_blocks(n)


@_float_stage
def reconstruct_tilde(oracle: ObservationOracle) -> tuple[TildeMatrix, int]:
    """Recover the shadow matrix from sum-only queries.

    Procedure: measure rules [1,j,3,2] for 4 <= j <= N, rules [1,i,2,j] for
    4 <= j <= N and 3 <= i < j, observe the anchor pairing, then express every
    entry as x plus a measured offset with x the (2,3) entry and solve for x
    from the anchor total. Queries go to the oracle in the N-rule slices of
    one rule table, built in blocks, as the module docstring describes. The
    query count is exactly ``observation_budget(n)``.

    Returns the shadow matrix and the number of oracle queries spent here.
    Arithmetic follows the oracle's value type: float instances reconstruct
    in floating point, integer or fractional instances reconstruct exactly.
    Anything but an `ObservationOracle` (or a subclass) is a ValidationError.
    """
    checked_type(oracle, ObservationOracle, "oracle must be")
    n = checked_count(oracle.n)
    start_count = oracle.query_count

    slice_rows = 2 * n
    values = np.concatenate(
        [
            oracle.observe_batch(rows[b : b + slice_rows], cols[b : b + slice_rows])
            for rows, cols in _blocks(n)
            for b in range(0, len(rows), slice_rows)
        ]
    )
    anchor_total = oracle.observe(anchor_pairing(n))
    spent = oracle.query_count - start_count
    # the rule values and the anchor total as numerators over one denominator
    measured, denominator = integral(np.append(values[0::2] - values[1::2], anchor_total))
    measured, anchor_total = measured[:-1], measured[-1]

    # offset[i, j] (1-based, 2 <= i < j) is entry (i, j) minus the unknown
    # x at (2, 3): the [1,j,3,2] rule, plus the [1,i,2,j] rule when i > 2
    row_offset = measured[: n - 3]
    offset = np.zeros((n + 1, n + 1), measured.dtype)
    offset[2, 4:] = row_offset
    _, i, _, j = _rule_table(n)[n - 3 :].T
    offset[i, j] = row_offset[j - 4] + measured[n - 3 :]

    # anchor total = (N/2 - 1) * x + sum of offsets over {3,4},{5,6},...
    k = np.arange(3, n, 2)
    offset_sum = row_totals(offset[k, k + 1][None])[0]
    # x as a numerator over its denominator, so every entry is a numerator too
    x, scale = integral(anchor_total - offset_sum, n // 2 - 1)
    upper = _free_entries(n)
    return _mirrored(upper, x + scale * offset[1:, 1:][upper], scale * denominator), spent

"""Sum-only observation interface over a hidden compatibility matrix.

The oracle is the only sanctioned way for the observation phase to touch an
instance: it answers total-compatibility queries for whole pairings, counts
every query, and never reveals individual entries. Counting includes
duplicate submissions; deduplication is deliberately left to callers so the
reconstruction algorithms own their own observation budgets.

Queries arrive one at a time (`observe`, a `Pairing`) or as a batch
(`observe_batch`): Q pairings given as two (Q, N/2) integer arrays of 0-based
elements, row q pairing rows[q, k] with cols[q, k], in any pair order and
either orientation. Every query passes through `observe_batch` (`observe` is
a one-row batch), so overriding that one method sees them all; the oracle
keeps no log of them. Rows go through `pair_keys`, and every row is checked
to be a perfect matching of 0..N-1 before the counter moves, so a bad batch
costs nothing. The check casts the ends to intp, takes each pair's smaller
end lo and larger end hi, range-checks them, and marks both ends of every
pair in one (Q*N) bool array: a row is a pairing exactly when it covers all
N of its slots. Each pair is then one key lo*N + hi; sorting a row's keys
puts its pairs in canonical order (i < j inside a pair, pairs sorted by first
element, which are distinct in a valid row), and the keys are the flat
indices of the pairs' entries, so the oracle gathers with them directly.
`core.row_totals` adds each row's entries left to right in canonical pair
order, the order `total_compatibility` adds in too, so a total is the same
value bit for bit whichever path computed it.
"""

from __future__ import annotations

import threading

import numpy as np

from .core import Instance, Pairing, ValidationError, row_totals


def pair_keys(rows, cols, n: int) -> np.ndarray:
    """Check (Q, n/2) pair-end arrays and return each row's sorted pair keys.

    Raises a ValidationError unless both arrays are integer, of one shape,
    n/2 wide, in 0..n-1, and every row pairs each element exactly once.
    Returns a (Q, n/2) intp array: per row, lo * n + hi for each pair's
    smaller end lo and larger end hi, ascending. A valid row's smaller ends
    are distinct, so this is canonical pair order, and the keys are the flat
    indices of the pairs' entries in an (n, n) matrix; `np.divmod(keys, n)`
    decodes them to the canonical (first, second) ends.
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    if rows.ndim != 2 or rows.shape != cols.shape:
        raise ValidationError(
            f"rows and cols must be two (Q, N/2) arrays of one shape, "
            f"got {rows.shape} and {cols.shape}"
        )
    if rows.shape[1] != n // 2:
        raise ValidationError(f"pairing covers {2 * rows.shape[1]} elements, oracle hides {n}")
    if not (np.issubdtype(rows.dtype, np.integer) and np.issubdtype(cols.dtype, np.integer)):
        raise ValidationError(f"pair elements must be integers, got {rows.dtype} and {cols.dtype}")
    # cast before any arithmetic, so lo * n + hi cannot overflow a narrow
    # dtype; an unsigned end beyond intp's range turns negative and fails below
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
    q = len(rows)
    if q and (lo.min() < 0 or hi.max() >= n):
        raise ValidationError(f"pair elements must lie in 0..{n - 1}")
    # a row has n slots, so it is a pairing exactly when its n ends cover
    # 0..n-1; a repeated element, a self-pair included, leaves one uncovered
    base = np.arange(0, q * n, n)[:, None]
    covered = np.zeros(q * n, dtype=bool)
    covered[base + lo] = True
    covered[base + hi] = True
    if not covered.all():
        row, e = np.argwhere(~covered.reshape(q, n))[0]
        raise ValidationError(f"row {row} is not a pairing: element {e} is not paired exactly once")
    keys = lo * n + hi
    # the library's rows arrive almost sorted (fixed pairs, then an ascending
    # completion), and the stable sort takes such runs whole; a valid row's
    # keys are distinct, so any sort gives the same result
    keys.sort(axis=1, kind="stable")
    return keys


class ObservationOracle:
    """Counts total-compatibility queries against a hidden instance.

    Answers are exact sums of the hidden entries, with no noise. The counter
    is guarded by a lock so benchmark workers may share one oracle.
    """

    def __init__(self, instance: Instance):
        self._hidden = instance
        self._lock = threading.Lock()
        self._count = 0

    @property
    def n(self) -> int:
        """Element count of the hidden instance (not a secret)."""
        return self._hidden.n

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._count

    def observe(self, pairing: Pairing):
        """Total compatibility of `pairing`; increments the query counter.

        Invalid pairings raise before the counter moves.
        """
        rows, cols = pairing._index_arrays
        return self.observe_batch(rows[None], cols[None]).tolist()[0]

    def observe_batch(self, rows, cols) -> np.ndarray:
        """Totals of the Q pairings in two (Q, N/2) arrays of 0-based elements.

        Counts Q queries. Every row is validated before the counter moves.
        Returns a float64 array for float instances and an object array of
        exact values for exact ones; value q equals `observe` on row q.
        """
        keys = pair_keys(rows, cols, self._hidden.n)
        totals = row_totals(self._hidden.c.ravel().take(keys))
        with self._lock:
            self._count += len(totals)
        return totals

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self._count = 0

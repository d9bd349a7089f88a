"""Sum-only observation interface over a hidden compatibility matrix.

The oracle is the only sanctioned way for the observation phase to touch an
instance: it answers total-compatibility queries for whole pairings, counts
every query, and never reveals individual entries. Counting includes
duplicate submissions; deduplication is deliberately left to callers so the
reconstruction algorithms own their own observation budgets.

Queries arrive one at a time (`observe`, a `Pairing`) or as a batch
(`observe_batch`): Q pairings given as two (Q, N/2) integer arrays of 0-based
elements, row q pairing rows[q, k] with cols[q, k], in any pair order and
either orientation. Both take one path. Every row is checked to be a perfect
matching of 0..N-1 before the counter moves, so a bad batch costs nothing;
each row is then summed in canonical pair order (i < j inside a pair, pairs
sorted by first element), left to right by `core.row_totals`, which is
exactly Python's `sum` over `Pairing.pairs` and `total_compatibility`, bit
for bit.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from .core import Instance, Pairing, ValidationError, pairings_from_canonical, row_totals


def canonical_pairs(rows, cols, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Check (Q, n/2) pair-end arrays and return them in canonical order.

    Raises a ValidationError unless both arrays are integer, of one shape,
    n/2 wide, in 0..n-1, and every row pairs each element exactly once.
    Returns (first, second): per row the smaller ends in ascending order and
    their partners.
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
    q = len(rows)
    if q and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise ValidationError(f"pair elements must lie in 0..{n - 1}")
    rows, cols = rows.astype(np.intp, copy=False), cols.astype(np.intp, copy=False)
    # partner[q*n + e] is e's partner in row q; -1 marks an element left
    # out, which every repeated element, a self-pair included, forces since
    # a row has n slots
    base = np.arange(0, q * n, n)[:, None]
    partner = np.full(q * n, -1, dtype=np.intp)
    partner[base + rows] = cols
    partner[base + cols] = rows
    unmatched = partner.reshape(q, n) < 0
    if unmatched.any():
        row, e = np.argwhere(unmatched)[0]
        raise ValidationError(f"row {row} is not a pairing: element {e} is not paired exactly once")
    first = np.sort(np.minimum(rows, cols), axis=1)
    return first, partner[base + first]


class ObservationOracle:
    """Counts total-compatibility queries against a hidden instance.

    Answers are exact sums of the hidden entries, with no noise. The counter
    (and optional query log) is guarded by a lock so benchmark workers may
    share one oracle.
    """

    def __init__(self, instance: Instance, *, log: bool = False):
        self._hidden = instance
        self._lock = threading.Lock()
        self._count = 0
        self._log: Optional[list[tuple[Pairing, float]]] = [] if log else None

    @property
    def n(self) -> int:
        """Element count of the hidden instance (not a secret)."""
        return self._hidden.n

    @property
    def query_count(self) -> int:
        with self._lock:
            return self._count

    @property
    def query_log(self) -> Optional[list[tuple[Pairing, float]]]:
        if self._log is None:
            return None
        with self._lock:
            return list(self._log)

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
        n = self._hidden.n
        first, second = canonical_pairs(rows, cols, n)
        totals = row_totals(self._hidden.c.ravel().take(first * n + second))
        with self._lock:
            self._count += len(totals)
            if self._log is not None:
                self._log.extend(zip(pairings_from_canonical(first, second), totals.tolist()))
        return totals

    def reset(self) -> None:
        """Zero the counter and clear the log."""
        with self._lock:
            self._count = 0
            if self._log is not None:
                self._log.clear()

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
a one-row batch), so overriding that one method sees them all; such an
override must widen narrow rows (the library's own rows are read-only uint8
up to N = 256 and uint16 beyond) before any arithmetic. The oracle keeps no
log of them. Every row passes `core.pair_keys`, the one check of a
pairing, before the counter moves, so a bad batch costs nothing; the oracle
gathers by the keys it returns, as `core.pairing_sum` does, from the array
the instance chose at admission to sum over (int64 for bounded Python-int
instances), and returns the totals in the instance's dtype.
"""

from __future__ import annotations

import threading

import numpy as np

from .core import Instance, Pairing, checked_pairing, checked_type, pair_keys, row_totals


class ObservationOracle:
    """Counts total-compatibility queries against a hidden instance.

    Answers are exact sums of the hidden entries, with no noise: an int
    instance's totals are added in int64 when admission found that exact,
    and come back as Python ints either way. The counter is guarded by a
    lock so benchmark workers may share one oracle.
    """

    def __init__(self, instance: Instance):
        self._hidden = checked_type(instance, Instance, "instance must be")
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
        """Total compatibility of a `Pairing` of n elements; counts one query."""
        checked_pairing(pairing, self.n, "observe takes")
        return self.observe_batch(*np.divmod(pairing._keys, pairing.n)).tolist()[0]

    def observe_batch(self, rows, cols) -> np.ndarray:
        """Totals of the Q pairings in two (Q, N/2) arrays of 0-based elements.

        Counts Q queries. Every row is validated before the counter moves.
        Returns a float64 array for float instances and an object array of
        exact values (Python ints or `Fraction`s) for exact ones; value q
        equals `observe` on row q.

        The library's own rows may arrive as read-only narrow arrays, uint8
        up to N = 256 and uint16 beyond (the reconstruction's kept schedule
        and every plan's rows), so an override must widen them, or take
        them `.tolist()`, before any arithmetic, as `pair_keys` does.
        """
        hidden = self._hidden
        keys = pair_keys(rows, cols, hidden.n)
        # summed over the instance's `_sums`, then given `c`'s dtype: an
        # int64 total becomes a Python int, and a float64 one is not copied
        totals = row_totals(hidden._sums.ravel().take(keys)).astype(hidden.c.dtype, copy=False)
        with self._lock:
            self._count += len(totals)
        return totals

    def reset(self) -> None:
        """Zero the counter."""
        with self._lock:
            self._count = 0

"""Minimum-size observation schedules and their execution.

(N-1)(N-2)/2 well-chosen pairings suffice to pin down the shadow matrix, and
no smaller schedule can. Each planned pairing is one side of an exchange
rule [i,j,k,l] (see `observation`), completed by the ascending pairing of
the other elements: the anchor {1,2},{3,4},...,{N-1,N}; the after sides of
the m + 2 rules whose before side is the anchor, [1,2,3,4], [1,2,4,3] and
[3,4,l-1,l] for each of the m levels l = 6, 8, ..., N; and both sides of
every rule [1,l,l-1,a], a = 2..l-2. That is 3 + sum over the levels of
2(l-3) + 1, (N-1)(N-2)/2 pairings in all. The schedule is inductive: the
three pairings of {1..4} seed the base, and each level l adds

    Y_a = {1,l}, {l-1,a}, the before side of [1,l,l-1,a],
    Z_a = {1,l-1}, {l,a}, its after side,
    T   = {3,l-1}, {4,l}, the after side of [3,4,l-1,l],

where the completion pairs {2..l-2} minus a (for T, {1,2} and then
{5..l-2}) ascending, on top of an ascending-adjacent tail of higher pairs.

Every shadow entry except the per-level unknowns u_l (the (l-1, l) entries)
is owned by exactly one Y or Z observation, and a Y/Z row refers only to
entries of lower levels, so given the u_l one bottom-up sweep resolves every
entry. The completion of {2..l-2} minus a is a prefix of the even-start pairs
(2,3), (4,5), ..., at most one bridging pair (a-1, a+1) and a suffix of the
odd-start pairs (3,4), (5,6), ..., whose entries past (3,4) are u_l. Only
the prefixes and bridges depend on lower levels, through each level's last
Y and Z entries, so after a short recurrence over those the sweep resolves
every level at once. Every row is built as index arrays by
`observation._rows` from rule sides that `observation._AFTER_BEFORE` picks,
as the reconstruction builds its own: the base as one row of three
variants, then one rule table per level (`_plan_blocks`), each block copied
into `observation._kept`, the one kept form of both schedules, as it is
built. `core.pair_keys` checks and orders the rows once, and the plan keeps
only the canonical rows, `_kept` again: uint8 up to N = 256, uint16 beyond.

Recovery is linear in the observations and the u_l, and the T equations'
coefficient matrix in the u_l is I + J (identity plus all-ones). Execution
therefore takes the T residuals r at u = 0 in closed form (a level's then
reads only its own Y_3, Z_4 and T observations and two base ones), solves
u = -r + sum(r) / (m + 1) (m levels), and sweeps once with that u. Plan
construction certifies, in integer arithmetic through the same sweep, that
the coefficient matrix is exactly I + J, which is nonsingular (determinant
m + 1) and makes the observation vectors full rank over the rationals.
`ObservationPlan(n)` is the one way to build a plan: it admits n, then
builds and certifies the schedule, and `minimal_observation_plan` only
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    InternalError,
    Pairing,
    ValidationError,
    _float_stage,
    checked_count,
    checked_type,
    integral,
    pair_keys,
    quotients,
)
from .oracle import ObservationOracle
from .observation import (TildeMatrix, _AFTER_BEFORE, _free_entries, _kept, _mirrored, _rows,
                          _rule_table)


class PlanRankError(InternalError):
    """The planned observations do not determine every shadow entry."""


def plan_size(n: int) -> int:
    """Minimum number of observations for n elements: (n-1)(n-2)/2. `n`
    must pass `checked_count`."""
    n = checked_count(n)
    return (n - 1) * (n - 2) // 2


def _plan_blocks(n: int):
    """0-based (rows, cols) blocks of the planned pairings from `_rows`, in
    order, each row one side of an exchange rule: the base, then each
    level's Y rows, Z rows and T row. The base is one row of three variants
    of {1..4}: the before side of [1,2,3,4] (the anchor), its after side and
    the after side of [1,2,4,3]. Level l is one table of the rules
    [1,l,l-1,a], a = 2..l-2, then [3,4,l-1,l]: Y_a and Z_a are the before
    and after sides of [1,l,l-1,a], and T is the after side of the last,
    whose before side, the anchor, is dropped."""
    base = np.array([[1, 2, 3, 4], [1, 2, 4, 3]])[:, _AFTER_BEFORE] - 1
    yield _rows(n, base[[0, 0, 1], [1, 0, 0]][None])  # the anchor, then two after sides
    for l in range(6, n + 1, 2):
        rules = np.column_stack(np.broadcast_arrays(1, l, l - 1, np.arange(2, l - 1)))
        rows, cols = _rows(n, np.vstack([rules, [3, 4, l - 1, l]])[:, _AFTER_BEFORE] - 1)
        yield rows[1:-1:2], cols[1:-1:2]  # the before sides but the last: Y_a
        yield rows[0::2], cols[0::2]  # the after sides: Z_a, then T


def _plan_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) of every planned pairing, in order, in `_kept` form."""
    return _kept(_plan_blocks(n), plan_size(n), n)


class _Gathers(NamedTuple):
    """Data-independent index arrays of `_sweep` for one n, read-only.

    Level k (l = 6 + 2k) has `width[k]` = 3 + 2k Y rows, for a = 2..l-2,
    starting at observation `first[k]` = 3 + 5k + 2k^2, then as many Z rows
    and one T row. The entry arrays run over every level's a in plan order.
    """

    first: np.ndarray  # per level: its first Y row
    width: np.ndarray  # per level: its Y (and Z) row count
    top: np.ndarray  # per level: where the suffix from index 1 sits in the suffix table
    toeplitz: np.ndarray  # (m, m+1): row k lists odd-start entries k, k-1, ..., 0, then a zero
    even: np.ndarray  # per entry: (a-2)//2, the even prefix a's completion takes
    suffix: np.ndarray  # per entry: the odd-start suffix from (a-1)//2 in the suffix table
    bridged: np.ndarray  # the entries with odd a, which take a bridge
    bridge: np.ndarray  # per bridged entry: (a-3)//2, so that bridge j is t[2j+2, 2j+4]
    tau: np.ndarray  # per entry: k + 1
    y_rows: np.ndarray  # per entry: its Y observation
    z_rows: np.ndarray  # per entry: its Z observation
    y_cells: np.ndarray  # per entry: the flat index of t[a, l-1]; t[a, l] is the next


@lru_cache(maxsize=8)
def _gathers(n: int) -> _Gathers:
    """`_Gathers` for n elements, built once per n and shared."""
    m = len(range(6, n + 1, 2))
    levels = np.arange(m)
    width = 3 + 2 * levels
    first = 3 + 5 * levels + 2 * levels**2
    k = np.repeat(levels, width)
    a = np.arange(len(k)) - np.repeat(np.cumsum(width) - width, width) + 2
    # the suffix table is (m, m+1), row k from `toeplitz[k]`, then one zero
    zero_slot = m * (m + 1)
    i = (a - 1) // 2
    bridged = np.flatnonzero(a % 2)
    j = np.arange(m + 1)
    y_rows = first[k] - 2 + a
    gathers = _Gathers(
        first=first,
        width=width,
        top=np.where(levels > 0, levels * (m + 2) - 1, zero_slot),
        toeplitz=np.where(j <= levels[:, None], levels[:, None] - j, m + 1),
        even=(a - 2) // 2,
        suffix=np.where(i <= k, k * (m + 2) - i, zero_slot),
        bridged=bridged,
        bridge=(a[bridged] - 3) // 2,
        tau=k + 1,
        y_rows=y_rows,
        z_rows=y_rows + width[k],
        y_cells=a * (n + 1) + 5 + 2 * k,  # column l - 1 = 5 + 2k
    )
    for array in gathers:
        array.setflags(write=False)
    return gathers


def _sweep(n: int, values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resolve every entry from the observations and given u_l, bottom up.

    `values` has one row per planned pairing and `u` one row per level; any
    trailing axes are independent right-hand sides. Returns the 1-based upper
    triangle t[i, j] (i < j) and the residuals of the T equations, which
    vanish exactly when `u` is the true one.

    Level l resolves t[a, l-1] = Y_a - rest(a) and t[a, l] = Z_a - rest(a)
    for a = 2..l-2, where rest(a) is the completion's total plus tau, the u
    of the levels above: the even-start prefix up to a, the odd-start suffix
    after a, the bridge t[a-1, a+1] for odd a, and tau, added in that order.
    The odd-start entries are t[3, 4] and the u, so every level's suffixes
    come from one cumsum over a Toeplitz gather of them. The even prefix and
    the bridges grow by each level's last Y and Z entries, a short recurrence
    over the levels; after it, every entry resolves at once. The float
    operations are those of resolving one level at a time, in the same
    order, so the bits are too.
    """
    g = _gathers(n)
    batch = values.shape[1:]
    m = len(u)
    t = np.zeros((n + 1, n + 1) + batch, values.dtype)
    zero_row = np.zeros((1,) + batch, values.dtype)
    # tau[k] = sum of u_l over levels above the k-th; tau[0] serves the base
    tau = np.concatenate([np.cumsum(u[::-1], axis=0)[::-1], zero_row])
    odd = np.arange(5, n, 2)
    t[odd, odd + 1] = u
    t[3, 4], t[2, 4], t[2, 3] = values[0] - tau[0], values[1] - tau[0], values[2] - tau[0]
    odd_start = np.concatenate([t[3:4, 4], t[odd, odd + 1], zero_row])
    suffixes = np.cumsum(odd_start[g.toeplitz], axis=1).reshape((m * (m + 1),) + batch)
    suffixes = np.concatenate([suffixes, zero_row])
    # even[j] sums the even-start entries t[s, s+1], s < 2j + 2, as a cumsum
    # would; bridge[j] = t[2j+2, 2j+4]. Level k's last a = l-2 has an empty
    # suffix and no bridge, and its Y and Z entries are the next terms.
    even = np.zeros((m + 2,) + batch, values.dtype)
    bridge = np.zeros((m + 1,) + batch, values.dtype)
    even[1], bridge[0] = t[2, 3], t[2, 4]
    last_y, last_z = values[g.first + g.width - 1], values[g.first + 2 * g.width - 1]
    for k in range(m):
        last = (even[k + 1] + zero_row[0]) + tau[k + 1]
        even[k + 2] = even[k + 1] + (last_y[k] - last)
        bridge[k + 1] = last_z[k] - last
    rest = even[g.even] + suffixes[g.suffix]
    rest[g.bridged] += bridge[g.bridge]
    rest += tau[g.tau]
    cells = t.reshape(((n + 1) ** 2,) + batch)
    cells[g.y_cells] = values[g.y_rows] - rest
    cells[g.y_cells + 1] = values[g.z_rows] - rest
    t_rows = values[g.first + 2 * g.width]
    residuals = t[3, 5:n:2] + t[4, 6 : n + 1 : 2] + suffixes[g.top] + tau[1:] - t_rows
    return t, residuals


def _zero_u_residuals(n: int, values: np.ndarray) -> np.ndarray:
    """The residuals of `_sweep(n, values, 0)`, bit for bit, without it.

    With u = 0 the odd-start suffixes from index 1 and tau are sums of
    zeros, so level l's residual reads only t[2,3] = v_2, t[2,4] = v_1 and
    the level's own Y_3, Z_4 and T observations: rest(3) = ((0 + 0) + t[2,4])
    + 0 and rest(4) = (t[2,3] + 0) + 0. The zero terms stay, in the sweep's
    order, since x + 0.0 turns -0.0 into +0.0.
    """
    g = _gathers(n)
    zero = np.zeros((1,) + values.shape[1:], values.dtype)
    t23, t24 = values[2] - zero, values[1] - zero
    rest3 = ((zero + zero) + t24) + zero
    rest4 = (t23 + zero) + zero
    y3, z4 = values[g.first + 1] - rest3, values[g.first + g.width + 2] - rest4
    return (((y3 + z4) + zero) + zero) - values[g.first + 2 * g.width]


def _recover_entries(n: int, values: Sequence) -> tuple[np.ndarray, int]:
    """Solve the plan's observation system for every shadow entry.

    `values` is parallel to the rows of `_plan_rows(n)`, optionally with trailing
    axes of independent right-hand sides, and its dtype sets the arithmetic:
    float64 in floating point, object (ints or Fractions) exactly, on the
    Python-int numerators of `integral`. The T residuals at u = 0 come in
    closed form, the level solve gives u, and one sweep with that u resolves
    every entry. Returns the 1-based upper triangle of the shadow matrix as
    (numerators, denominator); the denominator is 1 for floats, and the
    caller divides only the entries it keeps.
    """
    values, scale = integral(values)
    if len(values) != plan_size(n):
        raise InternalError(f"plan for n={n} needs {plan_size(n)} observations, got {len(values)}")
    m = len(range(6, n + 1, 2))
    r = _zero_u_residuals(n, values)
    # u = sum(r) / (m + 1) - r in units of 1/scale, as numerators over the
    # level solve's denominator; r * u_scale is exact, and r itself on floats
    mean, u_scale = integral(r.sum(axis=0), m + 1)
    t, _ = _sweep(n, values * u_scale, mean - r * u_scale)
    return t, scale * u_scale


def _t_coefficients(n: int) -> np.ndarray:
    """Integer coefficient matrix of the T equations in the u_l.

    Column k holds the residuals of a sweep with every observation 0 and u
    the k-th unit vector; the constant part is then 0, so the map is exact.
    """
    m = len(range(6, n + 1, 2))
    _, residuals = _sweep(n, np.zeros((plan_size(n), m), dtype=np.int64), np.eye(m, dtype=np.int64))
    return residuals


@dataclass(frozen=True)
class ObservationPlan:
    """A minimum-size observation schedule with its recovery recipe.

    `ObservationPlan(n)` is the one way to build a plan: `n` must pass
    `checked_count`, and the schedule is built and certified by
    `_certified_rows`. `_index_arrays` is the submission order as `_kept`
    canonical (size, n/2) arrays, read-only and narrow; `pairings`, derived
    from them, and `derivations` are computed on first access.
    `derivations` expresses the anchor total, then every exchange-rule value
    of the reconstruction in the order of its rule table
    (`observation._rule_table`), as a signed rational combination of the
    planned observations: rule [i,j,k,l] is (S[i,k] + S[j,l]) - (S[i,j] +
    S[k,l]) on the recovered shadow S. Plans compare and hash by `n`.
    """

    n: int
    _index_arrays: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = checked_count(self.n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_index_arrays", _certified_rows(n))

    @property
    def size(self) -> int:
        return len(self._index_arrays[0])

    @cached_property
    def pairings(self) -> tuple[Pairing, ...]:
        # widened first: in uint8, element index 255 plus 1 would wrap to 0
        first, second = (ends.astype(np.intp) + 1 for ends in self._index_arrays)
        shared = {}  # one tuple per distinct pair, held by every pairing that has it
        return tuple(
            Pairing._from_canonical(tuple(shared.setdefault(p, p) for p in zip(a, b)))
            for a, b in zip(first.tolist(), second.tolist())
        )

    @cached_property
    def derivations(self) -> dict[str, tuple[tuple[Fraction, int], ...]]:
        # recover once per observation slot: column s is the response to
        # observation s alone, so entry (i, j) is sum(t[i, j, s] * v_s)
        unit = np.zeros((self.size, self.size), object)
        np.fill_diagonal(unit, 1)
        t, scale = _recover_entries(self.n, unit)
        shadow = t + t.transpose(1, 0, 2)  # symmetric, with a zero first row
        rules = _rule_table(self.n)
        i, j, k, l = rules.T
        values = (shadow[i, k] + shadow[j, l]) - (shadow[i, j] + shadow[k, l])

        def combo(coefs: np.ndarray) -> tuple[tuple[Fraction, int], ...]:
            nonzero = np.flatnonzero(coefs != 0)
            return tuple(zip(quotients(coefs[nonzero], scale).tolist(), nonzero.tolist()))

        labels = ("[{},{},{},{}]".format(*rule) for rule in rules.tolist())
        # the anchor pairing is scheduled first, so its total is direct
        return {"anchor": ((Fraction(1), 0),), **dict(zip(labels, map(combo, values)))}


def _certified_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The `_kept` canonical 0-based (first, second) ends of a checked
    count's schedule of exactly (n-1)(n-2)/2 observations, certified.

    The certification checks that the T equations' coefficient matrix,
    computed in integers, is exactly I + J: nonsingular, and the system the
    closed-form level solve inverts. Only then are the rows built and the
    pairings checked to be distinct, so the int64 sweep of that check and
    the whole schedule's keys are never held at once.
    """
    coefficients = _t_coefficients(n)
    m = len(coefficients)
    if not np.array_equal(coefficients, np.eye(m, dtype=np.int64) + 1):
        raise PlanRankError(
            f"observation plan for n={n}: the T equations are not the nonsingular "
            f"I + J system the closed-form level solve inverts"
        )
    try:
        keys = pair_keys(*_plan_rows(n), n)
    except ValidationError as exc:
        raise InternalError(f"plan construction for n={n}: {exc}") from exc
    expected = plan_size(n)
    distinct = len({row.tobytes() for row in keys})
    if len(keys) != expected or distinct != expected:
        raise PlanRankError(
            f"plan construction for n={n} produced {len(keys)} pairings, "
            f"expected {expected} distinct"
        )
    return _kept([np.divmod(keys, n)], expected, n)


def minimal_observation_plan(n: int) -> ObservationPlan:
    """`ObservationPlan(n)`: a certified schedule of exactly (n-1)(n-2)/2
    observations."""
    return ObservationPlan(n)


@_float_stage
def execute_plan(oracle: ObservationOracle, plan: ObservationPlan) -> TildeMatrix:
    """Submit exactly the planned pairings, in order and as one batch, and
    recover the shadow matrix. An oracle that is not an `ObservationOracle`
    (or a subclass), or a plan that is not an `ObservationPlan`, is a
    ValidationError."""
    checked_type(oracle, ObservationOracle, "oracle must be")
    checked_type(plan, ObservationPlan, "plan must be")
    if plan.n != oracle.n:
        raise ValidationError(f"plan is for n={plan.n} but oracle hides n={oracle.n}")
    values = oracle.observe_batch(*plan._index_arrays)
    t, scale = _recover_entries(plan.n, values)
    upper = _free_entries(plan.n)
    return _mirrored(upper, t[1:, 1:][upper], scale)

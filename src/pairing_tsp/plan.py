"""Minimum-size observation schedules and their execution.

(N-1)(N-2)/2 well-chosen pairings suffice to pin down the shadow matrix, and
no smaller schedule can. The schedule built here is inductive: the three
pairings of {1..4} seed the base, and each level l = 6, 8, ..., N adds, on
top of an ascending-adjacent tail of higher pairs,

    Y_a = {1,l}, {a,l-1} plus the ascending completion of {2..l-2} minus a,
    Z_a = {1,l-1}, {a,l} plus the same completion,
    T   = {1,2}, {3,l-1}, {4,l} plus the ascending completion of {5..l-2}.

Every shadow entry except the per-level unknowns u_l (the (l-1, l) entries)
is owned by exactly one Y or Z observation, and a Y/Z row refers only to
entries of lower levels, so given the u_l one bottom-up sweep resolves every
entry. The completion of {2..l-2} minus a is a prefix of the even-start pairs
(2,3), (4,5), ..., at most one bridging pair (a-1, a+1) and a suffix of the
odd-start pairs, so a whole level costs a few array operations. The rows
are index arrays, fixed pairs plus the reconstruction's completion, checked
and ordered once by the oracle's `pair_keys`; the plan keeps only them.

Recovery is linear in the observations and the u_l, and the T equations'
coefficient matrix in the u_l is I + J (identity plus all-ones). Execution
therefore sweeps once with u = 0 to get the T residuals r, solves
u = -r + sum(r) / (m + 1) in closed form (m levels), and sweeps again with
that u. Plan construction certifies, in integer arithmetic, that the
coefficient matrix is exactly I + J, which is nonsingular (determinant m + 1)
and makes the observation vectors full rank over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import (
    InternalError,
    Pairing,
    ValidationError,
    checked_count,
    integral,
    pairings_from_canonical,
    quotients,
)
from .oracle import ObservationOracle, pair_keys
from .observation import TildeMatrix, _completion, _free_entries, _mirrored


class PlanRankError(InternalError):
    """The planned observations do not determine every shadow entry."""


def plan_size(n: int) -> int:
    """Minimum number of observations for n elements: (n-1)(n-2)/2."""
    return (n - 1) * (n - 2) // 2


def _plan_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based (rows, cols) of every planned pairing, in order: per block,
    fixed pairs (entries 2k, 2k+1 of a row) and then the completion."""
    blocks = [np.array([[0, 1]]), np.array([[0, 2, 1, 3], [0, 3, 1, 2]])]
    for top in range(5, n, 2):  # level l = top + 1
        yz = np.zeros((2, top - 2, 4), dtype=np.intp)
        yz[:, :, 2] = np.arange(1, top - 1)
        yz[0, :, 1] = yz[1, :, 3] = top  # Y_a = {1,l}, {a,l-1}
        yz[0, :, 3] = yz[1, :, 1] = top - 1  # Z_a = {1,l-1}, {a,l}
        blocks += [yz.reshape(-1, 4), np.array([[0, 1, 2, top - 1, 3, top]])]  # and T
    ends = np.concatenate([np.concatenate([f, _completion(n, f)], axis=1) for f in blocks])
    return ends[:, 0::2], ends[:, 1::2]


def _sweep(n: int, values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resolve every entry from the observations and given u_l, bottom up.

    `values` has one row per planned pairing and `u` one row per level; any
    trailing axes are independent right-hand sides. Returns the 1-based upper
    triangle t[i, j] (i < j) and the residuals of the T equations, which
    vanish exactly when `u` is the true one.
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


def _recover_entries(n: int, values: Sequence) -> tuple[np.ndarray, int]:
    """Solve the plan's observation system for every shadow entry.

    `values` is parallel to the rows of `_plan_rows(n)`, optionally with trailing
    axes of independent right-hand sides, and its dtype sets the arithmetic:
    float64 in floating point, object (ints or Fractions) exactly, on the
    Python-int numerators of `integral`. Returns the 1-based upper triangle
    of the shadow matrix as (numerators, denominator); the denominator is 1
    for floats, and the caller divides only the entries it keeps.
    """
    values, scale = integral(values)
    if len(values) != plan_size(n):
        raise InternalError(f"plan for n={n} needs {plan_size(n)} observations, got {len(values)}")
    m = len(range(6, n + 1, 2))
    _, r = _sweep(n, values, np.zeros((m,) + values.shape[1:], values.dtype))
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

    `_index_arrays` is the submission order as read-only canonical (size, n/2)
    arrays; `pairings`, derived from them, and `derivations` are computed on
    first access. `derivations` expresses every exchange-rule value of the
    reconstruction procedure, and the anchor total, as a signed rational
    combination of the planned observations.
    """

    n: int
    _index_arrays: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self._index_arrays[0])

    @cached_property
    def pairings(self) -> tuple[Pairing, ...]:
        return pairings_from_canonical(*self._index_arrays)

    @cached_property
    def derivations(self) -> dict[str, tuple[tuple[Fraction, int], ...]]:
        # recover once per observation slot: column s is the response to
        # observation s alone, so entry (i, j) is sum(t[i, j, s] * v_s)
        unit = np.zeros((self.size, self.size), object)
        np.fill_diagonal(unit, 1)
        t, scale = _recover_entries(self.n, unit)

        def combo(coefs: np.ndarray) -> tuple[tuple[Fraction, int], ...]:
            nonzero = np.flatnonzero(coefs != 0)
            return tuple(zip(quotients(coefs[nonzero], scale).tolist(), nonzero.tolist()))

        out: dict[str, tuple[tuple[Fraction, int], ...]] = {
            # the anchor pairing is scheduled first, so its total is direct
            "anchor": ((Fraction(1), 0),),
        }
        for j in range(4, self.n + 1):
            out[f"[1,{j},3,2]"] = combo(t[2, j] - t[2, 3])
        for j in range(4, self.n + 1):
            for i in range(3, j):
                out[f"[1,{i},2,{j}]"] = combo(t[i, j] - t[2, j])
        return out


def minimal_observation_plan(n: int) -> ObservationPlan:
    """Build and certify a schedule of exactly (n-1)(n-2)/2 observations.

    The certification checks that the pairings are distinct and that the
    T equations' coefficient matrix, computed in integers, is exactly I + J:
    nonsingular, and the system the closed-form level solve inverts.
    """
    n = checked_count(n)
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
    coefficients = _t_coefficients(n)
    m = len(coefficients)
    if not np.array_equal(coefficients, np.eye(m, dtype=np.int64) + 1):
        raise PlanRankError(
            f"observation plan for n={n}: the T equations are not the nonsingular "
            f"I + J system the closed-form level solve inverts"
        )
    first, second = np.divmod(keys, n)
    first.setflags(write=False)
    second.setflags(write=False)
    return ObservationPlan(n=n, _index_arrays=(first, second))


def execute_plan(oracle: ObservationOracle, plan: ObservationPlan) -> TildeMatrix:
    """Submit exactly the planned pairings, in order and as one batch, and
    recover the shadow matrix."""
    if plan.n != oracle.n:
        raise ValidationError(f"plan is for n={plan.n} but oracle hides n={oracle.n}")
    values = oracle.observe_batch(*plan._index_arrays)
    t, scale = _recover_entries(plan.n, values)
    upper = _free_entries(plan.n)
    return _mirrored(upper, t[1:, 1:][upper], scale)

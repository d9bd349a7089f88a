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
odd-start pairs, so a whole level costs a few array operations.

Recovery is linear in the observations and the u_l, and the T equations'
coefficient matrix in the u_l is I + J (identity plus all-ones). Execution
therefore sweeps once with u = 0 to get the T residuals r, solves
u = -r + sum(r) / (m + 1) in closed form (m levels), and sweeps again with
that u. Plan construction certifies, in integer arithmetic, that the
coefficient matrix is exactly I + J, which is nonsingular (determinant m + 1)
and makes the observation vectors full rank over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .core import InternalError, Pairing, ValidationError, divide, zeros
from .oracle import ObservationOracle
from .observation import TildeMatrix


class PlanRankError(InternalError):
    """The planned observations do not determine every shadow entry."""


def plan_size(n: int) -> int:
    """Minimum number of observations for n elements: (n-1)(n-2)/2."""
    return (n - 1) * (n - 2) // 2


def _plan_pairings(n: int) -> list[Pairing]:
    # canonical pairs assembled from shared adjacent pairs: even[s] is
    # (2s+2, 2s+3) and odd[s] is (2s+3, 2s+4), so each pairing only copies
    # references
    even = tuple((k, k + 1) for k in range(2, n, 2))
    odd = tuple((k, k + 1) for k in range(3, n, 2))
    make = Pairing._from_canonical
    out = [
        make(((1, 2),) + odd),
        make(((1, 3), (2, 4)) + odd[1:]),
        make(((1, 4), (2, 3)) + odd[1:]),
    ]
    for level in range(6, n + 1, 2):
        # the pairs above the level, and the odd-start pairs of 5..level-2
        tail = odd[(level - 2) // 2 :]
        middle = odd[1 : (level - 4) // 2]
        for high, low in ((level, level - 1), (level - 1, level)):
            for a in range(2, level - 1):
                # completion of {2..level-2} minus a: even-start pairs below
                # a, the bridge (a-1, a+1) for odd a, odd-start pairs above
                bridge = ((a - 1, a + 1),) if a % 2 else ()
                rest = odd[(a - 1) // 2 : (level - 4) // 2] + tail
                out.append(make(((1, high),) + even[: (a - 2) // 2] + bridge + ((a, low),) + rest))
        out.append(make(((1, 2), (3, level - 1), (4, level)) + middle + tail))
    return out


def _sweep(n: int, values: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Resolve every entry from the observations and given u_l, bottom up.

    `values` has one row per planned pairing and `u` one row per level; any
    trailing axes are independent right-hand sides. Returns the 1-based upper
    triangle t[i, j] (i < j) and the residuals of the T equations, which
    vanish exactly when `u` is the true one.
    """
    batch = values.shape[1:]
    t = zeros((n + 1, n + 1) + batch, values.dtype)
    zero_row = zeros((1,) + batch, values.dtype)
    # tau[k] = sum of u_l over levels above the k-th; tau[0] serves the base
    tau = np.concatenate([np.cumsum(u[::-1], axis=0)[::-1], zero_row])
    odd = np.arange(5, n, 2)
    t[odd, odd + 1] = u
    t[3, 4], t[2, 4], t[2, 3] = values[0] - tau[0], values[1] - tau[0], values[2] - tau[0]
    residuals = zeros(u.shape, values.dtype)
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


def _recover_entries(n: int, values: Sequence) -> np.ndarray:
    """Solve the plan's observation system for every shadow entry.

    `values` is parallel to `_plan_pairings(n)`, optionally with trailing
    axes of independent right-hand sides, and its dtype sets the arithmetic:
    float64 in floating point, object (ints or Fractions) exactly. Returns
    the 1-based upper triangle of the shadow matrix.
    """
    values = np.asarray(values)
    if len(values) != plan_size(n):
        raise InternalError(f"plan for n={n} needs {plan_size(n)} observations, got {len(values)}")
    m = len(range(6, n + 1, 2))
    _, r = _sweep(n, values, zeros((m,) + values.shape[1:], values.dtype))
    u = divide(r.sum(axis=0), m + 1) - r
    t, _ = _sweep(n, values, u)
    return t


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

    `pairings` is the exact submission order. `derivations` (computed on
    first access) expresses every exchange-rule value of the reconstruction
    procedure, and the anchor total, as a signed rational combination of the
    planned observations.
    """

    n: int
    pairings: tuple[Pairing, ...]

    @property
    def size(self) -> int:
        return len(self.pairings)

    @cached_property
    def _index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # (size, n/2) 0-based pair ends in submission order, for observe_batch
        flat = chain.from_iterable(chain.from_iterable(p.pairs for p in self.pairings))
        ends = np.fromiter(flat, dtype=np.intp, count=self.size * self.n) - 1
        return ends[0::2].reshape(self.size, -1), ends[1::2].reshape(self.size, -1)

    @cached_property
    def derivations(self) -> dict[str, tuple[tuple[Fraction, int], ...]]:
        # recover once per observation slot: column s is the response to
        # observation s alone, so entry (i, j) is sum(t[i, j, s] * v_s)
        unit = zeros((self.size, self.size), object)
        np.fill_diagonal(unit, Fraction(1))
        t = _recover_entries(self.n, unit)

        def combo(coefs: np.ndarray) -> tuple[tuple[Fraction, int], ...]:
            return tuple((coefs[idx], int(idx)) for idx in np.flatnonzero(coefs != 0))

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
    if n % 2 != 0 or n < 4:
        raise ValidationError(f"element count must be even and >= 4, got {n}")
    pairings = _plan_pairings(n)
    expected = plan_size(n)
    if len(pairings) != expected or len(set(pairings)) != expected:
        raise PlanRankError(
            f"plan construction for n={n} produced {len(pairings)} pairings, "
            f"expected {expected} distinct"
        )
    coefficients = _t_coefficients(n)
    m = len(coefficients)
    if not np.array_equal(coefficients, np.eye(m, dtype=np.int64) + 1):
        raise PlanRankError(
            f"observation plan for n={n}: the T equations are not the nonsingular "
            f"I + J system the closed-form level solve inverts"
        )
    return ObservationPlan(n=n, pairings=tuple(pairings))


def execute_plan(oracle: ObservationOracle, plan: ObservationPlan) -> TildeMatrix:
    """Submit exactly the planned pairings, in order and as one batch, and
    recover the shadow matrix."""
    if plan.n != oracle.n:
        raise ValidationError(f"plan is for n={plan.n} but oracle hides n={oracle.n}")
    values = oracle.observe_batch(*plan._index_arrays)
    upper = _recover_entries(plan.n, values)[1:, 1:]
    return TildeMatrix(n=plan.n, t=upper + upper.T)

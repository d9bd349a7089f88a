"""Domain types for the pairing problem: instances, pairings, exact scoring.

Elements are numbered 1..N (N even) in all public interfaces; internal numpy
indexing is 0-based and never leaks out. A pairing is a partition of {1..N}
into N/2 unordered pairs, and its score is the sum of the matrix entries it
selects. The exact enumeration oracle walks all (N-1)!! pairings and is the
ground truth every heuristic is measured against.

Arithmetic follows the matrix dtype: float64 computes in floating point, and
an object array of ints or `Fraction`s computes exactly. The exact hot paths
(plan recovery, the solvers' comparisons, the reconstruction's last step)
do not add `Fraction`s: `integral` turns an exact array into Python-int
numerators over one common denominator, the stage adds and compares those
ints, and `quotients` makes the result's `Fraction`s once, as a
`FractionArray` that keeps the numerators, so the next stage's `integral`
returns them without reading a `Fraction`. `integral` and `quotients` are
the only arithmetic in the pipeline that tells the two apart. `integral`
chooses: a float dtype, or an object array holding a Python float, is
float64 over 1; an integer dtype, or an object array of ints and
`Fraction`s, is Python-int numerators over their lcm denominator. An
optional divisor divides on the way in, so no stage divides by hand.
`quotients` is the only way back out.

Outside input is admitted by one rule each: `checked_count` for element
counts; `_checked` with the `integer` converter for every other integer (seeds,
limits, spec fields, numbers read from files) and with the `real` converter
for every real number read from a file or spec, both refusing bools and
strings; `checked_bounds` for a pair of value bounds (finite, c_min <= c_max),
exactly for ints and `Fraction`s and through `real` for the rest, and
`float_bounds` for a pair read from a file or spec, as floats;
`checked_matrix` for a matrix's shape (rectangular, square, an element count);
`_check_numbers` for a matrix's dtype and entries (numbers, never bools,
strings or complex); `checked_entries` for a matrix a solver reads (numbers,
finite off the diagonal); and `_check_symmetric_bounded` for the entries of
an instance or shadow. `frozen_matrix` admits the numbers and makes the one
dtype choice at admission: an `Instance` or `TildeMatrix` keeps an object
array and casts others to float64.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

#: Largest N the enumeration oracle accepts unless the caller raises the cap.
DEFAULT_ENUMERATION_CAP = 12


class ValidationError(ValueError):
    """Input violates a documented precondition (bad pairing, bad file, ...)."""


class InternalError(RuntimeError):
    """A self-check inside the library failed; never caused by user input."""


def double_factorial(n: int) -> int:
    """Product n * (n-2) * (n-4) * ...; by convention (-1)!! = 0!! = 1."""
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def integer(value) -> int:
    """`operator.index(value)`, refusing bools: JSON `true` is not a count."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def real(value) -> float:
    """`float(value)` for a real number, refusing bools and strings: JSON
    `true` or "1" is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a real number")
    return float(value)


def _checked(name: str, expected: str, convert, value):
    """convert(value), or a ValidationError naming the field it came from."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be {expected}, got {value!r}") from exc


def checked_count(n, minimum: int = 4) -> int:
    """`n` as an int if it is an even `integer` >= `minimum`, else a ValidationError."""
    expected = f"even and >= {minimum}"
    value = _checked("element count", expected, integer, n)
    if value % 2 != 0 or value < minimum:
        raise ValidationError(f"element count must be {expected}, got {value}")
    return value


def checked_bounds(c_min, c_max) -> None:
    """A ValidationError unless both bounds are finite reals with c_min <=
    c_max. Ints and `Fraction`s are always finite and are compared exactly,
    never through `float`, so an exact instance may declare bounds beyond
    float range; any other bound must pass `real`."""
    finite = True
    for name, value in (("c_min", c_min), ("c_max", c_max)):
        if isinstance(value, bool) or not isinstance(value, numbers.Rational):
            finite = math.isfinite(_checked(name, "a number", real, value)) and finite
    if not (finite and c_min <= c_max):
        raise ValidationError(
            f"bounds c_min={c_min}, c_max={c_max} must be finite with c_min <= c_max"
        )


def float_bounds(c_min, c_max) -> tuple[float, float]:
    """`checked_bounds` for numbers read from a file or spec, which compute
    in floating point: each bound must pass `real`, so a bound beyond float
    range is not a number there."""
    lo = _checked("c_min", "a number", real, c_min)
    hi = _checked("c_max", "a number", real, c_max)
    checked_bounds(c_min, c_max)
    return lo, hi


def checked_matrix(matrix, n: int | None = None) -> tuple[np.ndarray, int]:
    """`matrix` as an array and its element count, if it is a rectangular,
    square array of a valid count (n x n when `n` is given), else a
    ValidationError. Checks the shape only, never the entries."""
    if not isinstance(matrix, FractionArray):  # keep the numerators it carries
        try:
            matrix = np.asarray(matrix)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"matrix is not a rectangular array: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {matrix.shape}")
    if n is not None and matrix.shape[0] != n:
        raise ValidationError(f"matrix shape {matrix.shape} does not match n={n}")
    return matrix, checked_count(matrix.shape[0])


def pairing_count(n: int) -> int:
    """Number of distinct pairings of n elements, i.e. (n-1)!!."""
    return double_factorial(checked_count(n, 0) - 1)


class FractionArray(np.ndarray):
    """A read-only object array of `Fraction`s that keeps the (numerators,
    denominator) pair it was built from, as `integral` would compute it.

    Only `quotients` attaches the pair. Arrays derived from one (views,
    slices, copies, arithmetic results) are FractionArrays without it, so
    `integral` reads their `Fraction`s afresh. `np.asarray` drops the
    subclass, which is why `checked_matrix` and `integral` test for it first.
    """

    _integral: tuple[np.ndarray, int] | None = None

    def __array_finalize__(self, obj) -> None:
        self._integral = None


def quotients(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """numerators / denominator as a read-only array, for a pair as
    `integral` returns it; the only way back out of one.

    Float numerators divide in float64. Python-int numerators become a
    `FractionArray` that keeps the pair reduced by the gcd of the
    denominator and every numerator, which is exactly `integral`'s pair of
    the result: the same ints over the lcm of the entries' denominators.
    Each distinct value's `Fraction` is made once and shared.
    """
    if numerators.dtype != object:
        out = np.true_divide(numerators, denominator, dtype=np.float64)
        out.setflags(write=False)
        return out
    flat = numerators.ravel().tolist()
    common = math.gcd(denominator, *flat)
    if common > 1:
        denominator //= common
        flat = [v // common for v in flat]
    # fromiter stores each object as it is; assigning a list into an object
    # array would inspect every Fraction for an array interface
    kept = np.fromiter(flat, object, len(flat)).reshape(numerators.shape)
    kept.setflags(write=False)
    made = {v: Fraction(v, denominator) for v in set(flat)}
    base = np.fromiter(map(made.__getitem__, flat), object, len(flat))
    base.setflags(write=False)  # so the view below cannot be made writable
    out = base.reshape(numerators.shape).view(FractionArray)
    out._integral = (kept, denominator)
    return out


def integral(array, divisor: int = 1) -> tuple[np.ndarray, int]:
    """(numerators, denominator) with array / divisor == numerators /
    denominator, for a positive int `divisor`.

    This is where the arithmetic is chosen. A float dtype, or an object
    array with an entry that is not rational (a Python float), computes in
    floating point: it comes back as the float64 `array / divisor`, over 1.
    An integer dtype, or an object array of ints or Fractions, computes
    exactly: it becomes Python-int numerators over the least common
    denominator of its entries times `divisor`, so exact stages add and
    compare ints instead of Fractions; numerators are never narrowed, so
    they may exceed 2**63. A `FractionArray` from `quotients` returns the
    read-only numerators it keeps.
    """
    if isinstance(array, FractionArray) and array._integral is not None:
        numerators, denominator = array._integral
        return numerators, denominator * divisor
    array = np.asarray(array)
    if array.dtype.kind != "f":
        exact = array.astype(object, copy=False)  # an integer dtype as Python ints
        entries = exact.ravel().tolist()
        kinds = set(map(type, entries))
        if kinds <= {int}:  # Python ints are their own numerators
            return exact, divisor
        if all(issubclass(kind, numbers.Rational) for kind in kinds):
            denominator = math.lcm(*{v.denominator for v in entries})
            out = np.empty(len(entries), dtype=object)
            if denominator == 1:
                out[:] = [int(v.numerator) for v in entries]
            else:
                out[:] = [int(v.numerator) * (denominator // v.denominator) for v in entries]
            return out.reshape(array.shape), denominator * divisor
    floats = array.astype(np.float64, copy=False)  # Python floats in an object array too
    return (floats if divisor == 1 else floats / divisor), 1


def _check_numbers(matrix: np.ndarray) -> None:
    """A ValidationError unless `matrix` holds numbers: its dtype is an
    integer, float or object one, and an object array's entries are real
    numbers. Bools, strings and complex numbers are not, as a dtype or as
    entries."""
    if matrix.dtype.kind not in "iufO":
        raise ValidationError(f"matrix entries must be numbers, got dtype {matrix.dtype}")
    # a FractionArray with its numerators kept holds only the Fractions
    # `quotients` made, and `integral` does not read them
    kept = isinstance(matrix, FractionArray) and matrix._integral is not None
    if matrix.dtype == object and not kept:
        entries = matrix.ravel().tolist()
        bad = [v for v in entries if isinstance(v, bool) or not isinstance(v, numbers.Real)]
        if bad:
            raise ValidationError(f"matrix entries must be numbers, got {bad[0]!r}")


def checked_entries(matrix) -> tuple[np.ndarray, int, np.ndarray]:
    """`matrix`, its element count and its `integral` numerators, if it
    passes `checked_matrix` and `_check_numbers` and is finite off the
    diagonal, else a ValidationError naming the first fault. The diagonal
    is never read, so any number is admitted there."""
    matrix, n = checked_matrix(matrix)
    _check_numbers(matrix)
    numerators = integral(matrix)[0]
    if numerators.dtype != object and not np.isfinite(numerators).all():
        _check_finite(numerators, n)
    return matrix, n, numerators


def checked_seed(seed, name: str = "seed") -> int:
    """`seed` as an int if it is a non-negative `integer`, else a ValidationError naming it."""
    value = _checked(name, "a non-negative integer", integer, seed)
    if value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {seed!r}")
    return value


def seeded_rng(seed, salt: int = 0) -> np.random.Generator:
    """The PCG64 generator of `checked_seed(seed)` ^ `salt`."""
    return np.random.Generator(np.random.PCG64(checked_seed(seed) ^ salt))


@dataclass(frozen=True)
class Pairing:
    """A partition of {1..n} into unordered pairs, held in canonical form.

    Canonical form means i < j inside each pair and pairs sorted by their
    first element, so equality and hashing work structurally. Construction
    validates disjointness and full coverage and names the offending element
    on failure.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Iterable[int]]):
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
        object.__setattr__(self, "pairs", tuple(sorted(canonical)))
        self._validate()

    def _validate(self) -> None:
        n = 2 * len(self.pairs)
        if n == 0:
            raise ValidationError("a pairing must contain at least one pair")
        seen = [False] * (n + 1)
        for p in self.pairs:
            for e in p:
                if not 1 <= e <= n:
                    raise ValidationError(
                        f"element {e} is outside 1..{n} for a pairing of {n // 2} pairs"
                    )
                if seen[e]:
                    raise ValidationError(f"element {e} appears in more than one pair")
                seen[e] = True
        # full coverage follows: n slots, n distinct in-range elements

    @classmethod
    def from_permutation(cls, order: Iterable[int]) -> "Pairing":
        """Pair consecutive entries of a permutation of 1..n."""
        seq = list(order)
        if len(seq) % 2 != 0:
            raise ValidationError(f"permutation length {len(seq)} is odd")
        return cls(zip(seq[0::2], seq[1::2]))

    @classmethod
    def _from_canonical(cls, pairs: tuple[tuple[int, int], ...]) -> "Pairing":
        # trusted fast path for internally generated canonical pairs; the
        # observation loop constructs tens of thousands of these
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", pairs)
        return self

    @property
    def n(self) -> int:
        return 2 * len(self.pairs)

    @cached_property
    def _index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # 0-based gather indices, cached because pairings are immutable
        m = len(self.pairs)
        rows = np.fromiter((p[0] - 1 for p in self.pairs), dtype=np.intp, count=m)
        cols = np.fromiter((p[1] - 1 for p in self.pairs), dtype=np.intp, count=m)
        return rows, cols

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{{{i},{j}}}" for i, j in self.pairs) + "}"


def row_totals(entries: np.ndarray) -> np.ndarray:
    """Each row's sum of a (Q, M) array, added left to right; every pairing
    total goes through here, so it does not depend on the path.

    `.sum(axis=1)` adds along a contiguous row pairwise. Reducing over axis 0
    of the C-contiguous (M, Q) transpose instead adds one column into all Q
    accumulators at a time, so each row is folded left to right. With one
    row numpy would reduce that single column pairwise again, so Q < 2 takes
    the last column of `cumsum`.
    """
    if len(entries) < 2:
        return np.cumsum(entries, axis=1)[:, -1].copy()
    return np.add.reduce(np.ascontiguousarray(entries.T), axis=0)


def pairing_sum(matrix: np.ndarray, pairing: Pairing):
    """Sum of matrix[i][j] over the pairing's pairs (matrix is 0-based, full)."""
    if matrix.shape[0] != pairing.n:
        raise ValidationError(
            f"pairing covers {pairing.n} elements but matrix is "
            f"{matrix.shape[0]}x{matrix.shape[1]}"
        )
    rows, cols = pairing._index_arrays
    # as a Python scalar: a float, or an exact int or Fraction
    return row_totals(matrix[rows, cols][None]).tolist()[0]


def frozen_matrix(c, n: int) -> np.ndarray:
    """A read-only copy of the (n, n) matrix `c` of numbers (`_check_numbers`),
    so the caller's array stays writable: object (exact) arrays keep their
    dtype, others become float64."""
    c, _ = checked_matrix(c, n)
    _check_numbers(c)
    c = c.copy() if c.dtype == object else c.astype(np.float64)
    c.setflags(write=False)
    return c


def _check_finite(c: np.ndarray, n: int) -> None:
    """Name the first non-finite off-diagonal entry of a float (n, n) matrix."""
    k = np.arange(n)
    bad = np.argwhere(~np.isfinite(c) & (k[:, None] != k))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(f"c[{i + 1}][{j + 1}]={c[i][j]} is not finite")


def _check_symmetric_bounded(c: np.ndarray, n: int, c_min, c_max) -> None:
    """Name the first off-diagonal fault of a float or object (n, n) matrix:
    a non-finite float, then an asymmetry, then an entry outside [c_min, c_max]."""
    k = np.arange(n)
    lo, hi = c_min, c_max
    if c.dtype != object:
        _check_finite(c, n)
        # an exact bound beyond float range compares with every float as an infinity
        lo, hi = (
            (math.inf if b > 0 else -math.inf) if abs(b) > sys.float_info.max else b
            for b in (lo, hi)
        )
    upper = k[:, None] < k
    vals = c[upper]  # row by row, so the first fault found is the first named
    mism = np.flatnonzero(vals != c.T[upper])
    if len(mism):
        i, j = np.argwhere(upper)[mism[0]]
        raise ValidationError(f"matrix is not symmetric at c[{i + 1}][{j + 1}]")
    bad = np.flatnonzero(~((lo <= vals) & (vals <= hi)))
    if len(bad):
        i, j = np.argwhere(upper)[bad[0]]
        raise ValidationError(f"c[{i + 1}][{j + 1}]={c[i][j]} is outside [{c_min}, {c_max}]")


@dataclass(frozen=True)
class Instance:
    """A hidden symmetric compatibility matrix with declared value bounds.

    The diagonal is stored but never read; loaders accept any diagonal value.
    Entries are floats by default; an object array of ints / fractions keeps
    everything exact for the rational arithmetic mode used by the test suite.
    """

    n: int
    c: np.ndarray
    c_min: float
    c_max: float

    def __post_init__(self):
        object.__setattr__(self, "n", checked_count(self.n))
        c = frozen_matrix(self.c, self.n)
        checked_bounds(self.c_min, self.c_max)
        _check_symmetric_bounded(c, self.n, self.c_min, self.c_max)
        object.__setattr__(self, "c", c)

    def value(self, i: int, j: int):
        """Compatibility of elements i and j (1-based, i != j)."""
        if i == j:
            raise ValidationError("the diagonal carries no compatibility value")
        return self.c[i - 1][j - 1]


def total_compatibility(instance: Instance, pairing: Pairing):
    """Total compatibility of a pairing: the sum of its N/2 selected entries."""
    return pairing_sum(instance.c, pairing)


def enumerate_pairings(n: int, *, max_n: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Pairing]:
    """Yield every pairing of 1..n exactly once, in lexicographic order.

    The smallest unpaired element is always matched first, with partners in
    ascending order, which makes the stream lexicographic on canonical forms.
    Refuses n above `max_n` (pass a bigger cap explicitly to override): the
    stream has (n-1)!! entries and grows double-factorially.
    """
    n = checked_count(n, 2)
    if n > max_n:
        raise ValidationError(
            f"enumerating {n} elements means {pairing_count(n)} pairings; "
            f"pass max_n={n} explicitly to allow it"
        )

    def recurse(remaining: list[int], acc: list[tuple[int, int]]) -> Iterator[Pairing]:
        if not remaining:
            # acc is canonical by construction: ascending first elements
            yield Pairing._from_canonical(tuple(acc))
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            acc.append((first, remaining[idx]))
            yield from recurse(remaining[1:idx] + remaining[idx + 1 :], acc)
            acc.pop()

    yield from recurse(list(range(1, n + 1)), [])


def exact_best_pairing(
    instance: Instance, *, max_n: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Pairing, float]:
    """Argmax pairing by full enumeration; ties go to the canonically smallest.

    Comparison is exact on the stored representation, so integer and rational
    instances break ties deterministically.
    """
    best_pairing = None
    best_score = None
    for pairing in enumerate_pairings(instance.n, max_n=max_n):
        score = total_compatibility(instance, pairing)
        if best_score is None or score > best_score:
            best_pairing, best_score = pairing, score
    assert best_pairing is not None
    return best_pairing, best_score


# ---------------------------------------------------------------------------
# Instance files.
#
# Text format: header line "N C_MIN C_MAX", then the strict upper triangle of
# the matrix row by row (row i contributes N-i values), whitespace-separated.
# JSON format: {"n": ..., "c_min": ..., "c_max": ..., "upper_triangle": [...]}
# with the same row-by-row flattening.
# ---------------------------------------------------------------------------


def _instance_from_upper(n: int, c_min: float, c_max: float, values) -> Instance:
    n = checked_count(n)
    expected = n * (n - 1) // 2
    if len(values) != expected:
        raise ValidationError(
            f"expected {expected} upper-triangle values for n={n}, got {len(values)}"
        )
    c = np.zeros((n, n), dtype=np.float64)
    iu, ju = np.triu_indices(n, k=1)
    c[iu, ju] = values
    c[ju, iu] = values
    return Instance(n=n, c=c, c_min=c_min, c_max=c_max)


def loads_instance_text(text: str) -> Instance:
    tokens = text.split()
    if len(tokens) < 3:
        raise ValidationError("instance text needs a 'N C_MIN C_MAX' header")
    try:
        n = int(tokens[0])
        c_min, c_max = float(tokens[1]), float(tokens[2])
        values = [float(t) for t in tokens[3:]]
    except ValueError as exc:
        raise ValidationError(f"malformed number in instance file: {exc}") from exc
    return _instance_from_upper(n, c_min, c_max, values)


def loads_instance_json(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed instance JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("instance JSON must be an object")
    for key in ("n", "c_min", "c_max", "upper_triangle"):
        if key not in data:
            raise ValidationError(f"instance JSON is missing field '{key}'")
    upper = _checked("upper_triangle", "a list of numbers", list, data["upper_triangle"])
    return _instance_from_upper(
        _checked("n", "an integer", integer, data["n"]),
        *float_bounds(data["c_min"], data["c_max"]),
        [_checked("upper_triangle entry", "a number", real, v) for v in upper],
    )


def load_instance(path: str | Path) -> Instance:
    """Load an instance file, sniffing JSON vs text from the content."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return loads_instance_json(text)
    return loads_instance_text(text)


def dumps_instance_text(instance: Instance) -> str:
    lines = [f"{instance.n} {float(instance.c_min)!r} {float(instance.c_max)!r}"]
    for i in range(instance.n):
        row = instance.c[i, i + 1 :]
        if len(row):
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def instance_to_json_dict(instance: Instance) -> dict:
    upper: list[float] = []
    for i in range(instance.n):
        upper.extend(float(v) for v in instance.c[i, i + 1 :])
    return {
        "n": instance.n,
        "c_min": float(instance.c_min),
        "c_max": float(instance.c_max),
        "upper_triangle": upper,
    }


def dumps_instance_json(instance: Instance) -> str:
    return json.dumps(instance_to_json_dict(instance), sort_keys=True, indent=2) + "\n"

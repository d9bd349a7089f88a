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
exactly for ints and `Fraction`s and through `real` for the rest (`_finite`),
and `float_bounds` for a pair read from a file or spec, as floats. An
argument that must be a library object (an `Instance`, a `Pairing`, an
oracle, a plan, a graph, a tour, a config or a spec), or an instance's
text or path, has one rule, `checked_type`, which any subclass passes;
anything else is refused as "<refusal> a|an <Kind>, got <type>" in its
caller's words. An element number has one rule, `checked_element`: an
`integer` in 1..n, refused as "<name> must be an integer, got ..." or
"<name> <e> is outside 1..<n>". Every matrix passes one gate,
`checked_entries` (its count, shape, numbers, and finiteness off the
diagonal), which lists an object array's entries once.
Symmetry has one check, `_check_symmetric_bounded` (symmetry, then bounds,
and, when the numerators are float64, that no pairing total can overflow),
run on `integral`'s numerators, which a positive denominator leaves in the
same order. `checked_symmetric` runs it after the gate for a matrix given
without bounds. An `Instance` and a `TildeMatrix` share one admission,
`_admitted`: the gate; a read-only copy, where an object array stays object
and any other dtype becomes float64 before its `integral` pair is taken; an
instance's bounds, or a shadow's zero first row and column; the symmetry
check on the numerators, except that an instance's exact entries are
compared as themselves, to meet its bounds exactly; and what pairing totals
are summed over, an int64 copy of a matrix of Python ints small enough that
no pairing's partial sum can overflow, else the matrix itself. An instance's
totals come back in the matrix's own dtype, so an exact total is still a
Python int; a shadow keeps its pair and sums that. The float
stages whose result `_check_finite` refuses when it overflowed run under
one `np.errstate`, `_float_stage`.

A pairing has one check, `pair_keys`, which `Pairing` and the oracle's
`observe_batch` both call: a row of N/2 pairs is a pairing exactly when its
ends cover all N elements. It returns each pair as one key lo*N + hi (its
0-based smaller and larger end), sorted, which is canonical pair order and
the flat index of the pair's entry. Every pairing total gathers
`matrix.ravel().take(keys)` and adds left to right in `row_totals`, so a
total is the same value bit for bit whichever path computed it. A
`FractionArray` that keeps its numerators gathers those instead and
divides once (`quotient_sum`). A pairing given as an argument has one check,
`checked_pairing` (a `Pairing` of the matrix's, oracle's or graph's n
elements), and every pairing total passes it in `_gathered`.

An instance file's kind has one home, `_read_instance`: JSON when its text
starts with '{', else the text format.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
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
    """Product n * (n-2) * (n-4) * ... of an `integer` n; by convention
    (-1)!! = 0!! = 1."""
    n = _checked("n", "an integer", integer, n)
    return math.prod(range(n, 1, -2))


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


def checked_type(value, kind, refusal: str):
    """`value` if it is an instance of `kind`, a type or a tuple of types, so
    a subclass passes: the one check of a library-object argument. Anything
    else is a ValidationError "<refusal> a|an <Kind>, got <type>", where
    <Kind> names each type of a tuple, joined by "or"."""
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        article = "an" if names[0] in "AEIOU" else "a"
        raise ValidationError(f"{refusal} {article} {names}, got {type(value).__name__}")
    return value


def checked_element(value, n: int, name: str) -> int:
    """`value` as an int if it is an `integer` in 1..n: the one check of an
    element number, else a ValidationError naming it as `name`."""
    e = _checked(name, "an integer", integer, value)
    if not 1 <= e <= n:
        raise ValidationError(f"{name} {e} is outside 1..{n}")
    return e


def checked_count(n, minimum: int = 4) -> int:
    """`n` as an int if it is an even `integer` >= `minimum`, else a ValidationError."""
    expected = f"even and >= {minimum}"
    value = _checked("element count", expected, integer, n)
    if value % 2 != 0 or value < minimum:
        raise ValidationError(f"element count must be {expected}, got {value}")
    return value


def _finite(name: str, value) -> bool:
    """Whether a real number is finite, else a ValidationError naming it. An
    int or `Fraction` always is, and is never put through `float`, so it may
    lie beyond float range; any other value must pass `real`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Rational):
        return math.isfinite(_checked(name, "a number", real, value))
    return True


def checked_bounds(c_min, c_max) -> None:
    """A ValidationError unless both bounds are finite reals with c_min <=
    c_max, by `_finite`: ints and `Fraction`s are compared exactly, so an
    exact instance may declare bounds beyond float range."""
    finite = _finite("c_min", c_min) & _finite("c_max", c_max)
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


def _checked_width(c_min, c_max) -> None:
    """A ValidationError unless the width c_max - c_min of a value range is
    finite in float64, since every uniform draw from the range scales by it."""
    if not math.isfinite(float(c_max) - float(c_min)):
        raise ValidationError(
            f"value range [{c_min}, {c_max}] is too wide: max - min overflows float64"
        )


def pairing_count(n: int) -> int:
    """Number of distinct pairings of n elements, i.e. (n-1)!!."""
    return double_factorial(checked_count(n, 0) - 1)


class FractionArray(np.ndarray):
    """A read-only object array of `Fraction`s that keeps the (numerators,
    denominator) pair it was built from, as `integral` would compute it.

    Only `quotients` attaches the pair. Arrays derived from one (views,
    slices, copies, arithmetic results) are FractionArrays without it, so
    `integral` reads their `Fraction`s afresh. `np.asarray` drops the
    subclass, which is why `checked_entries` and `integral` test for it first.
    """

    _integral: tuple[np.ndarray, int] | None = None

    def __array_finalize__(self, obj) -> None:
        self._integral = None


def quotients(numerators: np.ndarray, denominator: int) -> np.ndarray:
    """numerators / denominator as a read-only array, for a pair as
    `integral` returns it; the only way back out of one.

    Float numerators divide in float64; read-only float64 ones over 1 are
    returned as they are, since x / 1 is x. Python-int numerators become a
    `FractionArray` that keeps the pair reduced by the gcd of the
    denominator and every numerator, which is exactly `integral`'s pair of
    the result: the same ints over the lcm of the entries' denominators.
    Each distinct value's `Fraction` is made once and shared.
    """
    if numerators.dtype != object:
        if denominator != 1 or numerators.flags.writeable or numerators.dtype != np.float64:
            numerators = np.true_divide(numerators, denominator, dtype=np.float64)
            numerators.setflags(write=False)
        return numerators
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
    if array.dtype.kind == "f":
        floats = array.astype(np.float64, copy=False)
        return (floats if divisor == 1 else floats / divisor), 1
    exact = array.astype(object, copy=False)  # an integer dtype as Python ints
    entries = exact.ravel().tolist()
    return _listed_integral(exact, entries, set(map(type, entries)), divisor)


def _listed_integral(array: np.ndarray, entries: list, kinds: set, divisor: int = 1):
    """`integral` of an object array whose entries, and their distinct
    types, the caller listed."""
    if kinds <= {int}:  # Python ints are their own numerators
        return array, divisor
    if all(issubclass(kind, numbers.Rational) for kind in kinds):
        denominator = math.lcm(*{v.denominator for v in entries})
        scaled = (int(v.numerator) * (denominator // v.denominator) for v in entries)
        return np.fromiter(scaled, object, len(entries)).reshape(array.shape), denominator * divisor
    return integral(array.astype(np.float64), divisor)  # a Python float among the entries


def _gate(matrix, n, store: bool = False) -> tuple[np.ndarray, int, tuple, tuple | None]:
    """`checked_entries`, returning also an object array's entries and their
    distinct types, listed once for both its type scan and `integral` (None
    when `integral` reads no entries). With `store`, the matrix returned is
    the read-only copy an instance or shadow keeps, and the pair is taken of
    it: an object array stays object, and any other dtype becomes float64
    first, so an integer dtype is never read as Python ints; a FractionArray
    that keeps its pair is read-only already and is stored as it is."""
    if n is not None:
        n = checked_count(n)
    if not isinstance(matrix, FractionArray):  # keep the numerators it carries
        try:
            matrix = np.asarray(matrix)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"matrix is not a rectangular array: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"matrix is {matrix.shape}, not square")
    if n is not None and matrix.shape[0] != n:
        raise ValidationError(f"matrix shape {matrix.shape} does not match n={n}")
    n = checked_count(matrix.shape[0])
    if matrix.dtype.kind not in "iufO":
        raise ValidationError(f"matrix entries must be numbers, got dtype {matrix.dtype}")
    # a FractionArray with its numerators kept holds only the Fractions
    # `quotients` made, read-only: `integral` does not read them, and it is
    # stored as it is, with its pair
    kept = getattr(matrix, "_integral", None) is not None
    listed = None
    if matrix.dtype == object and not kept:
        # test each distinct type once; scan the entries only to name a fault
        entries = matrix.ravel().tolist()
        listed = entries, set(map(type, entries))
        bad = {k for k in listed[1] if issubclass(k, bool) or not issubclass(k, numbers.Real)}
        if bad:
            first = next(v for v in entries if type(v) in bad)
            raise ValidationError(f"matrix entries must be numbers, got {first!r}")
    if store and not kept:
        matrix = matrix.copy() if matrix.dtype == object else matrix.astype(np.float64)
        matrix.setflags(write=False)
    try:
        pair = integral(matrix) if listed is None else _listed_integral(matrix, *listed)
    except OverflowError as exc:  # floats beside an int beyond float range
        raise ValidationError(f"matrix entries are not finite as floats: {exc}") from exc
    _check_finite(pair[0], "c")
    return matrix, n, pair, listed


def checked_entries(matrix, n=None) -> tuple[np.ndarray, int, tuple[np.ndarray, int]]:
    """`matrix`, its element count and its `integral` pair, if it passes the
    one matrix gate, else a ValidationError naming the first fault. In
    order: a given `n` must pass `checked_count`; the matrix must be a
    rectangular, square array of a valid count (n x n when `n` is given);
    its dtype must be an integer, float or object one, and an object
    array's entries real numbers (never bools, strings or complex); and its
    entries must be finite off the diagonal as `integral` reads them, so an
    object array holding a Python float is checked as floats. The diagonal
    is never read, so any number is admitted there."""
    return _gate(matrix, n)[:3]


def _check_finite(numerators: np.ndarray, name: str) -> None:
    """A ValidationError naming the first entry off the diagonal of a square
    `integral` numerator array that is not finite, as name[i][j] (1-based);
    exact numerators are Python ints, always finite."""
    if numerators.dtype != object and not np.isfinite(numerators).all():
        k = np.arange(len(numerators))
        bad = np.argwhere(~np.isfinite(numerators) & (k[:, None] != k))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(f"{name}[{i + 1}][{j + 1}]={numerators[i, j]} is not finite")


def _float_stage(stage):
    """`stage` under the one floating-point policy of the stages whose float
    result `_check_finite` refuses when it overflowed: numpy does not warn,
    since that refusal names the fault."""

    @functools.wraps(stage)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return stage(*args, **kwargs)

    return run


def checked_seed(seed, name: str = "seed") -> int:
    """`seed` as an int if it is a non-negative `integer`, else a ValidationError naming it."""
    value = _checked(name, "a non-negative integer", integer, seed)
    if value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {seed!r}")
    return value


def seeded_rng(seed, salt: int = 0) -> np.random.Generator:
    """The PCG64 generator of `checked_seed(seed)` ^ `salt`."""
    return np.random.Generator(np.random.PCG64(checked_seed(seed) ^ salt))


def _fault(row: int, pairs: list, n: int, first: int) -> ValidationError:
    """The error naming the first element of bad row `row`'s (a, b) pairs
    paired with itself, else, in canonical order, out of range or repeated."""
    seen, faults = set(), [f"element {a} is paired with itself" for a, b in pairs if a == b]
    for e in (e for p in sorted(map(sorted, pairs)) for e in p):
        if not first <= e < n + first:
            faults.append(f"element {e} must lie in {first}..{n + first - 1}")
        elif e in seen:
            faults.append(f"element {e} appears in more than one pair")
        seen.add(e)
    return ValidationError(f"row {row} is not a pairing: {faults[0]}")


def pair_keys(rows, cols, n: int, *, first: int = 0) -> np.ndarray:
    """Check (Q, n/2) pair-end arrays and return each row's sorted pair keys.

    Raises a ValidationError, naming the faulty element of the first bad
    row, unless both arrays are integer, of one shape, n/2 wide, and every
    row pairs each element first..n-1+first exactly once (`first` is the
    caller's numbering). Returns a (Q, n/2) intp array: per row, lo * n + hi
    for each pair's 0-based smaller end lo and larger end hi, ascending,
    which is canonical pair order; `np.divmod(keys, n)` decodes them.
    """
    expected = "rows and cols must be two (Q, N/2) arrays of one shape"
    try:
        rows, cols = np.asarray(rows), np.asarray(cols)
    except (TypeError, ValueError) as exc:  # ragged rows
        raise ValidationError(f"{expected}: {exc}") from exc
    if rows.ndim != 2 or rows.shape != cols.shape:
        raise ValidationError(f"{expected}, got {rows.shape} and {cols.shape}")
    if rows.shape[1] != n // 2:
        raise ValidationError(f"pairing covers {2 * rows.shape[1]} elements, oracle hides {n}")
    # kinds i and u only: a timedelta64 is a numpy integer type too, and a bool is not
    if not (rows.dtype.kind in "iu" and cols.dtype.kind in "iu"):
        raise ValidationError(f"pair elements must be integers, got {rows.dtype} and {cols.dtype}")
    # lo and hi are intp before any arithmetic, so lo * n + hi cannot
    # overflow a narrow dtype. Two arrays of one dtype that intp holds are
    # compared as they are, and only lo and hi are widened; any others are
    # widened first, so a uint64 end beyond intp's range turns negative and
    # fails below
    ends = rows, cols
    if rows.dtype != cols.dtype or rows.dtype == np.uint64:
        ends = rows.astype(np.intp), cols.astype(np.intp)
    lo = np.minimum(*ends).astype(np.intp, copy=False)
    hi = np.maximum(*ends).astype(np.intp, copy=False)
    if first:
        lo -= first
        hi -= first
    q = len(rows)
    # a row has n slots, so it is a pairing exactly when its n ends cover
    # 0..n-1; a repeated element, a self-pair included, leaves one uncovered
    base = np.arange(0, q * n, n)[:, None]
    covered = np.zeros(q * n, dtype=bool)
    if q and lo.min() >= 0 and hi.max() < n:
        covered[base + lo] = True
        covered[base + hi] = True
    if not covered.all():  # the failure path: find the first bad row
        ends = np.sort(np.hstack([lo, hi]), axis=1)
        row = int(np.argmax((ends[:, 0] < 0) | (ends[:, -1] >= n) | (np.diff(ends) == 0).any(1)))
        raise _fault(row, list(zip(rows[row].tolist(), cols[row].tolist())), n, first)
    keys = lo  # lo * n + hi, formed in lo's own buffer
    keys *= n
    keys += hi
    # the library's rows arrive almost sorted (fixed pairs, then an ascending
    # completion), and the stable sort takes such runs whole; a valid row's
    # keys are distinct, so any sort gives the same result
    keys.sort(axis=1, kind="stable")
    return keys


@dataclass(frozen=True)
class Pairing:
    """A partition of {1..n} into unordered pairs, held in canonical form.

    Canonical form means i < j inside each pair and pairs sorted by their
    first element, so equality and hashing work structurally. Construction
    checks the pairs with `pair_keys`, which names an offending element.
    """

    pairs: tuple[tuple[int, int], ...]

    def __init__(self, pairs: Iterable[Iterable[int]]):
        ends = []
        for p in _checked("pairs", "an iterable of pairs", iter, pairs):
            try:
                t = tuple(p)
            except TypeError:  # not a sequence of elements at all
                t = p
            if type(t) is not tuple or len(t) != 2:
                raise ValidationError(f"pair {t} does not contain exactly two elements")
            ends += t
        # np.timedelta64 subclasses np.integer, but its int() is not an element
        bad = [
            e
            for e in ends
            if isinstance(e, (bool, np.timedelta64)) or not isinstance(e, (int, np.integer))
        ]
        if bad:
            raise ValidationError(f"element {bad[0]!r} is not an integer")
        ends = [int(e) for e in ends]  # Python ints, so mixed numpy types never meet
        n = len(ends)
        if not n:
            raise ValidationError("a pairing must contain at least one pair")
        try:
            row = np.array(ends, dtype=np.intp)
        except OverflowError:  # an element beyond intp is outside 1..n too
            raise _fault(0, list(zip(ends[0::2], ends[1::2])), n, 1) from None
        keys = pair_keys(row[None, 0::2], row[None, 1::2], n, first=1)
        keys.setflags(write=False)
        first, second = np.divmod(keys[0], n)
        object.__setattr__(self, "pairs", tuple(zip((first + 1).tolist(), (second + 1).tolist())))
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def from_permutation(cls, order: Iterable[int]) -> "Pairing":
        """Pair consecutive entries of a permutation of 1..n."""
        seq = _checked("permutation", "an iterable of integers", list, order)
        if len(seq) % 2 != 0:
            raise ValidationError(f"permutation length {len(seq)} is odd")
        return cls(zip(seq[0::2], seq[1::2]))

    @classmethod
    def _from_canonical(cls, pairs: tuple[tuple[int, int], ...]) -> "Pairing":
        # trusted fast path for internally generated canonical pairs; the
        # key row is built from them, unchecked, when `_keys` is first read
        self = object.__new__(cls)
        object.__setattr__(self, "pairs", pairs)
        return self

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """The read-only (1, n/2) `pair_keys` row of the canonical pairs.
        `__init__` stores the row its check returned; a trusted pairing
        builds it here on first read."""
        n = self.n
        keys = np.fromiter(((a - 1) * n + b - 1 for a, b in self.pairs), np.intp, n // 2)
        keys.setflags(write=False)
        return keys[None]

    @property
    def n(self) -> int:
        return 2 * len(self.pairs)

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


def checked_pairing(pairing, n: int, refusal: str = "pairing must be") -> Pairing:
    """`pairing` if it is a `Pairing` of `n` elements: the one check of a
    pairing argument. Another type is refused by `checked_type` as
    "<refusal> a Pairing, got <type>", in its caller's words, and another
    size as "pairing covers <k> elements, not <n>"."""
    if checked_type(pairing, Pairing, refusal).n != n:
        raise ValidationError(f"pairing covers {pairing.n} elements, not {n}")
    return pairing


def _gathered(matrix: np.ndarray, pairing) -> np.ndarray:
    """The (1, n/2) row of the pairing's entries of an admitted square
    0-based matrix, once `checked_pairing` admits the pairing."""
    return matrix.ravel().take(checked_pairing(pairing, len(matrix))._keys)


def pairing_sum(matrix: np.ndarray, pairing: Pairing):
    """Sum of matrix[i][j] over the pairing's pairs (matrix is 0-based, full),
    as a Python scalar: a float, or an exact int or Fraction. The matrix
    passes `checked_entries` and the pairing `checked_pairing`. A
    `FractionArray` that keeps its numerators is summed by `quotient_sum`."""
    return _pairing_sum(checked_entries(matrix)[0], pairing)


def _pairing_sum(matrix: np.ndarray, pairing: Pairing):
    """`pairing_sum` of a matrix admitted already: the solvers' scores, the
    enumeration and `total_compatibility` do not admit it again."""
    if isinstance(matrix, FractionArray) and matrix._integral is not None:
        return quotient_sum(*matrix._integral, pairing)
    return row_totals(_gathered(matrix, pairing)).tolist()[0]


def quotient_sum(numerators: np.ndarray, denominator: int, pairing: Pairing):
    """The pairing's total of numerators / denominator, for a pair as
    `integral` returns it: the numerators are added and divided once through
    `quotients`, so an exact total makes one `Fraction`, not n/2 - 1 additions."""
    return quotients(row_totals(_gathered(numerators, pairing)), denominator).tolist()[0]


def _check_symmetric_bounded(c: np.ndarray, n: int, c_min=-math.inf, c_max=math.inf) -> None:
    """Name the first off-diagonal fault of an admitted (n, n) matrix, given
    as its `integral` numerators (float64 or Python ints), or, for an
    `Instance` with bounds, as its exact entries. In order: an asymmetry,
    then an entry outside [c_min, c_max]. Float numerators are refused too
    when n/2 times their largest off-diagonal magnitude exceeds float64, so
    that no pairing total can overflow. Only `checked_symmetric` and
    `_admitted` call it."""
    lo, hi = c_min, c_max
    if c.dtype != object:
        # an exact bound beyond float range compares with every float as an infinity
        lo, hi = (
            (math.inf if b > 0 else -math.inf) if abs(b) > sys.float_info.max else b
            for b in (lo, hi)
        )
    upper = np.arange(n)[:, None] < np.arange(n)
    vals = c[upper]  # row by row, so the first fault found is the first named
    mism = np.flatnonzero(vals != c.T[upper])
    if len(mism):
        i, j = np.argwhere(upper)[mism[0]]
        raise ValidationError(f"matrix is not symmetric at c[{i + 1}][{j + 1}]")
    bad = np.flatnonzero(~((lo <= vals) & (vals <= hi)))
    if len(bad):
        i, j = np.argwhere(upper)[bad[0]]
        raise ValidationError(f"c[{i + 1}][{j + 1}]={c[i][j]} is outside [{c_min}, {c_max}]")
    if c.dtype != object:
        top = float(np.abs(vals).max())
        if n // 2 * top > sys.float_info.max:
            raise ValidationError(
                f"entries up to {top} in magnitude overflow float64 in a pairing total "
                f"of {n // 2} of them"
            )


def checked_symmetric(matrix, n=None) -> tuple[np.ndarray, int, tuple[np.ndarray, int]]:
    """`checked_entries`, and then `_check_symmetric_bounded` on the
    `integral` numerators: the one symmetry check of a matrix given without
    bounds. A positive denominator keeps every == of the numerators."""
    matrix, n, pair = checked_entries(matrix, n)
    _check_symmetric_bounded(pair[0], n)
    return matrix, n, pair


def _admitted(matrix, n, *bounds) -> tuple[np.ndarray, int, tuple[np.ndarray, int], np.ndarray]:
    """The one admission of an `Instance`, given its `bounds` (c_min,
    c_max), and of a `TildeMatrix`, given none: a ValidationError naming the
    first fault, else the read-only matrix kept, its count, its `integral`
    pair, and what its pairing totals are summed over.

    It passes `checked_entries`' gate, which lists an object array's entries
    once, and keeps a copy: an object array stays object, any other dtype
    becomes float64 before its `integral` pair is taken, so an integer
    dtype is never read as Python ints. An instance's bounds must pass
    `checked_bounds`; a shadow's first row and column must be zero. Both
    then pass `_check_symmetric_bounded` on the numerators, except an
    instance's exact entries, which are compared as themselves so that a
    `Fraction` meets a bound exactly. Totals are summed over a read-only
    int64 copy when every entry, the diagonal included, is a Python int and
    n/2 times the largest magnitude fits int64, so every partial sum of a
    pairing is exact; otherwise over the matrix kept.
    """
    c, n, pair, listed = _gate(matrix, n, store=True)
    numerators = pair[0]
    if bounds:
        checked_bounds(*bounds)
    elif np.any(numerators[0] != 0) or np.any(numerators[:, 0] != 0):
        raise ValidationError("first row and column must be exactly zero")
    # an instance's exact entries are compared as themselves, so that a
    # Fraction meets a bound exactly; everything else compares numerators
    _check_symmetric_bounded(c if bounds and numerators.dtype == object else numerators, n, *bounds)
    if listed is not None and listed[1] == {int}:
        try:
            sums = c.astype(np.int64)
        except OverflowError:  # an entry beyond int64
            return c, n, pair, c
        if n // 2 * max(-int(sums.min()), int(sums.max())) <= np.iinfo(np.int64).max:
            sums.setflags(write=False)
            return c, n, pair, sums
    return c, n, pair, c


@dataclass(frozen=True, eq=False)
class Instance:
    """A hidden symmetric compatibility matrix with declared value bounds.

    The diagonal is stored but never read; loaders accept any diagonal value.
    Entries are floats by default; an object array of ints / fractions keeps
    everything exact for the rational arithmetic mode used by the test suite.
    `c` is what was admitted. Pairing totals, the oracle's included, are
    summed over the private `_sums` that `_admitted` chooses once here: an
    int64 copy of a bounded all-int `c`, so exact totals add native ints
    and come back as Python ints, else `c`. Instances compare and hash by
    identity, as every record holding a matrix does.
    """

    n: int
    c: np.ndarray
    c_min: float
    c_max: float

    def __post_init__(self):
        c, n, _, sums = _admitted(self.c, self.n, self.c_min, self.c_max)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_sums", sums)

    def value(self, i: int, j: int):
        """Compatibility of elements i and j, two distinct `integer`s in
        1..n, else a ValidationError."""
        i, j = (checked_element(e, self.n, "element") for e in (i, j))
        if i == j:
            raise ValidationError("the diagonal carries no compatibility value")
        return self.c[i - 1][j - 1]


def total_compatibility(instance: Instance, pairing: Pairing):
    """Total compatibility of a pairing: the sum of its N/2 selected entries."""
    checked_type(instance, Instance, "instance must be")
    return _pairing_sum(instance._sums, pairing)


def enumerate_pairings(n: int, *, max_n: int = DEFAULT_ENUMERATION_CAP) -> Iterator[Pairing]:
    """Yield every pairing of 1..n exactly once, in lexicographic order.

    The smallest unpaired element is always matched first, with partners in
    ascending order, which makes the stream lexicographic on canonical forms.
    Refuses n above `max_n` (pass a bigger cap explicitly to override): the
    stream has (n-1)!! entries and grows double-factorially.
    """
    n = checked_count(n, 2)
    max_n = _checked("max_n", "an integer", integer, max_n)
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


def _first_best(matrix: np.ndarray, max_n: int) -> tuple[Pairing, object]:
    """The first maximal pairing of `enumerate_pairings` on a full 0-based
    matrix, which is the canonically smallest of any tie, and its
    `pairing_sum`. `max` keeps the first of equal keys."""
    scored = ((_pairing_sum(matrix, p), p) for p in enumerate_pairings(len(matrix), max_n=max_n))
    total, best = max(scored, key=operator.itemgetter(0))
    return best, total


def exact_best_pairing(
    instance: Instance, *, max_n: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Pairing, float]:
    """Argmax pairing by full enumeration; ties go to the canonically smallest.

    Comparison is exact on the stored representation, so integer and rational
    instances break ties deterministically.
    """
    checked_type(instance, Instance, "instance must be")
    return _first_best(instance._sums, max_n)


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


#: What an instance's text may be given as.
_TEXT = (str, bytes, bytearray)


def loads_instance_text(text: str) -> Instance:
    tokens = checked_type(text, _TEXT, "text must be").split()
    if len(tokens) < 3:
        raise ValidationError("instance text needs a 'N C_MIN C_MAX' header")
    try:
        n = int(tokens[0])
        c_min, c_max = float(tokens[1]), float(tokens[2])
        values = [float(t) for t in tokens[3:]]
    except ValueError as exc:
        raise ValidationError(f"malformed number in instance file: {exc}") from exc
    return _instance_from_upper(n, c_min, c_max, values)


def _json_text(value) -> str:
    """`value` as JSON text: sorted keys, indent 2 and a final newline. Every
    JSON file the package writes goes through here."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def _json(text: str, what: str):
    """The JSON value in `text`, or a ValidationError "malformed <what>"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def loads_instance_json(text: str) -> Instance:
    return _instance_from_json(_json(checked_type(text, _TEXT, "text must be"), "instance JSON"))


def _instance_from_json(data) -> Instance:
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


def _read_text(path: str | Path) -> str:
    """The text of the file at `path`, a str or `os.PathLike`, or a
    ValidationError naming a path of another type or a file that does not
    decode."""
    try:
        return Path(checked_type(path, (str, os.PathLike), "path must be")).read_text()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> Instance:
    """Load an instance file, sniffing JSON vs text from the content."""
    return _read_instance(path)


def _read_instance(path: str | Path, shadows: bool = False) -> Instance | dict:
    """The instance in the file at `path`: JSON when its text starts with
    '{', else the text format; the one place a file's kind is decided. With
    `shadows`, a JSON object holding "tilde" is a shadow file, returned as
    that object for the caller to admit."""
    text = _read_text(path)
    if not text.lstrip().startswith("{"):
        return loads_instance_text(text)
    if not shadows:
        return loads_instance_json(text)
    data = _json(text, f"JSON in {path}")
    return data if isinstance(data, dict) and "tilde" in data else _instance_from_json(data)


def dumps_instance_text(instance: Instance) -> str:
    checked_type(instance, Instance, "instance must be")
    lines = [f"{instance.n} {float(instance.c_min)!r} {float(instance.c_max)!r}"]
    for i in range(instance.n - 1):  # the last row holds nothing right of the diagonal
        lines.append(" ".join(repr(float(v)) for v in instance.c[i, i + 1 :]))
    return "\n".join(lines) + "\n"


def instance_to_json_dict(instance: Instance) -> dict:
    checked_type(instance, Instance, "instance must be")
    upper = [float(v) for v in instance.c[np.triu_indices(instance.n, k=1)]]
    return {
        "n": instance.n,
        "c_min": float(instance.c_min),
        "c_max": float(instance.c_max),
        "upper_triangle": upper,
    }


def dumps_instance_json(instance: Instance) -> str:
    return _json_text(instance_to_json_dict(instance))

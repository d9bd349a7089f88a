"""Experiment harness: seeded studies with CSV/JSON reporting.

Four studies reproduce the paper's evaluation: quality against N (`perf`),
saturation against the exchange limit (`sweep`), check counts (`noc`) and
sensitivity to the start node (`start`). `run_study(study, spec)` builds
every report: it checks the spec against the study, runs each (setting,
trial) through `_trial`, aggregates the records and adds the study's
extras. `_trial` derives the trial's seeds, draws a uniform random
instance, recovers the shadow matrix through the sum-only oracle (the
"reconstruct" entry of `OBSERVERS`, which maps each observation strategy
to the shadow it recovers, as `SOLVERS` maps each algorithm to its solve),
runs the study's solves on the shadow, and scores each resulting pairing
against the true instance with the normalized indicator

    P = (score - (N/2) * C_min) / ((N/2) * C_max - (N/2) * C_min).

The studies differ only in those solves: one per algorithm (perf), pnn once
then p2opt at each limit (sweep), pnn+p2opt keeping its scan trace (noc),
and pnn and p2opt from every start node (start); and in their extras.

Per-trial seeds come from a splittable scheme: the trial stream is
SeedSequence(master_seed, spawn_key=(setting_index, trial_index)), whose
first two 64-bit words seed instance generation and solving respectively
(per-start runs of the start study use spawn_key=(setting_index,
trial_index, start)). Identical specs therefore reproduce identical records
regardless of worker scheduling; wall-clock timings are the one
non-deterministic column and are zeroed in reports unless explicitly
requested.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import (
    Instance,
    ValidationError,
    _checked,
    _checked_width,
    _finite,
    _instance_from_upper,
    _json_text,
    checked_count,
    checked_seed,
    checked_type,
    float_bounds,
    integer,
    real,
    seeded_rng,
    total_compatibility,
)
from .observation import reconstruct_tilde
from .oracle import ObservationOracle
from .plan import ObservationPlan, execute_plan
from .solvers import SolverConfig, solve_p2opt, solve_pnn, solve_pnn_p2opt, solve_random

THREADS_ENV = "PAIRING_TSP_THREADS"
STUDIES = ("perf", "sweep", "noc", "start")

#: The solve each algorithm name stands for, on (n, matrix, config), in the
#: studies and in `solve --algo`; the random baseline reads only n and the seed.
SOLVERS = {
    "random": lambda n, matrix, config: solve_random(n, config.seed),
    "pnn": lambda n, matrix, config: solve_pnn(matrix, config),
    "pnn+p2opt": lambda n, matrix, config: solve_pnn_p2opt(matrix, config),
}
KNOWN_ALGORITHMS = tuple(SOLVERS)

#: The shadow each observation strategy recovers from an oracle, in the
#: studies and in `observe --strategy`: "reconstruct" measures every exchange
#: rule of `reconstruct_tilde`, "minimal" executes `ObservationPlan(n)`, the
#: (N-1)(N-2)/2 schedule whose `derivations` re-express those rules.
OBSERVERS = {
    "reconstruct": lambda oracle: reconstruct_tilde(oracle)[0],
    "minimal": lambda oracle: execute_plan(oracle, ObservationPlan(oracle.n)),
}


def performance_indicator(score: float, n: int, c_min: float, c_max: float) -> float:
    """Normalized pairing quality in [0, 1] relative to the declared bounds.

    `n` must pass `checked_count`, the bounds must be finite numbers with
    c_max > c_min, and the score a finite number; ints and `Fraction`s are
    taken exactly, as `checked_bounds` takes them. Scores outside the
    feasible band signal a bounds violation upstream and raise rather than
    clamp. A band that float64 cannot form, wider than float64 or with a
    bound beyond float range, is computed exactly, so p is never NaN.
    """
    n = checked_count(n)
    finite = _finite("c_min", c_min) & _finite("c_max", c_max)
    if not c_max > c_min:
        raise ValidationError(f"need c_max > c_min, got [{c_min}, {c_max}]")
    if not finite:
        raise ValidationError(f"bounds c_min={c_min}, c_max={c_max} must be finite")
    if not _finite("score", score):
        raise ValidationError(f"score {score} is not finite")
    try:
        lo, hi = (n / 2) * c_min, (n / 2) * c_max
    except OverflowError:  # an exact bound beyond float range
        lo = hi = math.inf
    if not math.isfinite(hi - lo):
        # float64 cannot form the band though every total is finite: the same
        # ratio, computed exactly from the given numbers and rounded once
        score, c_min, c_max = map(Fraction, (score, c_min, c_max))
        lo, hi = n * c_min / 2, n * c_max / 2
    if score < lo or score > hi:
        raise ValidationError(
            f"score {score} is outside the feasible band [{lo}, {hi}]"
        )
    # with a float lo, score - lo is float(score) - lo: the float formula's bits
    return float((score - lo) / (hi - lo))


def generate_instance(n: int, c_min: float, c_max: float, seed: int) -> Instance:
    """Uniform random symmetric instance, deterministic per seed."""
    n = checked_count(n)
    _checked_width(*float_bounds(c_min, c_max))
    values = seeded_rng(seed).uniform(c_min, c_max, n * (n - 1) // 2)
    return _instance_from_upper(n, c_min, c_max, values)


def _finite_pair(value) -> tuple:
    lo, hi = value
    if not all(math.isfinite(real(v)) for v in (lo, hi)):
        raise ValueError(value)
    return lo, hi


_LIMIT = "an integer, null or a list of integers"


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: sizes, trial count, bounds, limits, algorithms, seed.

    Field types are checked here, so a malformed field fails with a
    ValidationError naming it before any trial runs. Scalars are kept as
    given, since the report echoes them; sequences become tuples. Sizes,
    trials, limits, the seed and an integer start node must pass
    `core.integer`, so 8.7, "8", true or [1, 2] is rejected, not truncated,
    `n_values` must hold at least one size, and no algorithm may be listed
    twice, since a perf study would run it twice and aggregate both runs.
    """

    n_values: tuple[int, ...]
    trials: int
    value_range: tuple[float, float] = (0.0, 10000.0)
    exchange_limit: int | tuple[int, ...] | None = SolverConfig.exchange_limit
    algorithms: tuple[str, ...] = KNOWN_ALGORITHMS
    master_seed: int = 0
    start_node: int | str | None = None

    def __post_init__(self):
        n_values = _checked(
            "n_values", "a list of integers", lambda v: tuple(map(integer, v)), self.n_values
        )
        if not n_values:
            raise ValidationError("n_values must be a non-empty list of integers")
        object.__setattr__(self, "n_values", n_values)
        if isinstance(self.algorithms, str):
            raise ValidationError("algorithms must be a sequence of names")
        object.__setattr__(
            self, "algorithms", _checked("algorithms", "a list of names", tuple, self.algorithms)
        )
        limit = self.exchange_limit
        if isinstance(limit, Iterable) and not isinstance(limit, str):
            limits = _checked("exchange_limit", _LIMIT, lambda v: tuple(map(integer, v)), limit)
            object.__setattr__(self, "exchange_limit", limits)
        elif limit is not None:
            limits = (_checked("exchange_limit", _LIMIT, integer, limit),)
        else:
            limits = ()
        if any(v < 0 for v in limits):
            raise ValidationError(f"exchange_limit must be >= 0, got {limit}")
        if _checked("trials", "an integer", integer, self.trials) < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        checked_seed(self.master_seed, "master_seed")
        if self.start_node not in (None, "random"):
            _checked("start_node", 'an integer, null or "random"', integer, self.start_node)
        for n in self.n_values:
            checked_count(n)
        for algo in self.algorithms:
            if algo not in KNOWN_ALGORITHMS:
                raise ValidationError(
                    f"unknown algorithm '{algo}', expected one of {KNOWN_ALGORITHMS}"
                )
            if self.algorithms.count(algo) > 1:
                raise ValidationError(f"algorithm '{algo}' is listed more than once")
        lo, hi = _checked(
            "value_range", "two finite numbers [min, max]", _finite_pair, self.value_range
        )
        if not hi > lo:
            raise ValidationError(f"value range must satisfy max > min, got {self.value_range}")
        _checked_width(lo, hi)
        object.__setattr__(self, "value_range", (lo, hi))

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValidationError("experiment spec JSON must be an object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValidationError(f"unknown experiment spec fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ValidationError(f"bad experiment spec: {exc}") from exc

    def to_json_dict(self) -> dict:
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(self).items()
        }


def _shown_millis(millis: float, timings: bool):
    """A wall time as reports show it: rounded to the microsecond, or 0 without timings."""
    return round(millis, 3) if timings else 0


@dataclass(frozen=True)
class TrialRecord:
    """One solve: everything needed to reproduce and aggregate it."""

    n: int
    algo: str
    trial: int
    seed: int
    p: float
    noc: int
    exchanges: int
    observations: int
    millis: float

    def csv_row(self, timings: bool) -> str:
        return ",".join(map(str, self.to_json_dict(timings).values()))

    def to_json_dict(self, timings: bool) -> dict:
        return dict(asdict(self), millis=_shown_millis(self.millis, timings))


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class AggregateRow:
    n: int
    algo: str
    trials: int
    mean_p: float
    std_p: float
    mean_noc: float
    std_noc: float
    mean_observations: float
    mean_millis: float

    def to_json_dict(self, timings: bool) -> dict:
        return dict(asdict(self), mean_millis=_shown_millis(self.mean_millis, timings))


@dataclass(frozen=True)
class ExperimentReport:
    """Raw per-trial records plus aggregates; serializes to CSV and JSON."""

    study: str
    spec: ExperimentSpec
    records: tuple[TrialRecord, ...]
    aggregates: tuple[AggregateRow, ...]
    extras: dict = field(default_factory=dict)

    def to_csv_text(self, *, timings: bool = False) -> str:
        lines = [CSV_HEADER]
        lines.extend(record.csv_row(timings) for record in self.records)
        return "\n".join(lines) + "\n"

    def to_json_dict(self, *, timings: bool = False) -> dict:
        return {
            "study": self.study,
            "spec": self.spec.to_json_dict(),
            "aggregates": [a.to_json_dict(timings) for a in self.aggregates],
            "extras": self.extras,
            "records": [r.to_json_dict(timings) for r in self.records],
        }

    def to_json_text(self, *, timings: bool = False) -> str:
        return _json_text(self.to_json_dict(timings=timings))


def _aggregate(records: Iterable[TrialRecord]) -> tuple[AggregateRow, ...]:
    groups: dict[tuple[int, str], list[TrialRecord]] = {}
    for record in records:
        groups.setdefault((record.n, record.algo), []).append(record)
    rows = []
    for key, group in groups.items():
        ps = np.array([r.p for r in group])
        nocs = np.array([r.noc for r in group], dtype=np.float64)
        rows.append(
            AggregateRow(
                n=key[0],
                algo=key[1],
                trials=len(group),
                mean_p=float(ps.mean()),
                std_p=float(ps.std()),
                mean_noc=float(nocs.mean()),
                std_noc=float(nocs.std()),
                mean_observations=float(np.mean([r.observations for r in group])),
                mean_millis=float(np.mean([r.millis for r in group])),
            )
        )
    return tuple(rows)


def trial_seeds(master_seed: int, setting_index: int, trial: int) -> tuple[int, int]:
    """(instance_seed, solver_seed) for one trial of one setting."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(setting_index, trial))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def start_run_seed(master_seed: int, setting_index: int, trial: int, start: int) -> int:
    """Solver seed for one start node of the start-sensitivity study."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(setting_index, trial, start))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def worker_count() -> int:
    env = os.environ.get(THREADS_ENV)
    if env:
        return max(1, _checked(THREADS_ENV, "an integer", int, env))
    return min(os.cpu_count() or 1, 8)


def random_start_node(seed: int, n: int) -> int:
    """The node `start_node="random"` stands for: uniform on 1..n, drawn from `seed`.

    Bench trials draw it from their solver seed and `solve --start-node
    random` from `--seed`, so both pick the same node for the same seed.
    """
    rng = seeded_rng(seed, 0x5EED)
    return int(rng.integers(1, n + 1))


def _resolve_start(start_node, n: int, seed: int) -> int:
    """The node a study's `start_node`, or `solve --start-node`, stands for:
    None is node 1 and "random" is `random_start_node(seed, n)`."""
    if start_node is None:
        return 1
    if start_node == "random":
        return random_start_node(seed, n)
    return start_node


def _observed_matrix(instance: Instance, strategy: str = "reconstruct") -> tuple[np.ndarray, int]:
    """The shadow of `instance` that the `OBSERVERS` entry `strategy`
    observes and the queries it spent. The observe step of every study
    (which reconstructs), and of the command line's `observe` and `solve
    --mode observed`."""
    oracle = ObservationOracle(instance)
    return OBSERVERS[strategy](oracle).t, oracle.query_count


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * 1000.0


def _trial(
    study: str, spec: ExperimentSpec, setting_index: int, trial: int
) -> tuple[list[TrialRecord], list[int]]:
    """One trial of any study: its records, and the p2opt scan trace for noc.

    Seeds, instance, shadow, scoring and records are shared by every study;
    what follows the shadow is the study's own solves. `millis` is each
    solve's wall time; a start study's pnn+p2opt time includes its pnn.
    """
    n = spec.n_values[setting_index]
    c_min, c_max = spec.value_range
    inst_seed, solver_seed = trial_seeds(spec.master_seed, setting_index, trial)
    instance = generate_instance(n, c_min, c_max, inst_seed)
    # perf with only the random baseline never looks at the shadow
    observe = study != "perf" or any(a != "random" for a in spec.algorithms)
    shadow, observations = _observed_matrix(instance) if observe else (None, 0)
    records: list[TrialRecord] = []

    def record(algo: str, result, millis: float, observed: int = observations):
        score = total_compatibility(instance, result.pairing)
        records.append(
            TrialRecord(
                n=n,
                algo=algo,
                trial=trial,
                seed=inst_seed,
                p=performance_indicator(score, n, c_min, c_max),
                noc=result.noc,
                exchanges=result.exchanges_used,
                observations=observed,
                millis=millis,
            )
        )
        return result

    if study == "start":
        for start in range(1, n + 1):
            run_seed = start_run_seed(spec.master_seed, setting_index, trial, start)
            config = SolverConfig(
                seed=run_seed, start_node=start, exchange_limit=spec.exchange_limit
            )
            constructed, c_millis = _timed(solve_pnn, shadow, config)
            refined, r_millis = _timed(solve_p2opt, shadow, constructed.pairing, config)
            record(f"pnn@start={start}", constructed, c_millis)
            record(f"pnn+p2opt@start={start}", refined, c_millis + r_millis)
        return records, []

    start = _resolve_start(spec.start_node, n, solver_seed)
    # a sweep's exchange_limit is a list; each limit is put in for its own refine
    limit = None if study == "sweep" else spec.exchange_limit
    config = SolverConfig(seed=solver_seed, start_node=start, exchange_limit=limit)
    if study == "perf":
        for algo in spec.algorithms:
            observed = 0 if algo == "random" else observations
            record(algo, *_timed(SOLVERS[algo], n, shadow, config), observed=observed)
        return records, []
    if study == "sweep":
        constructed = solve_pnn(shadow, config)
        for limit in spec.exchange_limit:
            refine = replace(config, exchange_limit=limit)
            timed = _timed(solve_p2opt, shadow, constructed.pairing, refine)
            record(f"pnn+p2opt@l={limit}", *timed)
        return records, []
    result = record("pnn+p2opt", *_timed(solve_pnn_p2opt, shadow, config))
    return records, list(result.trace)


def run_study(study: str, spec: ExperimentSpec) -> ExperimentReport:
    """Run every (setting, trial) of `study` on `spec` and build its report.

    The spec is checked against the study before any trial runs. Trials run
    in a process pool when it pays off; the records come back in (setting,
    trial) order either way, so the report does not depend on scheduling.
    """
    if study not in STUDIES:
        raise ValidationError(f"unknown study '{study}', expected one of {STUDIES}")
    checked_type(spec, ExperimentSpec, "spec must be")
    listed = isinstance(spec.exchange_limit, tuple)
    if study == "sweep" and not (listed and spec.exchange_limit):
        raise ValidationError("the sweep needs exchange_limit to be a non-empty list of limits")
    if study != "sweep" and listed:
        raise ValidationError(f"the {study} study needs a single exchange_limit, not a list")
    if study == "perf" and not spec.algorithms:
        raise ValidationError("the perf study needs algorithms to be a non-empty list of names")
    # every study but start resolves start_node, on every size
    if study != "start" and spec.start_node not in (None, "random"):
        start = spec.start_node
        outside = [n for n in spec.n_values if not 1 <= start <= n]
        if outside:
            raise ValidationError(
                f"start_node must be within 1..n for every n in n_values, "
                f"got {start} for n={outside[0]}"
            )
    trials = spec.trials
    tasks = [(study, spec, si, trial) for si in range(len(spec.n_values)) for trial in range(trials)]
    workers = min(worker_count(), len(tasks))
    if workers <= 1 or len(tasks) <= 2:
        payloads = [_trial(*task) for task in tasks]
    else:
        # imported here: the pool pulls in multiprocessing, which a serial
        # study and every other entry point never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            payloads = list(pool.map(_trial, *zip(*tasks), chunksize=4))
    records = tuple(record for trial_records, _ in payloads for record in trial_records)
    aggregates = _aggregate(records)
    extras: dict = {}
    if study == "sweep":
        # the aggregates already hold each (n, limit) mean over that size's trials
        means = {(row.n, row.algo): row.mean_p for row in aggregates}
        extras["sweep"] = {
            str(n): {
                "limits": list(spec.exchange_limit),
                "mean_p": [means[n, f"pnn+p2opt@l={limit}"] for limit in spec.exchange_limit],
            }
            for n in spec.n_values
        }
    elif study == "noc":
        # Entry k of a size's trace is the number of checks the k-th scan
        # segment made, averaged over all trials; a converged trial counts
        # zero for the segments after it stopped.
        extras["mean_trace_per_loop"] = mean_traces = {}
        for si, n in enumerate(spec.n_values):
            traces = [trace for _, trace in payloads[si * trials : (si + 1) * trials]]
            padded = np.zeros((trials, max(len(t) for t in traces)))
            for row, trace in enumerate(traces):
                padded[row, : len(trace)] = trace
            mean_traces[str(n)] = [float(v) for v in padded.mean(axis=0)]
    elif study == "start":
        # Per size and algorithm: the mean over instances of the standard
        # deviation of P across that instance's start nodes.
        extras["mean_std_p_over_starts"] = summary = {}
        for si, n in enumerate(spec.n_values):
            block = payloads[si * trials : (si + 1) * trials]
            for algo in ("pnn", "pnn+p2opt"):
                stds = [
                    float(np.std([r.p for r in rows if r.algo.startswith(f"{algo}@start=")]))
                    for rows, _ in block
                ]
                summary.setdefault(str(n), {})[algo] = float(np.mean(stds))
    return ExperimentReport(
        study=study, spec=spec, records=records, aggregates=aggregates, extras=extras
    )


def run_performance_study(spec: ExperimentSpec) -> ExperimentReport:
    """Mean/std of the indicator per algorithm and element count."""
    return run_study("perf", spec)


def run_exchange_limit_sweep(spec: ExperimentSpec) -> ExperimentReport:
    """Indicator as a function of the exchange limit, shared trials per limit."""
    return run_study("sweep", spec)


def run_noc_study(spec: ExperimentSpec) -> ExperimentReport:
    """Check counts versus size, plus the mean per-scan trace."""
    return run_study("noc", spec)


def run_initial_node_study(spec: ExperimentSpec) -> ExperimentReport:
    """Spread of the indicator across every possible start node."""
    return run_study("start", spec)

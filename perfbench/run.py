"""Stage-level benchmark of the pairing-tsp pipeline.

    python3 perfbench/run.py --workload observe-solve --seed 1 --seconds 25 --trace 0

Runs one workload as a closed loop with a single client in one process and
one thread, checks every unit's outputs, prints every metric by name with
its unit, and ends with one JSON result line. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs each unit untraced and traced in turn
and reports the per-layer metrics and the tracing overhead, writing the
spans to perfbench/out/. See README.md for the workloads and metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()

# Pin native thread pools before numpy is imported: one process, one thread.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "pairing_tsp" / "__init__.py").is_file():
    sys.exit(f"perfbench: library sources not found at {SRC}")
sys.path.insert(0, str(SRC))

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from argparse import ArgumentParser  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, check_unit, run_unit, setup  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: Not used while the benchmark or any change was tuned; re-check claims on it.
HELD_OUT_SEED = 1000003
#: Set-up is timed this many times per run and its median reported.
SETUP_REPEATS = 3
#: Failure messages echoed to stderr per run.
MAX_REPORTED_FAILURES = 5

#: The end-to-end metrics BENCHMARK.json bounds. The median and the rate move
#: with the host's speed more than any bound allows (README.md), so they are
#: reported beside them, with the failure share, but not bounded.
END_TO_END = {
    "setup_s": "s",
    "unit_s.p90": "s",
    "queries_per_unit": "count",
    "mean_p": "ratio",
    "peak_rss_mb": "MB",
}
REPORTED = {"unit_s.p50": "s", "units_per_s": "1/s", "failed_frac": "ratio"}
PER_LAYER = {
    "oracle.queries": "count",
    "oracle.observe_s": "s",
    "oracle.observe_us_per_query": "us",
    "observation.reconstruct_s": "s",
    "observation.reconstruct_self_s": "s",
    "plan.build_s": "s",
    "plan.execute_s": "s",
    "plan.execute_self_s": "s",
    "solvers.pnn_s": "s",
    "solvers.p2opt_s": "s",
    "solvers.p2opt_checks": "count",
    "solvers.p2opt_exchanges": "count",
    "solvers.p2opt_accept_ratio": "ratio",
    "solvers.p2opt_checks_per_s": "1/s",
    "tsp_graph.validate_s": "s",
    "core.score_s": "s",
    "trace.overhead_pct": "%",
    "trace.covered_pct": "%",
}
UNITS = {**END_TO_END, **REPORTED, **PER_LAYER}
#: Spans whose time is charged to the unit's own layers (coverage metric).
UNIT_LAYERS = ("observation.reconstruct", "plan.execute", "solvers.pnn", "solvers.p2opt", "core.score")


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Run:
    """One measured run: set-up, then units until the time is up."""

    def __init__(self, workload, seed, seconds, trace):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.setup_times = []
        self.inputs = None
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.first_pass = {}
        self.attempted = 0
        self.failures = []

    def set_up(self):
        """Time one set-up; the first one's inputs are the ones measured."""
        if self.tracer is not None:
            self.tracer.unit = "setup"
        t0 = time.perf_counter()
        inputs = setup(self.w, self.seed, self.tracer)
        self.setup_times.append(time.perf_counter() - t0)
        if self.inputs is None:
            self.inputs = inputs

    def unit(self, k, tracer):
        self.attempted += 1
        if tracer is not None:
            tracer.unit = k
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = run_unit(self.w, self.inputs, k, None)
            else:
                out = tracer.call("unit", run_unit, self.w, self.inputs, k, tracer)
        except Exception:  # a unit that raises counts as failed; the run goes on
            self.failures.append(f"unit {k}: {traceback.format_exc()}")
            return
        # a unit whose outputs fail a check still did its work, so it is timed
        (self.times if tracer is None else self.traced_times).append(time.perf_counter() - t0)
        try:
            problems = check_unit(self.w, self.inputs, k, out, tracer)
        except Exception:
            problems = [traceback.format_exc()]
        first = self.first_pass.setdefault(k % len(self.inputs.cases), out.key())
        if out.key() != first:
            problems.append("output differs from the first run of the same input")
        if problems:
            self.failures.append(f"unit {k}: " + "; ".join(problems))

    def measure(self):
        per_pass = len(self.inputs.cases)
        start = time.perf_counter()
        k = 0
        # at least one full pass, so the deterministic metrics cover a fixed set
        while k < per_pass or time.perf_counter() - start < self.seconds:
            # set-up is timed at the start, halfway and at the end, so that
            # setup_s samples the machine's speed at three moments of the run
            if len(self.setup_times) == 1 and time.perf_counter() - start >= self.seconds / 2:
                self.set_up()
            if self.tracer is None:
                self.unit(k, None)
            else:
                # alternate the order so warm-up effects cancel in the overhead
                for tracer in (None, self.tracer) if k % 2 == 0 else (self.tracer, None):
                    self.unit(k, tracer)
            k += 1
        while len(self.setup_times) < SETUP_REPEATS:
            self.set_up()

    # -- reporting ---------------------------------------------------------

    def fingerprint(self) -> str:
        digest = hashlib.sha256(f"{self.w.name} {self.seed} {self.inputs.setup_queries}".encode())
        for _, key in sorted(self.first_pass.items()):
            digest.update(repr(key).encode())
        return digest.hexdigest()

    def end_to_end(self) -> dict:
        times = self.times
        first = self.first_pass.values()
        queries = self.inputs.setup_queries + sum(key[3] for key in first)
        return {
            "setup_s": IMPORT_S + statistics.median(self.setup_times),
            "unit_s.p50": statistics.median(times),
            "unit_s.p90": statistics.quantiles(times, n=10)[-1],
            "units_per_s": len(times) / sum(times),
            "queries_per_unit": queries / len(first),
            "mean_p": statistics.fmean(key[4] for key in first),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        # one row per unit holding each layer's total in it, one per set-up span
        units: dict[int, dict[str, float]] = {}
        setup_rows: list[dict[str, float]] = []
        for s in spans:
            if s.unit == "setup":
                row: dict[str, float] = {}
                setup_rows.append(row)
            else:
                row = units.setdefault(s.unit, {})
            row[s.name] = row.get(s.name, 0.0) + s.duration
            row[s.name + ".self"] = row.get(s.name + ".self", 0.0) + s.self_s
            if s.oracle_calls:
                row["oracle_s"] = row.get("oracle_s", 0.0) + s.oracle_s
                row["oracle_calls"] = row.get("oracle_calls", 0) + s.oracle_calls
        rows = list(units.values())

        def med(name):
            # median over units; a layer called only in set-up, per set-up call
            if any(name in row for row in rows):
                return statistics.median(row.get(name, 0.0) for row in rows)
            calls = [row[name] for row in setup_rows if name in row]
            return statistics.median(calls) if calls else 0.0

        queries = med("oracle_calls")
        observe_s = med("oracle_s")
        p2opt_total = sum(row.get("solvers.p2opt", 0.0) for row in rows)
        # count metrics come from the first pass, a fixed set of units
        first = self.first_pass
        per_pass = len(self.inputs.cases)
        checks = sum(key[1] for key in first.values())
        exchanges = sum(key[2] for key in first.values())
        traced_checks = sum(first[k % per_pass][1] for k in units if k % per_pass in first)
        covered = [
            sum(row.get(name, 0.0) for name in UNIT_LAYERS) / row["unit"] for row in rows
        ]
        return {
            "oracle.queries": queries,
            "oracle.observe_s": observe_s,
            "oracle.observe_us_per_query": observe_s / queries * 1e6 if queries else 0.0,
            "observation.reconstruct_s": med("observation.reconstruct"),
            "observation.reconstruct_self_s": med("observation.reconstruct.self"),
            "plan.build_s": med("plan.build"),
            "plan.execute_s": med("plan.execute"),
            "plan.execute_self_s": med("plan.execute.self"),
            "solvers.pnn_s": med("solvers.pnn"),
            "solvers.p2opt_s": med("solvers.p2opt"),
            "solvers.p2opt_checks": checks / len(first),
            "solvers.p2opt_exchanges": exchanges / len(first),
            "solvers.p2opt_accept_ratio": exchanges / checks,
            "solvers.p2opt_checks_per_s": traced_checks / p2opt_total,
            "tsp_graph.validate_s": med("tsp_graph.validate"),
            "core.score_s": med("core.score"),
            "trace.overhead_pct": 100.0
            * (statistics.median(self.traced_times) / statistics.median(self.times) - 1.0),
            "trace.covered_pct": 100.0 * statistics.median(covered),
        }


def main(argv=None) -> int:
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace == 1)
    run.set_up()
    run.measure()

    failed = len(run.failures)
    for message in run.failures[:MAX_REPORTED_FAILURES]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    samples = len(run.times)
    if samples < 10 or (run.tracer and not run.traced_times):
        print(f"perfbench: too few completed units ({samples}) to report", file=sys.stderr)
        return 1
    if run.tracer is None:
        metrics, gated = run.end_to_end(), END_TO_END
    else:
        metrics, gated = run.per_layer(), PER_LAYER
        trace_path = HERE / "out" / f"trace-{run.w.name}-seed{args.seed}.jsonl"
        run.tracer.write_jsonl(trace_path)
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")
    metrics["failed_frac"] = failed / run.attempted

    record = {
        "workload": run.w.name,
        "n": run.w.n,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "machine": machine(),
        "fingerprint": run.fingerprint(),
        "units_per_pass": len(run.inputs.cases),
        "samples": samples,
        "reported": {name: value for name, value in metrics.items() if name not in gated},
    }
    print("record " + json.dumps(record, sort_keys=True))
    notes = {
        "unit_s.p90": f"  ({samples} samples, {samples - int(0.9 * samples)} beyond p90)",
        "failed_frac": f"  ({failed} of {run.attempted})",
    }
    print(f"{'metric':32} {'value':>14}  unit")
    for name, value in metrics.items():
        print(f"{name:32} {value:14.6g}  {UNITS[name]}{notes.get(name, '')}")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in gated.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

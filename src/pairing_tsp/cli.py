"""Command-line entry point: gen / observe / solve / graph / bench.

All randomness flows from explicit seeds, and every JSON writer is
`core._json_text` (sorted keys, indent 2), so repeating an invocation with
the same seed reproduces its files byte for byte (benchmark timing columns
are zeroed unless requested). Every choice and default comes from the code
that owns it: strategies from `bench.OBSERVERS`, algorithms from
`bench.SOLVERS`, solver knobs from `SolverConfig`, the value range from
`bench.ExperimentSpec` and the enumeration cap from `core`.
Exit status is 0 on success, 1 on bad input, path or usage, 2 on an
internal failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import bench as bench_mod
from .core import (
    DEFAULT_ENUMERATION_CAP,
    InternalError,
    Instance,
    ValidationError,
    _checked,
    _first_best,
    _json,
    _json_text,
    _read_instance,
    _read_text,
    dumps_instance_json,
    dumps_instance_text,
    float_bounds,
    integer,
    load_instance,
    pairing_sum,
    real,
    total_compatibility,
)
from .observation import TildeMatrix
from .solvers import SolveResult, SolverConfig
from .tsp_graph import build_graph

#: Sizes above this need --full; keeps accidental runs desk-scale.
FULL_SCALE_THRESHOLD = 500

#: The writer of each `bench --format` by file suffix; "both" writes each.
_REPORT_WRITERS = {
    "csv": bench_mod.ExperimentReport.to_csv_text,
    "json": bench_mod.ExperimentReport.to_json_text,
}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we standardize on 1
        raise _UsageError(self, message)


def _start_node_arg(value: str):
    if value == "random":
        return "random"
    try:
        return int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"start node must be an integer or 'random', got {value!r}"
        ) from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="pairing-tsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate a uniform random instance file")
    gen.add_argument("-n", type=int, required=True, help="element count (even)")
    gen.add_argument("--cmin", type=float, default=bench_mod.ExperimentSpec.value_range[0])
    gen.add_argument("--cmax", type=float, default=bench_mod.ExperimentSpec.value_range[1])
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=Path, default=None, help="output file (default stdout)")
    gen.add_argument("--format", choices=("text", "json"), default="text")

    observe = sub.add_parser("observe", help="recover the shadow matrix via the oracle")
    observe.add_argument("instance", type=Path)
    observe.add_argument("--strategy", choices=tuple(bench_mod.OBSERVERS), default="reconstruct")
    observe.add_argument("--out", type=Path, default=None)

    solve = sub.add_parser("solve", help="run a solver on an instance or shadow file")
    solve.add_argument("file", type=Path)
    solve.add_argument("--algo", choices=(*bench_mod.KNOWN_ALGORITHMS, "exact"), required=True)
    solve.add_argument("--seed", type=int, default=SolverConfig.seed)
    solve.add_argument("--start-node", type=_start_node_arg, default=None)
    solve.add_argument("--exchange-limit", type=int, default=SolverConfig.exchange_limit)
    solve.add_argument(
        "--mode",
        choices=("trusted", "observed"),
        default="trusted",
        help="trusted: solve on the file's matrix; observed: go through the oracle",
    )
    solve.add_argument("--enumeration-cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    solve.add_argument("--out", type=Path, default=None)

    graph = sub.add_parser("graph", help="dump the layered graph as a JSON edge list")
    graph.add_argument("instance", type=Path)
    graph.add_argument("--out", type=Path, default=None)

    bench = sub.add_parser("bench", help="run a benchmark study from a spec file")
    bench.add_argument("study", choices=bench_mod.STUDIES)
    bench.add_argument("--spec", type=Path, required=True)
    bench.add_argument("--out", type=Path, default=None, help="output base path")
    bench.add_argument("--format", choices=(*_REPORT_WRITERS, "both"), default="both")
    bench.add_argument("--timings", action="store_true", help="emit real wall times")
    bench.add_argument(
        "--full", action="store_true", help="allow sizes beyond the desk-scale threshold"
    )
    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_gen(args) -> int:
    instance = bench_mod.generate_instance(args.n, args.cmin, args.cmax, args.seed)
    text = dumps_instance_json(instance) if args.format == "json" else dumps_instance_text(instance)
    _emit(text, args.out)
    return 0


def _tilde_json(instance: Instance, tilde: np.ndarray, strategy: str, observations: int) -> str:
    payload = {
        "n": instance.n,
        "c_min": float(instance.c_min),
        "c_max": float(instance.c_max),
        "strategy": strategy,
        "observations": observations,
        "tilde": [[float(v) for v in row] for row in tilde],
    }
    return _json_text(payload)


def _cmd_observe(args) -> int:
    instance = load_instance(args.instance)
    tilde, observations = bench_mod._observed_matrix(instance, args.strategy)
    _emit(_tilde_json(instance, tilde, args.strategy, observations), args.out)
    return 0


def _load_solve_input(path: Path):
    """Returns (matrix, n, bounds, instance_or_none)."""
    data = _read_instance(path, shadows=True)
    if isinstance(data, Instance):
        return data.c, data.n, (data.c_min, data.c_max), data
    try:
        n, matrix = data["n"], np.asarray(data["tilde"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed shadow file {path}: {exc!r}") from exc
    n = _checked("n", "an integer", integer, n)
    # the float64 cast above would take true and "1" too
    for v in np.asarray(data["tilde"], dtype=object).flat:
        _checked("tilde entry", "a number", real, v)
    bounds = None
    if "c_min" in data and "c_max" in data:
        bounds = float_bounds(data["c_min"], data["c_max"])
    # validates shape, finite symmetric entries and the zero first row and column
    return TildeMatrix(n=n, t=matrix).t, n, bounds, None


def _cmd_solve(args) -> int:
    matrix, n, bounds, instance = _load_solve_input(args.file)
    observations = None
    if args.mode == "observed":
        if instance is None:
            raise ValidationError("observed mode needs a raw instance file, not a shadow file")
        solve_matrix, observations = bench_mod._observed_matrix(instance)
    else:
        solve_matrix = matrix

    start = bench_mod._resolve_start(args.start_node, n, args.seed)
    config = SolverConfig(seed=args.seed, start_node=start, exchange_limit=args.exchange_limit)

    if args.algo == "exact":
        # the search `exact_best_pairing` runs, on the matrix the mode solves on
        pairing, total = _first_best(solve_matrix, args.enumeration_cap)
        result = SolveResult(pairing=pairing, score=total, noc=0, exchanges_used=0)
    else:
        result = bench_mod.SOLVERS[args.algo](n, solve_matrix, config)

    # score against the truth when we have it, else against the shadow sums
    if instance is not None:
        score = total_compatibility(instance, result.pairing)
    else:
        score = pairing_sum(matrix, result.pairing)
    p_value = None
    if bounds is not None and bounds[1] > bounds[0]:
        p_value = bench_mod.performance_indicator(score, n, bounds[0], bounds[1])
    payload = {
        "algo": args.algo,
        "n": n,
        "seed": args.seed,
        "mode": args.mode,
        "start_node": start if args.algo in ("pnn", "pnn+p2opt") else None,
        "exchange_limit": args.exchange_limit if args.algo == "pnn+p2opt" else None,
        "pairing": [list(pair) for pair in result.pairing.pairs],
        "score": float(score),
        "p": p_value,
        "noc": result.noc,
        "exchanges": result.exchanges_used,
        "observations": observations,
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_graph(args) -> int:
    instance = load_instance(args.instance)
    graph = build_graph(instance.c, instance.n)
    payload = {
        "n": graph.n,
        "node_count": graph.node_count,
        "nodes": [node.label for node in graph.nodes()],
        "edges": [
            {"u": u.label, "v": v.label, "cost": float(cost)}
            for u, v, cost in graph.edges()
        ],
    }
    _emit(_json_text(payload), args.out)
    return 0


def _cmd_bench(args) -> int:
    spec_data = _json(_read_text(args.spec), "spec JSON")
    spec = bench_mod.ExperimentSpec.from_json_dict(spec_data)
    oversized = [n for n in spec.n_values if n > FULL_SCALE_THRESHOLD]
    if oversized and not args.full:
        raise ValidationError(
            f"sizes {oversized} exceed the desk-scale threshold "
            f"{FULL_SCALE_THRESHOLD}; pass --full to run them"
        )
    report = bench_mod.run_study(args.study, spec)
    base = args.out
    if base is None:
        base = Path(f"{args.study}_{time.strftime('%Y%m%d-%H%M%S')}")
    formats = tuple(_REPORT_WRITERS) if args.format == "both" else (args.format,)
    for suffix in formats:
        path = base.with_suffix(f".{suffix}")
        path.write_text(_REPORT_WRITERS[suffix](report, timings=args.timings))
        sys.stdout.write(f"{path}\n")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "observe": _cmd_observe,
    "solve": _cmd_solve,
    "graph": _cmd_graph,
    "bench": _cmd_bench,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (ValidationError, OSError) as exc:  # bad input, or a missing or unreadable path
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

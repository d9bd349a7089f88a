"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/out/sweep.json
    python3 perfbench/sweep.py --seeds 1 2 3 --trace 1 --workloads multistart
    python3 perfbench/sweep.py --seeds 1 2 3 --compare perfbench/baseline/end_to_end.json

Each run is a separate `run.py` process, started only after the previous one
has ended, so runs never compete for the CPU. For every end-to-end metric the
summary gives the median, the quartiles (`statistics.quantiles(n=4)`) and
their distance as a share of the median, next to the metric's bound from
BENCHMARK.json; the exit code is 1 when a spread exceeds a third of its bound
or a unit failed. `--compare` checks a previous summary of the same seeds
instead: a median worse by more than its bound, or a fingerprint or
deterministic metric that changed, is reported and makes the exit code 1.
"""

import json
import statistics
import subprocess
import sys
from argparse import ArgumentParser
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metrics that must repeat exactly for a given seed.
DETERMINISTIC = (
    "queries_per_unit",
    "mean_p",
    "oracle.queries",
    "solvers.p2opt_checks",
    "solvers.p2opt_exchanges",
    "solvers.p2opt_accept_ratio",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed ({done.returncode}):\n{done.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines if line.startswith("record "))
    result = json.loads(lines[-1])
    record.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"])
    record["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    record["metrics"].update(record.pop("reported"))
    return record


def summarise(runs: list[dict], specs: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        median = statistics.median(values)
        entry = {"median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        if name in specs and "bound" in specs[name]:
            entry["bound"] = specs[name]["bound"]
        out[name] = entry
    return out


def compare(old: dict, new: dict, specs: dict) -> list[str]:
    problems = []
    for workload, result in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        old_runs = {r["seed"]: r for r in before["runs"]}
        for run in result["runs"]:
            prior = old_runs.get(run["seed"])
            if prior is None or prior["trace"] != run["trace"]:
                continue
            if prior["fingerprint"] != run["fingerprint"]:
                problems.append(f"{workload} seed {run['seed']}: fingerprint changed")
            for name in DETERMINISTIC:
                if name in run["metrics"] and run["metrics"][name] != prior["metrics"].get(name):
                    problems.append(f"{workload} seed {run['seed']}: {name} changed")
        for name, entry in result["summary"].items():
            spec = specs.get(name)
            if spec is None or name not in before["summary"] or "bound" not in spec:
                continue
            base = before["summary"][name]["median"]
            change = (entry["median"] - base) / base
            worse = change if spec["better"] == "lower" else -change
            print(f"{workload:14} {name:18} {base:12.6g} -> {entry['median']:12.6g} ({change:+.2%})")
            if worse > spec["bound"]:
                problems.append(f"{workload} {name}: {change:+.2%} is worse than its bound {spec['bound']:.0%}")
    return problems


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    specs = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} samples={runs[-1]['samples']}",
                  file=sys.stderr)
        summary = summarise(runs, specs)
        report["machine"] = runs[0]["machine"]
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print(f"\n{workload}  ({len(runs)} seeds, {args.seconds} s each)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, e in summary.items():
            spread, bound = e.get("spread"), e.get("bound")
            flag = ""
            if spread is not None and bound is not None and name != "setup_s" and spread > bound / 3:
                flag, steady = "  > bound/3", False
            print(f"  {name:32} {e['median']:12.6g} {e.get('q1', e['median']):12.6g} "
                  f"{e.get('q3', e['median']):12.6g} "
                  f"{'' if spread is None else format(spread, '.2%'):>8} "
                  f"{'' if bound is None else format(bound, '.0%'):>6}{flag}")
        failed = sum(r["failed"] for r in runs)
        if failed:
            steady = False
            print(f"  {failed} failed units")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if args.compare:
        problems = compare(json.loads(args.compare.read_text()), report, specs)
        for problem in problems:
            print("REGRESSION " + problem)
        return 1 if problems else 0
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

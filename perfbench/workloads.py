"""The four benchmark workloads: seeded set-up, one timed unit, its checks.

Every workload is the same pipeline (sum-only observation, pnn, p2opt,
scoring) with a different mix of layers doing the work; README.md gives the
reason for each one. Inputs are made in set-up from the seed alone, and the
library is driven only through its public functions.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from pairing_tsp import (
    Instance,
    ObservationPlan,
    Pairing,
    SolveResult,
    SolverConfig,
    TildeMatrix,
    build_graph,
    definitional_tilde,
    execute_plan,
    generate_instance,
    minimal_observation_plan,
    observation_budget,
    performance_indicator,
    plan_size,
    reconstruct_tilde,
    solve_p2opt,
    solve_pnn,
    total_compatibility,
    validate_tour,
)

from tracing import call, make_oracle

C_MIN, C_MAX = 0, 10000
EXCHANGE_LIMIT = 600
#: Random pairings per instance on which shadow totals are checked, besides
#: the covering pairings.
SAMPLED_PAIRINGS = 4
#: Relative tolerance of float total comparisons, against (N/2) * C_MAX.
FLOAT_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    instances: int
    #: Observation calls made inside each unit, in order; the first one's
    #: shadow is the one solved on.
    steps: tuple[str, ...]
    exact: bool = False
    #: One unit per start node, on shadows reconstructed in set-up.
    every_start: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("observe-solve", n=80, instances=16, steps=("reconstruct",)),
        Workload("multistart", n=100, instances=4, steps=(), every_start=True),
        Workload("minimal-plan", n=28, instances=16, steps=("execute",)),
        Workload("exact", n=28, instances=16, steps=("reconstruct", "execute"), exact=True),
    )
}


@dataclass
class Inputs:
    instances: list[Instance]
    #: Pairings on which shadow totals are checked, per instance.
    samples: list[list[Pairing]]
    #: One (instance index, solver config) per unit of a pass.
    cases: list[tuple[int, SolverConfig]]
    plan: Optional[ObservationPlan] = None
    #: Set-up shadows and the queries spent on them (multistart only).
    shadows: Optional[list[TildeMatrix]] = None
    setup_queries: int = 0


@dataclass
class Outcome:
    shadows: dict[str, TildeMatrix]
    spent: Optional[int]
    queries: int
    pnn: SolveResult
    refined: SolveResult
    p: float

    def key(self) -> tuple:
        """The deterministic output of a unit, hashed into the fingerprint."""
        r = self.refined
        return (r.pairing.pairs, r.noc, r.exchanges_used, self.queries, self.p)


def _integer_instance(n: int, seed: int) -> Instance:
    rng = np.random.Generator(np.random.PCG64(seed))
    iu, ju = np.triu_indices(n, k=1)
    values = np.array(rng.integers(C_MIN, C_MAX + 1, len(iu)).tolist(), dtype=object)
    c = np.zeros((n, n), dtype=object)
    c[iu, ju] = values
    c[ju, iu] = values
    return Instance(n=n, c=c, c_min=C_MIN, c_max=C_MAX)


def covering_pairings(n: int) -> list[Pairing]:
    """The n-1 rounds of the circle-method round robin on 1..n.

    Together they contain every pair exactly once, so a wrong shadow entry
    changes the total of one of them, unless errors in one round cancel.
    """
    m = n - 1
    return [
        Pairing([(r + 1, n)] + [((r + k) % m + 1, (r - k) % m + 1) for k in range(1, n // 2)])
        for r in range(m)
    ]


def setup(w: Workload, seed: int, tracer) -> Inputs:
    """Generate every input of a run from `seed`, plus the set-up stages."""
    words = np.random.SeedSequence([seed, zlib.crc32(w.name.encode())]).generate_state(
        2 * w.instances + (w.n * w.instances if w.every_start else w.instances),
        dtype=np.uint64,
    )
    words = [int(v) for v in words]
    make = _integer_instance if w.exact else (lambda n, s: generate_instance(n, C_MIN, C_MAX, s))
    instances = [make(w.n, words[i]) for i in range(w.instances)]
    covering = covering_pairings(w.n)
    samples = []
    for i in range(w.instances):
        rng = np.random.Generator(np.random.PCG64(words[w.instances + i]))
        samples.append(
            covering
            + [Pairing.from_permutation((rng.permutation(w.n) + 1).tolist()) for _ in range(SAMPLED_PAIRINGS)]
        )
    solver_seeds = iter(words[2 * w.instances :])
    inputs = Inputs(instances=instances, samples=samples, cases=[])
    if "execute" in w.steps:
        inputs.plan = call(tracer, "plan.build", minimal_observation_plan, w.n)
    if w.every_start:
        inputs.shadows = []
        for instance in instances:
            oracle = make_oracle(instance, tracer)
            shadow, spent = call(tracer, "observation.reconstruct", reconstruct_tilde, oracle)
            inputs.shadows.append(shadow)
            inputs.setup_queries += oracle.query_count
        for i in range(w.instances):
            for start in range(1, w.n + 1):
                config = SolverConfig(seed=next(solver_seeds), start_node=start, exchange_limit=EXCHANGE_LIMIT)
                inputs.cases.append((i, config))
    else:
        for i in range(w.instances):
            inputs.cases.append((i, SolverConfig(seed=next(solver_seeds), exchange_limit=EXCHANGE_LIMIT)))
    return inputs


def _score(instance: Instance, pairing: Pairing) -> float:
    total = total_compatibility(instance, pairing)
    return performance_indicator(total, instance.n, instance.c_min, instance.c_max)


def run_unit(w: Workload, inputs: Inputs, k: int, tracer) -> Outcome:
    """The timed work of unit `k`: observe, construct, refine, score."""
    i, config = inputs.cases[k % len(inputs.cases)]
    instance = inputs.instances[i]
    shadows: dict[str, TildeMatrix] = {}
    spent = None
    queries = 0
    if w.steps:
        oracle = make_oracle(instance, tracer)
        for step in w.steps:
            if step == "reconstruct":
                shadows[step], spent = call(tracer, "observation.reconstruct", reconstruct_tilde, oracle)
            else:
                shadows[step] = call(tracer, "plan.execute", execute_plan, oracle, inputs.plan)
        queries = oracle.query_count
        shadow = shadows[w.steps[0]]
    else:
        shadow = inputs.shadows[i]
        shadows["setup"] = shadow
    pnn = call(tracer, "solvers.pnn", solve_pnn, shadow.t, config)
    refined = call(tracer, "solvers.p2opt", solve_p2opt, shadow.t, pnn.pairing, config)
    p = call(tracer, "core.score", _score, instance, refined.pairing)
    return Outcome(shadows=shadows, spent=spent, queries=queries, pnn=pnn, refined=refined, p=p)


def _validate_pnn_tour(matrix: np.ndarray, tour):
    return validate_tour(build_graph(matrix, matrix.shape[0]), tour)


def check_unit(w: Workload, inputs: Inputs, k: int, out: Outcome, tracer) -> list[str]:
    """Every correctness check on one unit's outputs; returns the failures."""
    i, _ = inputs.cases[k % len(inputs.cases)]
    instance = inputs.instances[i]
    n = w.n
    tol = 0 if w.exact else FLOAT_RTOL * (n / 2) * C_MAX
    problems = []

    expected = 0
    if "reconstruct" in w.steps:
        expected += observation_budget(n)
        if out.spent != observation_budget(n):
            problems.append(f"reconstruct_tilde reported {out.spent} queries, budget is {observation_budget(n)}")
    if "execute" in w.steps:
        expected += plan_size(n)
    if w.every_start:
        expected = w.instances * observation_budget(n)
        if inputs.setup_queries != expected:
            problems.append(f"set-up made {inputs.setup_queries} queries, expected {expected}")
    elif out.queries != expected:
        problems.append(f"unit made {out.queries} oracle queries, expected {expected}")

    # a set-up shadow does not change, so it is checked on its first start only
    shadows = {} if w.every_start and k % w.n else out.shadows
    for name, shadow in shadows.items():
        for pairing in inputs.samples[i]:
            hidden = total_compatibility(instance, pairing)
            if abs(shadow.total(pairing) - hidden) > tol:
                problems.append(f"{name} shadow total {shadow.total(pairing)} != hidden total {hidden}")
                break
    if w.exact:
        reference = definitional_tilde(instance.c).t
        for name, shadow in out.shadows.items():
            if not np.array_equal(shadow.t, reference):
                problems.append(f"{name} shadow differs from definitional_tilde")

    shadow_t = next(iter(out.shadows.values())).t
    verdict = call(tracer, "tsp_graph.validate", _validate_pnn_tour, shadow_t, out.pnn.tour)
    if not verdict:
        problems.append(f"pnn tour invalid: {verdict.reason}")
    if out.refined.score < out.pnn.score - tol:
        problems.append(f"p2opt score {out.refined.score} is below its pnn start {out.pnn.score}")
    if out.refined.exchanges_used > EXCHANGE_LIMIT:
        problems.append(f"p2opt made {out.refined.exchanges_used} exchanges, limit {EXCHANGE_LIMIT}")
    return problems

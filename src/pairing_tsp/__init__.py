"""Pairing under sum-only observation: reconstruction, layered-tour solvers,
exact oracles, and a benchmark harness."""

from .core import (
    DEFAULT_ENUMERATION_CAP,
    Instance,
    InternalError,
    Pairing,
    ValidationError,
    double_factorial,
    dumps_instance_json,
    dumps_instance_text,
    enumerate_pairings,
    exact_best_pairing,
    load_instance,
    loads_instance_json,
    loads_instance_text,
    pairing_count,
    pairing_sum,
    total_compatibility,
)
from .oracle import ObservationOracle
from .observation import (
    TildeMatrix,
    anchor_pairing,
    definitional_tilde,
    exchange_rule_value,
    observation_budget,
    reconstruct_tilde,
)
from .plan import (
    ObservationPlan,
    PlanRankError,
    execute_plan,
    minimal_observation_plan,
    plan_size,
)
from .tsp_graph import (
    GraphNode,
    PairingTspGraph,
    Tour,
    TourVerdict,
    build_graph,
    pairing_from_tour,
    tour_from_pairing,
    validate_tour,
)
from .solvers import (
    SolveResult,
    SolverConfig,
    solve_p2opt,
    solve_pnn,
    solve_pnn_p2opt,
    solve_random,
)
from .bench import (
    AggregateRow,
    ExperimentReport,
    ExperimentSpec,
    TrialRecord,
    generate_instance,
    performance_indicator,
    run_exchange_limit_sweep,
    run_initial_node_study,
    run_noc_study,
    run_performance_study,
    run_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]

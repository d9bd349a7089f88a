import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pairing_tsp.bench import (
    CSV_HEADER,
    ExperimentSpec,
    _observed_matrix,
    generate_instance,
    performance_indicator,
    random_start_node,
    run_exchange_limit_sweep,
    run_initial_node_study,
    run_noc_study,
    run_performance_study,
    run_study,
    trial_seeds,
)
from pairing_tsp.core import ValidationError, total_compatibility
from pairing_tsp.observation import observation_budget
from pairing_tsp.oracle import ObservationOracle
from pairing_tsp.plan import ObservationPlan, execute_plan, plan_size
from pairing_tsp.solvers import SolverConfig, solve_p2opt, solve_pnn, solve_pnn_p2opt


class TestPerformanceIndicator:
    def test_lower_bound_maps_to_zero(self):
        assert performance_indicator(0.0, 10, 0, 10000) == 0.0

    def test_upper_bound_maps_to_one(self):
        assert performance_indicator(5 * 10000.0, 10, 0, 10000) == 1.0

    def test_midpoint(self):
        assert performance_indicator(10000.0, 4, 0, 10000) == 0.5

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValidationError):
            performance_indicator(1.0, 4, 5, 5)

    def test_out_of_band_score_raises(self):
        with pytest.raises(ValidationError, match="outside the feasible band"):
            performance_indicator(20001.0, 4, 0, 10000)
        with pytest.raises(ValidationError):
            performance_indicator(-1.0, 4, 0, 10000)

    def test_negative_bounds_supported(self):
        assert performance_indicator(0.0, 4, -10, 10) == 0.5


class TestGenerateInstance:
    def test_deterministic(self):
        a = generate_instance(10, 0, 10000, 42)
        b = generate_instance(10, 0, 10000, 42)
        assert np.array_equal(a.c, b.c)
        assert not np.array_equal(a.c, generate_instance(10, 0, 10000, 43).c)

    def test_bounds_and_symmetry(self):
        inst = generate_instance(30, 5, 6, 7)
        off = inst.c[~np.eye(30, dtype=bool)]
        assert off.min() >= 5 and off.max() <= 6
        assert np.array_equal(inst.c, inst.c.T)

    @pytest.mark.parametrize(
        "c_min,c_max,seed,message",
        [
            (0, 10000, -1, "seed must be"),
            (0, 10000, 2.5, "seed must be"),
            (5, 1, 0, "c_min <= c_max"),
            (0, float("nan"), 0, "finite"),
            (float("nan"), 1, 0, "finite"),
            (0, float("inf"), 0, "finite"),
            (float("-inf"), 0, 0, "finite"),
            (False, True, 0, "c_min must be a number"),
            ("0", 1, 0, "c_min must be a number"),
            (0, "1", 0, "c_max must be a number"),
        ],
    )
    def test_bad_seed_or_bounds_named(self, c_min, c_max, seed, message):
        with pytest.raises(ValidationError, match=message):
            generate_instance(6, c_min, c_max, seed)

    def test_equal_bounds_accepted(self):
        inst = generate_instance(6, 5, 5, 0)
        assert np.all(inst.c[~np.eye(6, dtype=bool)] == 5)

    def test_random_start_node_bad_seed_named(self):
        with pytest.raises(ValidationError, match="seed must be"):
            random_start_node(-3, 10)

    def test_mean_matches_uniform_expectation(self):
        inst = generate_instance(100, 0, 10000, 1)
        iu = np.triu_indices(100, k=1)
        values = inst.c[iu]
        sigma = (10000 / np.sqrt(12)) / np.sqrt(len(values))
        assert abs(values.mean() - 5000) < 3 * sigma


class TestSeedScheme:
    def test_trials_isolated_and_reproducible(self):
        a = trial_seeds(7, 0, 0)
        assert a == trial_seeds(7, 0, 0)
        assert a != trial_seeds(7, 0, 1)
        assert a != trial_seeds(7, 1, 0)
        assert a != trial_seeds(8, 0, 0)


def small_spec(**overrides):
    base = dict(
        n_values=(8, 10),
        trials=3,
        value_range=(0.0, 10000.0),
        exchange_limit=600,
        algorithms=("random", "pnn", "pnn+p2opt"),
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_odd_n_rejected(self):
        with pytest.raises(ValidationError):
            small_spec(n_values=(7,))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError):
            small_spec(algorithms=("annealing",))

    def test_json_round_trip(self):
        spec = small_spec()
        again = ExperimentSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            ExperimentSpec.from_json_dict({"n_values": [4], "trials": 1, "bogus": 2})

    @pytest.mark.parametrize("value_range", [(False, True), (0, True)])
    def test_bool_or_string_value_range_rejected(self, value_range):
        with pytest.raises(ValidationError, match="value_range must be two finite numbers"):
            small_spec(value_range=value_range)

    def test_accepted_value_range_keeps_its_type(self):
        assert small_spec(value_range=[0, 10000]).to_json_dict()["value_range"] == [0, 10000]


class TestPerformanceStudy:
    def test_reproducible_and_complete(self):
        spec = small_spec()
        r1 = run_performance_study(spec)
        r2 = run_performance_study(spec)
        assert len(r1.records) == 2 * 3 * 3
        assert [rec.to_json_dict(timings=False) for rec in r1.records] == [
            rec.to_json_dict(timings=False) for rec in r2.records
        ]
        assert r1.to_csv_text() == r2.to_csv_text()

    def test_observation_column_is_budget(self):
        report = run_performance_study(small_spec())
        for record in report.records:
            if record.algo == "random":
                assert record.observations == 0
            else:
                assert record.observations == observation_budget(record.n)

    def test_p_in_unit_interval(self):
        report = run_performance_study(small_spec())
        assert all(0.0 <= record.p <= 1.0 for record in report.records)

    def test_csv_header_golden(self):
        report = run_performance_study(small_spec(n_values=(8,), trials=1))
        text = report.to_csv_text()
        assert text.splitlines()[0] == CSV_HEADER == (
            "n,algo,trial,seed,p,noc,exchanges,observations,millis"
        )
        assert text.endswith("\n")

    def test_timings_zeroed_by_default(self):
        report = run_performance_study(small_spec(n_values=(8,), trials=1))
        for line in report.to_csv_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] == "0"
        assert any(record.millis > 0 for record in report.records)

    def test_aggregates_match_records(self):
        report = run_performance_study(small_spec())
        for agg in report.aggregates:
            ps = [r.p for r in report.records if (r.n, r.algo) == (agg.n, agg.algo)]
            assert agg.trials == len(ps) == 3
            assert agg.mean_p == pytest.approx(float(np.mean(ps)))
            assert agg.std_p == pytest.approx(float(np.std(ps)))

    def test_process_pool_gives_identical_records(self, monkeypatch):
        spec = small_spec()
        monkeypatch.setenv("PAIRING_TSP_THREADS", "1")
        serial = run_performance_study(spec)
        monkeypatch.setenv("PAIRING_TSP_THREADS", "2")
        pooled = run_performance_study(spec)
        assert serial.to_csv_text() == pooled.to_csv_text()


class TestSweepStudy:
    def test_monotone_and_l0_equals_construction(self):
        spec = small_spec(
            n_values=(10,),
            trials=4,
            exchange_limit=(0, 2, 10, 50),
            algorithms=("pnn+p2opt",),
        )
        report = run_exchange_limit_sweep(spec)
        series = report.extras["sweep"]["10"]
        means = series["mean_p"]
        assert all(b >= a for a, b in zip(means, means[1:]))
        zero_limit = [r for r in report.records if r.algo == "pnn+p2opt@l=0"]
        assert all(r.exchanges == 0 for r in zero_limit)
        # l=0 leaves the constructed pairing untouched
        for record in zero_limit:
            inst = generate_instance(10, 0, 10000, record.seed)
            from pairing_tsp.bench import _observed_matrix, trial_seeds

            _, solver_seed = trial_seeds(spec.master_seed, 0, record.trial)
            shadow, _ = _observed_matrix(inst)
            constructed = solve_pnn(shadow, SolverConfig(seed=solver_seed, start_node=1))
            from pairing_tsp.core import total_compatibility

            assert record.p == pytest.approx(
                performance_indicator(
                    total_compatibility(inst, constructed.pairing), 10, 0, 10000
                )
            )

    def test_requires_sweep_list(self):
        with pytest.raises(ValidationError):
            run_exchange_limit_sweep(small_spec(exchange_limit=600))


class TestNocStudy:
    def test_trace_and_final_scan(self):
        spec = small_spec(n_values=(12,), trials=3, algorithms=("pnn+p2opt",))
        report = run_noc_study(spec)
        assert set(report.extras["mean_trace_per_loop"]) == {"12"}
        for record in report.records:
            assert record.noc >= record.exchanges
            # converged runs (limit not hit) end with one clean scan
            assert record.exchanges < 600
        trace = report.extras["mean_trace_per_loop"]["12"]
        assert len(trace) >= 2

    def test_converged_trial_ends_with_full_scan(self):
        from pairing_tsp.bench import _trial

        spec = small_spec(n_values=(12,), trials=1, algorithms=("pnn+p2opt",))
        records, trace = _trial("noc", spec, 0, 0)
        assert records[0].exchanges < 600
        assert trace[-1] == (12 // 2) * (12 // 2 - 1) // 2

    def test_mean_noc_grows_with_n(self):
        spec = small_spec(n_values=(12, 16, 20), trials=4, algorithms=("pnn+p2opt",))
        report = run_noc_study(spec)
        means = [agg.mean_noc for agg in report.aggregates]
        assert means == sorted(means)

    def test_mean_trace_rises_then_falls(self):
        spec = small_spec(n_values=(24,), trials=6, algorithms=("pnn+p2opt",))
        report = run_noc_study(spec)
        trace = report.extras["mean_trace_per_loop"]["24"]
        peak = max(trace)
        assert trace[0] < peak
        assert trace[-1] < peak


class TestStartStudy:
    def test_per_start_records_and_summary(self):
        spec = small_spec(n_values=(8,), trials=2, algorithms=("pnn", "pnn+p2opt"))
        report = run_initial_node_study(spec)
        pnn_rows = [r for r in report.records if r.algo.startswith("pnn@start=")]
        assert len(pnn_rows) == 2 * 8
        summary = report.extras["mean_std_p_over_starts"]["8"]
        assert set(summary) == {"pnn", "pnn+p2opt"}
        for value in summary.values():
            assert 0.0 <= value < 0.5

    def test_refined_time_includes_construction(self):
        spec = small_spec(n_values=(8,), trials=1, algorithms=("pnn", "pnn+p2opt"))
        millis = {r.algo: r.millis for r in run_initial_node_study(spec).records}
        for start in range(1, 9):
            assert millis[f"pnn+p2opt@start={start}"] >= millis[f"pnn@start={start}"] > 0

    def test_constant_matrix_would_give_zero_std(self):
        # direct check of the spread logic on a degenerate instance
        from pairing_tsp.core import Instance, total_compatibility

        c = np.full((6, 6), 4.0)
        np.fill_diagonal(c, 0)
        inst = Instance(n=6, c=c, c_min=4, c_max=4)
        ps = []
        for start in range(1, 7):
            result = solve_pnn(inst.c, SolverConfig(seed=start, start_node=start))
            ps.append(total_compatibility(inst, result.pairing))
        assert float(np.std(ps)) == 0.0


# sha256 of to_csv_text() + to_json_text(). The digests were taken while each
# study still had its own trial function; the shared runner must match them.
PINNED_REPORTS = {
    "perf": (
        run_performance_study,
        dict(n_values=(8, 10), trials=3, start_node="random", master_seed=31),
        "630d881bf1eb85666c193efca455e3e9ad669f9e2c506a2e313120e9a8298b99",
    ),
    "sweep": (
        run_exchange_limit_sweep,
        dict(
            n_values=(8, 10),
            trials=2,
            exchange_limit=(0, 3, 50),
            algorithms=("pnn+p2opt",),
            start_node="random",
            master_seed=32,
        ),
        "3c17571f2b021a73a8469d3f3156315b894d43430a7d879629caae8e0ca39c56",
    ),
    "noc": (
        run_noc_study,
        dict(n_values=(8, 12), trials=2, algorithms=("pnn+p2opt",), master_seed=33),
        "c053a9baf0887ab8a2b21caa02dd7d9093b3024ccf60cfd808c4a1b358981627",
    ),
    "start": (
        run_initial_node_study,
        dict(n_values=(6, 8), trials=2, algorithms=("pnn", "pnn+p2opt"), master_seed=34),
        "4e799c3f196153c219bd7d2f4d185072bfef750815a34f76ea8050077a30bb46",
    ),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("study", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(study, threads, monkeypatch):
    monkeypatch.setenv("PAIRING_TSP_THREADS", threads)
    run, fields, digest = PINNED_REPORTS[study]
    report = run(ExperimentSpec(**fields))
    text = report.to_csv_text() + report.to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_import_leaves_the_process_pool_out():
    """`run_study` imports the pool only when it uses one, so importing the
    package loads neither `concurrent.futures` nor `multiprocessing`."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import pairing_tsp

    src = str(Path(pairing_tsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, pairing_tsp; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestIntegerStartNode:
    """A study with an integer `start_node` starts every solve at that node:
    its records match `solve_pnn` / `solve_p2opt` started from node 3."""

    @staticmethod
    def _setting(spec, record):
        inst = generate_instance(record.n, *spec.value_range, record.seed)
        _, solver_seed = trial_seeds(spec.master_seed, 0, record.trial)
        return inst, _observed_matrix(inst)[0], solver_seed

    @staticmethod
    def _assert_matches(spec, record, inst, result):
        score = total_compatibility(inst, result.pairing)
        assert record.p == performance_indicator(score, record.n, *spec.value_range)
        assert (record.noc, record.exchanges) == (result.noc, result.exchanges_used)

    def test_perf(self):
        spec = small_spec(n_values=(8,), trials=2, algorithms=("pnn", "pnn+p2opt"), start_node=3)
        report = run_performance_study(spec)
        assert len(report.records) == 4
        for record in report.records:
            inst, shadow, solver_seed = self._setting(spec, record)
            config = SolverConfig(seed=solver_seed, start_node=3, exchange_limit=600)
            solve = solve_pnn if record.algo == "pnn" else solve_pnn_p2opt
            self._assert_matches(spec, record, inst, solve(shadow, config))

    def test_sweep(self):
        spec = small_spec(
            n_values=(10,), trials=2, exchange_limit=(0, 3), algorithms=("pnn+p2opt",), start_node=3
        )
        report = run_exchange_limit_sweep(spec)
        assert len(report.records) == 4
        for record in report.records:
            inst, shadow, solver_seed = self._setting(spec, record)
            config = SolverConfig(seed=solver_seed, start_node=3, exchange_limit=None)
            constructed = solve_pnn(shadow, config)
            limit = int(record.algo.rsplit("=", 1)[1])
            refine = replace(config, exchange_limit=limit)
            refined = solve_p2opt(shadow, constructed.pairing, refine)
            self._assert_matches(spec, record, inst, refined)

    def test_noc(self):
        spec = small_spec(n_values=(12,), trials=2, algorithms=("pnn+p2opt",), start_node=3)
        report = run_noc_study(spec)
        assert len(report.records) == 2
        for record in report.records:
            inst, shadow, solver_seed = self._setting(spec, record)
            config = SolverConfig(seed=solver_seed, start_node=3, exchange_limit=600)
            self._assert_matches(spec, record, inst, solve_pnn_p2opt(shadow, config))

    def test_start_node_changes_the_records(self):
        spec = small_spec(n_values=(8,), trials=2, algorithms=("pnn",))
        at_one = run_performance_study(spec).records
        at_three = run_performance_study(replace(spec, start_node=3)).records
        assert [r.p for r in at_one] != [r.p for r in at_three]


class TestUnreachedFaults:
    def test_threads_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("PAIRING_TSP_THREADS", "x")
        with pytest.raises(ValidationError, match="PAIRING_TSP_THREADS must be an integer"):
            run_performance_study(small_spec(n_values=(8,), trials=1))

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (dict(algorithms="pnn"), "algorithms must be a sequence of names"),
            (dict(trials=0), "trials must be >= 1, got 0"),
            (dict(value_range=(5.0, 5.0)), "value range must satisfy max > min"),
            (dict(value_range=(10.0, 1.0)), "value range must satisfy max > min"),
        ],
    )
    def test_spec_field_named(self, overrides, message):
        with pytest.raises(ValidationError, match=message):
            small_spec(**overrides)

    def test_json_spec_missing_n_values(self):
        with pytest.raises(ValidationError, match="bad experiment spec: .*n_values"):
            ExperimentSpec.from_json_dict({"trials": 1})

    def test_json_spec_not_an_object(self):
        with pytest.raises(ValidationError, match="experiment spec JSON must be an object"):
            ExperimentSpec.from_json_dict([8, 1])

    def test_unknown_study(self):
        with pytest.raises(ValidationError, match="unknown study 'tour'"):
            run_study("tour", small_spec())

    def test_perf_with_a_list_of_limits(self):
        with pytest.raises(ValidationError, match="the perf study needs a single exchange_limit"):
            run_performance_study(small_spec(exchange_limit=(0, 5)))


class TestEmptyStudy:
    """A study with nothing to run is refused by name before any trial,
    as `trials: 0` and the sweep's empty limit list are."""

    @pytest.mark.parametrize("n_values", [(), []])
    def test_spec_refuses_empty_n_values(self, n_values):
        with pytest.raises(ValidationError, match="n_values must be a non-empty list"):
            small_spec(n_values=n_values)

    def test_json_spec_refuses_empty_n_values(self):
        with pytest.raises(ValidationError, match="n_values must be a non-empty list"):
            ExperimentSpec.from_json_dict({"n_values": [], "trials": 1})

    def test_perf_refuses_no_algorithms_before_any_trial(self, monkeypatch):
        import pairing_tsp.bench as bench

        def no_trial(*task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_trial", no_trial)
        spec = small_spec(n_values=(8,), trials=1, algorithms=())
        with pytest.raises(ValidationError, match="the perf study needs algorithms"):
            run_study("perf", spec)

    @pytest.mark.parametrize("study", ["sweep", "noc", "start"])
    def test_other_studies_do_not_read_algorithms(self, study):
        limit = (0, 5) if study == "sweep" else 600
        spec = small_spec(n_values=(6,), trials=1, algorithms=(), exchange_limit=limit)
        assert run_study(study, spec).records


class TestWideValueRange:
    """One rule refuses a value range whose width max - min overflows
    float64, for the generator and for a spec before any trial runs."""

    def test_generate_instance_refuses_it(self):
        with pytest.raises(ValidationError, match=r"value range \[-1e\+308, 1e\+308\] is too wide"):
            generate_instance(6, -1e308, 1e308, 0)

    def test_spec_refuses_it(self):
        with pytest.raises(ValidationError, match=r"value range \[-1e\+308, 1e\+308\] is too wide"):
            small_spec(value_range=(-1e308, 1e308))

    def test_widest_drawable_range_is_admitted(self):
        inst = generate_instance(4, -8e307, 8e307, 0)
        assert np.isfinite(inst.c).all()


class TestPerformanceIndicatorWideBand:
    """p is never NaN: a band wider than float64 is computed exactly, and a
    finite band keeps the float formula's bits."""

    def test_all_zero_scores_mid_band(self):
        assert performance_indicator(0.0, 6, -1e308, 1e308) == 0.5

    def test_top_of_an_overflowing_band_is_one(self):
        assert performance_indicator(1.6e308, 4, -8e307, 8e307) == 1.0
        assert performance_indicator(-1.6e308, 4, -8e307, 8e307) == 0.0

    def test_exact_score_in_an_overflowing_band(self):
        # (score - 3 c_min) / (3 (c_max - c_min)), in rationals
        exact = (10**308 + 3 * Fraction(1e308)) / (6 * Fraction(1e308))
        assert performance_indicator(10**308, 6, -1e308, 1e308) == float(exact)

    def test_finite_band_keeps_its_bits(self):
        for score, n, lo, hi in [(1234.5678, 10, 0.1, 9999.9), (-3.3, 8, -7.7, 1.1)]:
            band_lo, band_hi = (n / 2) * lo, (n / 2) * hi
            expected = (score - band_lo) / (band_hi - band_lo)
            assert performance_indicator(score, n, lo, hi) == expected


class TestPerformanceIndicatorAdmission:
    """Every argument is admitted: a bad one gets a ValidationError, never a
    raw exception or a number."""

    @pytest.mark.parametrize("n", [0, 3, 5, True, 4.0, "4"], ids=repr)
    def test_count_admitted(self, n):
        with pytest.raises(ValidationError, match="element count must be even and >= 4"):
            performance_indicator(0, n, 0, 1)

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf")], ids=repr)
    def test_non_finite_score_refused(self, score):
        with pytest.raises(ValidationError, match="is not finite"):
            performance_indicator(score, 4, 0, 1)

    @pytest.mark.parametrize("score", ["1", None, True, 1j], ids=repr)
    def test_score_that_is_not_a_number_named(self, score):
        with pytest.raises(ValidationError, match="score must be a number"):
            performance_indicator(score, 4, 0, 1)

    def test_infinite_bounds_refused(self):
        with pytest.raises(ValidationError, match="must be finite"):
            performance_indicator(0, 4, -float("inf"), float("inf"))
        with pytest.raises(ValidationError, match="c_max must be a number"):
            performance_indicator(0, 4, 0, "1")

    def test_reversed_and_equal_bounds_keep_their_message(self):
        for lo, hi in [(10, 0), (5, 5), (float("nan"), 0)]:
            with pytest.raises(ValidationError, match="need c_max > c_min"):
                performance_indicator(0, 4, lo, hi)

    def test_exact_bounds_beyond_float_range(self):
        assert performance_indicator(0, 4, -(10**400), 10**400) == 0.5
        assert performance_indicator(10**400, 4, -(10**400), 10**400) == 0.75
        with pytest.raises(ValidationError, match="outside the feasible band"):
            performance_indicator(2 * 10**400 + 1, 4, -(10**400), 10**400)

    def test_exact_score_kept_exact(self):
        assert performance_indicator(Fraction(1, 3), 4, 0, 1) == 1 / 6
        big = 10**308 * 3
        assert performance_indicator(big, 6, -(10**308), 10**308) == 1.0


@pytest.mark.parametrize("n", [12, 30])
def test_observed_matrix_runs_the_minimal_plan(n):
    # one observe step for both strategies: "minimal" is `execute_plan`'s
    # shadow, and its query count is the plan's size
    inst = generate_instance(n, 0, 10000, seed=n)
    expected = execute_plan(ObservationOracle(inst), ObservationPlan(n)).t
    shadow, observations = _observed_matrix(inst, "minimal")
    assert shadow.tobytes() == expected.tobytes()
    assert observations == plan_size(n)

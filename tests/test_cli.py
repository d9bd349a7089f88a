import json

import numpy as np
import pytest

from pairing_tsp.bench import random_start_node
from pairing_tsp.cli import main
from pairing_tsp.core import Pairing, exact_best_pairing, load_instance
from pairing_tsp.observation import observation_budget
from pairing_tsp.plan import plan_size


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.txt"
    assert run_cli("gen", "-n", "6", "--seed", "7", "--out", str(path)) == 0
    return path


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("gen", "-n", "8", "--seed", "3", "--out", str(a)) == 0
        assert run_cli("gen", "-n", "8", "--seed", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_loadable(self, tmp_path):
        path = tmp_path / "inst.json"
        assert run_cli("gen", "-n", "6", "--seed", "1", "--format", "json", "--out", str(path)) == 0
        inst = load_instance(path)
        assert inst.n == 6

    def test_stdout_default(self, capsys):
        assert run_cli("gen", "-n", "4", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert out.startswith("4 0.0 10000.0")

    def test_odd_n_exits_one(self, capsys):
        assert run_cli("gen", "-n", "5", "--seed", "0") == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--seed", "-1"], "seed must be a non-negative integer"),
            (["--cmin", "5", "--cmax", "1"], "c_min <= c_max"),
            (["--cmax", "nan"], "finite"),
            (["--cmin", "nan"], "finite"),
            (["--cmax", "inf"], "finite"),
            (["--cmin=-inf"], "finite"),
        ],
    )
    def test_bad_seed_or_bounds_exit_one(self, capsys, flags, message):
        assert run_cli("gen", "-n", "6", *flags) == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err


class TestObserve:
    def test_reconstruct_budget_n6(self, instance_file, tmp_path):
        out = tmp_path / "obs.json"
        assert run_cli("observe", str(instance_file), "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["observations"] == observation_budget(6) == 19
        assert data["strategy"] == "reconstruct"
        assert len(data["tilde"]) == 6
        assert all(v == 0 for v in data["tilde"][0])

    def test_minimal_strategy_counts(self, instance_file, tmp_path):
        out = tmp_path / "obs.json"
        assert run_cli("observe", str(instance_file), "--strategy", "minimal", "--out", str(out)) == 0
        data = json.loads(out.read_text())
        assert data["observations"] == plan_size(6) == 10

    def test_missing_file_exits_one(self, tmp_path):
        assert run_cli("observe", str(tmp_path / "nope.txt")) == 1


class TestSolve:
    def test_heuristic_below_exact(self, instance_file, tmp_path):
        heur, exact = tmp_path / "h.json", tmp_path / "e.json"
        assert run_cli(
            "solve", str(instance_file), "--algo", "pnn+p2opt", "--seed", "3", "--out", str(heur)
        ) == 0
        assert run_cli(
            "solve", str(instance_file), "--algo", "exact", "--seed", "3", "--out", str(exact)
        ) == 0
        h, e = json.loads(heur.read_text()), json.loads(exact.read_text())
        assert h["score"] <= e["score"] + 1e-9
        assert 0 <= h["p"] <= 1

    def test_observed_mode_reports_observations(self, instance_file, capsys):
        assert run_cli(
            "solve", str(instance_file), "--algo", "pnn", "--mode", "observed", "--seed", "1"
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["observations"] == 19
        assert data["mode"] == "observed"

    def test_trusted_mode_accepts_shadow_file(self, instance_file, tmp_path, capsys):
        shadow = tmp_path / "shadow.json"
        assert run_cli("observe", str(instance_file), "--out", str(shadow)) == 0
        assert run_cli("solve", str(shadow), "--algo", "pnn", "--seed", "2") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["observations"] is None
        assert data["n"] == 6
        assert 0 <= data["p"] <= 1

    def test_observed_mode_rejects_shadow_file(self, instance_file, tmp_path, capsys):
        shadow = tmp_path / "shadow.json"
        assert run_cli("observe", str(instance_file), "--out", str(shadow)) == 0
        assert run_cli("solve", str(shadow), "--algo", "pnn", "--mode", "observed") == 1
        assert "raw instance" in capsys.readouterr().err

    def test_deterministic_output(self, instance_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(
                "solve", str(instance_file), "--algo", "pnn+p2opt", "--seed", "9",
                "--start-node", "random", "--out", str(path),
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_start_within_range(self, instance_file, capsys):
        assert run_cli(
            "solve", str(instance_file), "--algo", "pnn", "--seed", "4",
            "--start-node", "random",
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert 1 <= data["start_node"] <= 6

    def test_observed_exact_never_reads_the_instance(self, tmp_path, capsys, monkeypatch):
        import pairing_tsp.cli as cli

        def no_truth(*args, **kwargs):
            raise AssertionError("exact enumeration read the hidden instance")

        path = tmp_path / "inst8.txt"
        assert run_cli("gen", "-n", "8", "--seed", "5", "--out", str(path)) == 0
        best, best_score = exact_best_pairing(load_instance(path))
        monkeypatch.setattr(cli, "exact_best_pairing", no_truth, raising=False)
        for mode in ("observed", "trusted"):
            assert run_cli("solve", str(path), "--algo", "exact", "--mode", mode) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["observations"] == (observation_budget(8) if mode == "observed" else None)
            # shadow totals differ from the truth's by one constant, so the argmax agrees
            assert Pairing(data["pairing"]) == best
            assert data["score"] == pytest.approx(best_score)

    def test_enumeration_cap_guard(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        assert run_cli("gen", "-n", "14", "--seed", "0", "--out", str(big)) == 0
        assert run_cli("solve", str(big), "--algo", "exact") == 1
        assert "max_n" in capsys.readouterr().err
        assert run_cli(
            "solve", str(big), "--algo", "exact", "--enumeration-cap", "14",
            "--out", str(tmp_path / "ok.json"),
        ) == 0

    @pytest.mark.parametrize("algo", ["random", "pnn", "pnn+p2opt", "exact"])
    def test_negative_exchange_limit_exits_one(self, instance_file, capsys, algo):
        assert run_cli("solve", str(instance_file), "--algo", algo, "--exchange-limit", "-5") == 1
        err = capsys.readouterr().err
        assert "exchange_limit must be >= 0" in err and "internal error" not in err


class TestRandomStartNode:
    # draws at n=10 for seeds 0, 1, 2, 3, 9, 17, as `solve` printed them
    # before the draw moved into bench.random_start_node
    PINNED = {0: 4, 1: 5, 2: 8, 3: 8, 9: 8, 17: 7}

    def test_solve_matches_study_draw(self, tmp_path, capsys):
        path = tmp_path / "inst10.txt"
        assert run_cli("gen", "-n", "10", "--seed", "42", "--out", str(path)) == 0
        for seed, start in self.PINNED.items():
            assert random_start_node(seed, 10) == start
            assert run_cli(
                "solve", str(path), "--algo", "pnn", "--seed", str(seed), "--start-node", "random"
            ) == 0
            assert json.loads(capsys.readouterr().out)["start_node"] == start

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algo", "random", "--seed", "-1"],
            ["--algo", "pnn", "--seed", "-1"],
            ["--algo", "pnn+p2opt", "--seed", "-1"],
            ["--algo", "exact", "--seed", "-1"],
            ["--algo", "pnn", "--start-node", "random", "--seed", "-3"],
            ["--algo", "random", "--start-node", "random", "--seed", "-3"],
        ],
    )
    def test_negative_seed_exits_one(self, instance_file, capsys, flags):
        assert run_cli("solve", str(instance_file), *flags) == 1
        err = capsys.readouterr().err
        assert "seed must be a non-negative integer" in err and "internal error" not in err

    @pytest.mark.parametrize("algo", ["random", "exact"])
    def test_unused_start_node_not_range_checked(self, instance_file, capsys, algo):
        assert run_cli("solve", str(instance_file), "--algo", algo, "--start-node", "99") == 0
        assert json.loads(capsys.readouterr().out)["start_node"] is None


class TestGraph:
    def test_dump_schema(self, instance_file, capsys):
        assert run_cli("graph", str(instance_file)) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["node_count"] == 15
        assert len(data["edges"]) == 39
        assert data["nodes"][0] == "L1:1"
        layer1 = [e for e in data["edges"] if e["u"].startswith("L1") and e["v"].startswith("L1")]
        inst = load_instance(instance_file)
        first = next(e for e in layer1 if e["u"] == "L1:1" and e["v"] == "L1:2")
        assert first["cost"] == -inst.value(1, 2)


class TestBench:
    def write_spec(self, tmp_path, **overrides):
        spec = {
            "n_values": [8],
            "trials": 2,
            "value_range": [0, 10000],
            "exchange_limit": 600,
            "algorithms": ["random", "pnn+p2opt"],
            "master_seed": 5,
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return path

    def test_perf_study_byte_identical(self, tmp_path):
        spec = self.write_spec(tmp_path)
        outs = []
        for name in ("one", "two"):
            base = tmp_path / name
            assert run_cli("bench", "perf", "--spec", str(spec), "--out", str(base)) == 0
            outs.append((base.with_suffix(".csv").read_bytes(), base.with_suffix(".json").read_bytes()))
        assert outs[0] == outs[1]

    def test_csv_header(self, tmp_path):
        spec = self.write_spec(tmp_path)
        base = tmp_path / "report"
        assert run_cli("bench", "perf", "--spec", str(spec), "--out", str(base), "--format", "csv") == 0
        lines = base.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "n,algo,trial,seed,p,noc,exchanges,observations,millis"
        assert not base.with_suffix(".json").exists()

    def test_full_scale_guard(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, n_values=[600], trials=1)
        assert run_cli("bench", "perf", "--spec", str(spec), "--out", str(tmp_path / "r")) == 1
        assert "--full" in capsys.readouterr().err

    def test_malformed_spec_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("bench", "perf", "--spec", str(bad)) == 1

    def test_sweep_via_cli(self, tmp_path):
        spec = self.write_spec(
            tmp_path, exchange_limit=[0, 5, 50], algorithms=["pnn+p2opt"], trials=2
        )
        base = tmp_path / "sweep"
        assert run_cli("bench", "sweep", "--spec", str(spec), "--out", str(base)) == 0
        data = json.loads(base.with_suffix(".json").read_text())
        means = data["extras"]["sweep"]["8"]["mean_p"]
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestBenchSpecValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("value_range", [0]),
            ("n_values", ["a"]),
            ("trials", 1.5),
            ("master_seed", -1),
            ("start_node", "foo"),
            ("start_node", [1]),
            ("exchange_limit", [1, "b"]),
            ("exchange_limit", 1.7),
            ("exchange_limit", -3),
            ("exchange_limit", [5, -1]),
            ("start_node", 99),
            ("start_node", 0),
            ("n_values", "8"),
            ("n_values", "16"),
            ("n_values", [8.7]),
            ("start_node", 2.7),
            ("trials", True),
            ("exchange_limit", True),
            ("master_seed", True),
            ("master_seed", [1, 2]),
            ("n_values", [True]),
            ("value_range", [False, True]),
        ],
    )
    def test_bad_field_exits_one_naming_it(self, tmp_path, capsys, field, value):
        spec = {"n_values": [8], "trials": 2, "master_seed": 5, field: value}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run_cli("bench", "perf", "--spec", str(path), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err
        assert "internal error" not in err
        assert not (tmp_path / "r.csv").exists()


    @pytest.mark.parametrize(
        "study,overrides",
        [
            ("perf", {"algorithms": ["random"], "exchange_limit": -3}),
            ("perf", {"algorithms": ["random"], "start_node": 9}),
            ("noc", {"start_node": 9}),
            ("sweep", {"start_node": -1, "exchange_limit": [0, 5]}),
        ],
    )
    def test_rejected_before_any_trial(self, tmp_path, capsys, monkeypatch, study, overrides):
        import pairing_tsp.bench as bench

        def no_trial(*task):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_trial", no_trial)
        spec = {"n_values": [10, 8], "trials": 1, "master_seed": 5, **overrides}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run_cli("bench", study, "--spec", str(path), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert "must be" in err
        assert "internal error" not in err

    def test_start_study_ignores_start_node(self, tmp_path):
        spec = {"n_values": [4], "trials": 1, "master_seed": 5, "start_node": 99}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run_cli("bench", "start", "--spec", str(path), "--out", str(tmp_path / "r")) == 0


class TestEmptyStudyRefused:
    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"n_values": [], "trials": 1}, "n_values must be a non-empty list"),
            (
                {"n_values": [8], "trials": 1, "algorithms": []},
                "the perf study needs algorithms to be a non-empty list",
            ),
        ],
        ids=["no-sizes", "no-algorithms"],
    )
    def test_exits_one_and_writes_no_report(self, tmp_path, capsys, spec, message):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run_cli("bench", "perf", "--spec", str(path), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [path]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag(self, capsys):
        assert run_cli("gen", "-n", "4", "--bogus") == 1

    def test_missing_required(self, capsys):
        assert run_cli("gen") == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "pairing-tsp" in capsys.readouterr().out


class TestSolveInputHardening:
    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 4, "tilde": [[0, 0', "malformed JSON"),
            ('{"tilde": [[0, 0], [0, 0]]}', "malformed shadow file"),
            ('{"n": 2, "tilde": [[0, 0], [0]]}', "malformed shadow file"),
        ],
    )
    def test_malformed_json_exits_one(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run_cli("solve", str(bad), "--algo", "pnn") == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err

    def test_shadow_with_nonzero_first_row_rejected(self, instance_file, tmp_path, capsys):
        shadow = tmp_path / "shadow.json"
        assert run_cli("observe", str(instance_file), "--out", str(shadow)) == 0
        data = json.loads(shadow.read_text())
        data["tilde"][0][2] = 5.0
        shadow.write_text(json.dumps(data))
        assert run_cli("solve", str(shadow), "--algo", "pnn") == 1
        assert "first row and column" in capsys.readouterr().err

    def test_nan_entry_named_not_called_asymmetric(self, tmp_path, capsys):
        path = tmp_path / "nan.txt"
        path.write_text("4 0 10\n1 2 nan\n3 4\n5\n")
        assert run_cli("solve", str(path), "--algo", "pnn") == 1
        err = capsys.readouterr().err
        assert "c[1][4]=nan is not finite" in err
        assert "symmetric" not in err

    def test_nan_bound_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan_bound.txt"
        path.write_text("4 nan 10\n1 2 3\n3 4\n5\n")
        assert run_cli("solve", str(path), "--algo", "pnn") == 1
        assert "must be finite" in capsys.readouterr().err
        shadow = tmp_path / "nan_bound.json"
        t = [[0, 0, 0, 0], [0, 0, 5, 1], [0, 5, 0, 2], [0, 1, 2, 0]]
        shadow.write_text(json.dumps({"n": 4, "tilde": t, "c_min": float("nan"), "c_max": 10}))
        assert run_cli("solve", str(shadow), "--algo", "pnn") == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", "x"),
            ("n", 6.9),
            ("upper_triangle", [[1.0]] + [1.0] * 14),
            ("c_min", False),
            ("c_min", True),
            ("c_max", "1e1"),
            ("upper_triangle", [True] + [1.0] * 14),
            ("upper_triangle", ["1"] + [1.0] * 14),
        ],
    )
    def test_bad_instance_json_number_exits_one_naming_it(self, tmp_path, capsys, field, value):
        data = {"n": 6, "c_min": 0, "c_max": 10, "upper_triangle": [1.0] * 15, field: value}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert run_cli("solve", str(path), "--algo", "pnn") == 1
        err = capsys.readouterr().err
        assert f"error: {field}" in err
        assert "internal error" not in err

    def test_non_integer_shadow_n_exits_one_naming_it(self, tmp_path, capsys):
        shadow = tmp_path / "shadow.json"
        t = [[0, 0, 0, 0], [0, 0, 5, 1], [0, 5, 0, 2], [0, 1, 2, 0]]
        shadow.write_text(json.dumps({"n": 4.5, "tilde": t, "c_min": 0, "c_max": 10}))
        assert run_cli("solve", str(shadow), "--algo", "pnn") == 1
        err = capsys.readouterr().err
        assert "error: n must be an integer" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "entry,message",
        [
            (float("nan"), "c[2][3]=nan is not finite"),
            (7.0, "not symmetric at c[2][3]"),
            (True, "tilde entry must be a number, got True"),
            ("1", "tilde entry must be a number, got '1'"),
        ],
    )
    def test_bad_shadow_entry_named(self, tmp_path, capsys, entry, message):
        shadow = tmp_path / "shadow.json"
        t = [[0, 0, 0, 0], [0, 0, 5, 1], [0, 5, 0, 2], [0, 1, 2, 0]]
        t[1][2] = entry
        shadow.write_text(json.dumps({"n": 4, "tilde": t, "c_min": 0, "c_max": 10}))
        assert run_cli("solve", str(shadow), "--algo", "pnn") == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds,message",
        [
            ({"c_min": True}, "c_min must be a number, got True"),
            ({"c_max": "100"}, "c_max must be a number, got '100'"),
            ({"c_min": 10, "c_max": 1}, "c_min <= c_max"),
        ],
    )
    def test_bad_shadow_bounds_exit_one(self, tmp_path, capsys, bounds, message):
        shadow = tmp_path / "shadow.json"
        t = [[0, 0, 0, 0], [0, 0, 5, 1], [0, 5, 0, 2], [0, 1, 2, 0]]
        shadow.write_text(json.dumps({"n": 4, "tilde": t, "c_min": 0, "c_max": 10, **bounds}))
        assert run_cli("solve", str(shadow), "--algo", "pnn") == 1
        err = capsys.readouterr().err
        assert message in err
        assert "internal error" not in err


#: Every pairing total of this N = 4 instance is +-1.6e308, finite, so it is
#: admitted; reconstructing its shadow in float64 overflows all the same.
OVERFLOWING_SHADOW_TEXT = "4 -8e307 8e307\n8e307 -8e307 8e307\n8e307 -8e307\n8e307\n"


class TestBadPaths:
    """A path that cannot be read or written is bad input: exit 1, never an
    internal error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{dir}", "--algo", "pnn"],
            ["observe", "{dir}"],
            ["bench", "perf", "--spec", "{dir}"],
            ["gen", "-n", "6", "--out", "{dir}"],
            ["observe", "{inst}", "--out", "{dir}"],
        ],
    )
    def test_directory_exits_one(self, instance_file, tmp_path, capsys, argv):
        argv = [a.format(dir=tmp_path, inst=instance_file) for a in argv]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "directory" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "{bin}", "--algo", "pnn"],
            ["observe", "{bin}"],
            ["graph", "{bin}"],
            ["bench", "perf", "--spec", "{bin}"],
        ],
    )
    def test_non_utf8_file_exits_one(self, tmp_path, capsys, argv):
        binary = tmp_path / "bin.txt"
        binary.write_bytes(b"\xff\xfe")
        assert run_cli(*[a.format(bin=binary) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "decode" in err


class TestFloatOverflow:
    """Input whose float arithmetic overflows is refused by name, with exit 1
    and no output file, instead of printing NaN or Infinity."""

    def test_entries_summing_past_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("6 0 1e308\n" + " ".join(["1e308"] * 15) + "\n")
        out = tmp_path / "out.json"
        for argv in (["observe", str(path)], ["solve", str(path), "--algo", "pnn+p2opt"]):
            assert run_cli(*argv, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "overflow float64 in a pairing total of 3" in err
            assert "internal error" not in err
            assert not out.exists()

    def test_shadow_overflowing_in_reconstruction(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text(OVERFLOWING_SHADOW_TEXT)
        out = tmp_path / "out.json"
        with np.errstate(over="ignore", invalid="ignore"):
            for argv in (
                ["observe", str(path)],
                ["solve", str(path), "--algo", "pnn", "--mode", "observed"],
            ):
                assert run_cli(*argv, "--out", str(out)) == 1
                err = capsys.readouterr().err
                # the shadow's entry is named, not an entry of the file
                assert "shadow entry t[2][3]=nan is not finite" in err
                assert "c[2][3]" not in err
                assert not out.exists()

    def test_minimal_plan_shadow_of_the_same_file_is_finite(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text(OVERFLOWING_SHADOW_TEXT)
        assert run_cli("observe", str(path), "--strategy", "minimal") == 0
        tilde = json.loads(capsys.readouterr().out)["tilde"]
        assert all(np.isfinite(tilde).flat)


class TestInstanceFileFaults:
    """`solve` parses JSON itself, so only `observe` and `graph` reach the
    instance loader's own faults."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 4, "c_min": 0', "malformed instance JSON"),
            ("[4, 0, 10, 1, 2, 3, 4, 5, 6]", "malformed number in instance file"),
            ("4 0\n", "needs a 'N C_MIN C_MAX' header"),
        ],
    )
    @pytest.mark.parametrize("command", ["observe", "graph"])
    def test_exits_one_naming_the_fault(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert run_cli(command, str(path)) == 1
        err = capsys.readouterr().err
        assert message in err and "internal error" not in err


def test_exact_solve_shares_the_library_tie_rule(tmp_path, capsys):
    path = tmp_path / "constant.txt"
    path.write_text("6 3 3\n" + " ".join(["3"] * 15) + "\n")
    best, score = exact_best_pairing(load_instance(path))
    assert best == Pairing([(1, 2), (3, 4), (5, 6)])
    assert run_cli("solve", str(path), "--algo", "exact") == 0
    data = json.loads(capsys.readouterr().out)
    assert Pairing(data["pairing"]) == best
    assert data["score"] == score == 9


def _strict_json(text: str):
    """json.loads refusing NaN and the infinities, which strict parsers reject."""

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestWideValueRanges:
    """A range too wide to draw from is refused by name; a band wider than
    float64 over finite totals still gives a finite p."""

    def test_gen_refuses_a_range_whose_width_overflows(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        assert run_cli("gen", "-n", "6", "--cmin=-1e308", "--cmax=1e308", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: value range [-1e+308, 1e+308] is too wide: max - min overflows float64\n"
        )
        assert not out.exists()

    def test_bench_refuses_a_range_whose_width_overflows(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"n_values": [6], "trials": 1, "value_range": [-1e308, 1e308]}')
        assert run_cli("bench", "perf", "--spec", str(spec), "--out", str(tmp_path / "r")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: value range [-1e+308, 1e+308] is too wide")
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize(
        "text,p",
        [
            ("6 -1e308 1e308\n" + " ".join(["0"] * 15) + "\n", 0.5),
            (OVERFLOWING_SHADOW_TEXT, 1.0),
        ],
        ids=["all-zero", "wide"],
    )
    def test_solve_p_is_finite_when_the_band_overflows(self, tmp_path, capsys, text, p):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert run_cli("solve", str(path), "--algo", "pnn+p2opt") == 0
        assert _strict_json(capsys.readouterr().out)["p"] == p


class TestCleanStderr:
    """A bad input prints its one `error:` line and nothing else, not even a
    numpy warning from the stage that found the fault."""

    @pytest.mark.parametrize(
        "argv",
        [["observe", "{wide}"], ["solve", "{wide}", "--algo", "pnn", "--mode", "observed"]],
    )
    def test_overflowing_shadow_prints_one_line(self, tmp_path, argv):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import pairing_tsp

        path = tmp_path / "wide.txt"
        path.write_text(OVERFLOWING_SHADOW_TEXT)
        src = str(Path(pairing_tsp.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "pairing_tsp.cli", *[a.format(wide=path) for a in argv]],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "error: float64 overflowed: shadow entry t[2][3]=nan is not finite\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{bin}", "--algo", "pnn"],
        ["observe", "{bin}"],
        ["graph", "{bin}"],
        ["bench", "perf", "--spec", "{bin}"],
    ],
)
def test_non_utf8_file_is_named(tmp_path, capsys, argv):
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe")
    assert run_cli(*[a.format(bin=binary) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {binary}: ") and "decode" in err
    assert err.count("\n") == 1

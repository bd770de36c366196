"""Comparison metrics against hand oracles, plus one smoke run per experiment."""

import dataclasses
import json
import math

import pytest

from manpower import (
    ConfigurationError,
    ExperimentSpec,
    MetricError,
    accuracy,
    convergence_rank,
    micro_instance,
    run_experiment,
    stability,
    write_report,
)
from manpower.bench import EXPERIMENT_IDS


@pytest.fixture(scope="module")
def exp1_report():
    return run_experiment("exp1", seed=0)


class TestAccuracy:
    def test_exact_match_is_100(self):
        assert accuracy(3528.0, 3528.0) == 100.0

    def test_reference_as_share_of_other(self):
        # 100 * 3850 / 5500 = 70.0
        assert accuracy(3850.0, 5500.0) == 70.0

    def test_rounds_to_one_decimal(self):
        # 100 * 4942 / 5250 = 94.1333... -> 94.1
        assert accuracy(4942.0, 5250.0) == 94.1
        assert accuracy(1.0, 3.0) == 33.3

    def test_above_100_when_other_is_smaller(self):
        assert accuracy(110.0, 100.0) == 110.0

    def test_rejects_nonpositive(self):
        with pytest.raises(MetricError):
            accuracy(0.0, 10.0)
        with pytest.raises(MetricError):
            accuracy(10.0, -1.0)


def _rank_oracle(freqs):
    # competition ranking by sorting: ties take the first (smallest) slot
    ordered = sorted(freqs, reverse=True)
    return [ordered.index(f) + 1 for f in freqs]


class TestConvergenceRank:
    def test_hand_case_with_tie(self):
        assert convergence_rank([1.0, 1.0, 0.8, 0.5]) == [1, 1, 3, 4]

    def test_single_entry(self):
        assert convergence_rank([0.4]) == [1]

    def test_all_equal_share_first(self):
        assert convergence_rank([0.6, 0.6, 0.6]) == [1, 1, 1]

    def test_matches_sort_based_oracle(self):
        import random

        rnd = random.Random(7)
        for _ in range(200):
            freqs = [rnd.choice([0.0, 0.2, 0.5, 0.8, 1.0]) for _ in range(rnd.randint(1, 8))]
            assert convergence_rank(freqs) == _rank_oracle(freqs)

    def test_ranks_stability_of_trial_sets(self):
        # three solvers' repeated best values, scored then ranked
        always = [10.0] * 5
        mostly = [10.0, 10.0, 10.0, 10.0, 99.0]
        never = [1.0, 2.0, 3.0, 4.0, 5.0]
        freqs = [stability(always), stability(mostly), stability(never)]
        assert freqs == [1.0, 0.8, 0.2]
        assert convergence_rank(freqs) == [1, 2, 3]

    def test_rejects_out_of_range(self):
        with pytest.raises(MetricError):
            convergence_rank([0.5, 1.2])
        with pytest.raises(MetricError):
            convergence_rank([-0.1])

    def test_empty_raises(self):
        with pytest.raises(MetricError):
            convergence_rank([])


class TestStability:
    def test_all_within_tolerance(self):
        assert stability([3528.0, 3528.0, 3529.0, 3528.0], rel_tol=1e-3) == 1.0

    def test_outlier_counted_out(self):
        assert stability([1.0, 1.0, 2.0], rel_tol=1e-3) == pytest.approx(2 / 3)

    def test_mode_is_anchor(self):
        # mode is 5.0 even though 9.0 appears once; only the 5s are close
        assert stability([5.0, 5.0, 9.0, 5.0], rel_tol=1e-6) == 0.75

    def test_empty_raises(self):
        with pytest.raises(MetricError):
            stability([])


class TestExperimentSpec:
    def test_unknown_id(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            ExperimentSpec(id="exp9")

    def test_bad_trials(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(id="exp1", trials=0)

    def test_negative_seed(self):
        """Rejected here, not recorded as a failed trial per solver."""
        with pytest.raises(ConfigurationError, match="seed"):
            ExperimentSpec(id="exp1", seed=-1)

    def test_unknown_solver(self):
        with pytest.raises(ConfigurationError, match="unknown solvers"):
            ExperimentSpec(id="exp1", solvers=("ea_ri", "gurobi"))

    def test_solver_list_normalized_to_tuple(self):
        spec = ExperimentSpec(id="exp1", solvers=["ip", "sa"])
        assert spec.solvers == ("ip", "sa")

    def test_string_form_delegates(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_experiment("exp9")
        with pytest.raises(ConfigurationError):
            run_experiment("exp1", trials=0)


class TestRunExperiment:
    def test_exp1_three_stage_pipeline(self, exp1_report):
        report = exp1_report
        assert {r.solver for r in report.rows} == {"ea_bg", "ea_ri", "ip", "pso", "sa"}
        ip_row = next(r for r in report.rows if r.solver == "ip")
        assert ip_row.accuracy_pct == 100.0
        assert all(report.notes["stage1_checks"].values())
        assert report.notes["stage2_feasible"]
        assert all(report.notes["stage2_checks"].values())
        assert report.notes["stage3_table_valid"]
        assert report.notes["stage3_job"] in {j[0] for j in "abcdef"}
        assert report.notes["stage3_tensor_attendance"] > 0

    def test_exp2_tables(self):
        report = run_experiment("exp2", seed=0)
        assert report.notes["rotation_balanced"]
        assert report.notes["table_valid"]
        # 3 positions x 5 days spread over 5 people: 3 shifts each
        counts = report.notes["rotation_counts"]
        assert set(counts.values()) == {3}
        assert set(counts) == {f"p{i}" for i in range(5)}
        assert len(report.notes["rotation_picks"]) == 5

    def test_exp3_compositions(self):
        report = run_experiment("exp3", seed=0)
        assert {r.solver for r in report.rows} == {"basic", "with_reserve", "relaxed_cap"}
        assert set(report.notes["best_values"]) == {"basic", "with_reserve", "relaxed_cap"}
        # the reserve adds a requirement, so it can never price below basic
        assert report.notes["best_values"]["with_reserve"] >= report.notes["best_values"]["basic"]

    def test_exp3_multiple_trials_step_the_seed(self):
        spec = ExperimentSpec(id="exp3", instance=micro_instance(), trials=2, seed=5)
        report = run_experiment(spec)
        assert len(report.trials) == 6
        for label in ("basic", "with_reserve", "relaxed_cap"):
            seeds = sorted(t.seed for t in report.trials if t.solver == label)
            assert seeds == [5, 6]

    def test_exp4_withdrawal_precedes_roster(self):
        report = run_experiment("exp4", seed=0)
        n = report.notes
        assert n["reserve_ok"]
        assert sum(n["counts_after"]) == sum(n["counts"]) - n["alpha"]
        assert n["time_after"] < n["time_before"]
        assert isinstance(n["roster_feasible"], bool)
        assert math.isfinite(n["roster_value"])

    def test_exp5_trade_off(self):
        report = run_experiment("exp5", seed=0)
        assert report.notes["archive_size"] >= 1
        curve = report.notes["hypervolume_curve"]
        assert all(a <= b + 1e-9 for a, b in zip(curve, curve[1:]))

    def test_tablegen_timing(self):
        report = run_experiment("tablegen_timing", seed=0)
        for horizon in ("7", "30"):
            entry = report.notes["timings"][horizon]
            assert entry["valid"]
            assert math.isfinite(entry["median_millis"])

    def test_every_id_is_runnable(self):
        # ids other than the ones above are covered there; this guards the registry
        assert set(EXPERIMENT_IDS) == {"exp1", "exp2", "exp3", "exp4", "exp5", "tablegen_timing"}


class TestSolverErrors:
    def test_failed_solver_lands_in_the_report(self):
        # a wage-bill window nothing can satisfy: exact search raises,
        # the evolutionary solver still reports its best infeasible point
        broke = dataclasses.replace(micro_instance(), salary_bounds=(0.0, 1.0))
        spec = ExperimentSpec(id="exp1", instance=broke, solvers=("ea_ri", "ip"), seed=0)
        report = run_experiment(spec)

        ip_trial = next(t for t in report.trials if t.solver == "ip")
        assert ip_trial.error is not None and "InfeasibleError" in ip_trial.error
        assert ip_trial.value == float("inf")
        assert ip_trial.counts == ()

        ea_trial = next(t for t in report.trials if t.solver == "ea_ri")
        assert ea_trial.error is None
        assert not ea_trial.feasible

        ip_row = next(r for r in report.rows if r.solver == "ip")
        assert ip_row.best == float("inf")
        assert ip_row.accuracy_pct is None
        assert ip_row.stability_freq == 0.0
        assert report.notes["exact_value"] is None


class TestWriteReport:
    def test_directory_layout(self, tmp_path, exp1_report):
        out = tmp_path / "out"
        write_report(exp1_report, str(out))

        data = json.loads((out / "report.json").read_text())
        assert data["experiment"] == "exp1"
        assert data["notes"]["stage3_table_valid"] is True
        assert {row["solver"] for row in data["rows"]} == {"ea_bg", "ea_ri", "ip", "pso", "sa"}

        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == (
            "solver,best,median,feasible_rate,accuracy_pct,"
            "stability_freq,rank,median_millis,mean_evaluations"
        )
        assert len(lines) == 1 + len(exp1_report.rows)

        with_curves = [t for t in exp1_report.trials if t.curve]
        traces = sorted(p.name for p in out.glob("trace_*.csv"))
        assert traces == sorted(f"trace_{t.solver}_{t.seed}.csv" for t in with_curves)
        ea_trace = (out / "trace_ea_ri_0.csv").read_text().splitlines()
        ea_trial = next(t for t in exp1_report.trials if t.solver == "ea_ri")
        assert ea_trace[0] == "generation,best"
        assert len(ea_trace) == 1 + len(ea_trial.curve)

    def test_report_dict_is_json_safe(self):
        report = run_experiment("tablegen_timing", seed=1)
        text = json.dumps(report.to_dict())
        assert math.isfinite(json.loads(text)["notes"]["timings"]["7"]["median_millis"])

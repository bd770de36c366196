"""Command-line behaviour: exit codes, outputs, and reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from manpower import save_instance
from manpower.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from manpower.instances import micro_instance, reference_instance
from manpower.io import instance_to_dict


@pytest.fixture()
def inst_path(tmp_path):
    path = str(tmp_path / "micro.json")
    save_instance(micro_instance(), path)
    return path


@pytest.fixture()
def ms_inst_path(tmp_path):
    path = str(tmp_path / "micro_ms.json")
    save_instance(micro_instance(multi_shift=True), path)
    return path


SMALL = ["--population", "20", "--generations", "10", "--seed", "7"]


def _week_json(drop=(), **fields):
    """The reference week's instance JSON, with top-level fields replaced
    and the ``drop`` keys left out."""
    d = instance_to_dict(reference_instance())
    d.update(fields)
    for key in drop:
        del d[key]
    return json.dumps(d)


def _week_jobs(**fields):
    """The reference week's jobs, with fields of the first one replaced."""
    jobs = instance_to_dict(reference_instance())["jobs"]
    jobs[0].update(fields)
    return jobs


_BOUNDS = [list(b) for b in reference_instance().work_time_bounds]
# instance files that are not instances; NaN is written as JSON's NaN
MALFORMED = {
    "truncated": "{",
    "top_level_list": "[]",
    "no_rest_cap": _week_json(drop=("rest_cap",)),
    "inverted_work_time": _week_json(work_time_bounds=[[600, 100]] + _BOUNDS[1:]),
    "nan_work_time": _week_json(work_time_bounds=[[math.nan, 500]] + _BOUNDS[1:]),
    "nan_salary": _week_json(salary_bounds=[3500, math.nan]),
    # each field holds its own JSON type, and no key is one the writer never writes
    "fractional_horizon": _week_json(horizon_days=7.9),
    "fractional_headcount": _week_json(jobs=_week_jobs(headcount_max=3.5)),
    "string_multi_shift": _week_json(multi_shift="no"),
    "boolean_wage": _week_json(jobs=_week_jobs(wage_per_shift=[10, True, 10, 10])),
    "string_salary": _week_json(salary_bounds=["3500", 15000]),
    "unknown_key": _week_json(horizon=7),
}


@pytest.fixture(params=sorted(MALFORMED))
def malformed_path(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_text(MALFORMED[request.param])
    return str(path)


class TestSolve:
    def test_ea_feasible(self, inst_path, tmp_path, capsys):
        counts_out = str(tmp_path / "counts.csv")
        trace_out = str(tmp_path / "trace.csv")
        code = main(["solve", "--instance", inst_path,
                     "--counts-out", counts_out, "--trace-out", trace_out] + SMALL)
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "feasible: True" in out
        lines = open(counts_out).read().splitlines()
        assert lines[0] == "job,count"
        assert len(lines) == 3  # header + two jobs
        trace = open(trace_out).read().splitlines()
        assert trace[0].startswith("generation,best,mean,evaluations")
        assert len(trace) == 1 + 11  # initial point + one per generation

    def test_ip_exact(self, inst_path, capsys):
        code = main(["solve", "--instance", inst_path, "--solver", "ip"])
        assert code == EXIT_OK
        assert "counts: 1,1" in capsys.readouterr().out

    def test_contradiction_is_infeasible(self, inst_path):
        assert main(["solve", "--instance", inst_path, "--solver", "ip",
                     "--constraints", "k5&!k5"]) == EXIT_INFEASIBLE

    def test_ea_reports_infeasible(self, inst_path, capsys):
        code = main(["solve", "--instance", inst_path,
                     "--constraints", "k5&!k5"] + SMALL)
        assert code == EXIT_INFEASIBLE
        assert "feasible: False" in capsys.readouterr().out

    def test_parse_error_is_usage(self, inst_path, capsys):
        assert main(["solve", "--instance", inst_path,
                     "--constraints", "k1&&k2"]) == EXIT_USAGE
        assert "offset" in capsys.readouterr().err

    def test_missing_instance_is_usage(self, inst_path, tmp_path, capsys):
        assert main(["solve", "--instance", str(tmp_path / "nope.json")]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot read")
        # a directory cannot be read either, as an instance or as a constraint file
        assert main(["solve", "--instance", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot read")
        assert main(["solve", "--instance", inst_path, "--constraints", f"@{tmp_path}"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_instance_is_usage(self, malformed_path, capsys):
        assert main(["solve", "--instance", malformed_path, "--seed", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_penalty_coefficient_is_usage(self, inst_path, value, capsys):
        assert main(["solve", "--instance", inst_path, "--penalty-coefficient", value] + SMALL) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_internal_penalty_rejects_disjunction(self, inst_path):
        assert main(["solve", "--instance", inst_path, "--penalty", "internal",
                     "--constraints", "k1|k2"] + SMALL) == EXIT_USAGE

    def test_same_seed_same_counts_file(self, inst_path, tmp_path):
        paths = [str(tmp_path / f"c{i}.csv") for i in range(2)]
        for p in paths:
            assert main(["solve", "--instance", inst_path,
                         "--counts-out", p] + SMALL) == EXIT_OK
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_constraints_read_from_file(self, inst_path, tmp_path, capsys):
        expr_path = tmp_path / "expr.txt"
        expr_path.write_text("k1&k2&k5\n")
        code = main(["solve", "--instance", inst_path, "--solver", "ip",
                     "--constraints", f"@{expr_path}"])
        assert code == EXIT_OK
        assert "constraints: k1&k2&k5" in capsys.readouterr().out


class TestPareto:
    def test_archive_written(self, inst_path, tmp_path, capsys):
        out = str(tmp_path / "archive.csv")
        code = main(["pareto", "--instance", inst_path,
                     "--objectives", "salary,-total_time",
                     "--archive-out", out] + SMALL)
        assert code == EXIT_OK
        assert "archive:" in capsys.readouterr().out
        header = open(out).read().splitlines()[0]
        assert header.startswith("n_a,n_b,")

    def test_repeated_objective_flags(self, inst_path, tmp_path):
        out = str(tmp_path / "archive.csv")
        code = main(["pareto", "--instance", inst_path,
                     "--objective", "salary", "--objective=-total_time",
                     "--archive-out", out] + SMALL)
        assert code == EXIT_OK
        assert open(out).read().splitlines()[0].startswith("n_a,n_b,")

    def test_one_objective_rejected(self, inst_path):
        assert main(["pareto", "--instance", inst_path,
                     "--objectives", "salary"] + SMALL) == EXIT_USAGE
        assert main(["pareto", "--instance", inst_path,
                     "--objective", "salary"] + SMALL) == EXIT_USAGE


class TestAssign:
    def test_roster_written(self, inst_path, tmp_path):
        out = str(tmp_path / "roster.csv")
        code = main(["assign", "--instance", inst_path, "--counts", "1,2",
                     "--constraints", "k1&k2&k6", "--out", out] + SMALL)
        assert code == EXIT_OK
        assert open(out).read().splitlines()[0] == "employee,day,shift,job,attend"

    def test_wrong_arity_rejected(self, inst_path):
        assert main(["assign", "--instance", inst_path,
                     "--counts", "1"] + SMALL) == EXIT_USAGE

    def test_garbage_counts_rejected(self, inst_path):
        assert main(["assign", "--instance", inst_path,
                     "--counts", "one,two"] + SMALL) == EXIT_USAGE


class TestTable:
    def test_numeric_member_spec(self, tmp_path, capsys):
        out = str(tmp_path / "table.csv")
        code = main(["table", "--members", "6", "--days", "5", "--per-day", "2",
                     "--seed", "3", "--out", out])
        assert code == EXIT_OK
        assert "day 0:" in capsys.readouterr().out
        assert len(open(out).read().splitlines()) == 1 + 10

    def test_named_members_and_determinism(self, tmp_path):
        paths = [str(tmp_path / f"t{i}.csv") for i in range(2)]
        for p in paths:
            assert main(["table", "--members", "ann,bob,cid", "--days", "4",
                         "--per-day", "2", "--seed", "11", "--out", p]) == EXIT_OK
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    def test_impossible_table_is_infeasible(self, capsys):
        code = main(["table", "--members", "2", "--days", "3", "--per-day", "2",
                     "--max-assignments", "1", "--seed", "0"])
        assert code == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err

    def test_seed_drawn_when_omitted(self, capsys):
        code = main(["table", "--members", "4", "--days", "2", "--per-day", "2"])
        assert code == EXIT_OK
        assert "seed:" in capsys.readouterr().out


class TestBench:
    def test_report_directory_written(self, tmp_path):
        out = str(tmp_path / "rep")
        code = main(["bench", "--experiment", "tablegen_timing",
                     "--seed", "0", "--out", out])
        assert code == EXIT_OK
        data = json.load(open(os.path.join(out, "report.json")))
        assert data["experiment"] == "tablegen_timing"
        header = open(os.path.join(out, "comparison.csv")).read().splitlines()[0]
        assert header.startswith("solver,best,median,")

    def test_unknown_experiment_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--experiment", "exp99"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestInvocation:
    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_module_entry_point_starts_without_warnings(self):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "manpower.cli", "--help"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestValidate:
    def test_clean(self, inst_path, capsys):
        assert main(["validate", "--instance", inst_path]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"

    def test_broken_file(self, tmp_path, capsys):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as fh:
            fh.write("[1, 2")
        assert main(["validate", "--instance", path]) == EXIT_USAGE
        assert "problem:" in capsys.readouterr().out
        assert main(["validate", "--instance", str(tmp_path)]) == EXIT_USAGE
        assert capsys.readouterr().out.startswith("problem: cannot read")

    def test_malformed_file(self, malformed_path, capsys):
        assert main(["validate", "--instance", malformed_path]) == EXIT_USAGE
        assert "problem:" in capsys.readouterr().out

    def test_constraints_checked_against_instance(self, tmp_path, capsys):
        bare = dataclasses.replace(micro_instance(), emergency=None)
        path = str(tmp_path / "bare.json")
        save_instance(bare, path)
        assert main(["validate", "--instance", path, "--constraints", "k1&y1"]) == EXIT_USAGE
        assert "y1" in capsys.readouterr().out

    def test_multi_shift_constraint_on_single_shift(self, inst_path, capsys):
        assert main(["validate", "--instance", inst_path,
                     "--constraints", "o1"]) == EXIT_USAGE
        assert "o1" in capsys.readouterr().out

    def test_multi_shift_constraint_ok(self, ms_inst_path, capsys):
        assert main(["validate", "--instance", ms_inst_path,
                     "--constraints", "o1&k1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "ok"

    def test_bad_constraint_string(self, inst_path, capsys):
        assert main(["validate", "--instance", inst_path,
                     "--constraints", "k1&"]) == EXIT_USAGE
        assert "constraints:" in capsys.readouterr().out

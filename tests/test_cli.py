import csv
import re

import numpy as np
import pytest

from expriccati.cli import (
    ExperimentConfig,
    load_config_file,
    main,
    run_order_study,
    run_table,
    run_trajectory,
)
from expriccati.errors import UsageError
from expriccati.integrators import integrate
from expriccati.matio import write_matrix_market
from expriccati.problems import problem_from_spec

from helpers import save_problem


def _rows(lines):
    """Data rows of an emitted CSV (skip schema comment and header)."""
    return [line.split(",") for line in lines[2:]]


def _strip_wall_time(lines):
    return [",".join(line.split(",")[:-1]) for line in lines]


class TestRunTable:
    def test_tanh_single_cell(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.01])
        lines = run_table(cfg)
        assert lines[0].startswith("# schema")
        assert lines[1] == "problem,scheme,h,rel_error,final_rank,wall_time_s"
        rows = _rows(lines)
        assert len(rows) == 1
        assert float(rows[0][3]) <= 5e-4 / np.tanh(1.0)

    def test_cartesian_product_row_count(self):
        cfg = ExperimentConfig(
            problem="tanh", schemes=["GExpEuler", "Erow3Dense"], h=[0.1, 0.05]
        )
        assert len(_rows(run_table(cfg))) == 4

    def test_empty_scheme_list_rejected(self):
        with pytest.raises(UsageError):
            run_table(ExperimentConfig(problem="tanh", schemes=[], h=[0.1]))

    @pytest.mark.parametrize("setting, message", [
        ({"h": []}, "step size"),
        ({"repeat": 0}, "repeat"),
    ])
    def test_bad_setting_rejected(self, setting, message):
        settings = {"problem": "tanh", "schemes": ["GExpEuler"], "h": [0.1], **setting}
        with pytest.raises(UsageError, match=message):
            run_table(ExperimentConfig(**settings))

    def test_unknown_scheme_lists_valid_names(self):
        with pytest.raises(UsageError, match="GExpEuler"):
            run_table(ExperimentConfig(problem="tanh", schemes=["Magic"], h=[0.1]))

    def test_low_rank_final_rank_reported(self):
        cfg = ExperimentConfig(
            problem="fdm-sym:k=3", schemes=["LrExpEuler"], h=[0.1], t_end=0.5, seed=5
        )
        row = _rows(run_table(cfg))[0]
        assert row[4] != "" and int(row[4]) >= 1

    def test_deterministic_modulo_wall_time(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=2", schemes=["GExpEuler"], h=[0.1], seed=3)
        first = _strip_wall_time(run_table(cfg))
        second = _strip_wall_time(run_table(cfg))
        assert first == second

    def test_benchmark_error_against_reference(self):
        # Small instance of the benchmark family: the tabulated error is
        # measured against the linearized-flow reference and stays at the
        # reference's own accuracy level.
        cfg = ExperimentConfig(problem="fdm-sym:k=3", schemes=["GExpEuler"], h=[0.01], seed=3)
        row = _rows(run_table(cfg))[0]
        assert float(row[3]) <= 1e-10

    def test_spec_with_a_comma_stays_one_field(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=3,rank=3", schemes=["GExpEuler"], h=[0.1],
                               t_end=0.3)
        lines = run_table(cfg)
        parsed = list(csv.reader(lines[1:]))
        assert [len(row) for row in parsed] == [6, 6]
        assert parsed[1][0] == "fdm-sym:k=3,rank=3"

    def test_comma_free_rows_are_unquoted(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=2", schemes=["GExpEuler"], h=[0.1], seed=3)
        assert _rows(run_table(cfg))[0][:3] == ["fdm-sym:k=2", "GExpEuler", "1.0000000000000001e-01"]


class TestRunTrajectory:
    def test_scalar_history(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.1])
        lines = run_trajectory(cfg)
        rows = _rows(lines)
        assert len(rows) == 11
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][3]) <= 4e-3

    def test_zero_horizon_single_row(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.1], t_end=0.0)
        assert len(_rows(run_trajectory(cfg))) == 1

    def test_benchmark_error_decays_after_transient(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=3", schemes=["GExpEuler"], h=[0.01], seed=3)
        rows = _rows(run_trajectory(cfg))
        errors = [float(r[3]) for r in rows[1:]]
        assert errors[-1] <= 1e-10
        assert errors[-1] <= max(errors[:10])

    def test_one_row_per_grid_point_with_its_rank(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=3", schemes=["LrExpEuler"], h=[0.1],
                               t_end=0.5, seed=5)
        traj = integrate(problem_from_spec(cfg.problem, seed=cfg.seed),
                         cfg.integrator_config("LrExpEuler", 0.1))
        assert np.array_equal(traj.times, [i * 0.1 for i in range(5)] + [0.5])
        assert len(traj.states) == 6 and len(traj.diagnostics) == 5
        rows = _rows(run_trajectory(cfg))
        assert [float(r[0]) for r in rows] == list(traj.times)
        assert [r[4] for r in rows] == [""] + [str(d.rank) for d in traj.diagnostics]

    def test_needs_exactly_one_cell(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler", "BrExpEuler"], h=[0.1])
        with pytest.raises(UsageError):
            run_trajectory(cfg)


class TestRunOrderStudy:
    def test_scalar_slopes(self):
        cfg = ExperimentConfig(
            problem="tanh",
            schemes=["GExpEuler", "Erow3Dense"],
            h=[0.1, 0.05, 0.025, 0.0125],
        )
        rows = _rows(run_order_study(cfg))
        slopes = {row[1]: float(row[4]) for row in rows}
        assert abs(slopes["GExpEuler"] - 2.0) <= 0.2
        assert abs(slopes["Erow3Dense"] - 3.0) <= 0.3

    def test_spec_with_a_comma_stays_one_field(self):
        cfg = ExperimentConfig(problem="fdm-sym:k=2,rank=1", schemes=["GExpEuler"],
                               h=[0.1, 0.05, 0.025], t_end=0.1)
        parsed = list(csv.reader(run_order_study(cfg)[1:]))
        assert [len(row) for row in parsed] == [5] * 4
        assert {row[0] for row in parsed[1:]} == {"fdm-sym:k=2,rank=1"}

    def test_too_few_step_sizes_rejected(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.1])
        with pytest.raises(UsageError):
            run_order_study(cfg)

    def test_repeated_step_sizes_rejected(self):
        # A ladder of ratio 1 passes the geometric check but leaves the
        # slope fit nothing to fit.
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.1, 0.1, 0.1])
        with pytest.raises(UsageError, match="distinct"):
            run_order_study(cfg)

    def test_non_geometric_ladder_rejected(self):
        cfg = ExperimentConfig(problem="tanh", schemes=["GExpEuler"], h=[0.1, 0.05, 0.03])
        with pytest.raises(UsageError):
            run_order_study(cfg)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "# experiment\nproblem = tanh\nschemes = GExpEuler,Erow3Dense\n"
            "h = 0.1,0.05\nt_end = 1.0\nseed = 7\n"
        )
        values = load_config_file(path)
        assert values["problem"] == "tanh"
        assert values["schemes"] == ["GExpEuler", "Erow3Dense"]
        assert values["h"] == [0.1, 0.05]
        assert values["seed"] == 7

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = tanh\nbogus = 3\n")
        with pytest.raises(UsageError, match=":2:"):
            load_config_file(path)

    def test_repeated_key_reports_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("h = 0.1\nproblem = tanh\nh = 0.05\n")
        with pytest.raises(UsageError, match=re.escape(f"{path}:3: repeated key 'h'")):
            load_config_file(path)

    def test_unparsable_value_reports_line(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = tanh\n\nh = 0.1,fast\n")
        with pytest.raises(UsageError, match=re.escape(f"{path}:3: ") + ".*fast"):
            load_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("problem tanh\n")
        with pytest.raises(UsageError):
            load_config_file(path)


class TestMain:
    def test_table_to_stdout(self, capsys):
        code = main(["table", "--problem", "tanh", "--scheme", "GExpEuler", "--h", "0.1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema")
        assert "GExpEuler" in out

    def test_decimal_grid_runs(self, capsys):
        # 0.3 / 0.1 = 2.9999999999999996 is a three-step grid.
        code = main(["table", "--problem", "tanh", "--scheme", "GExpEuler", "--h", "0.1",
                     "--t-end", "0.3"])
        assert code == 0
        row = list(csv.reader(capsys.readouterr().out.splitlines()[2:]))[0]
        assert row[1] == "GExpEuler" and float(row[3]) <= 1e-2

    def test_out_directory(self, tmp_path, capsys):
        code = main(
            [
                "table", "--problem", "tanh", "--scheme", "GExpEuler",
                "--h", "0.1", "--out", str(tmp_path / "results"),
            ]
        )
        assert code == 0
        written = (tmp_path / "results" / "table.csv").read_text()
        assert written.startswith("# schema")

    def test_usage_error_exit_code(self, capsys):
        code = main(["table", "--problem", "tanh", "--scheme", "NotAScheme", "--h", "0.1"])
        assert code == 2
        assert "NotAScheme" in capsys.readouterr().err

    def test_nan_tolerance_exit_code(self, capsys):
        code = main(["table", "--problem", "tanh", "--scheme", "LrExpEuler", "--h", "0.1",
                     "--tol", "nan"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_oracle_condition_exit_code(self, capsys):
        code = main(["table", "--problem", "tanh", "--scheme", "GExpEuler", "--h", "0.1",
                     "--oracle-cond", "nan"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_oracle_condition_below_one_exit_code(self, capsys):
        code = main(["table", "--problem", "fdm-sym:k=3", "--scheme", "GExpEuler", "--h", "0.1",
                     "--t-end", "0.3", "--oracle-cond", "0.5"])
        assert code == 2
        assert "cond_max must be >= 1" in capsys.readouterr().err

    def test_unknown_problem_exit_code(self, capsys):
        code = main(["table", "--problem", "marsh:k=2", "--scheme", "GExpEuler", "--h", "0.1"])
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        # Sylvester-solve realization is singular on the scalar problem.
        code = main(["table", "--problem", "tanh", "--scheme", "BrExpEuler", "--h", "0.1"])
        assert code == 1
        assert "failure" in capsys.readouterr().err

    def test_show_config_prints_defaults(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "problem = fdm-sym:k=8" in out
        assert "krylov_m = 30" in out

    def test_order_study_command(self, capsys):
        code = main(
            [
                "order", "--problem", "tanh", "--scheme", "GExpEuler",
                "--h", "0.1,0.05,0.025",
            ]
        )
        assert code == 0
        assert "fitted_slope" in capsys.readouterr().out

    def test_config_file_plus_override(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("problem = tanh\nschemes = GExpEuler\nh = 0.1\n")
        code = main(["trajectory", "--config", str(path), "--h", "0.5"])
        assert code == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith(("#", "t,"))]
        assert len(rows) == 3  # t = 0, 0.5, 1.0

    def test_repeat_flag(self, capsys):
        code = main(
            ["table", "--problem", "tanh", "--scheme", "GExpEuler", "--h", "0.5",
             "--repeat", "3"]
        )
        assert code == 0


class TestMisSizedProblemFiles:
    """A file: problem whose generators do not fit A is a usage error (exit 2)."""

    @pytest.fixture
    def problem_dir(self, tmp_path):
        directory = tmp_path / "problem"
        save_problem(str(directory), problem_from_spec("fdm-sym:k=2", seed=3))  # n = 4
        return directory

    def _table(self, directory):
        return main(
            ["table", "--problem", f"file:{directory}", "--scheme", "LrExpEuler", "--h", "0.1"]
        )

    def test_generators_as_saved_run(self, problem_dir, capsys):
        assert self._table(problem_dir) == 0

    def test_mis_sized_c_exit_code(self, problem_dir, capsys):
        write_matrix_market(str(problem_dir / "C.mtx"), np.ones((2, 5)))
        assert self._table(problem_dir) == 2
        assert "error:" in capsys.readouterr().err

    def test_mis_sized_d0_exit_code(self, problem_dir, capsys):
        write_matrix_market(str(problem_dir / "D0.mtx"), np.eye(3))
        assert self._table(problem_dir) == 2
        assert "D0" in capsys.readouterr().err

    def test_nonsymmetric_d0_exit_code(self, problem_dir, capsys):
        # A dense scheme never factors X0, so the check must come at load.
        write_matrix_market(str(problem_dir / "D0.mtx"), np.array([[1.0, 1.0], [0.0, 1.0]]))
        code = main(["table", "--problem", f"file:{problem_dir}", "--scheme", "GExpEuler",
                     "--h", "0.1"])
        assert code == 2
        assert "D0" in capsys.readouterr().err

    def test_negative_size_line_exit_code(self, problem_dir, capsys):
        (problem_dir / "C.mtx").write_text("%%MatrixMarket matrix array real general\n-1 2\n")
        assert self._table(problem_dir) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_value_exit_code(self, problem_dir, capsys):
        path = problem_dir / "C.mtx"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[-1] = b"\xff\n"
        path.write_bytes(b"".join(lines))
        assert self._table(problem_dir) == 2
        assert "error:" in capsys.readouterr().err

"""Command line interface tests: exit codes, output formats, config files."""

import subprocess
import sys

import pytest

from atc import read_csv
from atc.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_subcommand(tmp_path, capsys):
    out_file = tmp_path / "one.csv"
    code, out, _ = run_cli(["run", "--r-core", "4", "--gamma", "1.5",
                            "--out", str(out_file)], capsys)
    assert code == 0
    assert "converged=true" in out
    records = read_csv(out_file)
    assert len(records) == 1 and records[0].r_core == 4


def test_run_usage_error_exit_code(capsys):
    code, _, err = run_cli(["run", "--r-core", "3", "--gamma", "1.5"], capsys)
    assert code == 2
    assert "error" in err


def test_run_missing_required_option(capsys):
    code, _, err = run_cli(["run", "--gamma", "1.5"], capsys)
    assert code == 2


def test_run_hessian_and_tol_flags(capsys):
    # full Newton is the only mode; the former mode flag is not accepted
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--r-core", "4", "--gamma", "1.5", "--hessian", "gauss"], capsys)
    assert exc.value.code == 2
    code, out, _ = run_cli(["run", "--r-core", "4", "--gamma", "1.5",
                            "--tol", "1e-8"], capsys)
    assert code == 0
    assert "converged=true" in out


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_run_non_finite_tol_is_usage_error(tol, capsys):
    # a NaN or infinite tolerance would stop Newton before the first step
    code, out, err = run_cli(["run", "--r-core", "10", "--gamma", "1.5",
                              "--tol", tol], capsys)
    assert code == 2
    assert "tolerance" in err and "converged" not in out


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_non_finite_gamma_is_usage_error(command, gamma, capsys):
    code, _, err = run_cli([command, "--r-core", "10", "--gamma", gamma], capsys)
    assert code == 2
    assert "gamma" in err


def test_run_uniform_norm(capsys):
    code, out, _ = run_cli(["run", "--r-core", "4", "--gamma", "1.5",
                            "--norm", "uniform"], capsys)
    assert code == 0


def test_sweep_to_stdout_and_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, out, err = run_cli(["sweep", "--r-core", "4,5", "--gamma", "1.5",
                              "--out", str(out_file)], capsys)
    assert code == 0
    assert "r_core=4" in err  # progress goes to stderr
    records = read_csv(out_file)
    assert [r.r_core for r in records] == [4, 5]

    code, out, _ = run_cli(["sweep", "--r-core", "4", "--gamma", "1.5"], capsys)
    assert code == 0
    assert out.startswith("r_core,")  # CSV on stdout when no --out


def test_sweep_empty_list_exits_zero(capsys):
    code, out, _ = run_cli(["sweep", "--r-core", "", "--gamma", "1.5"], capsys)
    assert code == 0
    assert out.strip() == ("r_core,r_a,r_c,dof,err_l2,err_inf,objective,"
                           "newton_iters,residual,wall_time,converged")


def test_sweep_plot_data(tmp_path, capsys):
    plot = tmp_path / "plot.dat"
    code, _, _ = run_cli(["sweep", "--r-core", "4,5", "--gamma", "1.5",
                          "--plot-data", str(plot), "--out",
                          str(tmp_path / "s.csv")], capsys)
    assert code == 0
    assert len(plot.read_text().strip().splitlines()) == 3


def test_rate_subcommand(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    run_cli(["sweep", "--r-core", "4,5,6,8", "--gamma", "1.5",
             "--out", str(csv)], capsys)
    code, out, _ = run_cli(["rate", str(csv)], capsys)
    assert code == 0
    float(out.strip())  # a bare slope value


def test_rate_too_few_points(tmp_path, capsys):
    csv = tmp_path / "few.csv"
    run_cli(["sweep", "--r-core", "4,5", "--gamma", "1.5", "--out", str(csv)],
            capsys)
    code, _, err = run_cli(["rate", str(csv)], capsys)
    assert code == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r-core = 4\ngamma = 1.5\nnorm = energy\n")
    code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 0
    assert "r_core=4" in out


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("r_core=4\ngamma=1.5\n")
    code, out, _ = run_cli(["run", "--config", str(cfg), "--r-core", "5"], capsys)
    assert code == 0
    assert "r_core=5" in out


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("cores=4\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--gamma", "1.5"], capsys)
    assert code == 2


def test_non_convergence_exit_code(capsys):
    # an unreachable tolerance (below the roundoff floor) leaves every
    # point unconverged: recorded, reported, exit code 3
    code, out, _ = run_cli(["run", "--r-core", "4", "--gamma", "1.5",
                            "--tol", "1e-30"], capsys)
    assert code == 3
    assert "converged=false" in out
    code, out, _ = run_cli(["sweep", "--r-core", "4,5", "--gamma", "1.5",
                            "--tol", "1e-30"], capsys)
    assert code == 3
    assert out.count("nan") >= 2  # unconverged rows carry NaN errors


def test_installed_entry_point(tmp_path):
    # exercised through the console script exactly as a user would call it
    proc = subprocess.run(
        [sys.executable, "-m", "atc.cli", "run", "--r-core", "4",
         "--gamma", "1.5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "converged=true" in proc.stdout

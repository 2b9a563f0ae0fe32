"""Command line interface tests: exit codes, output formats, config files."""

import subprocess
import sys

import pytest

from atc import KktSolverError, domain, harness, read_csv
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


@pytest.mark.parametrize("args", [["run", "--r-core", "10", "--gamma", "0.5"],
                                  ["sweep", "--r-core", "10", "--gamma", "0.4"]])
def test_ill_posed_gamma_is_usage_error(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "gamma > 1/2" in err and "internal error" not in err


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


def test_sweep_empty_list_is_usage_error(capsys):
    for text in ("", ",", " , "):
        code, out, err = run_cli(["sweep", "--r-core", text, "--gamma", "1.5"], capsys)
        assert code == 2
        assert out == ""
        assert "empty --r-core list" in err


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


CSV_HEADER = ("r_core,r_a,r_c,dof,err_l2,err_inf,objective,"
              "newton_iters,residual,wall_time,converged")


def rate_csv(*rows):
    """A sweep CSV: three fittable rows, then the given (dof, err_l2, converged)."""
    rows = ((45, "1e-4", "true"), (85, "3e-5", "true"), (165, "8e-6", "true")) + rows
    return CSV_HEADER + "\n" + "".join(
        f"4,8,182,{dof},{err},0.1,0.0,6,1e-14,0.02,{conv}\n" for dof, err, conv in rows)


def _no_solve(*args, **kwargs):
    raise AssertionError("a problem was built before the inputs were checked")


@pytest.mark.parametrize("command,text,message", [
    ("run", "r-core=abc\ngamma=1.5\n", "{path}:1: bad value for r-core"),
    ("run", "r-core=10\ngamma=abc\n", "{path}:2: bad value for gamma"),
    ("run", "r-core=4,5\ngamma=1.5\n", "run takes one core radius"),
    ("sweep", "r-core=4\ngamma=1.5\nwarm-start=yes\n", "{path}:3: bad value for warm-start"),
    ("sweep", "r-core=,\ngamma=1.5\n", "{path}:1: bad value for r-core: empty"),
    ("sweep", "gamma=1.5\nr-core=\n", "{path}:2: bad value for r-core: empty"),
    ("rate", None, "No such file or directory: '{path}'"),
    ("rate", CSV_HEADER + "\n4,8,182,45,abc,0.1,0.0,6,1e-14,0.02,true\n", "{path}:2:"),
    ("rate", rate_csv((325, "2e-6", "yes")), "{path}:5: converged must be true or false"),
    ("rate", rate_csv((325, "0.0", "true")), "{path}:5: converged row needs"),
    ("rate", rate_csv((325, "nan", "true")), "{path}:5: converged row needs"),
    ("rate", rate_csv((0, "2e-6", "true")), "{path}:5: converged row needs"),
    ("rate", CSV_HEADER + "\n" + "4,8,182,45,1e-4,0.1,0.0,6,1e-14,0.02,true\n" * 3,
     "two or more distinct dof"),
    ("run", "r-core=4\ngamma=1.5\nout={path}.d/x.csv\n",
     "No such file or directory: '{path}.d/x.csv'"),
    ("sweep", "r-core=4\ngamma=1.5\nout={path}.d/x.csv\n",
     "No such file or directory: '{path}.d/x.csv'"),
    ("sweep", "r-core=4\ngamma=1.5\nplot-data={path}.d/x.dat\n",
     "No such file or directory: '{path}.d/x.dat'"),
    ("run", b"r-core=4\ngamma=1.5\n# \xff\n", "{path}: not valid UTF-8"),
    ("run", "r-core=4\ngamma=1.5\nplot-data={path}.dat\n",
     "{path}:3: unknown key 'plot-data' for run"),
    ("run", "warm-start=true\nr-core=4\ngamma=1.5\n", "{path}:1: unknown key 'warm-start' for run"),
    ("rate", CSV_HEADER.encode() + b"\n\xff\n", "{path}: not valid UTF-8"),
], ids=["r-core", "gamma", "run-r-core-list", "warm-start", "sweep-r-core-comma",
        "sweep-r-core-empty", "rate-missing-file",
        "rate-bad-field", "rate-converged-yes", "rate-zero-err", "rate-nan-err",
        "rate-zero-dof", "rate-equal-dof", "run-out-unwritable", "sweep-out-unwritable",
        "sweep-plot-data-unwritable", "config-not-utf8", "run-plot-data-key",
        "run-warm-start-key", "rate-not-utf8"])
def test_malformed_input_is_usage_error(command, text, message, tmp_path, capsys,
                                       monkeypatch):
    # run and sweep check their inputs and outputs before they build a problem
    monkeypatch.setattr(harness, "CoupledProblem", _no_solve)
    path = tmp_path / "input.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text.format(path=path))
    args = [command, str(path)] if command == "rate" else [command, "--config", str(path)]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert message.format(path=path) in err
    # a sweep checks its inputs and outputs before it solves its first point
    assert "r_core=" not in err


def test_sweep_checks_every_radius_before_solving(tmp_path, capsys, monkeypatch):
    # r_core 3 is too small; the valid 4 and 5 before it are not solved and
    # no output file is left behind
    monkeypatch.setattr(harness, "CoupledProblem", _no_solve)
    out_file = tmp_path / "x.csv"
    code, _, err = run_cli(["sweep", "--r-core", "4,5,3", "--gamma", "1.5",
                            "--out", str(out_file)], capsys)
    assert code == 2
    assert "r_core=3 too small" in err
    assert not out_file.exists()


def test_sweep_checks_every_radius_memory_before_solving(tmp_path, capsys, monkeypatch):
    # at gamma 1.5 the largest far-field element of r_core 2560 holds 714M
    # sites, about 10 GB of loads: on 8 GB the sweep exits 2 before it
    # builds the problem of 40, and leaves no output file
    monkeypatch.setattr(domain, "physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(harness, "CoupledProblem", _no_solve)
    out_file = tmp_path / "x.csv"
    code, _, err = run_cli(["sweep", "--r-core", "40,2560", "--gamma", "1.5",
                            "--out", str(out_file)], capsys)
    assert code == 2
    assert "of the continuum loads needs about 9.99 GB" in err
    assert not out_file.exists()


def test_sweep_rejects_one_file_for_both_outputs(tmp_path, capsys, monkeypatch):
    # --plot-data would be written over the --out CSV; the second path
    # reaches the file through a symlinked directory
    monkeypatch.setattr(harness, "CoupledProblem", _no_solve)
    out_file, alias = tmp_path / "x.csv", tmp_path / "alias"
    alias.symlink_to(tmp_path)
    code, _, err = run_cli(["sweep", "--r-core", "4,5", "--gamma", "1.5", "--out", str(out_file),
                            "--plot-data", str(alias / "x.csv")], capsys)
    assert code == 2
    assert f"outputs {out_file} and {alias / 'x.csv'} name the same file" in err
    assert not out_file.exists()


@pytest.mark.parametrize("call,points", [
    (lambda: main(["run", "--r-core", "4", "--gamma", "1.5"]), 1),
    (lambda: main(["sweep", "--r-core", "4,5", "--gamma", "1.5"]), 2),
    (lambda: harness.run_single(4, 1.5), 1),
    (lambda: harness.run_sweep([4, 5], 1.5), 2),
], ids=["atc-run", "atc-sweep", "run_single", "run_sweep"])
def test_each_radius_is_decomposed_and_meshed_once(call, points, capsys, monkeypatch):
    # the input check builds each radius's decomposition and mesh, and the
    # solve builds its problem on them
    built = []

    def counted(name):
        func = getattr(harness, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return func(*args, **kwargs)
        return wrapper

    for name in ("make_decomposition", "build_graded_mesh"):
        monkeypatch.setattr(harness, name, counted(name))
    call()
    assert built == ["make_decomposition", "build_graded_mesh"] * points


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_nan_tol_is_checked_before_solving(command, tmp_path, capsys, monkeypatch):
    # the tolerance is checked with the radii, before a problem is built or
    # the output file is opened
    monkeypatch.setattr(harness, "CoupledProblem", _no_solve)
    out_file = tmp_path / "x.csv"
    code, _, err = run_cli([command, "--r-core", "10", "--gamma", "1.5", "--tol", "nan",
                            "--out", str(out_file)], capsys)
    assert code == 2
    assert "tolerance" in err
    assert not out_file.exists()


def test_failed_run_leaves_no_output_file(tmp_path, capsys, monkeypatch):
    # the output probe used to create the file, and a run that then failed
    # left an empty CSV that atc rate rejects; a file that was there before
    # is left as it was
    def fail(*args, **kwargs):
        raise KktSolverError("singular")

    monkeypatch.setattr(harness, "_solve_point", fail)
    out_file, kept = tmp_path / "x.csv", tmp_path / "kept.csv"
    kept.write_text("earlier\n")
    for path in (out_file, kept):
        code, _, err = run_cli(["run", "--r-core", "10", "--gamma", "1.5",
                                "--out", str(path)], capsys)
        assert code == 4
        assert "internal error: singular" in err
    assert not out_file.exists()
    assert kept.read_text() == "earlier\n"


def test_failed_run_through_a_dangling_link_leaves_no_target(tmp_path, capsys, monkeypatch):
    # the probe opens the link's missing target and so creates it; the link
    # was there before and stays, the target it created goes
    def fail(*args, **kwargs):
        raise KktSolverError("singular")

    monkeypatch.setattr(harness, "_solve_point", fail)
    link, target = tmp_path / "link.csv", tmp_path / "target.csv"
    link.symlink_to(target)
    code, _, err = run_cli(["run", "--r-core", "4", "--gamma", "1.5", "--out", str(link)], capsys)
    assert code == 4
    assert "internal error: singular" in err
    assert link.is_symlink() and not target.exists()


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
    # a fresh interpreter runs the module as `python -m atc.cli`; the `atc`
    # console script calls the same main
    proc = subprocess.run(
        [sys.executable, "-m", "atc.cli", "run", "--r-core", "4",
         "--gamma", "1.5"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "converged=true" in proc.stdout

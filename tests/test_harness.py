"""Record bookkeeping, CSV round trips, rate fitting, sweep behavior."""

import dataclasses
import time

import numpy as np
import pytest

import atc.coupling
import atc.harness
from atc import (
    ConfigurationError,
    ConvergenceRecord,
    CoupledProblem,
    KktSolverError,
    UsageError,
    build_graded_mesh,
    domain,
    fit_rate,
    make_decomposition,
    read_csv,
    records_to_csv,
    run_single,
    run_sweep,
    write_csv,
    write_plot_data,
)
from atc.harness import CSV_HEADER, _warm_initial
from conftest import GAMMA


def build_problem(r_core):
    """The coupled problem of one radius at GAMMA, as a solve builds it."""
    dec = make_decomposition(r_core, GAMMA)
    return CoupledProblem(dec, build_graded_mesh(dec, GAMMA), GAMMA)


def no_build(*args):
    raise AssertionError("a problem was built before the inputs were checked")


def untimed(records):
    """The records with wall_time zeroed: every other column is reproducible."""
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


def fake_record(dof, err, r_core=10):
    return ConvergenceRecord(
        r_core=r_core, r_a=2 * r_core, r_c=100, dof=dof, err_l2=err,
        err_inf=err / 3.0, objective=1e-9, newton_iters=6, residual=1e-12,
        wall_time=0.125, converged=True)


def test_csv_header_exact():
    assert CSV_HEADER == ("r_core,r_a,r_c,dof,err_l2,err_inf,objective,"
                          "newton_iters,residual,wall_time,converged")


def test_csv_round_trip_identity(tmp_path):
    records = [fake_record(100, 1.234e-4), fake_record(200, 3.066641e-5, 20)]
    path = tmp_path / "records.csv"
    write_csv(records, path)
    again = read_csv(path)
    assert again == records  # field-for-field, including float bits


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dof,err\n1,2\n")
    with pytest.raises(UsageError):
        read_csv(path)


def test_fit_rate_exact_synthetic_data():
    records = [fake_record(d, float(d) ** -2) for d in (50, 100, 200, 400)]
    assert abs(fit_rate(records) + 2.0) < 1e-12


def test_fit_rate_noisy_synthetic_data():
    rng = np.random.default_rng(29)
    records = [fake_record(d, 3.7 * d**-2.0 * (1.0 + rng.uniform(-0.01, 0.01)))
               for d in (50, 100, 200, 400, 800)]
    slope = fit_rate(records)
    assert -2.05 <= slope <= -1.95


def test_fit_rate_needs_three_converged_points():
    records = [fake_record(50, 1e-3), fake_record(100, 2.5e-4)]
    with pytest.raises(UsageError):
        fit_rate(records)
    records.append(dataclasses.replace(fake_record(200, 6e-5), converged=False))
    with pytest.raises(UsageError):
        fit_rate(records)


def test_csv_rows_a_rate_fit_cannot_use_are_rejected():
    # an unconverged row keeps the NaN errors run_sweep writes
    unconverged = dataclasses.replace(fake_record(100, float("nan")), converged=False)
    assert np.isnan(ConvergenceRecord.from_csv_row(unconverged.to_csv_row()).err_l2)
    good = fake_record(100, 1e-4).to_csv_row()
    bad_rows = [good.replace("true", "yes"), good.replace("true", "True")]
    bad_rows += [fake_record(dof, err).to_csv_row() for dof, err in
                 ((100, 0.0), (100, float("nan")), (100, float("inf")), (0, 1e-4))]
    for row in bad_rows:
        with pytest.raises(ValueError):
            ConvergenceRecord.from_csv_row(row)
    with pytest.raises(UsageError):
        fit_rate([fake_record(100, e) for e in (1e-4, 2e-4, 3e-4)])


def test_run_single_boundary_core_radius_accepted():
    # overlap width equals twice the interaction range exactly
    record = run_single(4, GAMMA)
    assert record.converged
    assert record.err_l2 > 0.0


def test_run_single_rejects_small_core_radius():
    with pytest.raises(UsageError):
        run_single(3, GAMMA)


@pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0, float("inf")])
def test_run_single_checks_tolerance_before_building(tolerance, monkeypatch):
    monkeypatch.setattr(atc.harness, "build_graded_mesh", no_build)
    monkeypatch.setattr(atc.harness, "CoupledProblem", no_build)
    with pytest.raises(UsageError, match="tolerance"):
        run_single(10, GAMMA, tolerance=tolerance)


def test_run_single_checks_load_memory_before_building(monkeypatch):
    # at gamma 1.5 the largest far-field element of r_core 2560 needs about
    # 10 GB of loads: on 8 GB run_single raises before it builds the problem
    monkeypatch.setattr(domain, "physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(atc.harness, "CoupledProblem", no_build)
    with pytest.raises(UsageError, match="of the continuum loads needs about 9.99 GB"):
        run_single(2560, GAMMA)


def test_sweep_rejects_one_file_for_both_outputs(tmp_path, monkeypatch):
    # the plot data would be written over the CSV
    monkeypatch.setattr(atc.harness, "CoupledProblem", no_build)
    path = tmp_path / "x.csv"
    with pytest.raises(UsageError, match="name the same file"):
        run_sweep([4, 5], GAMMA, csv_path=path, plot_path=path)
    assert not path.exists()


def test_sweep_singleton_matches_run_single():
    single = run_single(5, GAMMA)
    sweep = run_sweep([5], GAMMA)
    assert len(sweep) == 1
    assert untimed(sweep) == untimed([single])


def test_sweep_empty_list():
    assert run_sweep([], GAMMA) == []
    assert records_to_csv([]) == CSV_HEADER + "\n"


def test_sweep_deterministic_output(tmp_path):
    a = run_sweep([4, 5], GAMMA)
    b = run_sweep([4, 5], GAMMA)
    # timing is a measurement and cannot be bitwise stable; all value
    # columns must be
    csv_a = records_to_csv(untimed(a))
    csv_b = records_to_csv(untimed(b))
    assert csv_a == csv_b


def test_sweep_warm_start_reaches_same_solution():
    cold = run_sweep([4, 5], GAMMA)
    warm = run_sweep([4, 5], GAMMA, warm_start=True)
    assert all(r.converged for r in warm)
    # both runs stop inside the residual ball, so the measured errors agree
    # to the solver tolerance scale, not to machine precision
    for c, w in zip(cold, warm):
        assert abs(c.err_l2 - w.err_l2) < 1e-8
        assert w.newton_iters <= c.newton_iters


def test_warm_sweep_wall_time_covers_build_and_seed(monkeypatch):
    # a warm point is built and seeded inside its own clock, as a cold one is
    build = atc.harness.CoupledProblem

    def slow_build(*args):
        time.sleep(0.05)
        return build(*args)

    monkeypatch.setattr(atc.harness, "CoupledProblem", slow_build)
    records = run_sweep([4, 5, 6], GAMMA, warm_start=True)
    assert all(r.converged for r in records)
    assert all(r.wall_time >= 0.05 for r in records), [r.wall_time for r in records]


def test_warm_seed_samples_the_previous_composite():
    prev = build_problem(10)
    prev_state, _ = prev.newton_solve()
    problem = build_problem(11)
    assert problem.dec.r_c > prev.dec.r_c
    vals = prev.assemble_atc_solution(prev_state)

    def sample(sites):
        inside = np.abs(sites) <= prev.dec.r_c
        return np.where(inside, vals[np.where(inside, sites + prev.dec.r_c, 0)], 0.0)

    minus, plus = problem.continuum.minus, problem.continuum.plus
    expect = problem.zero_state()
    expect.u_a[:] = sample(problem.dec.atomistic_sites)
    expect.u_c_minus[:] = sample(minus.nodes)[minus.free_slice]
    expect.u_c_plus[:] = sample(plus.nodes)[plus.free_slice]
    seed = _warm_initial(problem, prev, prev_state)
    assert np.array_equal(seed.vector, expect.vector)


def test_sweep_records_failures_and_continues(monkeypatch):
    # one iteration is never enough; every point must be flagged, none raise
    monkeypatch.setattr(atc.coupling, "MAX_ITERATIONS", 1)
    records = run_sweep([4, 5], GAMMA)
    assert len(records) == 2
    assert all(not r.converged for r in records)
    assert all(np.isnan(r.err_l2) for r in records)
    assert all(r.residual > 0 for r in records)
    with pytest.raises(UsageError):
        fit_rate(records)


@pytest.mark.parametrize("error", [KktSolverError, ConfigurationError])
def test_sweep_records_solver_errors_and_continues(monkeypatch, error):
    # a solver failure at one radius is recorded like a non-converged point;
    # the radii before and after it still solve, and run_single still raises
    solve = atc.coupling.solve_kkt_linear
    failing_size = build_problem(5).layout.total

    def solve_or_fail(matrix, rhs):
        if len(rhs) == failing_size:
            raise error("forced failure")
        return solve(matrix, rhs)

    monkeypatch.setattr(atc.coupling, "solve_kkt_linear", solve_or_fail)
    records = run_sweep([4, 5, 6], GAMMA)
    assert [r.r_core for r in records] == [4, 5, 6]
    assert [r.converged for r in records] == [True, False, True]
    assert np.isnan(records[1].err_l2) and np.isnan(records[1].err_inf)
    with pytest.raises(error):
        run_single(5, GAMMA)


def test_sweep_csv_and_plot_emission(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "sweep.dat"
    records = run_sweep([4, 5], GAMMA, csv_path=csv_path, plot_path=plot_path)
    assert read_csv(csv_path) == records
    lines = plot_path.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3
    dof, err = lines[1].split()
    assert int(dof) == records[0].dof
    assert float(err) == records[0].err_l2


def test_write_plot_data_round_trips_error_bits(tmp_path):
    records = [fake_record(100, 1.0 / 3.0)]
    path = tmp_path / "x.dat"
    write_plot_data(records, path)
    _, err = path.read_text().strip().splitlines()[1].split()
    assert float(err) == records[0].err_l2

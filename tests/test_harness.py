"""Record bookkeeping, CSV round trips, rate fitting, sweep behavior."""

import dataclasses

import numpy as np
import pytest

import atc.coupling
from atc import (
    ConfigurationError,
    ConvergenceRecord,
    KktSolverError,
    UsageError,
    fit_rate,
    read_csv,
    records_to_csv,
    run_single,
    run_sweep,
    write_csv,
    write_plot_data,
)
from atc.harness import CSV_HEADER, _build_problem, strip_timing
from conftest import GAMMA


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


def test_run_single_boundary_core_radius_accepted():
    # overlap width equals twice the interaction range exactly
    record = run_single(4, GAMMA)
    assert record.converged
    assert record.err_l2 > 0.0


def test_run_single_rejects_small_core_radius():
    with pytest.raises(UsageError):
        run_single(3, GAMMA)


def test_sweep_singleton_matches_run_single():
    single = run_single(5, GAMMA)
    sweep = run_sweep([5], GAMMA)
    assert len(sweep) == 1
    assert strip_timing(sweep) == strip_timing([single])


def test_sweep_empty_list():
    assert run_sweep([], GAMMA) == []
    assert records_to_csv([]) == CSV_HEADER + "\n"


def test_sweep_deterministic_output(tmp_path):
    a = run_sweep([4, 5], GAMMA)
    b = run_sweep([4, 5], GAMMA)
    # timing is a measurement and cannot be bitwise stable; all value
    # columns must be
    csv_a = records_to_csv(strip_timing(a))
    csv_b = records_to_csv(strip_timing(b))
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


def test_sweep_records_failures_and_continues():
    from atc import NewtonOptions

    # one iteration is never enough; every point must be flagged, none raise
    starved = NewtonOptions(max_iterations=1)
    records = run_sweep([4, 5], GAMMA, options=starved)
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
    failing_size = _build_problem(5, GAMMA, "energy").layout.total

    def solve_or_fail(system, rhs, residual_bound=1e-10):
        if len(rhs) == failing_size:
            raise error("forced failure")
        return solve(system, rhs, residual_bound)

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

"""Acceptance suite.

One test per acceptance criterion, each printing a pass/fail line at its
stated tolerance.  The headline sweep (core radii 10..160, gamma = 3/2,
energy-norm mesh) is computed once in a session fixture and shared.
"""

import numpy as np
import pytest

from atc import (
    CoupledProblem,
    DomainDecomposition,
    NewtonOptions,
    SystemState,
    build_graded_mesh,
    cauchy_born_energy_density,
    energy_seminorm_error,
    exact_solution,
    fit_rate,
    make_decomposition,
    mesh_size,
    optimal_radii,
    solve_full_atomistic,
    solve_kkt_linear,
)
from atc.potentials import site_energy_array
from conftest import GAMMA, fd_gradient, random_state, rel_err_inf

from test_coupling import ZERO_BLOCK_PAIRS


def _report(num, description, ok):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_convergence_rate(sweep_records):
    slope = fit_rate(sweep_records)
    errs = [r.err_l2 for r in sweep_records]
    runtime = sum(r.wall_time for r in sweep_records)
    ok = (all(r.converged for r in sweep_records)
          and -2.3 <= slope <= -1.7
          and all(b < a for a, b in zip(errs, errs[1:]))
          and runtime < 600.0)
    _report(1, f"DoF^-2 rate: slope {slope:.3f} in [-2.3, -1.7], "
               f"errors strictly decreasing, {runtime:.1f}s < 600s", ok)


def test_criterion_2_error_reduction_factor(sweep_records):
    errs = [r.err_l2 for r in sweep_records]
    factors = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(f >= 3.0 for f in factors)
    _report(2, "err_l2 shrinks by >= 3 per step: factors "
               + ", ".join(f"{f:.2f}" for f in factors), ok)


def test_criterion_3_manufactured_equilibrium(problem_10):
    u = exact_solution(problem_10.dec.atomistic_sites, GAMMA)
    res = np.max(np.abs(problem_10.atomistic.equilibrium_residual(u)))
    _report(3, f"interior residual at the exact solution {res:.2e} < 1e-12",
            res < 1e-12)


def test_criterion_4_derivative_consistency(small_problem):
    rng = np.random.default_rng(101)
    layout = small_problem.layout
    atom = small_problem.atomistic
    cont = small_problem.continuum
    worst_grad = 0.0
    for k in range(20):
        u = rng.uniform(-0.05, 0.05, atom.n)
        worst_grad = max(worst_grad, rel_err_inf(
            atom.gradient(u), fd_gradient(atom.energy, u)))
        um = rng.uniform(-0.05, 0.05, cont.minus.n - 1)
        up = rng.uniform(-0.05, 0.05, cont.plus.n - 1)
        gm, gp = cont.gradient(um, up)
        worst_grad = max(worst_grad, rel_err_inf(
            gm, fd_gradient(lambda v: cont.energy(v, up), um)))
        worst_grad = max(worst_grad, rel_err_inf(
            gp, fd_gradient(lambda v: cont.energy(um, v), up)))
        state = random_state(small_problem, rng)
        worst_grad = max(worst_grad, rel_err_inf(
            small_problem.lagrangian_gradient(state),
            fd_gradient(lambda z: small_problem.lagrangian(
                SystemState(layout, z)), state.vector)))
    # Hessian symmetry and the saddle zero pattern
    state = random_state(rng=rng, problem=small_problem)
    system = small_problem.lagrangian_hessian(state)
    K = system.matrix
    asym = abs(K - K.T)
    sym_err = 0.0 if asym.nnz == 0 else float(asym.max() / abs(K).max())
    zeros_ok = all(
        np.all(system.block(r, c) == 0.0) and np.all(system.block(c, r) == 0.0)
        for r, c in ZERO_BLOCK_PAIRS)
    ok = worst_grad < 1e-6 and sym_err <= 1e-12 and zeros_ok
    _report(4, f"gradients vs FD worst {worst_grad:.2e} < 1e-6 over 20 states, "
               f"Hessian asymmetry {sym_err:.1e} <= 1e-12, zero blocks exact", ok)


def test_criterion_5_kkt_solve_contract(problem_10, solved_10):
    _, diag = solved_10
    linear_ok = all(r < 1e-10 for r in diag.kkt_residuals)
    rng = np.random.default_rng(102)
    state = random_state(problem_10, rng)
    system = problem_10.lagrangian_hessian(state)
    e = rng.uniform(-1.0, 1.0, problem_10.layout.total)
    x, rel = solve_kkt_linear(system, system.matrix @ e)
    round_trip = np.max(np.abs(x - e)) / np.max(np.abs(e))
    ok = linear_ok and rel < 1e-10 and round_trip < 1e-8
    _report(5, f"all Newton solves residual < 1e-10 "
               f"(max {max(diag.kkt_residuals):.1e}), round trip "
               f"{round_trip:.1e} < 1e-8", ok)


def test_criterion_6_converged_solution_feasibility(sweep_records, problem_10,
                                                    solved_10):
    # the recorded residual is the max over every stationarity block, which
    # includes both equilibrium residual families and the two integrals
    recorded_ok = all(r.converged and r.residual < 1e-10 for r in sweep_records)
    state, _ = solved_10
    res_a = np.max(np.abs(problem_10.atomistic.equilibrium_residual(state.u_a)))
    rm, rp = problem_10.continuum.equilibrium_residual(
        state.u_c_minus, state.u_c_plus)
    res_c = max(np.max(np.abs(rm)), np.max(np.abs(rp)))
    c_plus, c_minus = problem_10.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    explicit = max(res_a, res_c, abs(c_plus), abs(c_minus))
    ok = recorded_ok and explicit < 1e-10
    _report(6, f"equilibrium and mean-zero residuals < 1e-10 at every "
               f"converged solution (explicit check {explicit:.1e})", ok)


def test_criterion_7_oracle_cross_check(problem_10, solved_10):
    state, _ = solved_10
    dec = problem_10.dec
    atc_vals = problem_10.assemble_atc_solution(state)
    reference = solve_full_atomistic(dec, GAMMA)
    # both fields are genuinely zero beyond the outer boundary
    pad = lambda v: np.concatenate(([0.0], v, [0.0]))
    cross = energy_seminorm_error(pad(atc_vals), pad(reference.values))
    xs = np.arange(-dec.r_c - 1, dec.r_c + 2)
    err = energy_seminorm_error(pad(atc_vals), exact_solution(xs, GAMMA))
    ok = cross <= 5.0 * err
    _report(7, f"seminorm distance to the truncated-lattice solve "
               f"{cross:.3e} <= 5 x err_l2 = {5 * err:.3e}", ok)


def test_criterion_8_cauchy_born_consistency():
    worst = 0.0
    for g in np.linspace(-0.05, 0.05, 41):
        per_site = float(site_energy_array(g, -g))
        worst = max(worst, abs(per_site - cauchy_born_energy_density(g)))
    _report(8, f"uniform-strain site energy matches the density, "
               f"worst gap {worst:.1e} <= 1e-14", worst <= 1e-14)


def test_criterion_9_mesh_parameter_formulas():
    ok = (optimal_radii(10, 1.5, norm="energy") == (20, 1789)
          and optimal_radii(10, 1.5, norm="uniform") == (20, 148)
          and mesh_size(20, 20, 1.5) == 1
          and mesh_size(40, 20, 1.5) == 3
          and mesh_size(100, 20, 1.5) == 14)
    _report(9, "radii and element-size formulas reproduce the reference "
               "instances exactly (r_c = 1789 and 148, sizes 1, 3, 14)", ok)

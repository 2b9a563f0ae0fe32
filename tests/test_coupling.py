"""Coupled problem assembly and saddle-point Newton solver tests."""

import numpy as np
import pytest
import scipy.sparse as sp

import atc.coupling
from atc import (
    AtcError,
    CoupledProblem,
    KktSolverError,
    NewtonDiagnostics,
    NonConvergenceError,
    SystemState,
    UsageError,
    build_graded_mesh,
    exact_solution,
    make_decomposition,
    manufacture_forces,
    measure_errors,
    solve_full_atomistic,
    solve_kkt_linear,
)
from conftest import GAMMA, fd_gradient, random_state, rel_err_inf

# frozen run record: damped Newton from the zero state, r_core=10, gamma=1.5
NEWTON_ITERS_10 = 6

# (gamma, r_core) -> (err_l2, Newton iterations) of a cold solve; err_l2 as
# recorded in perfbench/reference_err_l2.json from commit 194d7b9
RECORDED_COLD_SOLVES = {
    (3.0, 20): (4.24686320062103e-07, 5),
    (3.0, 40): (3.128101997617355e-08, 5),
    (1.5, 10): (0.00010677655145086248, 6),
    (3.0, 320): (2.0328478272469813e-11, 5),
}

# stored entries of problem_10's KKT matrix, recorded from the dense assembly
KKT_NNZ_10 = {"zero": 1214, "random": 1559}

ZERO_BLOCK_PAIRS = [
    ("lam_a", "lam_a"), ("lam_a", "lam_c_minus"), ("lam_a", "lam_c_plus"),
    ("lam_c_minus", "lam_c_minus"), ("lam_c_plus", "lam_c_plus"),
    ("lam_a", "eta"), ("lam_c_minus", "eta"), ("lam_c_plus", "eta"),
    ("eta", "eta"),
    ("u_a", "lam_c_minus"), ("u_a", "lam_c_plus"),
    ("u_c_minus", "lam_a"), ("u_c_plus", "lam_a"),
    ("u_c_minus", "lam_c_plus"), ("u_c_plus", "lam_c_minus"),
    ("u_c_minus", "u_c_plus"),
]


def block(matrix, layout, row, col):
    """The (row, col) block of a KKT matrix, dense."""
    return matrix[layout[row], layout[col]].toarray()


def test_objective_zero_when_gradients_match(small_problem):
    rng = np.random.default_rng(13)
    u = rng.uniform(-0.05, 0.05, small_problem.atomistic.n)
    state = small_problem.zero_state()
    state.u_a[:] = u
    # continuum equals the atomistic interpolant on the overlap
    dec = small_problem.dec
    minus, plus = small_problem.continuum.minus, small_problem.continuum.plus
    um = np.zeros(minus.n)
    um[np.isin(minus.nodes, dec.atomistic_sites)] = u[: dec.overlap_width + 1]
    up = np.zeros(plus.n)
    up[np.isin(plus.nodes, dec.atomistic_sites)] = u[dec.r_core + dec.r_a:]
    state.u_c_minus[:] = um[minus.free_slice]
    state.u_c_plus[:] = up[plus.free_slice]
    assert small_problem.objective(state.u_a, state.u_c_minus, state.u_c_plus) == 0.0


def test_objective_single_unit_strain_element(small_problem):
    state = small_problem.zero_state()
    # unit strain on the first overlap element of the positive side
    state.u_c_plus[1:] = 1.0
    plus = small_problem.continuum.plus
    assert np.all(np.diff(small_problem.continuum.plus.embed(state.u_c_plus))[1:][
        : small_problem.dec.overlap_width - 1] == 0.0)
    j = small_problem.objective(state.u_a, state.u_c_minus, state.u_c_plus)
    assert j == 0.5


def test_objective_matches_elementwise_sum(small_problem):
    rng = np.random.default_rng(14)
    state = random_state(small_problem, rng)
    dec = small_problem.dec
    full_m = small_problem.continuum.minus.embed(state.u_c_minus)
    full_p = small_problem.continuum.plus.embed(state.u_c_plus)
    u_at = {int(x): state.u_a[x + dec.r_a] for x in dec.atomistic_sites}
    u_cm = {int(x): full_m[i] for i, x in enumerate(small_problem.continuum.minus.nodes)}
    u_cp = {int(x): full_p[i] for i, x in enumerate(small_problem.continuum.plus.nodes)}
    total = 0.0
    for (lo, hi), u_c in ((dec.overlap_intervals[0], u_cm),
                          (dec.overlap_intervals[1], u_cp)):
        for xi in range(lo, hi):
            da = u_at[xi + 1] - u_at[xi]
            dc = u_c[xi + 1] - u_c[xi]
            total += 0.5 * (da - dc) ** 2
    j = small_problem.objective(state.u_a, state.u_c_minus, state.u_c_plus)
    assert abs(j - total) < 1e-14 * max(1.0, total)


def test_objective_nonnegative(small_problem):
    rng = np.random.default_rng(15)
    for _ in range(10):
        state = random_state(small_problem, rng)
        assert small_problem.objective(state.u_a, state.u_c_minus, state.u_c_plus) >= 0.0


def test_mean_zero_constraints_trivial_cases(small_problem):
    state = small_problem.zero_state()
    assert small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus) == (0.0, 0.0)
    # constant unit difference on both components integrates to the width
    state.u_a[:] = 1.0
    w = float(small_problem.dec.overlap_width)
    c_plus, c_minus = small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    assert c_plus == w and c_minus == w


def test_mean_zero_constraints_match_trapezoid_oracle(small_problem):
    rng = np.random.default_rng(16)
    state = random_state(small_problem, rng)
    dec = small_problem.dec
    full_m = small_problem.continuum.minus.embed(state.u_c_minus)
    full_p = small_problem.continuum.plus.embed(state.u_c_plus)
    minus_nodes = list(small_problem.continuum.minus.nodes)
    plus_nodes = list(small_problem.continuum.plus.nodes)

    def trapz(lo, hi, diff_at):
        total = 0.0
        for xi in range(lo, hi):
            total += 0.5 * (diff_at(xi) + diff_at(xi + 1))
        return total

    expect_plus = trapz(*dec.overlap_intervals[1], lambda x: (
        state.u_a[x + dec.r_a] - full_p[plus_nodes.index(x)]))
    expect_minus = trapz(*dec.overlap_intervals[0], lambda x: (
        state.u_a[x + dec.r_a] - full_m[minus_nodes.index(x)]))
    c_plus, c_minus = small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    assert abs(c_plus - expect_plus) < 1e-14
    assert abs(c_minus - expect_minus) < 1e-14


def test_shift_invariance_on_one_component(small_problem):
    """Adding a constant to one overlap component leaves the objective alone.

    Displacements are drawn on a dyadic grid so adding the dyadic constant is
    exact in floating point, making the invariance assertable bit for bit.
    """
    rng = np.random.default_rng(17)
    state = small_problem.zero_state()
    scale = 2.0 ** -20
    state.u_a[:] = rng.integers(-1000, 1000, len(state.u_a)) * scale
    state.u_c_minus[:] = rng.integers(-1000, 1000, len(state.u_c_minus)) * scale
    state.u_c_plus[:] = rng.integers(-1000, 1000, len(state.u_c_plus)) * scale
    j0 = small_problem.objective(state.u_a, state.u_c_minus, state.u_c_plus)
    c0_plus, c0_minus = small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    dec = small_problem.dec
    c = 0.25  # dyadic, so the integral shift is exact in floating point
    # shift the atomistic values on the positive component only
    shifted = state.copy()
    shifted.u_a[dec.r_core + dec.r_a:] += c
    j1 = small_problem.objective(shifted.u_a, shifted.u_c_minus, shifted.u_c_plus)
    c1_plus, c1_minus = small_problem.mean_zero_constraints(
        shifted.u_a, shifted.u_c_minus, shifted.u_c_plus)
    assert j1 == j0
    assert c1_plus == c0_plus + c * dec.overlap_width
    assert c1_minus == c0_minus
    # shifting the continuum side by the same constant restores the integral
    both = shifted.copy()
    both.u_c_plus[:] += c
    j2 = small_problem.objective(both.u_a, both.u_c_minus, both.u_c_plus)
    c2_plus, _ = small_problem.mean_zero_constraints(
        both.u_a, both.u_c_minus, both.u_c_plus)
    assert j2 == j0
    assert abs(c2_plus - c0_plus) < 1e-14


def test_lagrangian_gradient_matches_fd(small_problem):
    rng = np.random.default_rng(18)
    layout = small_problem.layout
    for _ in range(5):
        state = random_state(small_problem, rng)
        fd = fd_gradient(
            lambda z: small_problem.lagrangian(SystemState(layout, z)),
            state.vector)
        g = small_problem.lagrangian_gradient(state)
        for name in layout.slices:
            assert rel_err_inf(g[layout[name]], fd[layout[name]]) < 1e-6, name


def test_gradient_adjoint_blocks_are_raw_residuals(small_problem):
    rng = np.random.default_rng(19)
    state = random_state(small_problem, rng)
    state.lam_a[:] = 0.0
    state.lam_c_minus[:] = 0.0
    state.lam_c_plus[:] = 0.0
    state.eta[:] = 0.0
    g = small_problem.lagrangian_gradient(state)
    layout = small_problem.layout
    np.testing.assert_array_equal(
        g[layout["lam_a"]],
        small_problem.atomistic.equilibrium_residual(state.u_a))
    # each side's equations sit at its nodes between the two boundary nodes
    minus, plus = small_problem.continuum.minus, small_problem.continuum.plus
    np.testing.assert_array_equal(g[layout["lam_c_minus"]],
                                  minus.gradient(minus.embed(state.u_c_minus))[1:-1])
    np.testing.assert_array_equal(g[layout["lam_c_plus"]],
                                  plus.gradient(plus.embed(state.u_c_plus))[1:-1])
    c_plus, c_minus = small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    assert g[layout["eta"]][0] == c_plus and g[layout["eta"]][1] == c_minus


def test_hessian_zero_blocks_exact(small_problem):
    rng = np.random.default_rng(20)
    state = random_state(small_problem, rng)
    K = small_problem.lagrangian_hessian(state).matrix
    for row, col in ZERO_BLOCK_PAIRS:
        assert np.all(block(K, small_problem.layout, row, col) == 0.0), (row, col)
        assert np.all(block(K, small_problem.layout, col, row) == 0.0), (col, row)


def test_hessian_exactly_symmetric(small_problem):
    rng = np.random.default_rng(21)
    for _ in range(10):
        state = random_state(small_problem, rng)
        K = small_problem.lagrangian_hessian(state).matrix
        asym = (K - K.T)
        assert asym.nnz == 0 or np.max(np.abs(asym.data)) == 0.0


def test_hessian_is_canonical_csc_without_stored_zeros(problem_10):
    # the LU's column ordering depends on the exact sparsity structure
    states = {"zero": problem_10.zero_state(),
              "random": random_state(problem_10, np.random.default_rng(27))}
    for name, state in states.items():
        K = problem_10.lagrangian_hessian(state).matrix
        assert K.format == "csc" and K.has_canonical_format
        assert np.all(K.data != 0.0)
        assert K.nnz == KKT_NNZ_10[name]


def test_hessian_vector_products_match_fd(small_problem):
    rng = np.random.default_rng(22)
    layout = small_problem.layout
    h = 1e-6
    for _ in range(10):
        state = random_state(small_problem, rng)
        K = small_problem.lagrangian_hessian(state).matrix
        v = rng.uniform(-1, 1, layout.total)
        gp = small_problem.lagrangian_gradient(SystemState(layout, state.vector + h * v))
        gm = small_problem.lagrangian_gradient(SystemState(layout, state.vector - h * v))
        fd = (gp - gm) / (2 * h)
        assert rel_err_inf(K @ v, fd) < 1e-5


def test_solve_kkt_zero_rhs(small_problem):
    state = small_problem.zero_state()
    K = small_problem.lagrangian_hessian(state).matrix
    x, rel = solve_kkt_linear(K, np.zeros(small_problem.layout.total))
    assert np.all(x == 0.0) and rel == 0.0


def test_solve_kkt_round_trip(small_problem):
    rng = np.random.default_rng(25)
    state = random_state(small_problem, rng)
    K = small_problem.lagrangian_hessian(state).matrix
    e = rng.uniform(-1, 1, small_problem.layout.total)
    rhs = K @ e
    x, rel = solve_kkt_linear(K, rhs)
    assert rel < 1e-10
    assert np.max(np.abs(x - e)) / np.max(np.abs(e)) < 1e-8


def test_solve_kkt_residual_above_bound_raises(monkeypatch, small_problem):
    # no refinement reaches a bound far below the rounding floor; the
    # error carries the LU's condition estimate
    monkeypatch.setattr(atc.coupling, "KKT_RESIDUAL_BOUND", 1e-30)
    K = small_problem.lagrangian_hessian(
        random_state(small_problem, np.random.default_rng(28))).matrix
    with pytest.raises(KktSolverError, match="exceeds bound 1.0e-30") as err:
        solve_kkt_linear(K, K @ np.ones(K.shape[0]))
    assert 1.0 < err.value.condition_estimate < np.inf


def test_solve_kkt_toy_saddle_system():
    # [[I, B^T], [B, 0]] with B = (1 0): x1 = r3, x2 = r2, x3 = r1 - r3
    K = sp.csc_matrix(np.array([[1.0, 0.0, 1.0],
                                [0.0, 1.0, 0.0],
                                [1.0, 0.0, 0.0]]))
    rhs = np.array([2.0, -1.0, 0.5])
    x, rel = solve_kkt_linear(K, rhs)
    np.testing.assert_allclose(x, [0.5, -1.0, 1.5], rtol=0, atol=1e-14)
    assert rel < 1e-10


def test_solve_kkt_singular_matrix_raises():
    K = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(KktSolverError):
        solve_kkt_linear(K, np.array([1.0, 0.0]))


def test_newton_converges_and_iteration_regression(solved_10):
    state, diag = solved_10
    assert diag.converged
    assert diag.residuals[-1] < 1e-10
    assert abs(diag.iterations - NEWTON_ITERS_10) <= 1
    assert all(r < 1e-10 for r in diag.kkt_residuals)


def test_newton_quadratic_convergence_window(solved_10):
    _, diag = solved_10
    rs = diag.residuals
    # once in the quadratic basin, the residual square-contracts; the last
    # ratio sits at the roundoff floor so the bound is generous
    ratios = [rs[k + 1] / rs[k] ** 2 for k in range(len(rs) - 3, len(rs) - 1)]
    assert all(r < 1e3 for r in ratios)


def test_newton_restarts_from_converged_state(problem_10, solved_10):
    state, _ = solved_10
    state2, diag2 = problem_10.newton_solve(state)
    assert diag2.converged
    assert diag2.iterations == 0
    np.testing.assert_array_equal(state2.vector, state.vector)
    assert not np.shares_memory(state2.vector, state.vector)


def test_newton_all_gradient_blocks_small_at_solution(problem_10, solved_10):
    state, _ = solved_10
    g = problem_10.lagrangian_gradient(state)
    layout = problem_10.layout
    for name in layout.slices:
        assert np.max(np.abs(g[layout[name]])) < 1e-10, name


@pytest.mark.parametrize("solver", ["newton_solve", "solve_full_atomistic"])
@pytest.mark.parametrize("constant,value,message,residuals", [
    ("MAX_ITERATIONS", 2, "no convergence in 2 iterations", 3),
    ("MIN_STEP", 2.0, "line search failed", 1),
], ids=["iteration-budget", "line-search"])
def test_newton_failure_paths(monkeypatch, small_problem, solver, constant, value,
                              message, residuals):
    # the coupled solve and the oracle share one Newton loop and its limits
    monkeypatch.setattr(atc.coupling, constant, value)
    with pytest.raises(NonConvergenceError, match=message) as err:
        if solver == "newton_solve":
            small_problem.newton_solve()
        else:
            solve_full_atomistic(small_problem.dec, GAMMA)
    diag = err.value.diagnostics
    assert isinstance(diag, NewtonDiagnostics) and not diag.converged
    assert err.value.residual_history == diag.residuals
    assert len(diag.residuals) == residuals


def test_newton_does_not_converge_on_a_nan_residual(small_problem):
    # NaN compares false with the tolerance, which is not convergence
    state = small_problem.zero_state()
    state.lam_a[0] = np.nan
    with pytest.raises(AtcError):
        small_problem.newton_solve(state)


def test_newton_tolerance_validation(problem_10):
    for tol in (0.0, -1e-10, np.nan, np.inf):
        with pytest.raises(UsageError, match="tolerance"):
            problem_10.newton_solve(tolerance=tol)


@pytest.mark.parametrize("gamma,r_core", [(3.0, 10), (GAMMA, 12)],
                         ids=["other-gamma", "other-window"])
def test_force_of_another_problem_is_usage_error(gamma, r_core):
    # the force depends on gamma and r_a only; one built for other values
    # would solve without error to a wrong err_l2 (0.0433 and 0.134, not 1.07e-4)
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    CoupledProblem(dec, mesh, GAMMA, force=manufacture_forces(GAMMA, dec))
    other = dec if r_core == 10 else make_decomposition(r_core, gamma)
    with pytest.raises(UsageError, match="force built for"):
        CoupledProblem(dec, mesh, GAMMA, force=manufacture_forces(gamma, other))


@pytest.mark.parametrize("gamma,r_core", sorted(RECORDED_COLD_SOLVES))
def test_cold_solve_reproduces_recorded_numerics(gamma, r_core):
    # guards the floating-point path of the coupled solve: a refactor that
    # reorders any operation moves err_l2 away from the recorded value
    err_l2, iters = RECORDED_COLD_SOLVES[gamma, r_core]
    dec = make_decomposition(r_core, gamma)
    problem = CoupledProblem(dec, build_graded_mesh(dec, gamma), gamma)
    state, diag = problem.newton_solve()
    assert diag.iterations == iters
    assert measure_errors(problem, state)[0] == pytest.approx(err_l2, rel=1e-12, abs=0.0)


def test_assemble_atc_solution(problem_10, solved_10):
    state, _ = solved_10
    dec = problem_10.dec
    vals = problem_10.assemble_atc_solution(state)
    assert len(vals) == 2 * dec.r_c + 1
    # atomistic values pass through untouched
    np.testing.assert_array_equal(
        vals[dec.r_c - dec.r_a: dec.r_c + dec.r_a + 1], state.u_a)
    # outer boundary pinned
    assert vals[0] == 0.0 and vals[-1] == 0.0
    # coarse-region sites interpolate the continuum solution linearly
    plus = problem_10.continuum.plus
    full_p = plus.embed(state.u_c_plus)
    rng = np.random.default_rng(26)
    for _ in range(20):
        xi = int(rng.integers(dec.r_a + 1, dec.r_c))
        k = np.searchsorted(plus.nodes, xi, side="right") - 1
        x0, x1 = plus.nodes[k], plus.nodes[k + 1]
        expect = full_p[k] + (full_p[k + 1] - full_p[k]) * (xi - x0) / (x1 - x0)
        assert abs(vals[xi + dec.r_c] - expect) < 1e-15


def test_full_composite_is_rejected_before_it_outgrows_memory(monkeypatch, problem_10, solved_10):
    # the full composite holds every site; measure_errors streams them
    from atc import domain

    state, _ = solved_10
    expect = measure_errors(problem_10, state)
    monkeypatch.setattr(domain, "physical_memory", lambda: 2 * problem_10.dec.r_c)
    with pytest.raises(UsageError, match="physical memory"):
        problem_10.assemble_atc_solution(state)
    assert measure_errors(problem_10, state) == expect


def composite_by_sides(problem, state):
    """The composite on every site: the u_a slice and one np.interp per side."""
    dec = problem.dec
    minus, plus = problem.continuum.minus, problem.continuum.plus
    expect = np.zeros(2 * dec.r_c + 1)
    off = dec.r_c
    expect[off - dec.r_a: off + dec.r_a + 1] = state.u_a
    xs = np.arange(dec.r_a + 1, dec.r_c + 1)
    expect[xs + off] = np.interp(xs, plus.x, plus.embed(state.u_c_plus))
    xs = np.arange(-dec.r_c, -dec.r_a)
    expect[xs + off] = np.interp(xs, minus.x, minus.embed(state.u_c_minus))
    return expect


def test_composite_is_the_atomistic_slice_and_one_interpolant_per_side(problem_10):
    state = random_state(problem_10, np.random.default_rng(8))
    expect = composite_by_sides(problem_10, state)
    assert np.array_equal(problem_10.assemble_atc_solution(state), expect)


def test_composite_at_samples_ascending_sites_and_zero_beyond(problem_10):
    state = random_state(problem_10, np.random.default_rng(9))
    dec = problem_10.dec
    expect = composite_by_sides(problem_10, state)
    sites = np.array([-dec.r_c - 5, -dec.r_c, -dec.r_a - 1, -dec.r_a, 0,
                      dec.r_a, dec.r_a + 1, dec.r_c - 1, dec.r_c, dec.r_c + 3])
    inside = np.abs(sites) <= dec.r_c
    sampled = np.where(inside, expect[np.where(inside, sites + dec.r_c, 0)], 0.0)
    assert np.array_equal(problem_10.composite_at(state, sites), sampled)


def test_state_block_views_alias_vector(small_problem):
    state = small_problem.zero_state()
    state.u_a[3] = 1.5
    assert state.vector[3] == 1.5
    state.eta[:] = (2.0, -1.0)
    assert state.vector[-2] == 2.0 and state.vector[-1] == -1.0

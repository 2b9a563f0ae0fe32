"""Coupled problem assembly and saddle-point Newton solver tests."""

import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

import atc.coupling
import atc.models
from atc import (
    AtcError,
    ConfigurationError,
    CoupledProblem,
    DomainDecomposition,
    GradedMesh,
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
from atc.coupling import damped_newton
from conftest import GAMMA, band_csr, fd_gradient, random_state, rel_err_inf

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

# (gamma, r_core) -> (stored entries of K, nonzeros of SuperLU's L + U) at
# most, over the Newton steps of a cold solve; measured at commit 897affb
# (the fill is the same on OpenBLAS's SkylakeX and Haswell kernels)
KKT_COST_BOUNDS = {
    (3.0, 320): (39_715, 332_199),
    (1.5, 80): (12_847, 40_581),
}

# (gamma, r_core) -> peak bytes that tracemalloc traces per unknown of the
# full-lattice oracle, at most: 73.3 measured with the three lower band rows
# that the Cholesky factors, 105.3 with the seven rows of a band LU, 121.3
# when damped_newton also held its start vector and last step, 151.1 when
# the band was built over the whole half-line and copied there
ORACLE_TRACED_BYTES = {(1.5, 40): 78}

# (gamma, r_core) -> (sites handed to models._half_line_forces, sites that
# measure_errors hands to composite_at) at most, for a cold solve and its
# errors.  The force sites are 0 .. r_c once each, plus the first site of
# every load range after the first (neighbouring ranges share an end site);
# the loads take the overlap r_core .. r_a from the atomistic window
SITE_COUNT_BOUNDS = {
    (3.0, 320): (30_897, 61_796),
    (1.5, 80): (323_827, 647_678),
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


@pytest.fixture(scope="module")
def problem_gamma3_20():
    dec = make_decomposition(20, 3.0)
    return CoupledProblem(dec, build_graded_mesh(dec, 3.0), 3.0)


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
        small_problem.atomistic.gradient(state.u_a)[small_problem.atomistic.test_idx])
    # each side's equations sit at its nodes between the two boundary nodes
    minus, plus = small_problem.continuum.minus, small_problem.continuum.plus
    np.testing.assert_array_equal(g[layout["lam_c_minus"]],
                                  minus.gradient(minus.embed(state.u_c_minus))[1:-1])
    np.testing.assert_array_equal(g[layout["lam_c_plus"]],
                                  plus.gradient(plus.embed(state.u_c_plus))[1:-1])
    c_plus, c_minus = small_problem.mean_zero_constraints(
        state.u_a, state.u_c_minus, state.u_c_plus)
    assert g[layout["eta"]][0] == c_plus and g[layout["eta"]][1] == c_minus


def full_fields(problem, state):
    """Both sides' full nodal vectors and the three adjoints as full-length
    fields, zero off their equations."""
    atomistic, minus, plus = problem.atomistic, problem.continuum.minus, problem.continuum.plus
    lam_a, lam_m, lam_p = np.zeros(atomistic.n), np.zeros(minus.n), np.zeros(plus.n)
    lam_a[atomistic.test_idx] = state.lam_a
    lam_m[1:-1] = state.lam_c_minus
    lam_p[1:-1] = state.lam_c_plus
    return minus.embed(state.u_c_minus), plus.embed(state.u_c_plus), (lam_a, lam_m, lam_p)


def overlap_ranges(problem):
    """(u_a indices, side indices) of the minus, then the plus overlap, and
    the trapezoid weights on them: the sites of dec.overlap_intervals."""
    dec, minus = problem.dec, problem.continuum.minus
    w = dec.overlap_width
    trapz = np.ones(w + 1)
    trapz[[0, -1]] = 0.5
    return (((np.arange(w + 1), np.arange(minus.n - 1 - w, minus.n)),
             (np.arange(dec.r_core + dec.r_a, 2 * dec.r_a + 1), np.arange(w + 1))), trapz)


def dense_gradient(problem, state):
    """lagrangian_gradient with J by np.add.at and each Hessian as a fresh dense array."""
    full_m, full_p, (lam_a, lam_m, lam_p) = full_fields(problem, state)
    (ov_minus, ov_plus), trapz = overlap_ranges(problem)
    atomistic, minus, plus = problem.atomistic, problem.continuum.minus, problem.continuum.plus
    na = atomistic.n
    coef = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])[:, :, None]
    j_aa = np.zeros((na, na))
    j_ac = [np.zeros((na, minus.n)), np.zeros((na, plus.n))]
    j_cc = [np.zeros((minus.n, minus.n)), np.zeros((plus.n, plus.n))]
    for side, (ov_a, ov_c) in enumerate((ov_minus, ov_plus)):
        a = np.array((ov_a[:-1], ov_a[1:]))
        c = np.array((ov_c[:-1], ov_c[1:]))
        np.add.at(j_aa, (a[:, None], a[None]), coef[:2, :2])
        np.add.at(j_ac[side], (a[:, None], c[None]), coef[:2, 2:])
        np.add.at(j_cc[side], (c[:, None], c[None]), coef[2:, 2:])
    g_a = (j_aa @ state.u_a + j_ac[0] @ full_m + j_ac[1] @ full_p
           + band_csr(atomistic.hessian(state.u_a)).toarray() @ lam_a)
    g_m = (j_ac[0].T @ state.u_a + j_cc[0] @ full_m
           + band_csr(minus.hessian(full_m)).toarray() @ lam_m)
    g_p = (j_ac[1].T @ state.u_a + j_cc[1] @ full_p
           + band_csr(plus.hessian(full_p)).toarray() @ lam_p)
    eta_p, eta_m = state.eta
    g_a[ov_plus[0]] += trapz * eta_p
    g_a[ov_minus[0]] += trapz * eta_m
    g_m[ov_minus[1]] -= trapz * eta_m
    g_p[ov_plus[1]] -= trapz * eta_p
    return np.concatenate((
        g_a, g_m[minus.free_slice], g_p[plus.free_slice],
        atomistic.gradient(state.u_a)[atomistic.test_idx],
        minus.gradient(full_m)[1:-1], plus.gradient(full_p)[1:-1],
        problem.mean_zero_constraints(state.u_a, state.u_c_minus, state.u_c_plus)))


def test_overlap_records_are_the_decomposition_overlaps(problem_10):
    problem, dec, cont = problem_10, problem_10.dec, problem_10.continuum
    state = random_state(problem, np.random.default_rng(33))
    full = {cont.minus: cont.minus.embed(state.u_c_minus),
            cont.plus: cont.plus.embed(state.u_c_plus)}
    _, trapz = overlap_ranges(problem)
    expect = {}
    assert len(problem.overlaps) == 2
    for rec in problem.overlaps:
        side = problem.models[rec.side]
        lo, hi = dec.overlap_intervals[side is cont.plus]
        sites = np.arange(lo, hi + 1)
        assert len(rec.a) == len(rec.c) == dec.overlap_width + 1
        np.testing.assert_array_equal(dec.atomistic_sites[rec.a], sites)
        np.testing.assert_array_equal(side.nodes[rec.c], sites)
        expect[side] = np.dot(trapz, state.u_a[sites + dec.r_a]
                              - full[side][np.searchsorted(side.nodes, sites)])
    # eta's rows: the plus side's first
    assert problem.mean_zero_constraints(state.u_a, state.u_c_minus, state.u_c_plus) == (
        expect[cont.plus], expect[cont.minus])


def test_gradient_on_sides_of_unequal_length_bit_for_bit(problem_uneven):
    # each side's u_a-side block of J comes from its own band, so the sides'
    # shapes must not be mixed up; the gradient's other bit tests run on
    # mirrored meshes, whose sides have one length
    problem = problem_uneven
    assert problem.continuum.minus.n != problem.continuum.plus.n
    rng = np.random.default_rng(38)
    for state in (problem.zero_state(), random_state(problem, rng), random_state(problem, rng)):
        g = problem.lagrangian_gradient(state)
        assert g.tobytes() == dense_gradient(problem, state).tobytes()


# (gamma, r_core, scratch of the fewest rows of the largest model, the kinds
# of product that run by more than one block: False for a @ v, True for
# a.T @ v): one block per product, then blocks of 4 outputs; at 3:320 the
# default scratch holds about a hundred rows of the atomistic Hessian.  A
# transposed J product takes only its overlap's rows (12 or 13 at 1.5:10, 21
# or 24 at 3:20), so it splits only in the smallest scratch at 3:20
@pytest.mark.parametrize("gamma,r_core,fewest_rows,blocked", [
    pytest.param(1.5, 10, False, set(), id="problem_10"),
    pytest.param(3.0, 20, False, set(), id="problem_gamma3_20"),
    pytest.param(1.5, 10, True, {False}, id="problem_10-fewest_rows"),
    pytest.param(3.0, 20, True, {False, True}, id="problem_gamma3_20-fewest_rows"),
    pytest.param(3.0, 320, False, {False}, id="gamma3_320")])
def test_gradient_equals_dense_products_bit_for_bit(monkeypatch, gamma, r_core, fewest_rows,
                                                    blocked):
    dec = make_decomposition(r_core, gamma)
    mesh = build_graded_mesh(dec, gamma)
    if fewest_rows:
        n = max(m.n for m in CoupledProblem(dec, mesh, gamma).models)
        monkeypatch.setattr(atc.coupling, "PRODUCT_SCRATCH", 7 * n)
    plans, plan = [], atc.coupling._product_plan

    def recorded(*args):
        plans.append(plan(*args))
        return plans[-1]

    monkeypatch.setattr(atc.coupling, "_product_plan", recorded)
    problem = CoupledProblem(dec, mesh, gamma)
    assert len(plans) == 10
    assert problem._scratch_size <= atc.coupling.PRODUCT_SCRATCH
    # states A, B and A again: an entry kept from B would change A
    rng = np.random.default_rng(31)
    a, b = random_state(problem, rng), random_state(problem, rng)
    for state in (a, b, a):
        g = problem.lagrangian_gradient(state)
        assert g.tobytes() == dense_gradient(problem, state).tobytes()
    assert {transpose for _, transpose, _, _, blocks in plans if len(blocks) > 1} == blocked


def test_solved_problem_drops_its_product_scratch_bit_for_bit():
    # a problem kept after its solve (a warm sweep's seed) holds no scratch;
    # a later gradient builds its products in a scratch of its own, keeps
    # the bits, and leaves none on the problem either
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    problem = CoupledProblem(dec, mesh, GAMMA)
    state, _ = problem.newton_solve()
    assert "_scratch" not in problem.__dict__
    g = problem.lagrangian_gradient(state)
    fresh = CoupledProblem(dec, mesh, GAMMA).lagrangian_gradient(state)
    assert g.tobytes() == fresh.tobytes()
    assert "_scratch" not in problem.__dict__


def test_blas_keeps_the_bits_of_aligned_blocks_of_four_or_more_outputs():
    # the rules _dense_product's blocks rest on, on this BLAS: a kernel that
    # splits a product at other rows or columns fails here first.  The row
    # and column counts are not multiples of 4, and the sums run past 2,048
    # terms
    rng = np.random.default_rng(34)
    a = rng.standard_normal((103, 2_101))
    v = rng.standard_normal(2_101)
    whole = a @ v
    for r0 in range(0, 100, 4):
        for r1 in (*range(r0 + 4, 103, 4), 103):
            assert (a[r0:r1] @ v).tobytes() == whole[r0:r1].tobytes()
    # a.T @ u over the rows that hold a column window's entries, cut outward
    # to multiples of 4 or to the last row
    u = rng.standard_normal(2_101)
    for lo, hi in ((0, 2_100), (5, 2_050), (1_005, 1_900), (2_043, 2_100), (17, 30)):
        b = np.zeros((2_101, 103))
        b[lo:hi + 1] = rng.standard_normal((hi + 1 - lo, 103))
        whole = b.T @ u
        r0, r1 = lo // 4 * 4, min((hi + 4) // 4 * 4, 2_101)
        for c0 in range(0, 100, 4):
            for c1 in (*range(c0 + 4, min(c0 + 40, 103), 4), 103):
                window = np.ascontiguousarray(b[r0:r1, c0:c1])
                assert (window.T @ u[r0:r1]).tobytes() == whole[c0:c1].tobytes()


@pytest.mark.parametrize("transpose", [False, True])
def test_dense_product_by_blocks_is_the_whole_product_bit_for_bit(transpose):
    # random arrays over sums of 2,101 terms, each product in a plain scratch
    # that it fits, then in one that cuts it into blocks of 56 outputs and a
    # tail of 1 or 2, which joins the block before it.  a.T's entries lie in
    # rows 1,005 .. 1,900, so its blocks take the 900 rows 1,004 .. 1,903
    rng = np.random.default_rng(35)
    shape = (2_101, 114) if transpose else (113, 2_101)
    a = rng.standard_normal(shape)
    if transpose:
        a[:1_005] = a[1_901:] = 0.0
    v = rng.standard_normal(shape[0] if transpose else shape[1])
    pos = np.flatnonzero(a)
    window = (1_004, 1_904) if transpose else (0, 2_101)
    outputs, across = shape[1] if transpose else shape[0], window[1] - window[0]
    for size, cuts in ((outputs * across, [0, outputs]), (59 * across, [0, 56, outputs])):
        plan = atc.coupling._product_plan(shape, pos, transpose, size)
        assert [b[:4] for b in plan[-1]] == [(o0, o1, *window) for o0, o1 in zip(cuts, cuts[1:])]
        scratch = np.zeros(size)
        got = atc.coupling._dense_product(plan, a.ravel()[pos], v, scratch)
        assert got.tobytes() == ((a.T if transpose else a) @ v).tobytes()
        assert not np.any(scratch)


def test_gradient_allocates_no_square_array():
    # one fresh (1281, 1281) float array is 13.1 MB
    import tracemalloc

    dec = make_decomposition(320, 3.0)
    problem = CoupledProblem(dec, build_graded_mesh(dec, 3.0), 3.0)
    state = random_state(problem, np.random.default_rng(32))
    problem.lagrangian_gradient(state)
    tracemalloc.start()
    try:
        problem.lagrangian_gradient(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


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


def block_assembled_kkt(problem, state):
    """The KKT matrix as sp.bmat of CSR blocks of the model bands, J and C."""
    full_m, full_p, (lam_a, lam_m, lam_p) = full_fields(problem, state)
    (ov_minus, ov_plus), _ = overlap_ranges(problem)
    atomistic, minus, plus = problem.atomistic, problem.continuum.minus, problem.continuum.plus
    fs_m, fs_p = minus.free_slice, plus.free_slice
    # J from the outer products of each overlap element's mismatch
    # coefficients, in the coordinates of the displacement unknowns
    layout, w = problem.layout, problem.dec.overlap_width
    coef = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])[:, :, None]
    rows, cols, vals = [], [], []
    for (ov_a, ov_c), name, side in ((ov_minus, "u_c_minus", minus), (ov_plus, "u_c_plus", plus)):
        c = ov_c + layout[name].start - side.free_slice.start
        q = np.array((ov_a[:-1], ov_a[1:], c[:-1], c[1:]))
        rows.append(np.repeat(q, 4, axis=0))
        cols.append(np.tile(q, (4, 1)))
        vals.append(np.repeat(coef, w, axis=2))
    n_u = layout["lam_a"].start
    rows, cols, vals = (np.concatenate(x, axis=None) for x in (rows, cols, vals))
    j_uu = sp.csr_matrix((vals, (rows, cols)), shape=(n_u, n_u))
    # C by the trapezoid rule on the overlap sites, + on u_a and - on the
    # side's nodes there: row 0 for r_core .. r_a, the plus side's first
    # w + 1 unknowns; row 1 for -r_a .. -r_core, the minus side's last w + 1
    trapz = np.ones(w + 1)
    trapz[[0, -1]] = 0.5
    dec, start_p, stop_m = problem.dec, layout["u_c_plus"].start, layout["u_c_minus"].stop
    c_u = np.zeros((2, n_u))
    c_u[0, dec.r_core + dec.r_a:2 * dec.r_a + 1] = trapz
    c_u[0, start_p:start_p + w + 1] = -trapz
    c_u[1, :w + 1] = trapz
    c_u[1, stop_m - w - 1:stop_m] = -trapz
    c_u = sp.csr_matrix(c_u)
    third = sp.block_diag((band_csr(atomistic.third_contraction(state.u_a, lam_a)),
                           band_csr(minus.third_contraction(full_m, lam_m))[fs_m, fs_m],
                           band_csr(plus.third_contraction(full_p, lam_p))[fs_p, fs_p]))
    b = sp.block_diag((band_csr(atomistic.hessian(state.u_a))[atomistic.test_idx],
                       band_csr(minus.hessian(full_m))[1:-1, fs_m],
                       band_csr(plus.hessian(full_p))[1:-1, fs_p]))
    return sp.bmat([[j_uu + third, b.T, c_u.T], [b, None, None], [c_u, None, None]],
                   format="csc")


def assert_same_bits(a, b):
    for name in ("data", "indices", "indptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("problem", ["problem_10", "problem_gamma3_20", "problem_uneven"])
def test_gathered_hessian_equals_block_assembly_bit_for_bit(request, problem):
    problem = request.getfixturevalue(problem)
    rng = np.random.default_rng(29)
    for state in (problem.zero_state(), random_state(problem, rng), random_state(problem, rng)):
        K = problem.lagrangian_hessian(state).matrix
        assert K.format == "csc"
        assert_same_bits(K, block_assembled_kkt(problem, state))


@pytest.mark.parametrize("problem", ["problem_10", "problem_gamma3_20"])
def test_kkt_entries_hold_each_position_once_bit_for_bit(request, problem):
    # one entry per position makes the COO matrix the sum-free CSC one, and
    # rows that ascend within every column let scipy skip its sort
    problem = request.getfixturevalue(problem)
    problem.lagrangian_hessian(problem.zero_state())
    rows, cols = problem._kkt_entries[:2]
    n = problem.layout.total
    assert rows.dtype == cols.dtype == np.int32
    assert len(np.unique(cols.astype(np.int64) * n + rows)) == len(rows)
    order = np.argsort(cols, kind="stable")
    same_col = np.diff(cols[order]) == 0
    assert np.all(np.diff(rows[order])[same_col] > 0)


@pytest.mark.parametrize("problem", ["problem_10", "problem_gamma3_20", "problem_uneven"])
def test_hessian_after_any_gradient_is_a_fresh_problems_bit_for_bit(request, problem):
    # lagrangian_hessian reuses the bands of a gradient at an equal vector;
    # whatever came before, it must give the bits of a problem that has seen
    # no call at all
    problem = request.getfixturevalue(problem)
    rng = np.random.default_rng(31)
    a, b = random_state(problem, rng), random_state(problem, rng)
    rejected = a.copy()
    rejected.vector += 0.5 * (b.vector - a.vector)
    collapsed = a.copy()
    collapsed.u_a[len(collapsed.u_a) // 2] += 0.8  # a bond of length 0.2

    def fresh(state):
        p = CoupledProblem(problem.dec, problem.mesh, problem.gamma, force=problem.force)
        return p.lagrangian_hessian(state).matrix

    def gradient_then_hessian_at(first, second):
        state = first.copy()
        problem.lagrangian_gradient(state)
        state.vector[:] = second.vector  # in place: the kept copy must not follow
        return problem.lagrangian_hessian(state).matrix

    def after_rejected_trial(trial):
        problem.lagrangian_gradient(a)
        with contextlib.suppress(ConfigurationError):
            problem.lagrangian_gradient(trial)
        return problem.lagrangian_hessian(a).matrix

    with pytest.raises(ConfigurationError):
        problem.lagrangian_gradient(collapsed)
    assert_same_bits(gradient_then_hessian_at(a, a), fresh(a))
    assert_same_bits(gradient_then_hessian_at(a, b), fresh(b))
    for _ in range(2):
        assert_same_bits(problem.lagrangian_hessian(b).matrix, fresh(b))
    for trial in (rejected, collapsed):
        assert_same_bits(after_rejected_trial(trial), fresh(a))
    assert problem._point is None


@pytest.mark.parametrize("gamma,r_core", [(1.5, 80), (3.0, 320)])
def test_newton_evaluates_each_band_once_per_point_bit_for_bit(monkeypatch, gamma, r_core):
    # a Hessian at the accepted trial takes the gradient's Hessian bands and
    # builds only its three third-derivative bands; a solve whose Hessians
    # drop that point evaluates it again and must reach the same bits
    counts = {"band": 0, "gradient": 0, "hessian": 0, "in_hessian": 0}
    stencil_band = atc.models.stencil_band
    gradient, hessian = CoupledProblem.lagrangian_gradient, CoupledProblem.lagrangian_hessian

    def count(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def counted_hessian(self, state):
        before = counts["gradient"]
        system = count("hessian", hessian)(self, state)
        counts["in_hessian"] += counts["gradient"] - before
        return system

    dec = make_decomposition(r_core, gamma)
    mesh = build_graded_mesh(dec, gamma)
    monkeypatch.setattr(atc.models, "stencil_band", count("band", stencil_band))
    monkeypatch.setattr(CoupledProblem, "lagrangian_gradient", count("gradient", gradient))
    monkeypatch.setattr(CoupledProblem, "lagrangian_hessian", counted_hessian)
    reused, diag = CoupledProblem(dec, mesh, gamma).newton_solve()
    assert counts["hessian"] == diag.iterations > 0
    assert counts["in_hessian"] == 0
    assert counts["band"] == 3 * (counts["gradient"] + counts["hessian"])

    def forgetting(self, state):
        self._point = None
        return hessian(self, state)

    monkeypatch.setattr(CoupledProblem, "lagrangian_hessian", forgetting)
    evaluated, diag_evaluated = CoupledProblem(dec, mesh, gamma).newton_solve()
    assert diag_evaluated.iterations == diag.iterations
    assert evaluated.vector.tobytes() == reused.vector.tobytes()


def test_hessian_evaluates_a_missed_point_by_one_gradient_bit_for_bit(monkeypatch, problem_10):
    # the gradient is the one evaluator of a point: a Hessian at a vector the
    # kept point does not match calls it once, and one right after a
    # gradient at an equal vector not at all; either way the point is gone
    problem = problem_10
    rng = np.random.default_rng(37)
    a, b = random_state(problem, rng), random_state(problem, rng)
    problem.lagrangian_gradient(a)
    expected = problem.lagrangian_hessian(a).matrix
    calls, gradient = [], CoupledProblem.lagrangian_gradient
    monkeypatch.setattr(CoupledProblem, "lagrangian_gradient",
                        lambda self, state: calls.append(state.vector.tobytes())
                        or gradient(self, state))

    def gradient_calls_of_hessian_after(first):
        if first is not None:
            problem.lagrangian_gradient(first)
        calls.clear()
        assert_same_bits(problem.lagrangian_hessian(a).matrix, expected)
        assert problem._point is None
        return list(calls)

    assert gradient_calls_of_hessian_after(a) == []
    assert gradient_calls_of_hessian_after(b) == [a.vector.tobytes()]
    assert gradient_calls_of_hessian_after(None) == [a.vector.tobytes()]


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


def test_solve_kkt_factorizes_the_equilibrated_matrix_bit_for_bit(monkeypatch, problem_10):
    K = problem_10.lagrangian_hessian(
        random_state(problem_10, np.random.default_rng(30))).matrix
    factored = []
    splu = atc.coupling.spla.splu

    def capture(matrix, *args, **kwargs):
        factored.append(matrix)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(atc.coupling.spla, "splu", capture)
    solve_kkt_linear(K, K @ np.ones(K.shape[0]))
    d = 1.0 / np.sqrt(np.abs(K).max(axis=1).toarray().ravel())
    (scaled,) = factored
    assert scaled.format == "csc"
    assert_same_bits(scaled, (sp.diags(d) @ K @ sp.diags(d)).tocsc())


@pytest.mark.parametrize("gamma,r_core", sorted(KKT_COST_BOUNDS))
def test_kkt_factorizations_stay_within_recorded_cost(monkeypatch, gamma, r_core):
    # a larger KKT pattern or more LU fill costs time before it moves a bit
    counts = []
    splu = atc.coupling.spla.splu

    def count(matrix, *args, **kwargs):
        lu = splu(matrix, *args, **kwargs)
        counts.append((matrix.nnz, lu.nnz))
        return lu

    monkeypatch.setattr(atc.coupling.spla, "splu", count)
    dec = make_decomposition(r_core, gamma)
    _, diag = CoupledProblem(dec, build_graded_mesh(dec, gamma), gamma).newton_solve()
    assert len(counts) == diag.iterations
    nnz, fill = KKT_COST_BOUNDS[gamma, r_core]
    assert max(k for k, _ in counts) <= nnz
    assert max(f for _, f in counts) <= fill


@pytest.mark.parametrize("gamma,r_core", sorted(ORACLE_TRACED_BYTES))
def test_oracle_stays_within_recorded_traced_bytes(gamma, r_core):
    # the oracle holds its unknowns, gradients and LAPACK's band; a second
    # band or any other per-site array is 8 bytes per unknown per row
    import tracemalloc

    dec = make_decomposition(r_core, gamma)
    tracemalloc.start()
    try:
        solve_full_atomistic(dec, gamma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / dec.r_c <= ORACLE_TRACED_BYTES[gamma, r_core]


@pytest.mark.parametrize("gamma,r_core", sorted(SITE_COUNT_BOUNDS))
def test_solve_and_errors_stay_within_recorded_site_counts(monkeypatch, gamma, r_core):
    # every force and composite site is far-field work; a second pass over
    # the far field costs time and memory before it moves a bit
    counts = {"force": 0, "composite": 0}
    half_line_forces, composite_at = atc.models._half_line_forces, CoupledProblem.composite_at

    def count_forces(first, last, gamma):
        counts["force"] += max(last - first + 1, 0)
        return half_line_forces(first, last, gamma)

    def count_composite(self, state, xs):
        counts["composite"] += len(xs)
        return composite_at(self, state, xs)

    monkeypatch.setattr(atc.models, "_half_line_forces", count_forces)
    dec = make_decomposition(r_core, gamma)
    problem = CoupledProblem(dec, build_graded_mesh(dec, gamma), gamma)
    state, _ = problem.newton_solve()
    monkeypatch.setattr(CoupledProblem, "composite_at", count_composite)
    measure_errors(problem, state)
    forces, composite = SITE_COUNT_BOUNDS[gamma, r_core]
    assert 0 < counts["force"] <= forces
    assert 0 < counts["composite"] <= composite


def test_solve_kkt_names_a_non_finite_matrix_entry(monkeypatch, small_problem):
    # it used to surface from the LU as "Factor is exactly singular"
    K = small_problem.lagrangian_hessian(
        random_state(small_problem, np.random.default_rng(31))).matrix.copy()
    rhs = K @ np.ones(K.shape[0])
    K.data[K.indptr[3] + 1] = np.nan
    row = K.indices[K.indptr[3] + 1]
    monkeypatch.setattr(atc.coupling.spla, "splu", None)  # never reached
    with pytest.raises(KktSolverError, match=rf"non-finite matrix entry nan at \({row}, 3\)"):
        solve_kkt_linear(K, rhs)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_solve_kkt_names_a_non_finite_rhs_entry(monkeypatch, small_problem, value):
    # a NaN used to surface as "linear solve residual nan exceeds bound"
    K = small_problem.lagrangian_hessian(small_problem.zero_state()).matrix
    rhs = np.ones(K.shape[0])
    rhs[7] = value
    monkeypatch.setattr(atc.coupling.spla, "splu", None)  # never reached
    with pytest.raises(KktSolverError, match=f"non-finite right-hand side entry {value} at 7"):
        solve_kkt_linear(K, rhs)


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
    assert len(diag.residuals) == residuals


def test_line_search_rejects_a_trial_that_raises():
    # the full step lands at 2, where the toy gradient x - 1 raises; half of it
    # lands on the root
    def gradient(x):
        if np.any(x > 1.5):
            raise ConfigurationError("toy bound")
        return x - 1.0

    x, diag = damped_newton(np.zeros(1), gradient, lambda x, g: -2.0 * g, 1e-10)
    assert diag.converged and x[0] == 1.0
    assert diag.step_lengths == [0.5]
    assert diag.residuals == [1.0, 0.0]


def test_line_search_fails_when_every_trial_raises():
    def gradient(x):
        if np.any(x > 0.0):
            raise ConfigurationError("toy bound")
        return x - 1.0

    with pytest.raises(NonConvergenceError, match="line search failed") as err:
        damped_newton(np.zeros(1), gradient, lambda x, g: -g, 1e-10)
    diag = err.value.diagnostics
    assert isinstance(diag, NewtonDiagnostics) and not diag.converged
    assert diag.residuals == [1.0] and diag.step_lengths == []


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


@pytest.mark.parametrize("sites", [[1000, 5], [300, 30, -300], [-3.0, 0.0, 2.0]],
                         ids=["beyond_then_inside", "descending_across_zero", "floats"])
def test_composite_at_refuses_sites_it_would_sample_wrongly(problem_10, sites):
    # the one-element path reads its element from the first and last sites,
    # and the atomistic values go to the sites searchsorted finds between
    # -r_a and r_a: decreasing sites took another element's values there
    # (0.00476 for site 5 after 1000, where 5 alone gives 0.04338 at a
    # solved state), so they and non-integer sites are refused
    state = random_state(problem_10, np.random.default_rng(40))
    with pytest.raises(UsageError):
        problem_10.composite_at(state, sites)
    ascending = np.sort(np.asarray(sites, dtype=int))
    assert np.array_equal(problem_10.composite_at(state, ascending),
                          [problem_10.composite_at(state, [x])[0] for x in ascending])


def test_composite_at_is_np_interp_bit_for_bit_on_random_knots():
    # runs inside one coarse element skip np.interp for its own formula;
    # this pins that formula to np.interp's bits, so a numpy that computes
    # the interpolant differently fails here
    rng = np.random.default_rng(20)
    dec = DomainDecomposition(10, 20, 400)
    coarse = [np.sort(rng.choice(np.arange(dec.r_a + 1, dec.r_c), 25, replace=False))
              for _ in range(2)]
    nodes = np.concatenate((-coarse[0][::-1], np.arange(-dec.r_a, dec.r_a + 1), coarse[1]))
    mesh = GradedMesh(np.concatenate(([-dec.r_c], nodes, [dec.r_c])))
    problem = CoupledProblem(dec, mesh, GAMMA)
    state = random_state(problem, rng)
    pad = 8
    expect = np.pad(composite_by_sides(problem, state), pad)
    runs = [np.arange(-dec.r_c - pad, -dec.r_c + 1), np.arange(dec.r_c, dec.r_c + pad + 1),
            np.arange(dec.r_c - 1, dec.r_c + 1), np.arange(-dec.r_c - 3, -dec.r_c),
            np.arange(dec.r_a - 3, dec.r_a + 40), np.arange(-dec.r_a - 30, -dec.r_a + 2)]
    knots = mesh.nodes
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a > 1:
            runs += [np.arange(a + 1, b), np.arange(a + 1, b + 1), np.arange(a, b),
                     np.arange(*np.sort(rng.integers(a + 1, b, 2)) + (0, 1))]
    for sites in runs:
        sampled = problem.composite_at(state, sites)
        assert sampled.tobytes() == expect[sites + dec.r_c + pad].tobytes()


def test_state_block_views_alias_vector(small_problem):
    state = small_problem.zero_state()
    state.u_a[3] = 1.5
    assert state.vector[3] == 1.5
    state.eta[:] = (2.0, -1.0)
    assert state.vector[-2] == 2.0 and state.vector[-1] == -1.0

"""Atomistic and continuum energy tests against finite-difference oracles."""

import numpy as np
import pytest

from atc import (
    AtomisticModel,
    ContinuumModel,
    CoupledProblem,
    GradedMesh,
    UsageError,
    build_graded_mesh,
    cauchy_born_energy_density,
    domain,
    exact_solution,
    exact_solution_derivative,
    force_values,
    make_decomposition,
    manufacture_forces,
    measure_errors,
)
from conftest import GAMMA, fd_gradient, rel_err_inf


@pytest.fixture(scope="module")
def dec():
    return make_decomposition(10, GAMMA)


@pytest.fixture(scope="module")
def mesh(dec):
    return build_graded_mesh(dec, GAMMA)


@pytest.fixture(scope="module")
def forces(dec):
    return manufacture_forces(GAMMA, dec)


def test_exact_solution_values():
    assert exact_solution(0.0, GAMMA) == 0.0
    x = exact_solution(1.0, GAMMA)
    assert abs(x - 0.05946036) < 1e-8
    assert exact_solution(-1.0, GAMMA) == -x


def test_exact_solution_derivative_matches_fd():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-50, 50, 50)
    h = 1e-6
    fd = (exact_solution(xs + h, GAMMA) - exact_solution(xs - h, GAMMA)) / (2 * h)
    assert rel_err_inf(exact_solution_derivative(xs, GAMMA), fd) < 1e-8


def test_forces_antisymmetric(dec):
    xs = np.arange(0, dec.r_c + 1)
    np.testing.assert_array_equal(force_values(-xs, GAMMA), -force_values(xs, GAMMA))
    assert force_values([0], GAMMA)[0] == 0.0


def test_forces_decay():
    near = np.max(np.abs(force_values(np.arange(10, 21), GAMMA)))
    far = np.max(np.abs(force_values(np.arange(100, 201), GAMMA)))
    assert far < near


def test_forces_match_fd_of_infinite_lattice_energy():
    # the force equals the derivative of the site-energy sum of the exact
    # field with respect to the center displacement (only three site
    # energies touch it)
    from atc.potentials import site_energy_array

    h = 1e-7
    for site in (0, 3, -7, 40):
        def local_energy(u_center):
            xs = np.arange(site - 2, site + 3)
            u = exact_solution(xs, GAMMA).copy()
            u[2] = u_center
            total = 0.0
            for k in (1, 2, 3):
                total += float(site_energy_array(u[k + 1] - u[k], u[k - 1] - u[k]))
            return total

        u0 = float(exact_solution(site, GAMMA))
        fd = (local_energy(u0 + h) - local_energy(u0 - h)) / (2 * h)
        assert abs(fd - force_values([site], GAMMA)[0]) < 1e-8


@pytest.mark.parametrize("gamma", [1.5, 3.0])
@pytest.mark.parametrize("r_core", [10, 20])
def test_manufactured_forces_equal_the_five_point_formula(gamma, r_core):
    # per site, the three stencils centred at |s|-1, |s| and |s|+1 on five
    # exact values, mirrored by sign: the field must match it bit for bit
    from atc.potentials import site_gradient_arrays

    dec = make_decomposition(r_core, gamma)
    s = np.abs(dec.sites).astype(float)
    u = {k: exact_solution(s + k, gamma) for k in (-2, -1, 0, 1, 2)}
    vf_m, _ = site_gradient_arrays(u[0] - u[-1], u[-2] - u[-1])
    vf_0, vb_0 = site_gradient_arrays(u[1] - u[0], u[-1] - u[0])
    _, vb_p = site_gradient_arrays(u[2] - u[1], u[0] - u[1])
    expect = np.sign(dec.sites) * (vf_m - vf_0 + vb_p - vb_0)
    assert force_values(dec.sites, gamma).tobytes() == expect.tobytes()
    # only the atomistic window is held
    window = slice(dec.r_c - dec.r_a, dec.r_c + dec.r_a + 1)
    assert manufacture_forces(gamma, dec).values.tobytes() == expect[window].tobytes()


@pytest.mark.parametrize("chunk", [5, 64])
def test_force_values_on_any_site_range_equal_the_whole_half_line(monkeypatch, chunk):
    monkeypatch.setattr(domain, "LATTICE_CHUNK", chunk)
    dec = make_decomposition(10, GAMMA)
    whole = force_values(dec.sites, GAMMA)
    # each chunk evaluates its own halo, also across the window's edge
    for lo, hi in ((-dec.r_c, -300), (-7, 5), (100, 101), (dec.r_a + 1, dec.r_c),
                   (dec.r_core, dec.r_a + 7)):
        sites = np.arange(lo, hi + 1)
        got = force_values(sites, GAMMA)
        assert got.tobytes() == whole[sites + dec.r_c].tobytes()
    assert force_values(np.arange(0), GAMMA).shape == (0,)
    for sites in ([0.5], [1.5], np.array([2.0, 3.5])):
        with pytest.raises(UsageError, match="integers"):
            force_values(sites, GAMMA)


def test_atomistic_energy_zero_state(dec):
    model = AtomisticModel(dec)
    assert model.energy(np.zeros(model.n)) == 0.0


def test_atomistic_equilibrium_at_exact_solution(dec, forces):
    model = AtomisticModel(dec, forces)
    u = exact_solution(dec.atomistic_sites, GAMMA)
    res = model.equilibrium_residual(u)
    assert np.max(np.abs(res)) < 1e-12


def test_atomistic_gradient_matches_fd(dec, forces):
    model = AtomisticModel(dec, forces)
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = rng.uniform(-0.05, 0.05, model.n)
        fd = fd_gradient(model.energy, u)
        assert rel_err_inf(model.gradient(u), fd) < 1e-6


def test_atomistic_hessian_matches_fd_and_symmetric(dec, forces):
    model = AtomisticModel(dec, forces)
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(5):
        u = rng.uniform(-0.05, 0.05, model.n)
        H = model.hessian(u)
        assert np.max(np.abs(H - H.T)) == 0.0
        v = rng.uniform(-1, 1, model.n)
        fd = (model.gradient(u + h * v) - model.gradient(u - h * v)) / (2 * h)
        assert rel_err_inf(H @ v, fd) < 1e-5


def test_atomistic_third_contraction_matches_fd(dec, forces):
    model = AtomisticModel(dec, forces)
    rng = np.random.default_rng(7)
    h = 1e-5
    u = rng.uniform(-0.05, 0.05, model.n)
    w = rng.uniform(-1, 1, model.n)
    T = model.third_contraction(u, w)
    assert np.max(np.abs(T - T.T)) == 0.0
    fd = (model.hessian(u + h * w) - model.hessian(u - h * w)) / (2 * h)
    assert rel_err_inf(T.toarray(), fd.toarray()) < 1e-5


def test_patch_consistency_uniform_strain(dec):
    # per-site energy of a homogeneously strained chain equals the density
    model = AtomisticModel(dec)
    for g in (-0.05, -0.01, 0.02, 0.05):
        u = g * dec.atomistic_sites.astype(float)
        per_site = model.energy(u) / len(model.energy_idx)
        assert abs(per_site - cauchy_born_energy_density(g)) <= 1e-14


def test_continuum_energy_zero_state(dec, mesh, forces):
    cont = ContinuumModel(dec, mesh)  # no force: zero work term
    nm, npl = cont.minus.n - 1, cont.plus.n - 1
    assert cont.energy(np.zeros(nm), np.zeros(npl)) == 0.0


def test_continuum_single_element_strain(dec, mesh):
    # raising one interior node strains exactly its two elements; the energy
    # is the element sizes times the density at those strains (no force)
    cont = ContinuumModel(dec, mesh)
    plus = cont.plus
    u = np.zeros(plus.n)
    u[1] = 0.03 * plus.h[0]
    g0, g1 = 0.03, -0.03 * plus.h[0] / plus.h[1]
    expected = (plus.h[0] * cauchy_born_energy_density(g0)
                + plus.h[1] * cauchy_born_energy_density(g1))
    assert abs(plus.energy(u) - expected) < 1e-14


def test_continuum_gradient_matches_fd(dec, mesh, forces):
    cont = ContinuumModel(dec, mesh, forces)
    rng = np.random.default_rng(8)
    nm, npl = cont.minus.n - 1, cont.plus.n - 1
    for _ in range(20):
        um = rng.uniform(-0.05, 0.05, nm)
        up = rng.uniform(-0.05, 0.05, npl)
        fd_m = fd_gradient(lambda v: cont.energy(v, up), um)
        fd_p = fd_gradient(lambda v: cont.energy(um, v), up)
        gm, gp = cont.gradient(um, up)
        assert rel_err_inf(gm, fd_m) < 1e-6
        assert rel_err_inf(gp, fd_p) < 1e-6


def test_continuum_hessian_symmetric_and_matches_fd(dec, mesh, forces):
    cont = ContinuumModel(dec, mesh, forces)
    rng = np.random.default_rng(9)
    side = cont.plus
    h = 1e-6
    for _ in range(5):
        u = rng.uniform(-0.05, 0.05, side.n)
        H = side.hessian(u)
        assert np.max(np.abs(H - H.T)) == 0.0
        v = rng.uniform(-1, 1, side.n)
        fd = (side.gradient(u + h * v) - side.gradient(u - h * v)) / (2 * h)
        assert rel_err_inf(H @ v, fd) < 1e-5


def test_continuum_third_contraction_matches_fd(dec, mesh):
    cont = ContinuumModel(dec, mesh)
    side = cont.minus
    rng = np.random.default_rng(10)
    u = rng.uniform(-0.05, 0.05, side.n)
    w = rng.uniform(-1, 1, side.n)
    T = side.third_contraction(u, w)
    h = 1e-5
    fd = (side.hessian(u + h * w) - side.hessian(u - h * w)) / (2 * h)
    assert rel_err_inf(T.toarray(), fd.toarray()) < 1e-5


def test_continuum_work_term_exact_for_linear_interpolant(dec, mesh, forces):
    # the load vector integrates (If)*u exactly; cross-check on one side
    # against fine trapezoid quadrature of the piecewise-linear product
    cont = ContinuumModel(dec, mesh, forces)
    side = cont.plus
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.05, 0.05, side.n)
    xs = np.arange(side.nodes[0], side.nodes[-1] + 1)
    f_lin = force_values(xs, GAMMA)
    u_lin = np.interp(xs, side.x, u)
    # product of two piecewise-linear functions on unit intervals: exact
    # integral from endpoint values via the weighted two-point rule
    fl, fr = f_lin[:-1], f_lin[1:]
    ul, ur = u_lin[:-1], u_lin[1:]
    exact = np.sum((2 * fl * ul + fl * ur + fr * ul + 2 * fr * ur) / 6.0)
    assert abs(np.dot(side.load, u) - exact) < 1e-12 * max(1.0, abs(exact))


def test_continuum_requires_refined_overlap(dec):
    bad = GradedMesh(np.array([-dec.r_c, -dec.r_core, dec.r_core, dec.r_c]))
    with pytest.raises(UsageError):
        ContinuumModel(dec, bad)


def one_shot_load(side, force):
    """The load of one side from one pass over all its sites at once."""
    grid = np.arange(side.nodes[0], side.nodes[-1] + 1)
    f = force_values(grid, force.gamma)
    m = grid[:-1].astype(float)
    elem = np.searchsorted(side.nodes, grid[:-1], side="right") - 1
    xl, xr = side.x[elem], side.x[elem + 1]
    h = xr - xl
    fm, fp = f[:-1], f[1:]
    pl0, pl1 = (xr - m) / h, (xr - m - 1.0) / h
    pr0, pr1 = (m - xl) / h, (m + 1.0 - xl) / h
    left = (2.0 * fm * pl0 + fm * pl1 + fp * pl0 + 2.0 * fp * pl1) / 6.0
    right = (2.0 * fm * pr0 + fm * pr1 + fp * pr0 + 2.0 * fp * pr1) / 6.0
    return (np.bincount(elem, weights=left, minlength=side.n)
            + np.bincount(elem + 1, weights=right, minlength=side.n))


def one_shot_errors(problem, state):
    """measure_errors from the composite and the exact field on every site."""
    dec = problem.dec
    vals = np.concatenate(([0.0], problem.assemble_atc_solution(state), [0.0]))
    d = np.diff(vals - exact_solution(np.arange(-dec.r_c - 1, dec.r_c + 2), problem.gamma))
    return float(np.sqrt(np.dot(d, d))), float(np.max(np.abs(d)))


@pytest.mark.parametrize("chunk", [5, 64])
@pytest.mark.parametrize("r_core", [10, 20])
def test_chunked_loads_and_errors_equal_one_pass_over_all_sites(monkeypatch, chunk, r_core):
    # the sweep cuts elements longer than a chunk into sub-chunks and
    # carries each node's running total across them: the loads must be the
    # one-shot bincount's bytes; err_l2 sums its squares in another order
    monkeypatch.setattr(domain, "LATTICE_CHUNK", chunk)
    dec = make_decomposition(r_core, GAMMA)
    problem = CoupledProblem(dec, build_graded_mesh(dec, GAMMA), GAMMA)
    assert max(np.diff(problem.mesh.nodes)) > chunk
    for side in (problem.continuum.minus, problem.continuum.plus):
        assert side.load.tobytes() == one_shot_load(side, problem.force).tobytes()
    state, _ = problem.newton_solve()
    err_l2, err_inf = measure_errors(problem, state)
    expect_l2, expect_inf = one_shot_errors(problem, state)
    assert err_inf == expect_inf
    assert abs(err_l2 - expect_l2) <= 1e-13 * expect_l2


def test_coupled_solve_memory_does_not_grow_with_the_domain():
    # gamma 1.5 at r_core 80 spans 647,637 sites; a per-site float64 array
    # alone would take 5.2 MB, and the one-shot sums held about a dozen
    import tracemalloc

    dec = make_decomposition(80, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    tracemalloc.start()
    try:
        problem = CoupledProblem(dec, mesh, GAMMA)
        state, _ = problem.newton_solve()
        measure_errors(problem, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6

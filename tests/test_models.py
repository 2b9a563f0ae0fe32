"""Atomistic and continuum energy tests against finite-difference oracles."""

import numpy as np
import pytest

from atc import (
    AtomisticModel,
    ContinuumModel,
    ExternalForce,
    GradedMesh,
    UsageError,
    build_graded_mesh,
    cauchy_born_energy_density,
    exact_solution,
    exact_solution_derivative,
    force_values,
    make_decomposition,
    manufacture_forces,
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


def test_forces_antisymmetric(dec, forces):
    xs = np.arange(0, dec.r_c + 1)
    np.testing.assert_array_equal(forces.at(-xs), -forces.at(xs))
    assert forces.at([0])[0] == 0.0


def test_forces_decay(forces):
    near = np.max(np.abs(forces.at(np.arange(10, 21))))
    far = np.max(np.abs(forces.at(np.arange(100, 201))))
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


def test_external_force_range_check(dec, forces):
    with pytest.raises(UsageError):
        forces.at([dec.r_c + 1])


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
    assert rel_err_inf(T, fd) < 1e-5


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
    assert rel_err_inf(T, fd) < 1e-5


def test_continuum_work_term_exact_for_linear_interpolant(dec, mesh, forces):
    # the load vector integrates (If)*u exactly; cross-check on one side
    # against fine trapezoid quadrature of the piecewise-linear product
    cont = ContinuumModel(dec, mesh, forces)
    side = cont.plus
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.05, 0.05, side.n)
    xs = np.arange(side.nodes[0], side.nodes[-1] + 1)
    f_lin = forces.at(xs).astype(float)
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

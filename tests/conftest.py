import numpy as np
import pytest
import scipy.sparse as sp

from atc import (
    CoupledProblem,
    DomainDecomposition,
    GradedMesh,
    build_graded_mesh,
    make_decomposition,
    run_sweep,
)

GAMMA = 1.5
SWEEP_R_CORES = [10, 20, 40, 80, 160]


@pytest.fixture(scope="session")
def small_problem():
    """Cheap coupled problem for derivative and assembly checks."""
    dec = make_decomposition(4, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    return CoupledProblem(dec, mesh, GAMMA)


@pytest.fixture(scope="session")
def problem_10():
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    return CoupledProblem(dec, mesh, GAMMA)


@pytest.fixture(scope="session")
def problem_uneven():
    """Coupled problem whose sides differ in length: 25 random coarse knots
    on the minus side, 40 on the plus side, drawn as in the composite's
    random-knot test."""
    rng = np.random.default_rng(20)
    dec = DomainDecomposition(10, 20, 400)
    coarse = [np.sort(rng.choice(np.arange(dec.r_a + 1, dec.r_c), count, replace=False))
              for count in (25, 40)]
    nodes = np.concatenate((-coarse[0][::-1], np.arange(-dec.r_a, dec.r_a + 1), coarse[1]))
    return CoupledProblem(dec, GradedMesh(np.concatenate(([-dec.r_c], nodes, [dec.r_c]))), GAMMA)


@pytest.fixture(scope="session")
def solved_10(problem_10):
    state, diag = problem_10.newton_solve()
    return state, diag


@pytest.fixture(scope="session")
def sweep_records():
    """The headline sweep, shared by acceptance and property tests."""
    return run_sweep(SWEEP_R_CORES, GAMMA)


def random_state(problem, rng, scale=0.02):
    """Random system state with physically evaluable displacements."""
    state = problem.zero_state()
    state.u_a[:] = rng.uniform(-scale, scale, len(state.u_a))
    state.u_c_minus[:] = rng.uniform(-scale, scale, len(state.u_c_minus))
    state.u_c_plus[:] = rng.uniform(-scale, scale, len(state.u_c_plus))
    state.lam_a[:] = rng.uniform(-1.0, 1.0, len(state.lam_a))
    state.lam_c_minus[:] = rng.uniform(-1.0, 1.0, len(state.lam_c_minus))
    state.lam_c_plus[:] = rng.uniform(-1.0, 1.0, len(state.lam_c_plus))
    state.eta[:] = rng.uniform(-1.0, 1.0, 2)
    return state


def fd_gradient(fun, x, h=1e-6):
    """Dense centered-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(len(x))
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        g[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return g


def rel_err_inf(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return np.max(np.abs(a - b)) / denom


def band_csr(ab) -> sp.csr_matrix:
    """CSR matrix of the square stencil_band storage ab, without stored zeros."""
    k, n = len(ab) // 2, ab.shape[1]
    return sp.dia_matrix((ab, np.arange(k, -k - 1, -1)), shape=(n, n)).tocsr()

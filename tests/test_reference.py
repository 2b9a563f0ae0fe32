"""Reference solve and error functional tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

import atc.reference
from atc import (
    DomainDecomposition,
    GradedMesh,
    KktSolverError,
    UsageError,
    build_graded_mesh,
    conjectured_bound,
    domain,
    energy_seminorm_error,
    exact_solution,
    make_decomposition,
    phi_d1,
    phi_d2,
    solve_full_atomistic,
)
from atc.coupling import damped_newton
from atc.models import force_values, stencil_band, stencil_gradient
from atc.potentials import INTERACTION_RANGE, site_gradient_arrays, site_hessian_arrays
from atc.reference import coarsening_term_sq, sum_sq_and_max, truncation_tail_sq
from conftest import GAMMA, band_csr

ROOT = Path(__file__).resolve().parents[1]

# r_core -> (iterations, energy_seminorm_error of the values against the
# exact field) of the oracle at gamma 1.5, recorded at commit 79221da
RECORDED_ORACLE_SOLVES = {
    10: (6, 7.924878087623945e-05),
    20: (6, 1.3980674153156298e-05),
}


def small_dec(r_c):
    return DomainDecomposition(10, 20, r_c)


def max_norm(u, reference):
    """Largest first difference of u - reference: the max-norm error, as the
    largest entry sum_sq_and_max returns."""
    return sum_sq_and_max((np.diff(u - reference),))[1]


def test_full_atomistic_converges_with_small_residual():
    dec = small_dec(400)
    ref = solve_full_atomistic(dec, GAMMA)
    assert ref.residual < 1e-10
    assert ref.iterations <= 20
    assert len(ref.values) == len(dec.sites)
    # antisymmetric problem, antisymmetric solution
    np.testing.assert_allclose(ref.values, -ref.values[::-1], rtol=0, atol=1e-12)


def odd_on_the_full_line(half):
    """The odd field with values half on sites 1 .. r_c, padded by zeros to
    -r_c - INTERACTION_RANGE .. r_c + INTERACTION_RANGE."""
    return np.pad(np.concatenate((-half[::-1], [0.0], half)), INTERACTION_RANGE)


def full_line_bonds(u):
    """(i, j, stretch) of every first and second neighbour bond of u."""
    for length in (1, 2):
        i = np.arange(len(u) - length)
        yield i, i + length, length + u[i + length] - u[i]


def test_oracle_values_are_odd_and_stationary_on_the_full_line(monkeypatch):
    # the oracle solves on the half-line; checked here on every site of the
    # full line, with the gradient and Hessian summed bond by bond from
    # phi_d1 and phi_d2 (zero beyond the domain), independently of the
    # site-energy stencils and of the fold of sites 1 and -1
    steps = []

    def recording_newton(x0, gradient, step, tolerance):
        def recorded(u, g):
            steps.append((u, g, step(u, g)))
            return steps[-1][2]
        return damped_newton(x0, gradient, recorded, tolerance)

    monkeypatch.setattr(atc.reference, "damped_newton", recording_newton)
    dec = make_decomposition(10, GAMMA)
    ref = solve_full_atomistic(dec, GAMMA)
    assert np.array_equal(ref.values, -ref.values[::-1])
    k = INTERACTION_RANGE
    u = np.pad(ref.values, k)
    grad = np.zeros(len(u))
    for i, j, stretch in full_line_bonds(u):
        np.add.at(grad, j, phi_d1(stretch))
        np.add.at(grad, i, -phi_d1(stretch))
    assert np.max(np.abs(grad[k:-k] - force_values(dec.sites, GAMMA))) < 1e-10
    # each Newton step solves the full line's Newton system at its iterate
    assert len(steps) == ref.iterations
    for half, g, d in steps:
        u = odd_on_the_full_line(half)
        rows, cols, vals = [], [], []
        for i, j, stretch in full_line_bonds(u):
            c = phi_d2(stretch)
            rows += [i, j, i, j]
            cols += [i, j, j, i]
            vals += [c, c, -c, -c]
        hessian = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                        np.concatenate(cols))))
        mismatch = hessian @ odd_on_the_full_line(d) + odd_on_the_full_line(g)
        assert np.max(np.abs(mismatch[k:-k])) <= 1e-11 * np.max(np.abs(g))


@pytest.mark.parametrize("r_core", sorted(RECORDED_ORACLE_SOLVES))
def test_oracle_reproduces_recorded_numerics(r_core):
    # guards the floating-point path of the oracle, as
    # test_cold_solve_reproduces_recorded_numerics guards the coupled one
    iters, err = RECORDED_ORACLE_SOLVES[r_core]
    ref = solve_full_atomistic(make_decomposition(r_core, GAMMA), GAMMA)
    assert ref.iterations == iters
    assert (energy_seminorm_error(ref.values, exact_solution(ref.sites, GAMMA))
            == pytest.approx(err, rel=1e-12, abs=0.0))


@pytest.mark.parametrize("gamma,r_core,iterations", [(1.5, 10, 6), (3.0, 20, 5)])
def test_oracle_by_lattice_chunks_is_one_chunk_bit_for_bit(monkeypatch, gamma, r_core,
                                                            iterations):
    # the residual and the band are built chunk by chunk, each from its own
    # window of the odd field; the seams, a last chunk of one site and the
    # fold of site 1 onto site -1 in the first chunk must keep every bit of
    # the one chunk these domains fit in.  The iterations were recorded at
    # commit 4af6e97: a fold read one band row off took 8 and 7
    dec = make_decomposition(r_core, gamma)
    assert dec.r_c < domain.LATTICE_CHUNK
    whole = solve_full_atomistic(dec, gamma)
    assert whole.iterations == iterations
    for chunk in (1, 5, 7):
        monkeypatch.setattr(domain, "LATTICE_CHUNK", chunk)
        ref = solve_full_atomistic(dec, gamma)
        assert ref.values.tobytes() == whole.values.tobytes()
        assert (ref.iterations, repr(ref.residual)) == (whole.iterations, repr(whole.residual))


def test_singular_oracle_step_is_a_kkt_solver_error(monkeypatch):
    # a zero Hessian is singular; callers such as perfbench catch AtcError,
    # which numpy's LinAlgError is not
    monkeypatch.setattr(atc.reference, "site_hessian_arrays",
                        lambda forward, backward: (np.zeros(len(forward)),) * 3)
    with pytest.raises(KktSolverError, match="not positive definite at LAPACK's column 1$"):
        solve_full_atomistic(make_decomposition(10, GAMMA), GAMMA)


def test_indefinite_oracle_step_is_a_kkt_solver_error(monkeypatch):
    # the negated Hessian is nonsingular, so a band LU factors it and its step
    # leads uphill; the Cholesky step must refuse it as not positive definite
    hessian = atc.reference.site_hessian_arrays
    monkeypatch.setattr(atc.reference, "site_hessian_arrays",
                        lambda forward, backward: tuple(-c for c in hessian(forward, backward)))
    with pytest.raises(KktSolverError, match="not positive definite at LAPACK's column 1$"):
        solve_full_atomistic(make_decomposition(10, GAMMA), GAMMA)


@pytest.mark.parametrize("gamma,r_core", [(1.5, 10), (3.0, 20)])
def test_oracle_cholesky_step_is_the_lu_step_of_the_folded_band(monkeypatch, gamma, r_core):
    # at a random state, the oracle's step against LU on the full line's band
    # restricted to sites 1 .. r_c, with site 1's coupling to site -1 folded
    # into its diagonal by hand; both are backward stable, not bit for bit
    oracle = {}

    def capturing_newton(x0, gradient, step, tolerance):
        oracle.update(gradient=gradient, step=step)
        return damped_newton(x0, gradient, step, tolerance)

    monkeypatch.setattr(atc.reference, "damped_newton", capturing_newton)
    dec = make_decomposition(r_core, gamma)
    solve_full_atomistic(dec, gamma)
    n, k = dec.r_c, INTERACTION_RANGE
    half = np.random.default_rng(32).uniform(-0.02, 0.02, n)
    g = oracle["gradient"](half)
    u = odd_on_the_full_line(half)
    idx = np.arange(1, len(u) - 1)
    ab = stencil_band(len(u), 0, 1, 2,
                      *site_hessian_arrays(u[idx + 1] - u[idx], u[idx - 1] - u[idx]))
    # site s sits at index n + k + s of the padded full line
    band = ab[:, n + k + 1:2 * n + k + 1].copy()
    band[k, 0] -= ab[k + 2, n + k - 1]
    lu = solve_banded((k, k), band, -g)
    step = oracle["step"](half, g)
    assert np.max(np.abs(step - lu)) <= 1e-11 * np.max(np.abs(lu))


@pytest.mark.parametrize("gamma,iterations", [(1.0, 6), (1.5, 6), (2.0, 6), (3.0, 5), (5.0, 4)])
def test_oracle_converges_in_recorded_iterations(gamma, iterations):
    # the Cholesky step needs a positive definite Hessian at every iterate; a
    # lost step or a damped one would show as another count.  Recorded with
    # the band LU at commit bbe7b5d
    assert solve_full_atomistic(make_decomposition(10, gamma), gamma).iterations == iterations


def test_non_finite_oracle_step_is_a_kkt_solver_error(monkeypatch):
    # a NaN or inf must not reach LAPACK; callers catch AtcError, which a
    # plain ValueError from a finite check is not
    hessian = atc.reference.site_hessian_arrays

    def poisoned(forward, backward):
        cff, cfb, cbb = hessian(forward, backward)
        cff[len(cff) // 2] = np.inf
        return cff, cfb, cbb

    monkeypatch.setattr(atc.reference, "site_hessian_arrays", poisoned)
    with pytest.raises(KktSolverError, match="non-finite Hessian band or gradient"):
        solve_full_atomistic(make_decomposition(10, GAMMA), GAMMA)


def dense_stencil_hessian(n, back, centre, fwd, cff, cfb, cbb):
    """The stencil Hessian by one np.add.at scatter of the nine blocks in the
    order stencil_band documents; np.add.at adds duplicates in input order."""
    m, c, p = back, centre, fwd
    off_fc, off_bc = -(cff + cfb), -(cbb + cfb)
    rows = np.concatenate((p, c, m, p, c, m, c, p, m))
    cols = np.concatenate((p, c, m, c, p, c, m, m, p))
    vals = np.concatenate((cff, cff + 2.0 * cfb + cbb, cbb, off_fc, off_fc,
                           off_bc, off_bc, cfb, cfb))
    dense = np.zeros((n, n))
    np.add.at(dense, (rows, cols), vals)
    return dense


def assert_band_is(ab, dense):
    k = INTERACTION_RANGE
    i, j = np.indices(dense.shape)
    in_band = np.abs(i - j) <= k
    assert np.array_equal(ab[k + i[in_band] - j[in_band], j[in_band]], dense[in_band])
    assert not np.any(dense[~in_band])
    # the slots outside the matrix
    r, c = np.indices(ab.shape)
    assert not np.any(ab[(c + r - k < 0) | (c + r - k >= dense.shape[0])])
    # the CSR view holds the same entries and no stored zeros
    csr = band_csr(ab)
    assert csr.has_canonical_format
    assert np.all(csr.data != 0.0)
    assert csr.nnz == np.count_nonzero(dense)
    assert np.array_equal(csr.toarray(), dense)


def test_band_holds_the_stencil_hessian_bit_for_bit():
    rng = np.random.default_rng(29)
    # the atomistic stencil (i-1, i, i+1); zeros in cff and cfb leave entries
    # that sum to exactly zero, which the CSR view must drop
    n = 40
    i = np.arange(1, n - 1)
    cff, cfb, cbb = rng.uniform(-2.0, 2.0, (3, len(i)))
    cff[5] = cfb[5] = cfb[17] = 0.0
    assert_band_is(stencil_band(n, 0, 1, 2, cff, cfb, cbb),
                   dense_stencil_hessian(n, i - 1, i, i + 1, cff, cfb, cbb))
    # the continuum elements (e, e, e + 1), forward difference only
    e = np.arange(n - 1)
    coef, zero = rng.uniform(-2.0, 2.0, len(e)), np.zeros(len(e))
    coef[7] = 0.0
    assert_band_is(stencil_band(n, 0, 0, 1, coef, zero, zero),
                   dense_stencil_hessian(n, e, e, e + 1, coef, zero, zero))

    # the full line padded by zeros, at a random state: sites -r_c - 2 .. r_c + 2,
    # every site with a neighbour on each side carries a site energy
    dec = small_dec(400)
    k = INTERACTION_RANGE
    n, pad = len(dec.sites), k
    size = n + 2 * pad
    idx = np.arange(1, size - 1)
    stencil = (idx - 1, idx, idx + 1)
    u = np.zeros(size)
    u[pad:-pad] = rng.uniform(-0.05, 0.05, n)
    diffs = u[idx + 1] - u[idx], u[idx - 1] - u[idx]
    hess = site_hessian_arrays(*diffs)
    ab = stencil_band(size, 0, 1, 2, *hess)
    assert_band_is(ab, dense_stencil_hessian(size, *stencil, *hess))
    # one Newton step of the padded block, banded LU against sparse LU; both
    # are backward stable, and this block's condition number is about 1.6e6,
    # so they agree to about 1e-12, not to the last bit
    vf, vb = site_gradient_arrays(*diffs)
    g = stencil_gradient(size, 0, 1, 2, vf, vb)[pad:-pad] - force_values(dec.sites, GAMMA)
    banded = solve_banded((k, k), ab[:, pad:-pad], -g)
    sparse = spla.spsolve(band_csr(ab)[pad:-pad, pad:-pad].tocsc(), -g)
    assert np.max(np.abs(banded - sparse)) <= 1e-11 * np.max(np.abs(sparse))


@pytest.mark.parametrize("offsets", [(0, 1, 2), (0, 0, 1)], ids=["lattice", "elements"])
def test_stencil_gradient_is_the_bincount_scatter_bit_for_bit(offsets):
    # each weight vector lands in zeros, as np.bincount adds it to 0.0; a
    # -0.0 weight becomes 0.0 either way
    rng = np.random.default_rng(31)
    n = 40
    back, centre, fwd = (np.arange(n - 2) + k for k in offsets)
    vf, vb = rng.uniform(-2.0, 2.0, (2, n - 2))
    vf[3], vb[4] = -0.0, -0.0
    expect = ((np.bincount(fwd, weights=vf, minlength=n)
               + np.bincount(back, weights=vb, minlength=n))
              - np.bincount(centre, weights=vf + vb, minlength=n))
    assert stencil_gradient(n, *offsets, vf, vb).tobytes() == expect.tobytes()


def test_full_atomistic_approaches_exact_solution_as_domain_grows():
    errs = []
    for r_c in (200, 800):
        dec = small_dec(r_c)
        ref = solve_full_atomistic(dec, GAMMA)
        # compare on the common interior |xi| <= 100
        sites = np.arange(-100, 101)
        u = ref.values[sites + dec.r_c]
        errs.append(energy_seminorm_error(u, exact_solution(sites, GAMMA)))
    assert errs[1] < errs[0]
    # truncation error scale: interior discrepancy below the far-field tail
    assert errs[1] < np.sqrt(truncation_tail_sq(GAMMA, 200))


@pytest.mark.parametrize("gamma,r_c", [(GAMMA, 1000), (3.0, 200), (2.0, 500)])
def test_oracle_total_error_falls_like_the_truncation_tail(gamma, r_c):
    # the oracle's total error, its seminorm error on the domain and the
    # exact field's tail beyond it, is the truncation error: it falls like
    # R^(1/2 - gamma) (0.3%, 0.6% and 0.1% off over a factor 4 in R)
    def total_error(r):
        values = solve_full_atomistic(small_dec(r), gamma).values
        exact = exact_solution(np.arange(-r - 1, r + 2), gamma)
        err = energy_seminorm_error(np.pad(values, 1), exact)
        return np.sqrt(err**2 + truncation_tail_sq(gamma, r))

    ratio = total_error(4 * r_c) / total_error(r_c)
    assert ratio == pytest.approx(4.0 ** (0.5 - gamma), rel=0.1)


def test_energy_seminorm_reference_cases():
    assert energy_seminorm_error(np.zeros(5), np.zeros(5)) == 0.0
    # difference field g*xi over the passed range: n differences of size g;
    # dyadic g and square n make the exact value representable
    g, n = 2.0 ** -10, 16
    xs = np.arange(n + 1, dtype=float)
    assert energy_seminorm_error(g * xs, np.zeros(n + 1)) == g * 4.0
    assert max_norm(g * xs, np.zeros(n + 1)) == g


def test_energy_seminorm_matches_bruteforce_sum():
    rng = np.random.default_rng(27)
    u = rng.uniform(-1, 1, 40)
    v = rng.uniform(-1, 1, 40)
    total = 0.0
    for i in range(39):
        d = (u[i + 1] - v[i + 1]) - (u[i] - v[i])
        total += d * d
    assert abs(energy_seminorm_error(u, v) - np.sqrt(total)) < 1e-14
    assert max_norm(u, v) == max(
        abs((u[i + 1] - v[i + 1]) - (u[i] - v[i])) for i in range(39))


def test_error_functionals_are_norms_on_difference_fields():
    rng = np.random.default_rng(28)
    for _ in range(10):
        # fields include their zero extension, so a nonzero field has a jump
        a = np.concatenate(([0.0], rng.uniform(-1, 1, 20), [0.0]))
        b = np.concatenate(([0.0], rng.uniform(-1, 1, 20), [0.0]))
        c = np.concatenate(([0.0], rng.uniform(-1, 1, 20), [0.0]))
        z = np.zeros_like(a)
        assert energy_seminorm_error(a, z) > 0.0
        assert energy_seminorm_error(a, a) == 0.0
        # triangle inequality
        assert (energy_seminorm_error(a, c)
                <= energy_seminorm_error(a, b) + energy_seminorm_error(b, c) + 1e-15)
        assert max_norm(a, c) <= max_norm(a, b) + max_norm(b, c) + 1e-15


@pytest.mark.parametrize("n", [0, 1, 2, 100_000])
def test_energy_seminorm_is_the_one_pass_dot_product_bit_for_bit(n):
    # one field hands sum_sq_and_max one chunk, so the seminorm is the dot
    # product of the whole difference field with itself, to the last bit
    rng = np.random.default_rng(n)
    u, v = rng.uniform(-1, 1, (2, n))
    d = np.diff(u - v)
    assert (np.float64(energy_seminorm_error(u, v)).tobytes()
            == np.float64(float(np.sqrt(np.dot(d, d)))).tobytes())


def test_error_sum_adds_chunks_in_order_and_skips_empty_ones():
    rng = np.random.default_rng(30)
    a, b = rng.uniform(-1, 1, (2, 1000))
    b[17] = -3.0
    sq, largest = sum_sq_and_max(iter([a, np.empty(0), b, np.empty(0)]))
    assert sq == float(np.dot(a, a)) + float(np.dot(b, b))
    assert largest == 3.0
    assert sum_sq_and_max(()) == (0.0, 0.0)
    assert sum_sq_and_max([np.empty(0)]) == (0.0, 0.0)


@pytest.mark.parametrize("order", [1, -1], ids=["nan-last", "nan-first"])
def test_error_sum_keeps_a_nan_chunk_in_both_results(order):
    # a NaN chunk makes the largest magnitude NaN as well as the sum, so
    # err_inf and err_l2 agree that the composite is broken
    chunks = [np.array([1.0, -2.0]), np.array([0.5, np.nan])][::order]
    sq, largest = sum_sq_and_max(chunks)
    assert np.isnan(sq) and np.isnan(largest)


def test_error_functionals_reject_mismatched_lengths():
    with pytest.raises(UsageError):
        energy_seminorm_error(np.zeros(5), np.zeros(6))


def test_conjectured_bound_positive_and_finite():
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    b = conjectured_bound(GAMMA, dec, mesh)
    assert np.isfinite(b) and b > 0.0


def test_only_the_error_bound_loads_scipy_integrate():
    # scipy.integrate adds about 20 MB to every process that imports it; a
    # solve never needs it, and conjectured_bound loads it on its first call
    code = """
import sys
from atc import build_graded_mesh, conjectured_bound, make_decomposition, run_single
run_single(10, 1.5)
assert "scipy.integrate" not in sys.modules, "loaded by a solve"
dec = make_decomposition(10, 1.5)
print(repr(conjectured_bound(1.5, dec, build_graded_mesh(dec, 1.5))))
assert "scipy.integrate" in sys.modules, "not loaded by conjectured_bound"
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dec = make_decomposition(10, GAMMA)
    assert float(proc.stdout) == conjectured_bound(GAMMA, dec, build_graded_mesh(dec, GAMMA))


def test_conjectured_bound_mesh_term_decreases_with_refinement():
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    fully_refined = GradedMesh(np.arange(-dec.r_c, dec.r_c + 1))
    coarse = coarsening_term_sq(GAMMA, dec, mesh)
    fine = coarsening_term_sq(GAMMA, dec, fully_refined)
    assert fine < coarse


def test_conjectured_bound_tail_decreases_with_domain_size():
    t = [truncation_tail_sq(GAMMA, r_c) for r_c in (200, 400, 800)]
    assert t[0] > t[1] > t[2]


def test_coarsening_term_matches_direct_summation():
    # independent per-site replay: find the containing element, take its
    # size, square against the exact second difference
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    nodes = list(mesh.nodes)
    total = 0.0
    for xi in list(range(-dec.r_c, -dec.r_core + 1)) + list(range(dec.r_core, dec.r_c + 1)):
        k = 0
        for k in range(len(nodes) - 1):
            if nodes[k] <= xi < nodes[k + 1]:
                break
        else:
            k = len(nodes) - 2
        h = nodes[k + 1] - nodes[k]
        d2 = (exact_solution(xi + 1, GAMMA) - 2 * exact_solution(xi, GAMMA)
              + exact_solution(xi - 1, GAMMA))
        total += (h * d2) ** 2
    lib = coarsening_term_sq(GAMMA, dec, mesh)
    assert abs(lib - total) / total < 1e-12


def test_conjectured_bound_tracks_measured_error_over_sweep(sweep_records):
    # measured error and the bound both scale like DoF^-2, so their ratio
    # must stay inside a constant band across the whole sweep
    ratios = []
    for rec in sweep_records:
        dec = make_decomposition(rec.r_core, GAMMA)
        mesh = build_graded_mesh(dec, GAMMA)
        ratios.append(rec.err_l2 / conjectured_bound(GAMMA, dec, mesh))
    assert max(ratios) / min(ratios) < 10.0


def test_truncation_tail_matches_direct_summation():
    # for a small radius the tail can be summed to convergence directly
    r_c = 200
    xs = np.arange(r_c, 3_000_000, dtype=float)
    d = np.diff(exact_solution(xs, GAMMA))
    direct = np.dot(d[1:], d[1:]) + np.dot(d, d)  # sites > r_c, plus mirror
    assert abs(truncation_tail_sq(GAMMA, r_c) - direct) / direct < 1e-6

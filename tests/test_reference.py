"""Reference solve and error functional tests."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from atc import (
    DomainDecomposition,
    GradedMesh,
    UsageError,
    build_graded_mesh,
    conjectured_bound,
    energy_seminorm_error,
    exact_solution,
    make_decomposition,
    max_norm_error,
    solve_full_atomistic,
)
from atc.models import csr_from_triplets, force_values, stencil_gradient, stencil_triplets
from atc.potentials import INTERACTION_RANGE, site_gradient_arrays, site_hessian_arrays
from atc.reference import band_from_triplets, coarsening_term_sq, truncation_tail_sq
from conftest import GAMMA


# r_core -> (iterations, energy_seminorm_error of the values against the
# exact field) of the oracle at gamma 1.5, recorded at commit 79221da
RECORDED_ORACLE_SOLVES = {
    10: (6, 7.924878087623945e-05),
    20: (6, 1.3980674153156298e-05),
}


def small_dec(r_c):
    return DomainDecomposition(10, 20, r_c)


def test_full_atomistic_converges_with_small_residual():
    dec = small_dec(400)
    ref = solve_full_atomistic(dec, GAMMA)
    assert ref.residual < 1e-10
    assert ref.iterations <= 20
    assert len(ref.values) == len(dec.sites)
    # antisymmetric problem, antisymmetric solution
    np.testing.assert_allclose(ref.values, -ref.values[::-1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("r_core", sorted(RECORDED_ORACLE_SOLVES))
def test_oracle_reproduces_recorded_numerics(r_core):
    # guards the floating-point path of the oracle, as
    # test_cold_solve_reproduces_recorded_numerics guards the coupled one
    iters, err = RECORDED_ORACLE_SOLVES[r_core]
    ref = solve_full_atomistic(make_decomposition(r_core, GAMMA), GAMMA)
    assert ref.iterations == iters
    assert (energy_seminorm_error(ref.values, exact_solution(ref.sites, GAMMA))
            == pytest.approx(err, rel=1e-12, abs=0.0))


def test_band_holds_the_stencil_hessian_bit_for_bit():
    # the oracle's padded problem at a random state: sites -r_c - 2 .. r_c + 2,
    # every site with a neighbour on each side carries a site energy
    dec = small_dec(400)
    k = INTERACTION_RANGE
    n, pad = len(dec.sites), k
    size = n + 2 * pad
    idx = np.arange(1, size - 1)
    stencil = (idx - 1, idx, idx + 1)
    u = np.zeros(size)
    u[pad:-pad] = np.random.default_rng(29).uniform(-0.05, 0.05, n)
    diffs = u[idx + 1] - u[idx], u[idx - 1] - u[idx]
    triplets = stencil_triplets(*stencil, *site_hessian_arrays(*diffs))
    ab = band_from_triplets(size, *triplets)
    dense = csr_from_triplets((size, size), *triplets).toarray()
    i, j = np.indices(dense.shape)
    in_band = np.abs(i - j) <= k
    # both sum duplicates in triplet order, so the bits agree
    assert np.array_equal(ab[k + i[in_band] - j[in_band], j[in_band]],
                          dense[in_band])
    assert not np.any(dense[~in_band])
    # one Newton step of the padded block, banded LU against sparse LU; both
    # are backward stable, and this block's condition number is about 1.6e6,
    # so they agree to about 1e-12, not to the last bit
    vf, vb = site_gradient_arrays(*diffs)
    g = stencil_gradient(size, *stencil, vf, vb)[pad:-pad] - force_values(dec.sites, GAMMA)
    banded = solve_banded((k, k), ab[:, pad:-pad], -g)
    sparse = spla.spsolve(csr_from_triplets((size, size), *triplets)[pad:-pad, pad:-pad]
                          .tocsc(), -g)
    assert np.max(np.abs(banded - sparse)) <= 1e-11 * np.max(np.abs(sparse))


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


def test_energy_seminorm_reference_cases():
    assert energy_seminorm_error(np.zeros(5), np.zeros(5)) == 0.0
    # difference field g*xi over the passed range: n differences of size g;
    # dyadic g and square n make the exact value representable
    g, n = 2.0 ** -10, 16
    xs = np.arange(n + 1, dtype=float)
    assert energy_seminorm_error(g * xs, np.zeros(n + 1)) == g * 4.0
    assert max_norm_error(g * xs, np.zeros(n + 1)) == g


def test_energy_seminorm_matches_bruteforce_sum():
    rng = np.random.default_rng(27)
    u = rng.uniform(-1, 1, 40)
    v = rng.uniform(-1, 1, 40)
    total = 0.0
    for i in range(39):
        d = (u[i + 1] - v[i + 1]) - (u[i] - v[i])
        total += d * d
    assert abs(energy_seminorm_error(u, v) - np.sqrt(total)) < 1e-14
    assert max_norm_error(u, v) == max(
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
        assert (max_norm_error(a, c)
                <= max_norm_error(a, b) + max_norm_error(b, c) + 1e-15)


def test_error_functionals_reject_mismatched_lengths():
    with pytest.raises(UsageError):
        energy_seminorm_error(np.zeros(5), np.zeros(6))


def test_conjectured_bound_positive_and_finite():
    dec = make_decomposition(10, GAMMA)
    mesh = build_graded_mesh(dec, GAMMA)
    b = conjectured_bound(GAMMA, dec, mesh)
    assert np.isfinite(b) and b > 0.0


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

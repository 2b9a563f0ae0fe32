"""Brute-force reference solve and error functionals.

The reference problem minimizes the full lattice energy over odd
displacements supported on the truncated domain (zero outside), with the
manufactured forces applied at every site.  Its Hessian couples sites at most
two apart, so each Newton step is a banded Cholesky solve on the symmetric
positive definite band (diagonal and two below it) on the half-line, in time
and memory linear in the number of sites; a stable chain's bonds stay below
the pair potential's inflection, and a Hessian that is not positive definite
raises KktSolverError.  The iteration is coupling.damped_newton and the band
is built by models.stencil_band, as for the coupled Hessians; the unknowns,
the energy and the factorization are the oracle's own, so the cross-check is
independent.  The residual and the band go by the chunks of chunk_bounds,
each from its own window of the odd field, and each chunk's lower band goes
straight into the array LAPACK's pbsv factors in place, with no second band.

Error functionals measure displacement differences through their first
lattice differences: the root sum of squares (energy seminorm) and the
largest difference (max norm), both streamed by sum_sq_and_max, the one
lattice error sum of the package.  A computable error bound combining the
domain truncation tail with the coarse-mesh interpolation term, summed the
same way, is provided as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbsv

from .coupling import DEFAULT_TOLERANCE, damped_newton
from .domain import (DomainDecomposition, GradedMesh, chunk_bounds, lattice_chunks,
                     require_memory)
from .exceptions import KktSolverError, UsageError
from .models import (_half_line_forces, exact_solution, exact_solution_derivative,
                     stencil_band, stencil_gradient)
from .potentials import INTERACTION_RANGE, site_gradient_arrays, site_hessian_arrays


@dataclass(frozen=True)
class ReferenceSolution:
    """Displacement on every site of the truncated domain, with solver info."""

    sites: np.ndarray
    values: np.ndarray
    residual: float
    iterations: int


def solve_full_atomistic(dec: DomainDecomposition, gamma: float) -> ReferenceSolution:
    """Newton minimization of the truncated full-lattice problem.

    The manufactured forces of gamma are odd, so Newton from zero stays odd:
    the unknowns are u(1) .. u(r_c), with u(0) = 0, u(-s) = -u(s) and zero
    outside the domain, and the odd field is returned on every site.  Newton
    runs with coupling.damped_newton at coupling.DEFAULT_TOLERANCE, so it
    stops and gives up where the coupled solve does.  A domain that would not
    fit in physical memory is rejected first.
    """
    require_memory("the full-lattice solve", 2 * dec.r_c + 1)
    n, k = dec.r_c, INTERACTION_RANGE
    forces = _half_line_forces(1, n, gamma)

    # each chunk of sites start .. stop - 1 reads the odd field on sites
    # start - 2 .. stop + 1, whose site energies, on the stencils (0, 1, 2),
    # are those of sites start - 1 .. stop: every one that reads the chunk
    def differences(u, start, stop):
        w = np.zeros(stop - start + 4)
        first, last = max(start - 2, 1), min(stop + 1, n)
        w[first - start + 2:last - start + 3] = u[first - 1:last]
        if start == 1:
            w[0] = -u[0]
        return w[2:] - w[1:-1], w[:-2] - w[1:-1]

    def residual_vec(u):
        g = np.empty(n)
        for start, stop in chunk_bounds(1, n):
            vf, vb = site_gradient_arrays(*differences(u, start, stop))
            np.subtract(stencil_gradient(stop - start + 4, 0, 1, 2, vf, vb)[2:-2],
                        forces[start - 1:stop - 1], out=g[start - 1:stop - 1])
        return g

    def banded_step(u, g):
        # stencil_band's rows k .. 2k, the diagonal and the two below it, in
        # the column-major layout dpbsv factors in place; column j holds
        # unknown j, as g[j] does, and LAPACK never reads below the matrix
        lower = np.zeros((k + 1, n), order="F")
        for start, stop in chunk_bounds(1, n):
            ab = stencil_band(stop - start + 4, 0, 1, 2,
                              *site_hessian_arrays(*differences(u, start, stop)))
            # the window's inner columns, the chunk's own, are complete
            cols = lower[:, start - 1:stop - 1]
            cols[...] = ab[k:, 2:-2]
            if start == 1:
                # u(-1) = -u(1): site 1's coupling to site -1, the first
                # window's first column, folds into its diagonal
                cols[0, 0] -= ab[k + 2, 0]
            # freed before the next chunk's band is built beside it
            del ab
            if not (np.isfinite(cols).all() and np.isfinite(g[start - 1:stop - 1]).all()):
                raise KktSolverError("banded step: non-finite Hessian band or gradient")
        _, step, info = dpbsv(lower, -g, lower=1, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise KktSolverError("banded Cholesky failed: the Hessian is not positive "
                                 f"definite at LAPACK's column {info}")
        return step

    u, diag = damped_newton(np.zeros(n), residual_vec, banded_step, DEFAULT_TOLERANCE)
    return ReferenceSolution(dec.sites, np.concatenate((-u[::-1], (0.0,), u)),
                             diag.residuals[-1], diag.iterations)


def sum_sq_and_max(chunks) -> tuple[float, float]:
    """Sum of squares and largest magnitude of the entries of arrays, in order:
    each adds its dot product with itself to one running float sum, so a fixed
    chunk order gives a fixed result.  An empty array adds nothing, and a NaN
    entry makes both results NaN."""
    sq, largest = 0.0, 0.0
    for d in chunks:
        if d.size:
            sq += float(np.dot(d, d))
            largest = float(np.maximum(largest, np.max(np.abs(d))))
    return sq, largest


def energy_seminorm_error(u, reference) -> float:
    """Root sum of squared first differences of u - reference.

    Both fields must live on the same contiguous site range; extend them by
    their true far-field values before calling if boundary-crossing
    differences should count.
    """
    u, reference = np.asarray(u, dtype=float), np.asarray(reference, dtype=float)
    if u.shape != reference.shape:
        raise UsageError(f"index sets differ: {u.shape} vs {reference.shape}")
    return float(np.sqrt(sum_sq_and_max((np.diff(u - reference),))[0]))


def truncation_tail_sq(gamma: float, r_c: int) -> float:
    """Squared energy seminorm of the exact field outside the domain.

    Sums squared first differences exactly over a window beyond r_c, then
    closes with the integral of the squared continuous derivative (the
    differences of a smooth algebraically-decaying field).  scipy.integrate
    is imported here, on the first call, so that importing atc does not load
    it (about 20 MB of resident memory that no solve uses).
    """
    from scipy.integrate import quad

    def partial(first: int) -> float:
        window = min(4_000_000, max(1_000_000, 2 * r_c))
        head = sum_sq_and_max(np.diff(exact_solution(xs, gamma))
                              for xs in lattice_chunks(first, first + window, overlap=1))[0]
        tail, _ = quad(lambda x: exact_solution_derivative(x, gamma) ** 2,
                       first + window + 0.5, np.inf)
        return head + tail

    # differences at sites xi > r_c, and the mirror image of the negative side
    return partial(r_c + 1) + partial(r_c)


def coarsening_term_sq(gamma: float, dec: DomainDecomposition, mesh: GradedMesh) -> float:
    """Squared coarse-mesh term: sum of (h * second difference)^2 over the
    continuum lattice sites, with second differences of the closed-form field.
    """
    nodes = mesh.nodes.astype(float)

    def scaled_second_difference(xs):
        elem = np.clip(np.searchsorted(nodes, xs, side="right") - 1, 0, len(nodes) - 2)
        h = nodes[elem + 1] - nodes[elem]
        return h * (exact_solution(xs + 1, gamma) - 2.0 * exact_solution(xs, gamma)
                    + exact_solution(xs - 1, gamma))

    return sum_sq_and_max(scaled_second_difference(sign * t.astype(float))
                          for sign in (-1, 1) for t in lattice_chunks(dec.r_core, dec.r_c))[0]


def conjectured_bound(gamma: float, dec: DomainDecomposition, mesh: GradedMesh) -> float:
    """Computable error-bound diagnostic (up to an unknown constant).

    Root of the sum of the domain truncation tail and the coarse-mesh
    interpolation term; useful to track whether the measured error scales
    with its predicted sources.
    """
    return float(np.sqrt(truncation_tail_sq(gamma, dec.r_c)
                         + coarsening_term_sq(gamma, dec, mesh)))

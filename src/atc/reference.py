"""Brute-force reference solve and error functionals.

The reference problem minimizes the full lattice energy over displacements
supported on the truncated domain (zero outside), with the manufactured
forces applied at every site.  Its Hessian couples sites at most two apart,
so each Newton step is a banded LU solve (five diagonals, partial pivoting)
in time and memory linear in the number of sites.  The iteration itself is
coupling.damped_newton, the loop of the coupled solve; the unknowns, the
energy, the band assembly and the LU are the oracle's own, and they are what
keeps the cross-check independent.

Error functionals measure displacement differences through their first
lattice differences: the root sum of squares (energy seminorm) and the
largest difference (max norm).  A computable error bound combining the
domain truncation tail with the coarse-mesh interpolation term is provided
as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_banded

from .coupling import DEFAULT_TOLERANCE, damped_newton
from .domain import DomainDecomposition, GradedMesh, lattice_chunks, require_memory
from .exceptions import UsageError
from .models import (exact_solution, exact_solution_derivative, force_values,
                     stencil_gradient, stencil_triplets)
from .potentials import INTERACTION_RANGE, site_gradient_arrays, site_hessian_arrays


def band_from_triplets(n, rows, cols, vals) -> np.ndarray:
    """LAPACK band storage of the n x n matrix summing the triplets in order.

    A site energy couples sites at most k = INTERACTION_RANGE apart, so entry
    (i, j) has |i - j| <= k and lands in ab[k + i - j, j], the layout
    scipy.linalg.solve_banded((k, k), ab, b) reads.  Duplicates are summed in
    triplet order by one np.bincount, as models.csr_from_triplets sums them,
    so both hold the same bits.  Slots outside the matrix stay zero.
    """
    k = INTERACTION_RANGE
    keys = (k + rows - cols) * n + cols
    return np.bincount(keys, weights=vals, minlength=(2 * k + 1) * n).reshape(2 * k + 1, n)


@dataclass(frozen=True)
class ReferenceSolution:
    """Displacement on every site of the truncated domain, with solver info."""

    sites: np.ndarray
    values: np.ndarray
    residual: float
    iterations: int


def solve_full_atomistic(dec: DomainDecomposition, gamma: float) -> ReferenceSolution:
    """Newton minimization of the truncated full-lattice problem.

    All sites of the domain are unknowns; the displacement is zero outside,
    so site energies whose stencils cross the boundary see the zero
    extension.  The manufactured forces of gamma are applied.  Newton runs
    from zero with coupling.damped_newton at coupling.DEFAULT_TOLERANCE, so
    it stops and gives up where the coupled solve does.  Every site is held,
    so a domain that would not fit in physical memory is rejected first.
    """
    require_memory("the full-lattice solve", 2 * dec.r_c + 1)
    sites = dec.sites
    n = len(sites)
    forces = force_values(sites, gamma)
    # site-energy sum runs over every site whose stencil touches the domain
    pad = 2

    def padded(u):
        return np.concatenate((np.zeros(pad), u, np.zeros(pad)))

    idx = np.arange(1, n + 2 * pad - 1)  # energy sites within the padded array
    stencil = (idx - 1, idx, idx + 1)

    def differences(u):
        ue = padded(u)
        return ue[idx + 1] - ue[idx], ue[idx - 1] - ue[idx]

    def residual_vec(u):
        vf, vb = site_gradient_arrays(*differences(u))
        return stencil_gradient(n + 2 * pad, *stencil, vf, vb)[pad:-pad] - forces

    def banded_step(u, g):
        cff, cfb, cbb = site_hessian_arrays(*differences(u))
        ab = band_from_triplets(n + 2 * pad, *stencil_triplets(*stencil, cff, cfb, cbb))
        # the padded block; LAPACK never reads the corners this leaves behind
        return solve_banded((INTERACTION_RANGE, INTERACTION_RANGE), ab[:, pad:-pad], -g)

    u, diag = damped_newton(np.zeros(n), residual_vec, banded_step, DEFAULT_TOLERANCE)
    return ReferenceSolution(sites, u, diag.residuals[-1], diag.iterations)


def _difference_field(u, reference):
    u = np.asarray(u, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if u.shape != reference.shape:
        raise UsageError(f"index sets differ: {u.shape} vs {reference.shape}")
    return np.diff(u - reference)


def energy_seminorm_error(u, reference) -> float:
    """Root sum of squared first differences of u - reference.

    Both fields must live on the same contiguous site range; extend them by
    their true far-field values before calling if boundary-crossing
    differences should count.
    """
    d = _difference_field(u, reference)
    return float(np.sqrt(np.dot(d, d)))


def max_norm_error(u, reference) -> float:
    """Largest first difference of u - reference in absolute value."""
    d = _difference_field(u, reference)
    return float(np.max(np.abs(d))) if len(d) else 0.0


def truncation_tail_sq(gamma: float, r_c: int) -> float:
    """Squared energy seminorm of the exact field outside the domain.

    Sums squared first differences exactly over a window beyond r_c, then
    closes with the integral of the squared continuous derivative (the
    differences of a smooth algebraically-decaying field).
    """
    def partial(first: int) -> float:
        window = min(4_000_000, max(1_000_000, 2 * r_c))
        head = 0.0
        for xs in lattice_chunks(first, first + window, overlap=1):
            d = np.diff(exact_solution(xs, gamma))
            head += float(np.dot(d, d))
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
    total = 0.0
    for sign in (-1, 1):
        for t in lattice_chunks(dec.r_core, dec.r_c):
            xs = sign * t.astype(float)
            elem = np.clip(np.searchsorted(nodes, xs, side="right") - 1,
                           0, len(nodes) - 2)
            h = nodes[elem + 1] - nodes[elem]
            d2 = (exact_solution(xs + 1, gamma) - 2.0 * exact_solution(xs, gamma)
                  + exact_solution(xs - 1, gamma))
            total += float(np.dot(h * d2, h * d2))
    return total


def conjectured_bound(gamma: float, dec: DomainDecomposition, mesh: GradedMesh) -> float:
    """Computable error-bound diagnostic (up to an unknown constant).

    Root of the sum of the domain truncation tail and the coarse-mesh
    interpolation term; useful to track whether the measured error scales
    with its predicted sources.
    """
    return float(np.sqrt(truncation_tail_sq(gamma, dec.r_c)
                         + coarsening_term_sq(gamma, dec, mesh)))

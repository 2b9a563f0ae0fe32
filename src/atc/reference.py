"""Brute-force reference solve and error functionals.

The reference problem minimizes the full lattice energy over displacements
supported on the truncated domain (zero outside), with the manufactured
forces applied at every site.  Its Hessian couples sites at most two apart,
so a sparse direct Newton iteration handles the largest domains used here.

Error functionals measure displacement differences through their first
lattice differences: the root sum of squares (energy seminorm) and the
largest difference (max norm).  A computable error bound combining the
domain truncation tail with the coarse-mesh interpolation term is provided
as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from .domain import DomainDecomposition, GradedMesh
from .exceptions import ConfigurationError, NonConvergenceError, UsageError
from .models import (exact_solution, exact_solution_derivative, force_values,
                     stencil_gradient, stencil_triplets)
from .potentials import site_gradient_arrays, site_hessian_arrays


@dataclass(frozen=True)
class ReferenceSolution:
    """Displacement on every site of the truncated domain, with solver info."""

    sites: np.ndarray
    values: np.ndarray
    residual: float
    iterations: int


def solve_full_atomistic(dec: DomainDecomposition, gamma: float,
                         force=None) -> ReferenceSolution:
    """Newton minimization of the truncated full-lattice problem.

    All sites of the domain are unknowns; the displacement is zero outside,
    so site energies whose stencils cross the boundary see the zero
    extension.  The manufactured forces are applied unless an explicit force
    field is given.  Newton stops once the inf-norm residual is below 1e-10
    and gives up after 50 iterations; these controls are the oracle's own,
    independent of NewtonOptions.
    """
    sites = dec.sites
    n = len(sites)
    forces = force.at(sites) if force is not None else force_values(sites, gamma)
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

    def hessian(u):
        cff, cfb, cbb = site_hessian_arrays(*differences(u))
        rows, cols, vals = stencil_triplets(*stencil, cff, cfb, cbb)
        H = sp.coo_matrix((vals, (rows, cols)),
                          shape=(n + 2 * pad, n + 2 * pad)).tocsc()
        return H[pad:-pad, pad:-pad]

    u = np.zeros(n)
    res_hist = []
    for it in range(51):
        g = residual_vec(u)
        res = float(np.max(np.abs(g)))
        res_hist.append(res)
        if res < 1e-10:
            return ReferenceSolution(sites, u, res, it)
        if it == 50:
            break
        step = spla.splu(hessian(u).tocsc()).solve(-g)
        alpha = 1.0
        while alpha >= 1e-12:
            try:
                res_trial = np.max(np.abs(residual_vec(u + alpha * step)))
            except ConfigurationError:
                res_trial = np.inf
            if res_trial <= (1.0 - 1e-4 * alpha) * res:
                break
            alpha *= 0.5
        else:
            raise NonConvergenceError(
                f"reference line search failed at residual {res:.3e}",
                residual_history=res_hist)
        u = u + alpha * step
    raise NonConvergenceError(
        f"reference solve stalled at residual {res_hist[-1]:.3e}",
        residual_history=res_hist)


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
        xs = np.arange(first, first + window + 1, dtype=float)
        d = np.diff(exact_solution(xs, gamma))
        head = float(np.dot(d, d))
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
        xs = sign * np.arange(dec.r_core, dec.r_c + 1, dtype=float)
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

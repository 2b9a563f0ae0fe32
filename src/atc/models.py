"""Atomistic and continuum subproblem energies, and the manufactured problem.

The benchmark problem prescribes a closed-form displacement field with an
algebraic far-field decay and computes the external force field that makes it
an exact equilibrium of the infinite lattice.  The atomistic model sums site
energies over the interior of the atomistic region; the continuum model is a
P1 finite element discretization of the Cauchy-Born energy on the two
continuum intervals, with the force work integrated exactly.

Displacement states are plain numpy arrays: the atomistic state holds one
value per site of the atomistic region (every site is an unknown; sites
outside the twice-interior act as free boundary controls), and each continuum
side holds one value per mesh node with the outer node pinned to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .domain import DomainDecomposition, GradedMesh
from .exceptions import UsageError
from .potentials import (
    cauchy_born_d1,
    cauchy_born_d2,
    cauchy_born_d3,
    cauchy_born_energy_density,
    site_energy_array,
    site_gradient_arrays,
    site_hessian_arrays,
    site_third_arrays,
)


def exact_solution(x, gamma: float):
    """Reference displacement field 0.1 * x * (1 + x^2)^(-gamma/2).

    Odd, smooth, with |k-th difference| decaying like |x|**(1 - k - gamma).
    """
    x = np.asarray(x, dtype=float)
    return 0.1 * (1.0 + x * x) ** (-gamma / 2.0) * x


def exact_solution_derivative(x, gamma: float):
    """Continuous derivative of exact_solution."""
    x = np.asarray(x, dtype=float)
    return 0.1 * (1.0 + x * x) ** (-gamma / 2.0 - 1.0) * (1.0 + (1.0 - gamma) * x * x)


def force_values(sites, gamma: float):
    """External force making exact_solution an equilibrium of the lattice.

    Per site this is the gradient of the internal (force-free) infinite
    lattice energy at the exact solution, so the forced energy
    sum(V) - sum(f u) is stationary there.  Decaying, and antisymmetric by
    construction: the force is computed once on 0 .. max|site| and mirrored
    by sign, which pins the oddness of the field down to the last bit.  The
    force at t is vf(t-1) - vf(t) + vb(t+1) - vb(t), from the site-energy
    derivatives of the stencils centred at t-1, t and t+1, so one evaluation
    of the exact field on -2 .. max|site| + 2 and of the site gradient on
    -1 .. max|site| + 1 serves every site.  Sites are integers.
    """
    s = np.abs(np.asarray(sites))
    u = exact_solution(np.arange(-2, np.max(s, initial=0) + 3), gamma)
    vf, vb = site_gradient_arrays(u[2:] - u[1:-1], u[:-2] - u[1:-1])
    half = vf[:-2] - vf[1:-1] + vb[2:] - vb[1:-1]
    return np.sign(sites) * half[s]


@dataclass(frozen=True)
class ExternalForce:
    """Per-site force field on a contiguous integer site range."""

    origin: int
    values: np.ndarray

    def at(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=int)
        idx = sites - self.origin
        if np.any(idx < 0) or np.any(idx >= len(self.values)):
            raise UsageError("requested sites outside the force field's range")
        return self.values[idx]

    @classmethod
    def zero(cls, dec: DomainDecomposition) -> "ExternalForce":
        return cls(-dec.r_c, np.zeros(2 * dec.r_c + 1))


def manufacture_forces(gamma: float, dec: DomainDecomposition) -> ExternalForce:
    """Manufactured force field on every lattice site of the truncated domain."""
    return ExternalForce(-dec.r_c, force_values(dec.sites, gamma))


def stencil_gradient(n: int, back, centre, fwd, vf, vb) -> np.ndarray:
    """Gradient of a sum of three-point site energies, as a length-n vector.

    Site i's energy depends on d_fwd = u[fwd_i] - u[centre_i] and
    d_bwd = u[back_i] - u[centre_i]; vf and vb are its derivatives with
    respect to them.  The three scatters are summed as
    (forward + backward) - centre.
    """
    forward = np.bincount(fwd, weights=vf, minlength=n)
    backward = np.bincount(back, weights=vb, minlength=n)
    return (forward + backward) - np.bincount(centre, weights=vf + vb, minlength=n)


def stencil_triplets(back, centre, fwd, cff, cfb, cbb):
    """(rows, cols, vals) of the Hessian of a sum of three-point site energies.

    Site i contributes the quadratic form with second derivatives
    (cff, cfb, cbb) in (d_fwd, d_bwd), as in stencil_gradient.  Entries come
    in the blocks (p,p), (c,c), (m,m), (p,c), (c,p), (m,c), (c,m), (p,m),
    (m,p) with m, c, p = back, centre, fwd.  Keep that order: np.add.at sums
    duplicate entries in it, and the rounding of the assembled Hessians, and
    so the Newton iterates, depend on it.  A stencil with back = centre and
    zero cfb, cbb has the forward difference only.
    """
    m, c, p = back, centre, fwd
    off_fc = -(cff + cfb)
    off_bc = -(cbb + cfb)
    rows = np.concatenate((p, c, m, p, c, m, c, p, m))
    cols = np.concatenate((p, c, m, c, p, c, m, m, p))
    vals = np.concatenate((cff, cff + 2.0 * cfb + cbb, cbb, off_fc, off_fc,
                           off_bc, off_bc, cfb, cfb))
    return rows, cols, vals


def csr_from_triplets(shape, rows, cols, vals) -> sp.csr_matrix:
    """CSR matrix summing the triplets in order, without stored zeros.

    Duplicates are summed in triplet order (np.bincount adds in input order,
    as a dense np.add.at scatter does); scipy's own duplicate summation
    promises no order.  Entries that sum to exactly zero are dropped, so the
    matrix holds what a dense scatter holds.
    """
    n_rows, n_cols = shape
    keys, slot = np.unique(rows * n_cols + cols, return_inverse=True)
    sums = np.bincount(slot, weights=vals)
    keep = sums != 0.0
    keys = keys[keep]
    indptr = np.searchsorted(keys, np.arange(n_rows + 1) * n_cols)
    return sp.csr_matrix((sums[keep], keys % n_cols, indptr), shape=shape)


class AtomisticModel:
    """Site-energy sum over the atomistic region with external force work.

    Site energies are summed over the interior sites (one interaction range
    in from the boundary), which covers every site whose energy depends on a
    displacement at an equilibrium site; force work is applied at the
    equilibrium sites only, so boundary-control sites carry no load.
    Equilibrium equations are the energy gradient restricted to equilibrium
    sites.
    """

    def __init__(self, dec: DomainDecomposition, force: ExternalForce | None = None):
        self.dec = dec
        self.sites = dec.atomistic_sites
        self.n = len(self.sites)
        m = dec.margin
        # index ranges within the site array
        self.energy_idx = np.arange(m, self.n - m)            # interior sites
        self.test_idx = np.arange(2 * m, self.n - 2 * m)      # equilibrium sites
        i = self.energy_idx
        self._stencil = (i - 1, i, i + 1)
        force = force if force is not None else ExternalForce.zero(dec)
        self.force_test = force.at(dec.equilibrium_sites)

    def _differences(self, u):
        i = self.energy_idx
        return u[i + 1] - u[i], u[i - 1] - u[i]

    def energy(self, u) -> float:
        d_fwd, d_bwd = self._differences(u)
        v = site_energy_array(d_fwd, d_bwd)
        return float(np.sum(v) - np.dot(self.force_test, u[self.test_idx]))

    def gradient(self, u) -> np.ndarray:
        """Derivative of the energy with respect to every site value."""
        vf, vb = site_gradient_arrays(*self._differences(u))
        g = stencil_gradient(self.n, *self._stencil, vf, vb)
        g[self.test_idx] -= self.force_test
        return g

    def equilibrium_residual(self, u) -> np.ndarray:
        """Gradient components in the equilibrium-site directions."""
        return self.gradient(u)[self.test_idx]

    def hessian(self, u) -> sp.csr_matrix:
        cff, cfb, cbb = site_hessian_arrays(*self._differences(u))
        return csr_from_triplets((self.n, self.n),
                                 *stencil_triplets(*self._stencil, cff, cfb, cbb))

    def third_contraction(self, u, weights) -> sp.csr_matrix:
        """Third derivative tensor contracted once with a full-length vector."""
        fff, ffb, fbb, bbb = site_third_arrays(*self._differences(u))
        sf, sb = self._differences(weights)
        cff = fff * sf + ffb * sb
        cfb = ffb * sf + fbb * sb
        cbb = fbb * sf + bbb * sb
        return csr_from_triplets((self.n, self.n),
                                 *stencil_triplets(*self._stencil, cff, cfb, cbb))


class ContinuumSide:
    """One continuum interval: P1 Cauchy-Born energy and exact force work.

    Nodes are stored in ascending order; outer_first says whether the pinned
    outer Dirichlet node is nodes[0] (negative side) or nodes[-1] (positive
    side).  All energy routines take the full nodal vector including the
    pinned entry.
    """

    def __init__(self, nodes: np.ndarray, outer_first: bool, force: ExternalForce | None):
        self.nodes = np.asarray(nodes, dtype=int)
        self.outer_first = outer_first
        self.x = self.nodes.astype(float)
        self.h = np.diff(self.x)
        if np.any(self.h <= 0):
            raise UsageError("side nodes must be strictly increasing")
        self.n = len(self.nodes)
        # element e is a stencil without a backward neighbour: its only
        # difference is u[e + 1] - u[e]
        e = np.arange(self.n - 1)
        self._stencil = (e, e, e + 1)
        self._zero = np.zeros(self.n - 1)
        self.load = self._load_vector(force)

    # free nodes exclude the outer Dirichlet node; test nodes additionally
    # exclude the inner boundary node, which is a coupling control
    @property
    def free_slice(self) -> slice:
        return slice(1, None) if self.outer_first else slice(0, -1)

    @property
    def test_slice(self) -> slice:
        return slice(1, -1)

    def embed(self, u_free) -> np.ndarray:
        u = np.zeros(self.n)
        u[self.free_slice] = u_free
        return u

    def _load_vector(self, force: ExternalForce | None) -> np.ndarray:
        """Exact integral of (If) * hat_n for each node n.

        If interpolates the site forces linearly between lattice sites, so on
        each unit interval the integrand against a hat function is quadratic
        and the two-point weighted trapezoid rule below is exact.
        """
        if force is None:
            return np.zeros(self.n)
        grid = np.arange(self.nodes[0], self.nodes[-1] + 1)
        f = force.at(grid)
        m = grid[:-1].astype(float)
        elem = np.searchsorted(self.nodes, grid[:-1], side="right") - 1
        xl, xr = self.x[elem], self.x[elem + 1]
        h = xr - xl
        fm, fp = f[:-1], f[1:]
        # hat function of the left node on [m, m+1], then the right node
        pl0, pl1 = (xr - m) / h, (xr - m - 1.0) / h
        pr0, pr1 = (m - xl) / h, (m + 1.0 - xl) / h
        left = (2.0 * fm * pl0 + fm * pl1 + fp * pl0 + 2.0 * fp * pl1) / 6.0
        right = (2.0 * fm * pr0 + fm * pr1 + fp * pr0 + 2.0 * fp * pr1) / 6.0
        return (np.bincount(elem, weights=left, minlength=self.n)
                + np.bincount(elem + 1, weights=right, minlength=self.n))

    def strains(self, u_full) -> np.ndarray:
        return np.diff(u_full) / self.h

    def energy(self, u_full) -> float:
        w = cauchy_born_energy_density(self.strains(u_full))
        return float(np.dot(self.h, w) - np.dot(self.load, u_full))

    def gradient(self, u_full) -> np.ndarray:
        s1 = cauchy_born_d1(self.strains(u_full))
        return stencil_gradient(self.n, *self._stencil, s1, self._zero) - self.load

    def _element_matrix(self, coef) -> sp.csr_matrix:
        return csr_from_triplets((self.n, self.n), *stencil_triplets(
            *self._stencil, coef, self._zero, self._zero))

    def hessian(self, u_full) -> sp.csr_matrix:
        coef = cauchy_born_d2(self.strains(u_full)) / self.h
        return self._element_matrix(coef)

    def third_contraction(self, u_full, weights_full) -> sp.csr_matrix:
        coef = (cauchy_born_d3(self.strains(u_full))
                * np.diff(weights_full) / self.h**2)
        return self._element_matrix(coef)


class ContinuumModel:
    """The two continuum sides of the decomposition, meshed independently."""

    def __init__(self, dec: DomainDecomposition, mesh: GradedMesh,
                 force: ExternalForce | None = None):
        nodes = mesh.nodes
        if nodes[0] != -dec.r_c or nodes[-1] != dec.r_c:
            raise UsageError("mesh does not span the decomposition domain")
        plus_nodes = nodes[nodes >= dec.r_core]
        minus_nodes = nodes[nodes <= -dec.r_core]
        expected = np.arange(dec.r_core, dec.r_a + 1)
        if not np.array_equal(plus_nodes[: len(expected)], expected):
            raise UsageError("mesh is not fully refined on the overlap region")
        self.dec = dec
        self.minus = ContinuumSide(minus_nodes, outer_first=True, force=force)
        self.plus = ContinuumSide(plus_nodes, outer_first=False, force=force)

    def energy(self, u_minus_free, u_plus_free) -> float:
        return (self.minus.energy(self.minus.embed(u_minus_free))
                + self.plus.energy(self.plus.embed(u_plus_free)))

    def gradient(self, u_minus_free, u_plus_free) -> tuple[np.ndarray, np.ndarray]:
        """Energy derivative with respect to the free nodal values, per side."""
        gm = self.minus.gradient(self.minus.embed(u_minus_free))
        gp = self.plus.gradient(self.plus.embed(u_plus_free))
        return gm[self.minus.free_slice], gp[self.plus.free_slice]

    def equilibrium_residual(self, u_minus_free, u_plus_free):
        """Gradient components at the interior test nodes, per side."""
        gm = self.minus.gradient(self.minus.embed(u_minus_free))
        gp = self.plus.gradient(self.plus.embed(u_plus_free))
        return gm[self.minus.test_slice], gp[self.plus.test_slice]

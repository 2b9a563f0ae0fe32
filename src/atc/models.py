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

import numpy as np
import scipy.sparse as sp

from . import domain
from .domain import DomainDecomposition, GradedMesh, lattice_chunks
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


def _force_chunks(first: int, last: int, gamma: float, edge=None):
    """Force at t = first .. last (first >= 0), in ascending chunks.

    Yields (t, force, edge).  The force at t is vf(t-1) - vf(t) + vb(t+1) -
    vb(t), from the site-energy derivatives of the stencils centred at t-1,
    t and t+1 on the exact field.  A chunk hands its last two site gradients,
    at t[-1] and t[-1] + 1, to the next as `edge`, so every site gradient is
    evaluated once; an `edge` passed in continues an evaluation that ended
    at first - 1.
    """
    for t in lattice_chunks(first, last):
        if edge is None:
            u = exact_solution(np.arange(t[0] - 2, t[-1] + 3), gamma)
            vf, vb = site_gradient_arrays(u[2:] - u[1:-1], u[:-2] - u[1:-1])
        else:
            u = exact_solution(np.arange(t[0], t[-1] + 3), gamma)
            new_f, new_b = site_gradient_arrays(u[2:] - u[1:-1], u[:-2] - u[1:-1])
            vf, vb = np.concatenate((edge[0], new_f)), np.concatenate((edge[1], new_b))
        edge = vf[-2:], vb[-2:]
        yield t, vf[:-2] - vf[1:-1] + vb[2:] - vb[1:-1], edge


def _half_line_forces(first: int, last: int, gamma: float):
    """Force at t = first .. last as one array, and the evaluation's edge."""
    half, edge = np.empty(max(last - first + 1, 0)), None
    for t, f, edge in _force_chunks(first, last, gamma):
        half[t - first] = f
    return half, edge


def force_values(sites, gamma: float):
    """External force making exact_solution an equilibrium of the lattice.

    Per site this is the gradient of the internal (force-free) infinite
    lattice energy at the exact solution, so the forced energy
    sum(V) - sum(f u) is stationary there.  Decaying, and antisymmetric by
    construction: the force is computed once on min|site| .. max|site| and
    mirrored by sign, which pins the oddness of the field down to the last
    bit.  Sites are integers.
    """
    s = np.abs(np.asarray(sites))
    first, last = (int(s.min()), int(s.max())) if s.size else (0, -1)
    half, _ = _half_line_forces(first, last, gamma)
    return np.sign(sites) * half[s - first]


class ExternalForce:
    """Odd per-site force field on the sites of [-r_c, r_c].

    The atomistic window [-r_a, r_a] is evaluated once and held in `values`
    (origin -r_a).  Every other site is evaluated on demand: the manufactured
    field for a given gamma, or zero without one.
    """

    def __init__(self, dec: DomainDecomposition, gamma: float | None = None):
        self.r_c = dec.r_c
        self.origin = -dec.r_a
        self.gamma = gamma
        sites = dec.atomistic_sites
        if gamma is None:
            self.values, self._edge = np.zeros(len(sites)), None
        else:
            half, self._edge = _half_line_forces(0, dec.r_a, gamma)
            self.values = np.sign(sites) * half[np.abs(sites)]

    def at(self, sites) -> np.ndarray:
        sites = np.asarray(sites, dtype=int)
        if np.any(np.abs(sites) > self.r_c):
            raise UsageError("requested sites outside the force field's range")
        idx = sites - self.origin
        cached = (idx >= 0) & (idx < len(self.values))
        out = np.zeros(sites.shape)
        out[cached] = self.values[idx[cached]]
        if self.gamma is not None:
            out[~cached] = force_values(sites[~cached], self.gamma)
        return out

    def half_line(self, first: int):
        """Force at t = first .. r_c, with 0 <= first <= r_a + 1, in ascending chunks.

        Yields (t, force): the window from the cache, then every further site
        evaluated once, continuing the window's evaluation.  The force at -t
        is the negated force at t.
        """
        r_a = -self.origin
        if first <= r_a:
            t = np.arange(first, r_a + 1)
            yield t, self.values[t + r_a]
        if self.gamma is None:
            for t in lattice_chunks(r_a + 1, self.r_c):
                yield t, np.zeros(len(t))
            return
        for t, f, _ in _force_chunks(r_a + 1, self.r_c, self.gamma, self._edge):
            yield t, f

    @classmethod
    def zero(cls, dec: DomainDecomposition) -> "ExternalForce":
        return cls(dec)


def manufacture_forces(gamma: float, dec: DomainDecomposition) -> ExternalForce:
    """Manufactured force field of the truncated domain; see ExternalForce."""
    return ExternalForce(dec, gamma)


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

    def __init__(self, nodes: np.ndarray, outer_first: bool):
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
        self.load = np.zeros(self.n)

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

    def _add_load(self, sums, first: int, f) -> None:
        """Add the load of the unit intervals [m, m + 1], m = first, first + 1, ...

        f holds the site forces at first .. first + len(f) - 1.  The force
        interpolant is linear on each interval, so its integral against
        each of the two hat functions there is quadratic and the weighted
        two-point trapezoid rule below is exact.  sums = (left, right) hold
        per node the running totals over the element to its right and to its
        left; each enters np.bincount ahead of the new terms, and np.bincount
        adds in input order from 0.0, so a node's total continues exactly.
        """
        m = np.arange(first, first + len(f) - 1)
        elem = np.searchsorted(self.nodes, m, side="right") - 1
        m = m.astype(float)
        xl, xr = self.x[elem], self.x[elem + 1]
        h = xr - xl
        fm, fp = f[:-1], f[1:]
        # hat function of the left node on [m, m+1], then the right node
        pl0, pl1 = (xr - m) / h, (xr - m - 1.0) / h
        pr0, pr1 = (m - xl) / h, (m + 1.0 - xl) / h
        left = (2.0 * fm * pl0 + fm * pl1 + fp * pl0 + 2.0 * fp * pl1) / 6.0
        right = (2.0 * fm * pr0 + fm * pr1 + fp * pr0 + 2.0 * fp * pr1) / 6.0
        e0, e1 = elem[0], elem[-1] + 1
        bins = np.concatenate((np.arange(e1 - e0), elem - e0))
        for total, terms, shift in zip(sums, (left, right), (0, 1)):
            held = total[e0 + shift:e1 + shift]
            held[:] = np.bincount(bins, weights=np.concatenate((held, terms)))

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
        if not (np.array_equal(plus_nodes[: len(expected)], expected)
                and np.array_equal(-minus_nodes[::-1][: len(expected)], expected)):
            raise UsageError("mesh is not fully refined on the overlap region")
        self.dec = dec
        self.minus = ContinuumSide(minus_nodes, outer_first=True)
        self.plus = ContinuumSide(plus_nodes, outer_first=False)
        if force is not None:
            self._build_loads(force)

    def _build_loads(self, force: ExternalForce) -> None:
        """Exact integral of (If) * hat_n for every node of both sides.

        One sweep over |site| = r_core .. r_c serves both sides: it reads
        the force once per site, at +t for the plus side and negated for the
        minus side (the field is odd), and cuts it into ranges that end on
        element boundaries of both sides, each at most LATTICE_CHUNK sites
        unless one element is longer.  Each element's unit intervals
        are added in ascending site order, as one np.bincount over the whole
        side adds them: ascending |site| on the plus side, descending on the
        minus side, in sub-chunks of at most LATTICE_CHUNK intervals.
        """
        minus, plus = self.minus, self.plus
        bounds = np.union1d(plus.nodes, -minus.nodes)
        sums = {side: (np.zeros(side.n), np.zeros(side.n)) for side in (minus, plus)}
        chunks = force.half_line(int(bounds[0]))
        spare = np.zeros(0)  # forces read from the stream but not yet used
        i = 0
        while i < len(bounds) - 1:
            j = max(i + 1, int(np.searchsorted(bounds, bounds[i] + domain.LATTICE_CHUNK,
                                               side="right")) - 1)
            first, last = int(bounds[i]), int(bounds[j])
            # the force at first .. last; spare starts at first
            f = np.empty(last - first + 1)
            filled = min(len(spare), len(f))
            f[:filled], spare = spare[:filled], spare[filled:]
            while filled < len(f):
                _, more = next(chunks)
                take = min(len(more), len(f) - filled)
                f[filled:filled + take], spare = more[:take], more[take:]
                filled += take
            # the next range starts at this one's last site
            spare = np.concatenate((f[-1:], spare))
            for k in lattice_chunks(0, len(f) - 2):
                sub = slice(k[0], k[-1] + 2)
                plus._add_load(sums[plus], first + int(k[0]), f[sub])
                minus._add_load(sums[minus], -last + int(k[0]), -f[::-1][sub])
            i = j
        for side, (left, right) in sums.items():
            side.load = left + right

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

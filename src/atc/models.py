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
side holds one value per mesh node with the outer node pinned to zero.  Both
models present one Subproblem interface to the coupling.
"""

from __future__ import annotations

import numpy as np

from . import domain
from .domain import DomainDecomposition, GradedMesh, chunk_bounds
from .exceptions import UsageError
from .potentials import (
    INTERACTION_RANGE,
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


def _half_line_forces(first: int, last: int, gamma: float) -> np.ndarray:
    """Force at t = first .. last (first >= 0) as one array.

    The force at t is vf(t-1) - vf(t) + vb(t+1) - vb(t), from the site-energy
    derivatives of the stencils centred at t-1, t and t+1 on the exact field.
    The array is filled over chunk_bounds; each chunk evaluates the field on
    its own sites and two more on each side, so nothing crosses a chunk.
    """
    half = np.empty(max(last - first + 1, 0))
    for start, stop in chunk_bounds(first, last):
        u = exact_solution(np.arange(start - 2, stop + 2, dtype=float), gamma)
        vf, vb = site_gradient_arrays(u[2:] - u[1:-1], u[:-2] - u[1:-1])
        out = half[start - first:stop - first]
        np.subtract(vf[:-2], vf[1:-1], out=out)
        out += vb[2:]
        out -= vb[1:-1]
    return half


def force_values(sites, gamma: float):
    """External force making exact_solution an equilibrium of the lattice.

    Per site this is the gradient of the internal (force-free) infinite
    lattice energy at the exact solution, so the forced energy
    sum(V) - sum(f u) is stationary there.  Decaying, and antisymmetric by
    construction: the force is computed once on min|site| .. max|site| and
    mirrored by sign, which pins the oddness of the field down to the last
    bit.  Sites must be integers.
    """
    sites = np.asarray(sites)
    if not np.issubdtype(sites.dtype, np.integer):
        raise UsageError(f"force sites must be integers, got {sites.dtype}")
    s = np.abs(sites)
    first, last = (int(s.min()), int(s.max())) if s.size else (0, -1)
    return np.sign(sites) * _half_line_forces(first, last, gamma)[s - first]


class ExternalForce:
    """The manufactured force field for one gamma, odd in the site.

    Only the atomistic window [-r_a, r_a] is held (`values`); the continuum
    loads evaluate the rest of [-r_c, r_c] range by range.
    """

    def __init__(self, dec: DomainDecomposition, gamma: float):
        self.gamma = gamma
        self.values = force_values(dec.atomistic_sites, gamma)

    def half_line(self, first: int, last: int) -> np.ndarray:
        """Force at t = first .. last (first >= 1), _half_line_forces' bits:
        the held values up to r_a, evaluated beyond it."""
        r_a = len(self.values) // 2
        if first > r_a:
            return _half_line_forces(first, last, self.gamma)
        return np.concatenate((self.values[r_a + first:r_a + min(last, r_a) + 1],
                               _half_line_forces(r_a + 1, last, self.gamma)))


def manufacture_forces(gamma: float, dec: DomainDecomposition) -> ExternalForce:
    """Manufactured force field of the truncated domain; see ExternalForce."""
    return ExternalForce(dec, gamma)


def stencil_gradient(n: int, back: int, centre: int, fwd: int, vf, vb) -> np.ndarray:
    """Gradient of a sum of three-point site energies, as a length-n vector.

    Site i's energy depends on d_fwd = u[fwd + i] - u[centre + i] and
    d_bwd = u[back + i] - u[centre + i]; vf and vb are its derivatives with
    respect to them.  Each weight vector is added by slice into zeros, and
    the three are summed as (forward + backward) - centre.
    """
    forward, backward, middle = np.zeros((3, n))
    m = len(vf)
    forward[fwd:fwd + m] += vf
    backward[back:back + m] += vb
    middle[centre:centre + m] += vf + vb
    return (forward + backward) - middle


def stencil_band(n: int, back: int, centre: int, fwd: int, cff, cfb, cbb) -> np.ndarray:
    """LAPACK band storage of the Hessian of a sum of three-point site energies.

    Site i contributes the quadratic form with second derivatives
    (cff, cfb, cbb) in (d_fwd, d_bwd), at the offsets of stencil_gradient.
    A site energy couples sites at most k = INTERACTION_RANGE apart, so entry
    (r, c) lands in ab[k + r - c, c], the layout
    scipy.linalg.solve_banded((k, k), ab, b) reads.  The blocks (p,p), (c,c),
    (m,m), (p,c), (c,p), (m,c), (c,m), (p,m), (m,p) with m, c, p = back,
    centre, fwd are added as shifted slices in that order.  Keep it: an entry
    is the sum of its blocks in that order, and the rounding of the Hessians,
    and so the Newton iterates, depend on it.  A stencil with back = centre
    and zero cfb, cbb has the forward difference only.  Slots outside the
    matrix stay zero.
    """
    k = INTERACTION_RANGE
    off_fc = -(cff + cfb)
    off_bc = -(cbb + cfb)
    blocks = ((fwd, fwd, cff), (centre, centre, cff + 2.0 * cfb + cbb), (back, back, cbb),
              (fwd, centre, off_fc), (centre, fwd, off_fc), (back, centre, off_bc),
              (centre, back, off_bc), (fwd, back, cfb), (back, fwd, cfb))
    ab = np.zeros((2 * k + 1, n))
    for row, col, vals in blocks:
        ab[k + row - col, col:col + len(vals)] += vals
    return ab


class Subproblem:
    """n values at the lattice positions nodes; free_slice selects the unknowns
    (the rest are pinned to zero) and test_idx the equations, the gradient
    components that must vanish.  gradient, hessian and third_contraction
    take full-length vectors; the last two return stencil_band storage."""

    def embed(self, u_free) -> np.ndarray:
        """The full-length vector with these unknowns and zeros where pinned."""
        u = np.zeros(self.n)
        u[self.free_slice] = u_free
        return u


class AtomisticModel(Subproblem):
    """Site-energy sum over the atomistic region with external force work.

    Site energies are summed over the interior sites (one interaction range
    in from the boundary), which covers every site whose energy depends on a
    displacement at an equilibrium site; force work is applied at the
    equilibrium sites only, so boundary-control sites carry no load.
    Equilibrium equations are the energy gradient restricted to equilibrium
    sites.  The force is the problem's, held on this model's sites.
    """

    def __init__(self, dec: DomainDecomposition, force: ExternalForce):
        self.nodes = dec.atomistic_sites
        self.n = len(self.nodes)
        # the force window is indexed by these sites: one built for another
        # r_a would put each force on the wrong site without any error
        if len(force.values) != self.n:
            raise UsageError(f"force built for {len(force.values)} atomistic sites, not {self.n}")
        self.free_slice = slice(0, self.n)
        m = INTERACTION_RANGE
        # index ranges within the site array
        self.energy_idx = np.arange(m, self.n - m)            # interior sites
        self.test_idx = np.arange(2 * m, self.n - 2 * m)      # equilibrium sites
        # the energy of interior site i reads sites i - 1, i and i + 1
        self._stencil = (m - 1, m, m + 1)
        self.force_test = force.values[self.test_idx]

    def _differences(self, u):
        m, n = INTERACTION_RANGE, self.n
        return u[m + 1:n - m + 1] - u[m:n - m], u[m - 1:n - m - 1] - u[m:n - m]

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

    def hessian(self, u) -> np.ndarray:
        """Energy Hessian as the stencil_band storage of an (n, n) matrix."""
        cff, cfb, cbb = site_hessian_arrays(*self._differences(u))
        return stencil_band(self.n, *self._stencil, cff, cfb, cbb)

    def third_contraction(self, u, weights) -> np.ndarray:
        """Third derivative tensor contracted once with a full-length vector, as a band."""
        fff, ffb, fbb, bbb = site_third_arrays(*self._differences(u))
        sf, sb = self._differences(weights)
        cff = fff * sf + ffb * sb
        cfb = ffb * sf + fbb * sb
        cbb = fbb * sf + bbb * sb
        return stencil_band(self.n, *self._stencil, cff, cfb, cbb)


class ContinuumSide(Subproblem):
    """One continuum interval: P1 Cauchy-Born energy and exact force work.

    Nodes ascend, as in the GradedMesh they come from.  The outer node, the
    one farther from the core, is pinned to zero by the Dirichlet condition;
    the equations are those of the nodes strictly between the two ends, since
    the inner boundary node is a coupling control.  ContinuumModel sets load.
    """

    def __init__(self, nodes: np.ndarray):
        self.nodes = np.asarray(nodes, dtype=int)
        self.x = self.nodes.astype(float)
        self.h = np.diff(self.x)
        self.n = len(self.nodes)
        self.free_slice = (slice(1, None) if abs(self.nodes[0]) > abs(self.nodes[-1])
                           else slice(0, -1))
        self.test_idx = np.arange(1, self.n - 1)
        # element e is a stencil without a backward neighbour: its only
        # difference is u[e + 1] - u[e]
        self._stencil = (0, 0, 1)
        self._zero = np.zeros(self.n - 1)

    def _add_load(self, sums, first: int, f) -> None:
        """Add the load of the unit intervals [m, m + 1], m = first, first + 1, ...

        f holds the site forces at first .. first + len(f) - 1.  The force
        interpolant is linear on each interval, so its integral against
        each of the two hat functions there is quadratic and the weighted
        two-point trapezoid rule below is exact.  Each site takes the hats
        (h - j) / h and j / h of the element of the interval that starts
        there (the last site: of its own interval), j sites into it; every
        numerator is an exact integer.  They serve as the left-end hats of
        that interval and the right-end hats of the one before, except where
        that one ends its element: there they are exactly 0.0 and 1.0.
        sums = (left, right) hold per node the running totals over the
        element to its right and to its left; np.add.at adds each
        interval's term to its node in input order, so each node's total
        continues exactly across calls in ascending site order.
        """
        left, right = sums
        last = first + len(f) - 1
        # elements e0 .. e1 - 1 hold the intervals first .. last - 1
        e0 = int(np.searchsorted(self.nodes, first, side="right")) - 1
        e1 = int(np.searchsorted(self.nodes, last - 1, side="right"))
        inner = self.nodes[e0 + 1:e1]
        counts = np.diff(np.concatenate(([first], inner, [last + 1])))
        elem = np.repeat(np.arange(e0, e1), counts)
        j = np.arange(first, last + 1, dtype=float) - np.repeat(self.x[e0:e1], counts)
        h = np.repeat(self.h[e0:e1], counts)
        ends = inner - first - 1
        fm, fp, f2 = f[:-1], f[1:], 2.0 * f
        tmp = np.empty(len(fm))
        for total, p, end in ((left, (h - j) / h, 0.0), (right[1:], j / h, 1.0)):
            f2p = f2 * p
            # (2 fm p0 + fm p1 + fp p0 + 2 fp p1) / 6, summed left to right
            terms = np.add(f2p[:-1], np.multiply(fm, p[1:], out=tmp))
            terms += np.multiply(fp, p[:-1], out=tmp)
            terms += f2p[1:]
            terms[ends] = (f2p[ends] + fm[ends] * end + fp[ends] * p[ends]
                           + f2[ends + 1] * end)
            terms /= 6.0
            np.add.at(total, elem[:-1], terms)

    def strains(self, u_full) -> np.ndarray:
        return np.diff(u_full) / self.h

    def energy(self, u_full) -> float:
        w = cauchy_born_energy_density(self.strains(u_full))
        return float(np.dot(self.h, w) - np.dot(self.load, u_full))

    def gradient(self, u_full) -> np.ndarray:
        s1 = cauchy_born_d1(self.strains(u_full))
        return stencil_gradient(self.n, *self._stencil, s1, self._zero) - self.load

    def _element_band(self, coef) -> np.ndarray:
        return stencil_band(self.n, *self._stencil, coef, self._zero, self._zero)

    def hessian(self, u_full) -> np.ndarray:
        """Energy Hessian over every node, as stencil_band storage."""
        coef = cauchy_born_d2(self.strains(u_full)) / self.h
        return self._element_band(coef)

    def third_contraction(self, u_full, weights_full) -> np.ndarray:
        """Third derivative contracted with a full nodal vector, as a band."""
        coef = (cauchy_born_d3(self.strains(u_full))
                * np.diff(weights_full) / self.h**2)
        return self._element_band(coef)


class ContinuumModel:
    """The two continuum sides of the decomposition, meshed independently and loaded."""

    def __init__(self, dec: DomainDecomposition, mesh: GradedMesh, force: ExternalForce):
        nodes = mesh.nodes
        if nodes[0] != -dec.r_c or nodes[-1] != dec.r_c:
            raise UsageError("mesh does not span the decomposition domain")
        plus_nodes = nodes[nodes >= dec.r_core]
        minus_nodes = nodes[nodes <= -dec.r_core]
        expected = np.arange(dec.r_core, dec.r_a + 1)
        if not (np.array_equal(plus_nodes[: len(expected)], expected)
                and np.array_equal(-minus_nodes[::-1][: len(expected)], expected)):
            raise UsageError("mesh is not fully refined on the overlap region")
        self.minus = ContinuumSide(minus_nodes)
        self.plus = ContinuumSide(plus_nodes)
        domain.require_load_memory(dec, mesh)
        self._build_loads(force)

    def _build_loads(self, force: ExternalForce) -> None:
        """Exact integral of (If) * hat_n for every node of both sides.

        One sweep over |site| = r_core .. r_c serves both sides: it cuts the
        sites into ranges that end on the minus side's element boundaries,
        each at most LATTICE_CHUNK sites unless one minus element is longer,
        and takes each range's forces once (ExternalForce.half_line: held up
        to r_a, evaluated beyond), used at +t for the plus side and negated
        for the minus side (the field is odd).  It holds one range's forces
        at a time.  Each node's total adds its unit intervals in ascending
        site order, in sub-chunks of at most LATTICE_CHUNK intervals, by
        np.add.at: the ranges ascend in |site|, so the plus side's elements
        may be split anywhere, while no minus element is split over two
        ranges.  The caller checks the minus side's largest element, the
        one range held whole, against memory first
        (domain.require_load_memory).
        """
        minus, plus = self.minus, self.plus
        bounds = -minus.nodes[::-1]
        sums = {side: (np.zeros(side.n), np.zeros(side.n)) for side in (minus, plus)}
        i = 0
        while i < len(bounds) - 1:
            j = max(i + 1, int(np.searchsorted(bounds, bounds[i] + domain.LATTICE_CHUNK,
                                               side="right")) - 1)
            first, last = int(bounds[i]), int(bounds[j])
            f = force.half_line(first, last)
            for start, stop in chunk_bounds(0, len(f) - 2):
                sub = slice(start, stop + 1)
                plus._add_load(sums[plus], first + start, f[sub])
                minus._add_load(sums[minus], -last + start, -f[::-1][sub])
            del f  # else the next range's forces are evaluated beside these
            i = j
        for side, (left, right) in sums.items():
            side.load = left + right

"""Lennard-Jones pair potential, lattice site energy, and Cauchy-Born density.

The lattice is the integer chain with first and second neighbor pair
interactions through the Lennard-Jones potential of unit well depth and unit
equilibrium distance.  The energy attributed to a single site is a function
of the forward and backward displacement differences at that site,
normalized so the undeformed lattice has zero energy per site.  Evaluating
the same site energy on a homogeneously strained lattice yields the
Cauchy-Born strain energy density, so the two models agree exactly under
uniform strain.

All evaluation routines accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigurationError

# Bonds shorter than this are treated as unevaluable rather than fed to the
# r**-12 singularity, which would otherwise drive the solver to overflow.
MIN_BOND_LENGTH = 0.5


def _check(r):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise ValueError("pair potential requires finite r > 0")
    return r


def phi(r):
    """Pair potential r**-12 - 2 r**-6: phi(1) = -1 is its minimum."""
    q = 1.0 / _check(r)
    return q**12 - 2.0 * q**6


def phi_d1(r):
    q = 1.0 / _check(r)
    return 12.0 * (q**7 - q**13)


def phi_d2(r):
    q = 1.0 / _check(r)
    return 12.0 * (13.0 * q**14 - 7.0 * q**8)


def phi_d3(r):
    q = 1.0 / _check(r)
    return 12.0 * (56.0 * q**9 - 182.0 * q**15)


# Longest bond of the site energy in lattice units: site xi carries the first
# neighbour bond (xi, xi+1) and the second neighbour bond (xi-1, xi+1); see
# _bond_lengths.
INTERACTION_RANGE = 2

# Per-site energy of the undeformed lattice, subtracted for normalization:
# the first and second neighbour bond energies of one site.
ENERGY_SHIFT = phi(1.0) + phi(2.0)


def _bond_lengths(d_fwd, d_bwd):
    """Deformed first and second neighbor bond lengths at each site.

    The first bond connects xi to xi+1; the second connects xi-1 to xi+1 and
    is attributed to site xi, so every bond of the chain is counted once.
    """
    d_fwd = np.asarray(d_fwd, dtype=float)
    d_bwd = np.asarray(d_bwd, dtype=float)
    r1 = 1.0 + d_fwd
    r2 = 2.0 + d_fwd - d_bwd
    if np.any(r1 < MIN_BOND_LENGTH) or np.any(r2 < MIN_BOND_LENGTH):
        raise ConfigurationError("collapsed bond: deformed length below MIN_BOND_LENGTH")
    return r1, r2


def site_energy_array(d_fwd, d_bwd):
    """Normalized site energy for arrays of forward/backward differences.

    Zero for zero differences, and equal to the Cauchy-Born density under a
    homogeneous strain (d_fwd = g, d_bwd = -g).
    """
    r1, r2 = _bond_lengths(d_fwd, d_bwd)
    return phi(r1) + phi(r2) - ENERGY_SHIFT


def site_gradient_arrays(d_fwd, d_bwd):
    """Derivatives of the site energy wrt (d_fwd, d_bwd)."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd)
    g2 = phi_d1(r2)
    return phi_d1(r1) + g2, -g2


def site_hessian_arrays(d_fwd, d_bwd):
    """Second derivatives (ff, fb, bb) of the site energy."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd)
    h2 = phi_d2(r2)
    return phi_d2(r1) + h2, -h2, h2


def site_third_arrays(d_fwd, d_bwd):
    """Third derivatives (fff, ffb, fbb, bbb) of the site energy."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd)
    t2 = phi_d3(r2)
    return phi_d3(r1) + t2, -t2, t2, -t2


def _cb_bonds(strain):
    r1 = 1.0 + np.asarray(strain, dtype=float)
    if np.any(r1 < MIN_BOND_LENGTH):
        raise ConfigurationError("collapsed strain: deformed spacing below MIN_BOND_LENGTH")
    return r1, 2.0 * r1


def cauchy_born_energy_density(strain):
    """Cauchy-Born strain energy density W, shifted so W(0) = 0.

    W is the site energy of the homogeneously strained lattice.  The shift
    matches the site-energy normalization and changes no derivatives.
    """
    r1, r2 = _cb_bonds(strain)
    return phi(r1) + phi(r2) - ENERGY_SHIFT


def cauchy_born_d1(strain):
    r1, r2 = _cb_bonds(strain)
    return phi_d1(r1) + 2.0 * phi_d1(r2)


def cauchy_born_d2(strain):
    r1, r2 = _cb_bonds(strain)
    return phi_d2(r1) + 4.0 * phi_d2(r2)


def cauchy_born_d3(strain):
    r1, r2 = _cb_bonds(strain)
    return phi_d3(r1) + 8.0 * phi_d3(r2)

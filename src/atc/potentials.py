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


def _checked_inverse(r):
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
        raise ValueError("pair potential requires finite r > 0")
    return 1.0 / r


def phi(r):
    """Pair potential r**-12 - 2 r**-6: phi(1) = -1 is its minimum.  phi ..
    phi_d3 raise ValueError unless every r is finite and positive."""
    return _phi(_checked_inverse(r))


def phi_d1(r):
    return _phi_d1(_checked_inverse(r))


def phi_d2(r):
    return _phi_d2(_checked_inverse(r))


def phi_d3(r):
    return _phi_d3(_checked_inverse(r))


# phi .. phi_d3 in q = 1 / r, unchecked: the site and Cauchy-Born functions
# bound their bonds themselves, with a ConfigurationError.
def _phi(q):
    return q**12 - 2.0 * q**6


def _phi_d1(q):
    return 12.0 * (q**7 - q**13)


def _phi_d2(q):
    return 12.0 * (13.0 * q**14 - 7.0 * q**8)


def _phi_d3(q):
    return 12.0 * (56.0 * q**9 - 182.0 * q**15)


# Longest bond of the site energy in lattice units: site xi carries the first
# neighbour bond (xi, xi+1) and the second neighbour bond (xi-1, xi+1); see
# _inverse_bonds.
INTERACTION_RANGE = 2

# Per-site energy of the undeformed lattice, subtracted for normalization:
# the first and second neighbour bond energies of one site.
ENERGY_SHIFT = phi(1.0) + phi(2.0)


def _bonds_hold(r) -> bool:
    """Whether every length in r is finite and at least MIN_BOND_LENGTH.

    One min and one max: either is NaN when r holds a NaN, which fails both
    comparisons, and an empty r passes."""
    return bool(r.min(initial=np.inf) >= MIN_BOND_LENGTH and r.max(initial=-np.inf) < np.inf)


def _inverse_bonds(d_fwd, d_bwd):
    """Inverse deformed first and second neighbor bond lengths at each site.

    The first bond connects xi to xi+1; the second connects xi-1 to xi+1 and
    is attributed to site xi, so every bond of the chain is counted once.  A
    length below MIN_BOND_LENGTH, infinite or NaN is a ConfigurationError.
    """
    d_fwd = np.asarray(d_fwd, dtype=float)
    d_bwd = np.asarray(d_bwd, dtype=float)
    r1 = 1.0 + d_fwd
    r2 = 2.0 + d_fwd - d_bwd
    if not (_bonds_hold(r1) and _bonds_hold(r2)):
        raise ConfigurationError("collapsed bond: length below MIN_BOND_LENGTH, inf or NaN")
    return 1.0 / r1, 1.0 / r2


def site_energy_array(d_fwd, d_bwd):
    """Normalized site energy for arrays of forward/backward differences.

    Zero for zero differences, and equal to the Cauchy-Born density under a
    homogeneous strain (d_fwd = g, d_bwd = -g).
    """
    q1, q2 = _inverse_bonds(d_fwd, d_bwd)
    return _phi(q1) + _phi(q2) - ENERGY_SHIFT


def site_gradient_arrays(d_fwd, d_bwd):
    """Derivatives of the site energy wrt (d_fwd, d_bwd)."""
    q1, q2 = _inverse_bonds(d_fwd, d_bwd)
    g2 = _phi_d1(q2)
    return _phi_d1(q1) + g2, -g2


def site_hessian_arrays(d_fwd, d_bwd):
    """Second derivatives (ff, fb, bb) of the site energy."""
    q1, q2 = _inverse_bonds(d_fwd, d_bwd)
    h2 = _phi_d2(q2)
    return _phi_d2(q1) + h2, -h2, h2


def site_third_arrays(d_fwd, d_bwd):
    """Third derivatives (fff, ffb, fbb, bbb) of the site energy."""
    q1, q2 = _inverse_bonds(d_fwd, d_bwd)
    t2 = _phi_d3(q2)
    return _phi_d3(q1) + t2, -t2, t2, -t2


def _cb_inverse_bonds(strain):
    r1 = 1.0 + np.asarray(strain, dtype=float)
    if not _bonds_hold(r1):
        raise ConfigurationError("collapsed strain: spacing below MIN_BOND_LENGTH, inf or NaN")
    return 1.0 / r1, 1.0 / (2.0 * r1)


def cauchy_born_energy_density(strain):
    """Cauchy-Born strain energy density W, shifted so W(0) = 0.

    W is the site energy of the homogeneously strained lattice.  The shift
    matches the site-energy normalization and changes no derivatives.
    """
    q1, q2 = _cb_inverse_bonds(strain)
    return _phi(q1) + _phi(q2) - ENERGY_SHIFT


def cauchy_born_d1(strain):
    q1, q2 = _cb_inverse_bonds(strain)
    return _phi_d1(q1) + 2.0 * _phi_d1(q2)


def cauchy_born_d2(strain):
    q1, q2 = _cb_inverse_bonds(strain)
    return _phi_d2(q1) + 4.0 * _phi_d2(q2)


def cauchy_born_d3(strain):
    q1, q2 = _cb_inverse_bonds(strain)
    return _phi_d3(q1) + 8.0 * _phi_d3(q2)

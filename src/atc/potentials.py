"""Lennard-Jones pair potential, lattice site energy, and Cauchy-Born density.

The lattice is the integer lattice deformed by a scalar macroscopic strain,
with first and second neighbor pair interactions.  The energy attributed to a
single site is a function of the forward and backward displacement
differences at that site, normalized so the undeformed lattice has zero
energy per site.  Evaluating the same site energy on a homogeneously strained
lattice yields the Cauchy-Born strain energy density, so the two models agree
exactly under uniform strain.

All evaluation routines accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError

# Bonds shorter than this are treated as unevaluable rather than fed to the
# r**-12 singularity, which would otherwise drive the solver to overflow.
MIN_BOND_LENGTH = 0.5


@dataclass(frozen=True)
class LennardJones:
    """Pair potential with a minimum of -well_depth at equilibrium_distance.

    phi(r) = well_depth * ((r0/r)**12 - 2 (r0/r)**6), r0 = equilibrium_distance.
    """

    well_depth: float = 1.0
    equilibrium_distance: float = 1.0

    def phi(self, r):
        r = self._check(r)
        q = self.equilibrium_distance / r
        return self.well_depth * (q**12 - 2.0 * q**6)

    def phi_d1(self, r):
        r = self._check(r)
        q = self.equilibrium_distance / r
        return (12.0 * self.well_depth / self.equilibrium_distance) * (q**7 - q**13)

    def phi_d2(self, r):
        r = self._check(r)
        q = self.equilibrium_distance / r
        return (12.0 * self.well_depth / self.equilibrium_distance**2) * (
            13.0 * q**14 - 7.0 * q**8
        )

    def phi_d3(self, r):
        r = self._check(r)
        q = self.equilibrium_distance / r
        return (12.0 * self.well_depth / self.equilibrium_distance**3) * (
            56.0 * q**9 - 182.0 * q**15
        )

    @staticmethod
    def _check(r):
        r = np.asarray(r, dtype=float)
        if not np.all(np.isfinite(r)) or np.any(r <= 0.0):
            raise ValueError("pair potential requires finite r > 0")
        return r


_DEFAULT_POTENTIAL = LennardJones()


def phi(r):
    """Default pair potential, normalized so phi(1) = -1 and phi'(1) = 0."""
    return _DEFAULT_POTENTIAL.phi(r)


def phi_d1(r):
    return _DEFAULT_POTENTIAL.phi_d1(r)


def phi_d2(r):
    return _DEFAULT_POTENTIAL.phi_d2(r)


def phi_d3(r):
    return _DEFAULT_POTENTIAL.phi_d3(r)


# Longest bond of the site energy in lattice units: site xi carries the first
# neighbour bond (xi, xi+1) and the second neighbour bond (xi-1, xi+1); see
# _bond_lengths.
INTERACTION_RANGE = 2


@dataclass(frozen=True)
class LatticeModel:
    """Reference geometry and interaction law of the 1D chain.

    Every site interacts with its first and second neighbours through one
    scalar pair potential.

    Parameters
    ----------
    deformation_gradient : float
        Macroscopic strain applied to the integer lattice; site spacing in
        the reference state.
    potential : LennardJones
        Pair interaction.
    """

    deformation_gradient: float = 1.0
    potential: LennardJones = field(default_factory=LennardJones)

    def __post_init__(self):
        if self.deformation_gradient <= 0.0:
            raise ValueError("deformation_gradient must be positive")

    @property
    def energy_shift(self) -> float:
        """Per-site energy of the undeformed lattice, subtracted for normalization.

        A scalar: the first and second neighbour bond energies of one site.
        """
        f = self.deformation_gradient
        return self.potential.phi(f) + self.potential.phi(2.0 * f)


def _bond_lengths(d_fwd, d_bwd, model: LatticeModel):
    """Deformed first and second neighbor bond lengths at each site.

    The first bond connects xi to xi+1; the second connects xi-1 to xi+1 and
    is attributed to site xi, so every bond of the chain is counted once.
    """
    f = model.deformation_gradient
    d_fwd = np.asarray(d_fwd, dtype=float)
    d_bwd = np.asarray(d_bwd, dtype=float)
    r1 = f + d_fwd
    r2 = 2.0 * f + d_fwd - d_bwd
    if np.any(r1 < MIN_BOND_LENGTH) or np.any(r2 < MIN_BOND_LENGTH):
        raise ConfigurationError("collapsed bond: deformed length below MIN_BOND_LENGTH")
    return r1, r2


def site_energy_array(d_fwd, d_bwd, model: LatticeModel = LatticeModel()):
    """Normalized site energy for arrays of forward/backward differences.

    Zero for zero differences, and equal to the Cauchy-Born density under a
    homogeneous strain (d_fwd = g, d_bwd = -g).
    """
    r1, r2 = _bond_lengths(d_fwd, d_bwd, model)
    p = model.potential
    return p.phi(r1) + p.phi(r2) - model.energy_shift


def site_gradient_arrays(d_fwd, d_bwd, model: LatticeModel = LatticeModel()):
    """Derivatives of the site energy wrt (d_fwd, d_bwd)."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd, model)
    p = model.potential
    g2 = p.phi_d1(r2)
    return p.phi_d1(r1) + g2, -g2


def site_hessian_arrays(d_fwd, d_bwd, model: LatticeModel = LatticeModel()):
    """Second derivatives (ff, fb, bb) of the site energy."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd, model)
    p = model.potential
    h2 = p.phi_d2(r2)
    return p.phi_d2(r1) + h2, -h2, h2


def site_third_arrays(d_fwd, d_bwd, model: LatticeModel = LatticeModel()):
    """Third derivatives (fff, ffb, fbb, bbb) of the site energy."""
    r1, r2 = _bond_lengths(d_fwd, d_bwd, model)
    p = model.potential
    t2 = p.phi_d3(r2)
    return p.phi_d3(r1) + t2, -t2, t2, -t2


def _cb_bonds(strain, model):
    f = model.deformation_gradient
    strain = np.asarray(strain, dtype=float)
    r1 = f + strain
    if np.any(r1 < MIN_BOND_LENGTH):
        raise ConfigurationError("collapsed strain: deformed spacing below MIN_BOND_LENGTH")
    return r1, 2.0 * r1


def cauchy_born_energy_density(strain, model: LatticeModel = LatticeModel()):
    """Cauchy-Born strain energy density W, shifted so W(0) = 0.

    W is the site energy of the homogeneously strained lattice.  The shift
    matches the site-energy normalization and changes no derivatives.
    """
    r1, r2 = _cb_bonds(strain, model)
    p = model.potential
    return p.phi(r1) + p.phi(r2) - model.energy_shift


def cauchy_born_d1(strain, model: LatticeModel = LatticeModel()):
    r1, r2 = _cb_bonds(strain, model)
    p = model.potential
    return p.phi_d1(r1) + 2.0 * p.phi_d1(r2)


def cauchy_born_d2(strain, model: LatticeModel = LatticeModel()):
    r1, r2 = _cb_bonds(strain, model)
    p = model.potential
    return p.phi_d2(r1) + 4.0 * p.phi_d2(r2)


def cauchy_born_d3(strain, model: LatticeModel = LatticeModel()):
    r1, r2 = _cb_bonds(strain, model)
    p = model.potential
    return p.phi_d3(r1) + 8.0 * p.phi_d3(r2)

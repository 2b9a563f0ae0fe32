"""Walk through the interaction model: pair potential, site energy, and the
Cauchy-Born density that the continuum model is built on.

Run:  python demos/01_potential_and_site_energy.py
"""

import numpy as np

from atc import (
    LatticeModel,
    cauchy_born_d1,
    cauchy_born_energy_density,
    phi,
    phi_d1,
)
from atc.potentials import INTERACTION_RANGE, site_energy_array

model = LatticeModel()
print("lattice model:", model)
print("interaction range:", INTERACTION_RANGE, "sites (first and second neighbours)")

# The pair potential is normalized so the minimum sits at distance 1 with
# depth 1.  First and second neighbor bonds therefore sit at r = 1 and r = 2
# in the reference state.
print("\npair potential:")
for r in (0.9, 1.0, 1.5, 2.0, 2.5):
    print(f"  phi({r:.1f}) = {phi(r):+.6f}   phi'({r:.1f}) = {phi_d1(r):+.6f}")

# Site energy of a few stencils, given by the forward and backward
# displacement differences u(xi+1) - u(xi) and u(xi-1) - u(xi).  The zero
# stencil is the normalization anchor; a uniform strain g (differences g and
# -g) reproduces the Cauchy-Born density exactly.
print("\nsite energies:")
print("  zero stencil:", site_energy_array(0.0, 0.0, model))
for g in (0.01, 0.03):
    v = site_energy_array(g, -g, model)
    w = cauchy_born_energy_density(g, model)
    print(f"  uniform strain {g:.2f}: site {v:.10f}  density {w:.10f}  "
          f"gap {abs(v - w):.1e}")

# The density has a nonzero slope at zero strain because the second-neighbor
# bond carries stress in the reference state; the lattice is still in
# equilibrium because site forces cancel by symmetry.
print("\ndensity slope at zero strain:", cauchy_born_d1(0.0, model))

# Energy landscape along a strain sweep
gs = np.linspace(-0.05, 0.05, 11)
ws = cauchy_born_energy_density(gs, model)
print("\nstrain sweep:")
for g, w in zip(gs, ws):
    bar = "#" * int(4000 * max(w, 0.0))
    print(f"  g={g:+.2f}  W={w:+.8f} {bar}")

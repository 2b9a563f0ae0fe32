"""Build the overlapping decomposition and the graded finite element mesh.

The core region is fully atomistic, the far field is continuum, and the two
overlap on annuli of width r_core.  Outside the atomistic region the element
size follows a power law in distance, floored to the lattice scale, so the
degrees of freedom stay proportional to the atomistic radius.

Run:  python demos/02_decomposition_and_mesh.py
"""

import numpy as np

from atc import (AtomisticModel, build_graded_mesh, count_dof, make_decomposition,
                 manufacture_forces, mesh_size)

GAMMA = 1.5

dec = make_decomposition(10, GAMMA, norm="energy")
print(f"radii: r_core={dec.r_core}  r_a={dec.r_a}  r_c={dec.r_c}")
print(f"atomistic sites: {len(dec.atomistic_sites)}")
atomistic = AtomisticModel(dec, manufacture_forces(GAMMA, dec))
print(f"interior sites: {len(atomistic.energy_idx)} "
      f"(energy summed here)")
print(f"equilibrium sites: {len(atomistic.test_idx)} "
      f"(equations imposed here)")
print(f"overlap intervals: {dec.overlap_intervals}")

print("\nelement-size law beyond the atomistic radius:")
for x in (20, 25, 40, 100, 400, 1600):
    print(f"  h({x:5d}) = {mesh_size(x, dec.r_a, GAMMA):4d}")

mesh = build_graded_mesh(dec, GAMMA)
print(f"\nmesh: {len(mesh.nodes)} nodes spanning "
      f"[{mesh.nodes[0]}, {mesh.nodes[-1]}]")
pos = mesh.nodes[mesh.nodes > dec.r_a]
print("first coarse nodes:", pos[:10].tolist())
print("last coarse nodes:", pos[-5:].tolist())
print("degrees of freedom:", count_dof(dec, mesh))

print("\ndof growth with the core radius:")
for r_core in (10, 20, 40, 80):
    d = make_decomposition(r_core, GAMMA)
    m = build_graded_mesh(d, GAMMA)
    print(f"  r_core={r_core:4d}  r_c={d.r_c:8d}  nodes={len(m.nodes):5d}  "
          f"dof={count_dof(d, m):5d}")

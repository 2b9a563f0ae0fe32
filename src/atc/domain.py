"""Domain decomposition and graded mesh construction.

The computational domain is the symmetric interval [-r_c, r_c].  An atomistic
subdomain [-r_a, r_a] overlaps a continuum subdomain
[-r_c, -r_core] U [r_core, r_c]; the two overlap annuli have width
r_a - r_core.  The finite element mesh keeps every lattice site as a node out
to r_a and then coarsens by a power law tuned to the far-field decay exponent
of the elastic field, so that total error balances for a given number of
degrees of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IllPosedParametersError, UsageError
from .potentials import INTERACTION_RANGE


def _snap(p: float) -> float:
    # Guard floor/ceil against float noise when the power is an exact integer
    # (e.g. 8**(5/3) evaluates to 32.00000000000001).
    r = round(p)
    if abs(p - r) < 1e-9 * max(1.0, abs(p)):
        return float(r)
    return p


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma < np.inf:
        raise UsageError(f"gamma must be finite and positive, got {gamma}")


def _radius_exponent(gamma: float, norm: str) -> float:
    if norm == "energy":
        if gamma <= 0.5:
            raise IllPosedParametersError(f"energy norm requires gamma > 1/2, got {gamma}")
        return (1.0 + gamma) / (gamma - 0.5)
    if norm == "uniform":
        return 1.0 + 1.0 / gamma
    raise UsageError(f"unknown norm {norm!r}, expected 'energy' or 'uniform'")


def _grading_exponent(gamma: float, norm: str) -> float:
    if norm == "energy":
        return (1.0 + gamma) / 1.5
    if norm == "uniform":
        return 1.0 + gamma
    raise UsageError(f"unknown norm {norm!r}, expected 'energy' or 'uniform'")


def optimal_radii(r_core: int, gamma: float, norm: str = "energy") -> tuple[int, int]:
    """Atomistic and outer radii balancing the error contributions.

    r_a = 2 r_core keeps the overlap width proportional to the core radius,
    and r_c = ceil(r_a ** e) with the norm-dependent exponent e trades the
    domain truncation error against the coarse-mesh error.
    """
    _check_gamma(gamma)
    if r_core < 2 * INTERACTION_RANGE:
        raise UsageError(
            f"r_core={r_core} too small: overlap width r_a - r_core = r_core "
            f"must be at least twice the interaction range, {2 * INTERACTION_RANGE}"
        )
    e = _radius_exponent(gamma, norm)
    r_a = 2 * r_core
    r_c = int(np.ceil(_snap(float(r_a) ** e)))
    return r_a, r_c


def mesh_size(x, r_a: int, gamma: float, norm: str = "energy") -> int:
    """Graded element size at position x, an integer >= 1.

    Follows the power law (|x|/r_a) ** e floored to the lattice scale; equals
    1 at |x| = r_a so the mesh stays fully refined at the overlap edge.
    """
    _check_gamma(gamma)
    x = abs(float(x))
    if x < r_a:
        raise UsageError(f"mesh_size defined for |x| >= r_a, got |x|={x} < {r_a}")
    e = _grading_exponent(gamma, norm)
    return max(1, int(np.floor(_snap((x / r_a) ** e))))


@dataclass(frozen=True)
class DomainDecomposition:
    """Radii and lattice index sets of the overlapping decomposition.

    Invariants: 0 < r_core < r_a < r_c, and r_a - r_core >= 2*margin where
    margin is the interaction range in lattice units, so the overlap is wide
    enough for the atomistic interior sets to be meaningful.
    """

    r_core: int
    r_a: int
    r_c: int

    def __post_init__(self):
        for name in ("r_core", "r_a", "r_c"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v <= 0:
                raise UsageError(f"{name} must be a positive integer, got {v!r}")
        if not (self.r_core < self.r_a < self.r_c):
            raise UsageError(
                f"radii must be ordered r_core < r_a < r_c, got "
                f"({self.r_core}, {self.r_a}, {self.r_c})"
            )
        if self.r_a - self.r_core < 2 * self.margin:
            raise UsageError(
                f"overlap width {self.r_a - self.r_core} below twice the "
                f"interaction range {self.margin}"
            )

    @property
    def margin(self) -> int:
        return INTERACTION_RANGE

    @property
    def sites(self) -> np.ndarray:
        """All lattice sites of the truncated domain."""
        return np.arange(-self.r_c, self.r_c + 1)

    @property
    def atomistic_sites(self) -> np.ndarray:
        return np.arange(-self.r_a, self.r_a + 1)

    @property
    def interior_sites(self) -> np.ndarray:
        """Sites whose whole interaction neighborhood lies in the atomistic region."""
        m = self.r_a - self.margin
        return np.arange(-m, m + 1)

    @property
    def equilibrium_sites(self) -> np.ndarray:
        """Twice-interior sites, where the atomistic equilibrium equations are imposed."""
        m = self.r_a - 2 * self.margin
        return np.arange(-m, m + 1)

    @property
    def overlap_intervals(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((-self.r_a, -self.r_core), (self.r_core, self.r_a))

    @property
    def overlap_width(self) -> int:
        return self.r_a - self.r_core


def make_decomposition(r_core: int, gamma: float, norm: str = "energy") -> DomainDecomposition:
    """Decomposition with radii from optimal_radii."""
    r_a, r_c = optimal_radii(r_core, gamma, norm=norm)
    return DomainDecomposition(r_core, r_a, r_c)


@dataclass(frozen=True)
class GradedMesh:
    """Strictly increasing integer nodes spanning [-r_c, r_c]."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=int)
        object.__setattr__(self, "nodes", nodes)
        if np.any(np.diff(nodes) <= 0):
            raise UsageError("mesh nodes must be strictly increasing")

    def write_nodes(self, path):
        """Plain-text dump, one integer node coordinate per line."""
        with open(path, "w") as fh:
            for n in self.nodes:
                fh.write(f"{int(n)}\n")

    @classmethod
    def read_nodes(cls, path) -> "GradedMesh":
        with open(path) as fh:
            nodes = [int(line) for line in fh if line.strip()]
        return cls(np.array(nodes, dtype=int))


def build_graded_mesh(dec: DomainDecomposition, gamma: float,
                      norm: str = "energy") -> GradedMesh:
    """Fully refined nodes on [-r_a, r_a], then power-law coarsening to r_c.

    Starting from the largest node xi, a node is appended at
    xi + mesh_size(xi) while that stays short of r_c; the final node is
    placed at r_c itself (the last element may be shorter than the grading
    rule dictates).  The negative side mirrors the positive one.
    """
    nodes = list(range(-dec.r_a, dec.r_a + 1))
    xi = dec.r_a
    while True:
        step = mesh_size(xi, dec.r_a, gamma, norm=norm)
        if xi + step >= dec.r_c:
            break
        xi += step
        nodes.append(xi)
    nodes.append(dec.r_c)
    mirrored = sorted(-n for n in nodes if n > dec.r_a)
    return GradedMesh(np.array(mirrored + nodes, dtype=int))


def count_dof(dec: DomainDecomposition, mesh: GradedMesh) -> int:
    """Geometric unknown count: atomistic sites plus coarse interior nodes.

    Overlap nodes coincide with lattice sites and are counted once; the two
    outer Dirichlet nodes at +-r_c carry no unknowns.
    """
    coarse = np.sum(np.abs(mesh.nodes) > dec.r_a) - 2
    return int(len(dec.atomistic_sites) + coarse)

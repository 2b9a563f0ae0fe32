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

import os
from dataclasses import dataclass

import numpy as np

from .exceptions import IllPosedParametersError, UsageError
from .potentials import INTERACTION_RANGE


# Sums over the lattice stream through ranges of at most this many sites, so
# only the full-lattice oracle and the full composite hold every site.  A
# chunk's dozen float64 temporaries then take about 1.5 MB, within a core's
# L2 cache: at 2**16 sites the set-up of the perfbench oracle workload (up to
# 57,244 sites per side) took 24% longer than one pass over all sites; at
# 2**14 it took the same (five alternating runs each).
LATTICE_CHUNK = 1 << 14

# Peak memory per lattice site of [-r_c, r_c] of the two calls that hold
# every site.  The oracle, a banded Cholesky on the symmetric positive
# definite band, grew the peak RSS by 37.4-37.5 bytes per site at 647,637
# sites, 32.2-32.3 at 3,663,575 and 28.1 at 20,724,305 (gamma 1.5, r_core
# 80, 160, 320, one BLAS thread, fresh processes; 15% over the largest kept
# here); the full composite allocates 24 bytes per site (tracemalloc).
BYTES_PER_SITE = 44
COMPOSITE_BYTES_PER_SITE = 24

# Peak memory per site of the largest element of the continuum loads, which
# hold one range's forces at a time, that element's at most: the set-up grew
# the peak RSS by 8.1 bytes per site at 19.1M sites and by 8.0 at 106M (gamma
# 1.5, r_core 640 and 1280, fresh processes).  It stays 14, not 8, so that
# the 713.8M-site element of gamma 1.5, r_core 2560 is still refused on
# 8 GiB (any value below about 12.03 accepts it): it would take 5.7 GB of
# that for minutes of set-up, and the solve already fails at r_core 1280.
LOAD_BYTES_PER_SITE = 14

# Largest site position that float64 holds exactly.
MAX_SITE = 2**53


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(what: str, n_sites: int, bytes_per_site: int = BYTES_PER_SITE) -> None:
    """Reject a call over n_sites lattice sites that would not fit in memory.

    Called before the call allocates anything per site.
    """
    need, have = bytes_per_site * n_sites, physical_memory()
    if need > have:
        raise UsageError(
            f"{what} needs about {need / 1e9:.3g} GB for its {n_sites} lattice "
            f"sites, more than the {have / 1e9:.3g} GB of physical memory"
        )


def chunk_bounds(first: int, last: int, overlap: int = 0):
    """Consecutive ranges of the sites first .. last, ascending, as
    (start, stop) pairs: the sites start .. stop - 1.

    Each range holds at most LATTICE_CHUNK sites, and neighbouring ranges
    share `overlap` sites.  Nothing is yielded when last < first.  An
    overlap outside [0, LATTICE_CHUNK) raises ValueError on the first
    next(): the start would stop advancing or skip sites.
    """
    if not 0 <= overlap < LATTICE_CHUNK:
        raise ValueError(f"overlap must lie in [0, {LATTICE_CHUNK}), got {overlap}")
    start = first
    while start <= last:
        stop = min(start + LATTICE_CHUNK, last + 1)
        yield start, stop
        if stop > last:
            return
        start = stop - overlap


def lattice_chunks(first: int, last: int, overlap: int = 0):
    """The ranges of chunk_bounds, each as an integer array of its sites."""
    for start, stop in chunk_bounds(first, last, overlap):
        yield np.arange(start, stop)


def _snap(p: float) -> float:
    # Guard floor/ceil against float noise when the power is an exact integer
    # (e.g. 8**(5/3) evaluates to 32.00000000000001).
    r = round(p)
    if abs(p - r) < 1e-9 * max(1.0, abs(p)):
        return float(r)
    return p


def _norm_exponents(gamma: float, norm: str) -> tuple[float, float]:
    """Exponents (radius, grading) of optimal_radii and mesh_size in the norm.

    gamma must be finite and positive, and above 1/2 in the energy norm.
    """
    if not 0.0 < gamma < np.inf:
        raise UsageError(f"gamma must be finite and positive, got {gamma}")
    if norm == "energy":
        if gamma <= 0.5:
            raise IllPosedParametersError(f"energy norm requires gamma > 1/2, got {gamma}")
        return (1.0 + gamma) / (gamma - 0.5), (1.0 + gamma) / 1.5
    if norm == "uniform":
        return 1.0 + 1.0 / gamma, 1.0 + gamma
    raise UsageError(f"unknown norm {norm!r}, expected 'energy' or 'uniform'")


def optimal_radii(r_core: int, gamma: float, norm: str = "energy") -> tuple[int, int]:
    """Atomistic and outer radii balancing the error contributions.

    r_a = 2 r_core keeps the overlap width proportional to the core radius,
    and r_c = ceil(r_a ** e) with the norm-dependent exponent e trades the
    domain truncation error against the coarse-mesh error.
    """
    e, _ = _norm_exponents(gamma, norm)
    if r_core < 2 * INTERACTION_RANGE:
        raise UsageError(
            f"r_core={r_core} too small: overlap width r_a - r_core = r_core "
            f"must be at least twice the interaction range, {2 * INTERACTION_RANGE}"
        )
    r_a = 2 * r_core
    try:
        r_c = int(np.ceil(_snap(float(r_a) ** e)))
    except OverflowError as err:
        raise UsageError(f"r_c = {r_a}**{e:.6g} is too large to represent") from err
    if r_c > MAX_SITE:
        raise UsageError(f"r_c = {r_c} is too large: site positions above 2**53 "
                         f"are not exact in float64")
    return r_a, r_c


def mesh_size(x, r_a: int, gamma: float, norm: str = "energy") -> int:
    """Graded element size at position x, an integer >= 1.

    Follows the power law (|x|/r_a) ** e floored to the lattice scale; equals
    1 at |x| = r_a so the mesh stays fully refined at the overlap edge.
    """
    _, e = _norm_exponents(gamma, norm)
    x = abs(float(x))
    if x < r_a:
        raise UsageError(f"mesh_size defined for |x| >= r_a, got |x|={x} < {r_a}")
    return max(1, int(np.floor(_snap((x / r_a) ** e))))


@dataclass(frozen=True)
class DomainDecomposition:
    """Radii and lattice index sets of the overlapping decomposition.

    Invariants: 0 < r_core < r_a < r_c, and the overlap width r_a - r_core is
    at least twice the interaction range, so the atomistic equilibrium sites
    (two interaction ranges in from r_a) cover the overlap's inner edge.
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
        if self.r_a - self.r_core < 2 * INTERACTION_RANGE:
            raise UsageError(
                f"overlap width {self.r_a - self.r_core} below twice the "
                f"interaction range {INTERACTION_RANGE}"
            )

    @property
    def sites(self) -> np.ndarray:
        """All lattice sites of the truncated domain."""
        return np.arange(-self.r_c, self.r_c + 1)

    @property
    def atomistic_sites(self) -> np.ndarray:
        return np.arange(-self.r_a, self.r_a + 1)

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
        nodes = np.asarray(self.nodes)
        whole = np.isfinite(nodes) & (nodes == np.trunc(nodes))
        if not np.all(whole):
            raise UsageError(f"mesh nodes must be finite integers, got {nodes[~whole][0]}")
        nodes = nodes.astype(int, copy=False)
        object.__setattr__(self, "nodes", nodes)
        if np.any(np.diff(nodes) <= 0):
            raise UsageError("mesh nodes must be strictly increasing")


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


def require_load_memory(dec: DomainDecomposition, mesh: GradedMesh) -> None:
    """Reject a mesh whose largest far-field element would not fit in memory.

    The continuum loads hold one range's forces at a time, the whole of the
    largest element of |site| >= r_core at most, LOAD_BYTES_PER_SITE per
    site.  The mesh alone decides this, so a sweep checks every radius
    before its first solve.
    """
    far = np.unique(np.abs(mesh.nodes[np.abs(mesh.nodes) >= dec.r_core]))
    e = int(np.argmax(np.diff(far)))
    require_memory(f"the element [{far[e]}, {far[e + 1]}] of the continuum loads",
                   int(far[e + 1] - far[e]) + 1, LOAD_BYTES_PER_SITE)

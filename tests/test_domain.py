"""Decomposition, radii formulas, and graded mesh tests.

The mesh recursion is checked against an independent replay that evaluates
the grading power law in 40-digit arithmetic, so float noise in the floor
rule would show up as a node mismatch.
"""

import numpy as np
import pytest

from atc import (
    AtomisticModel,
    DomainDecomposition,
    GradedMesh,
    IllPosedParametersError,
    UsageError,
    build_graded_mesh,
    count_dof,
    domain,
    make_decomposition,
    manufacture_forces,
    mesh_size,
    optimal_radii,
    solve_full_atomistic,
)
from atc.potentials import INTERACTION_RANGE

# from the high-precision replay below, r_core=10, gamma=1.5, energy norm
NODES_10 = 115
DOF_10 = 113
DOF_20 = 225


def replay_nodes(r_a, r_c, gamma, norm="energy"):
    """Independent reconstruction of the node recursion (mpmath powers).

    Powers landing within 1e-25 of an integer at 40-digit precision are that
    integer exactly (e.g. (640/80)**(5/3) = 32), so they are snapped before
    flooring; otherwise a one-ulp error below the integer would floor wrong.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40
    if norm == "energy":
        e = (1 + mp.mpf(gamma)) / mp.mpf("1.5")
    else:
        e = 1 + mp.mpf(gamma)

    def exact_floor(p):
        r = mp.nint(p)
        if abs(p - r) < mp.mpf("1e-25"):
            return int(r)
        return int(mp.floor(p))

    nodes = list(range(-r_a, r_a + 1))
    xi = r_a
    while True:
        step = max(1, exact_floor((mp.mpf(xi) / r_a) ** e))
        if xi + step >= r_c:
            break
        xi += step
        nodes.append(xi)
    nodes.append(r_c)
    return np.array(sorted(-n for n in nodes if n > r_a) + nodes, dtype=int)


def test_optimal_radii_energy_norm():
    assert optimal_radii(10, 1.5, norm="energy") == (20, 1789)


def test_optimal_radii_uniform_norm():
    assert optimal_radii(10, 1.5, norm="uniform") == (20, 148)


def test_optimal_radii_ill_posed():
    with pytest.raises(IllPosedParametersError):
        optimal_radii(10, 0.5, norm="energy")


@pytest.mark.parametrize("gamma", [0.0, -1.5, float("nan"), float("inf")])
def test_radii_and_mesh_size_reject_bad_gamma(gamma):
    for norm in ("energy", "uniform"):
        with pytest.raises(UsageError):
            optimal_radii(10, gamma, norm=norm)
        with pytest.raises(UsageError):
            mesh_size(40, 20, gamma, norm=norm)


def test_mesh_size_ill_posed_as_optimal_radii():
    with pytest.raises(IllPosedParametersError):
        mesh_size(40, 20, 0.5, norm="energy")


@pytest.mark.parametrize("call", [lambda: optimal_radii(10, 1.5, norm="l2"),
                                  lambda: mesh_size(40, 20, 1.5, norm="l2")],
                         ids=["optimal_radii", "mesh_size"])
def test_unknown_norm_is_usage_error(call):
    with pytest.raises(UsageError, match="unknown norm 'l2'"):
        call()


def test_optimal_radii_rejects_small_core():
    with pytest.raises(UsageError):
        optimal_radii(3, 1.5)
    # boundary case: overlap width exactly twice the interaction range
    assert optimal_radii(4, 1.5)[0] == 8


def test_optimal_radii_exact_integer_power():
    # 16**2.5 = 1024 exactly; float noise must not bump the ceiling
    assert optimal_radii(8, 1.5, norm="energy") == (16, 1024)


@pytest.mark.parametrize("x,expected", [(20, 1), (40, 3), (100, 14)])
def test_mesh_size_energy_instances(x, expected):
    assert mesh_size(x, 20, 1.5, norm="energy") == expected


def test_mesh_size_exact_cube_power():
    # (160/20)**(5/3) = 32 exactly
    assert mesh_size(160, 20, 1.5, norm="energy") == 32


def test_mesh_size_uniform_norm():
    assert mesh_size(20, 20, 1.5, norm="uniform") == 1
    assert mesh_size(40, 20, 1.5, norm="uniform") == int(2**2.5)


def test_mesh_size_requires_coarse_region():
    with pytest.raises(UsageError):
        mesh_size(19, 20, 1.5)
    assert mesh_size(-40, 20, 1.5) == mesh_size(40, 20, 1.5)


def test_mesh_size_monotone_and_one_at_inner_edge():
    sizes = [mesh_size(x, 20, 1.5) for x in range(20, 2000)]
    assert sizes[0] == 1
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


def test_decomposition_invariants():
    dec = make_decomposition(10, 1.5)
    assert dec.r_core < dec.r_a < dec.r_c
    assert dec.r_a - dec.r_core >= 2 * INTERACTION_RANGE
    np.testing.assert_array_equal(dec.atomistic_sites, np.arange(-20, 21))
    assert dec.overlap_intervals == ((-20, -10), (10, 20))
    # energies are summed on the interior sites, equations imposed on the
    # twice-interior ones, which reach past the core region
    model = AtomisticModel(dec, manufacture_forces(1.5, dec))
    np.testing.assert_array_equal(model.nodes[model.energy_idx], np.arange(-18, 19))
    np.testing.assert_array_equal(model.nodes[model.test_idx], np.arange(-16, 17))
    assert dec.r_core <= model.nodes[model.test_idx].max()


def test_decomposition_validation():
    with pytest.raises(UsageError):
        DomainDecomposition(10, 13, 50)  # overlap width 3 < 2 * INTERACTION_RANGE
    with pytest.raises(UsageError):
        DomainDecomposition(10, 20, 20)
    with pytest.raises(UsageError):
        DomainDecomposition(10, 20, 1789.0)  # non-integer radius


def test_decomposition_rejects_domains_too_large_to_hold(monkeypatch):
    # A decomposition and its mesh hold no per-site array, so a domain of
    # any size builds; the full-lattice oracle holds every site and is
    # rejected before it allocates.  gamma 0.75 at r_core 10 spans 2.56e9
    # sites.
    dec = make_decomposition(10, 0.75)
    assert dec.r_c == 20**7
    assert build_graded_mesh(dec, 0.75).nodes[-1] == dec.r_c
    with pytest.raises(UsageError, match="physical memory"):
        solve_full_atomistic(dec, 0.75)
    # past 2**53 site positions are not exact in float64 (3.4e17 sites)
    with pytest.raises(UsageError, match="too large"):
        make_decomposition(160, 0.75)
    # just above gamma 1/2 the radius exponent overflows a float
    with pytest.raises(UsageError, match="too large"):
        make_decomposition(10, 0.5000001)
    monkeypatch.setattr(domain, "physical_memory", lambda: 4 * 2**30)
    # 117M sites at r_core 640, about 5.2 GB
    dec = make_decomposition(640, 1.5)
    assert build_graded_mesh(dec, 1.5).nodes[-1] == dec.r_c
    with pytest.raises(UsageError, match="physical memory"):
        solve_full_atomistic(dec, 1.5)
    assert make_decomposition(320, 1.5).r_c == 10362152


def test_graded_mesh_matches_independent_replay():
    for r_core in (10, 20, 40):
        dec = make_decomposition(r_core, 1.5)
        mesh = build_graded_mesh(dec, 1.5)
        np.testing.assert_array_equal(
            mesh.nodes, replay_nodes(dec.r_a, dec.r_c, "1.5"))


def test_graded_mesh_replay_uniform_norm():
    dec = make_decomposition(10, 1.5, norm="uniform")
    mesh = build_graded_mesh(dec, 1.5, norm="uniform")
    np.testing.assert_array_equal(
        mesh.nodes, replay_nodes(dec.r_a, dec.r_c, "1.5", norm="uniform"))


def test_graded_mesh_structure():
    dec = make_decomposition(10, 1.5)
    mesh = build_graded_mesh(dec, 1.5)
    nodes = mesh.nodes
    assert len(nodes) == NODES_10
    assert nodes[0] == -dec.r_c and nodes[-1] == dec.r_c
    assert np.all(np.diff(nodes) > 0)
    # fully refined across the atomistic region
    inner = nodes[np.abs(nodes) <= dec.r_a]
    np.testing.assert_array_equal(inner, np.arange(-dec.r_a, dec.r_a + 1))
    # first coarse node continues at unit spacing
    assert nodes[nodes > dec.r_a][0] == dec.r_a + 1
    # mirror symmetry
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    # element sizes grow away from the origin on each half
    sizes = np.diff(nodes)
    mid = len(sizes) // 2
    right = sizes[mid:]
    assert np.all(np.diff(right[:-1]) >= 0)  # last element may be clamped short
    left = sizes[:mid]
    assert np.all(np.diff(left[1:]) <= 0)


def test_count_dof_reference_values():
    dec = make_decomposition(10, 1.5)
    mesh = build_graded_mesh(dec, 1.5)
    assert count_dof(dec, mesh) == DOF_10
    assert count_dof(dec, mesh) == len(dec.atomistic_sites) + int(
        np.sum(np.abs(mesh.nodes) > dec.r_a)) - 2
    dec2 = make_decomposition(20, 1.5)
    mesh2 = build_graded_mesh(dec2, 1.5)
    assert count_dof(dec2, mesh2) == DOF_20
    assert 1.9 <= DOF_20 / DOF_10 <= 2.6


def test_count_dof_degenerate_coarse_region():
    # only non-lattice nodes are the outer boundary pair
    dec = DomainDecomposition(4, 8, 9)
    mesh = GradedMesh(np.concatenate(([-9], np.arange(-8, 9), [9])))
    assert count_dof(dec, mesh) == len(dec.atomistic_sites)


def test_count_dof_scales_linearly_in_r_a():
    r_as, dofs = [], []
    for r_core in (10, 20, 40, 80, 160):
        dec = make_decomposition(r_core, 1.5)
        mesh = build_graded_mesh(dec, 1.5)
        r_as.append(dec.r_a)
        dofs.append(count_dof(dec, mesh))
    slope = np.polyfit(np.log(r_as), np.log(dofs), 1)[0]
    assert 0.9 <= slope <= 1.3
    assert all(b > a for a, b in zip(dofs, dofs[1:]))


def test_mesh_rejects_unsorted_nodes():
    with pytest.raises(UsageError):
        GradedMesh(np.array([0, 2, 1]))


@pytest.mark.parametrize("nodes", [[-5.7, -2.2, 0.0, 2.9, 5.5], [-3.0, np.nan, 4.0],
                                   [-3.0, 1.0, np.inf]], ids=["fractions", "nan", "inf"])
def test_mesh_rejects_nodes_that_are_not_finite_integers(nodes):
    # a cast to int would truncate the fractions to [-5, -2, 0, 2, 5], a
    # different mesh, without an error
    with pytest.raises(UsageError):
        GradedMesh(nodes)


def test_mesh_takes_integral_floats_as_integer_nodes():
    nodes = GradedMesh([-3.0, 1.0, 4.0]).nodes
    assert nodes.dtype == int and nodes.tolist() == [-3, 1, 4]


@pytest.mark.parametrize("overlap", [0, 1, 4])
def test_lattice_chunks_cover_every_site_and_share_the_overlap(monkeypatch, overlap):
    monkeypatch.setattr(domain, "LATTICE_CHUNK", 5)
    chunks = list(domain.lattice_chunks(-3, 17, overlap=overlap))
    assert all(1 <= len(c) <= 5 for c in chunks)
    assert all(np.array_equal(np.diff(c), np.ones(len(c) - 1)) for c in chunks)
    assert chunks[0][0] == -3 and chunks[-1][-1] == 17
    for a, b in zip(chunks, chunks[1:]):
        assert b[0] == a[-1] + 1 - overlap
    assert list(domain.chunk_bounds(-3, 17, overlap=overlap)) == [
        (c[0], c[-1] + 1) for c in chunks]


@pytest.mark.parametrize("overlap", [-1, 5, 6])
def test_lattice_chunks_reject_an_overlap_outside_the_chunk(monkeypatch, overlap):
    # overlap >= LATTICE_CHUNK never advanced, and a negative one skipped sites
    monkeypatch.setattr(domain, "LATTICE_CHUNK", 5)
    for chunks in (domain.chunk_bounds, domain.lattice_chunks):
        with pytest.raises(ValueError, match="overlap"):
            next(chunks(0, 20, overlap=overlap))

"""Decomposition, radii formulas, and graded mesh tests.

The mesh recursion is checked against an independent replay that evaluates
the grading power law in 40-digit arithmetic, so float noise in the floor
rule would show up as a node mismatch.
"""

import numpy as np
import pytest

from atc import (
    DomainDecomposition,
    GradedMesh,
    IllPosedParametersError,
    UsageError,
    build_graded_mesh,
    count_dof,
    make_decomposition,
    mesh_size,
    optimal_radii,
)

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
    assert dec.r_a - dec.r_core >= 2 * dec.margin
    np.testing.assert_array_equal(dec.atomistic_sites, np.arange(-20, 21))
    np.testing.assert_array_equal(dec.interior_sites, np.arange(-18, 19))
    np.testing.assert_array_equal(dec.equilibrium_sites, np.arange(-16, 17))
    assert dec.overlap_intervals == ((-20, -10), (10, 20))
    # core region sits strictly inside the twice-interior set
    assert dec.r_core <= dec.equilibrium_sites.max()


def test_decomposition_validation():
    with pytest.raises(UsageError):
        DomainDecomposition(10, 13, 50)  # overlap width 3 < 2*margin
    with pytest.raises(UsageError):
        DomainDecomposition(10, 20, 20)
    with pytest.raises(UsageError):
        DomainDecomposition(10, 20, 1789.0)  # non-integer radius


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


def test_mesh_nodes_dump_round_trip(tmp_path):
    dec = make_decomposition(10, 1.5)
    mesh = build_graded_mesh(dec, 1.5)
    path = tmp_path / "nodes.txt"
    mesh.write_nodes(path)
    text = path.read_text().splitlines()
    assert len(text) == len(mesh.nodes)
    assert all(ln.lstrip("-").isdigit() for ln in text)
    again = GradedMesh.read_nodes(path)
    np.testing.assert_array_equal(again.nodes, mesh.nodes)


def test_mesh_rejects_unsorted_nodes():
    with pytest.raises(UsageError):
        GradedMesh(np.array([0, 2, 1]))

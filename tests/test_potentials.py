"""Pair potential, site energy, and Cauchy-Born density tests.

Frozen expected values were computed independently with 40-digit mpmath
arithmetic; the generating expressions are quoted next to each constant.
"""

import numpy as np
import pytest

from atc import (
    ConfigurationError,
    cauchy_born_d1,
    cauchy_born_d2,
    cauchy_born_d3,
    cauchy_born_energy_density,
    exact_solution,
    phi,
    phi_d1,
    phi_d2,
    phi_d3,
)
from atc.potentials import (
    ENERGY_SHIFT,
    INTERACTION_RANGE,
    site_energy_array,
    site_gradient_arrays,
    site_hessian_arrays,
    site_third_arrays,
)

# mpmath oracle: phi(1.01) + phi(2.02) - phi(1) - phi(2)
W_001 = 0.0051423629385582829228
# mpmath oracle: 0.1 * 2**-0.75
UBAR_1 = 0.059460355750136053336
# mpmath oracle: phi(1 + g) + phi(2 + 2g) - phi(1) - phi(2), g = 0.1 * 2**-0.75
V_EXACT_SOL_ORIGIN = 0.094810517324105908882


def test_phi_reference_values():
    assert phi(1.0) == -1.0
    assert phi(2.0) == -0.031005859375  # exact dyadic: 2**-12 - 2*2**-6
    assert phi_d1(1.0) == 0.0


def test_phi_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi(0.0)
    with pytest.raises(ValueError):
        phi(-1.0)
    with pytest.raises(ValueError):
        phi(np.nan)
    with pytest.raises(ValueError):
        phi_d2(np.array([1.0, -0.5]))


@pytest.mark.parametrize("fn,dfn", [(phi, phi_d1), (phi_d1, phi_d2), (phi_d2, phi_d3)])
def test_phi_derivative_chain(fn, dfn):
    rng = np.random.default_rng(0)
    r = rng.uniform(0.8, 2.5, 100)
    h = 1e-6
    fd = (fn(r + h) - fn(r - h)) / (2 * h)
    assert np.max(np.abs(dfn(r) - fd) / np.abs(fd)) < 1e-6


def test_phi_finite_down_to_half():
    for f in (phi, phi_d1, phi_d2, phi_d3):
        assert np.all(np.isfinite(f(np.linspace(0.5, 3.0, 50))))


def test_interaction_range_reference_configuration():
    # first and second neighbour bonds: the site energy reaches two sites out
    assert INTERACTION_RANGE == 2
    assert ENERGY_SHIFT == phi(1.0) + phi(2.0)


def test_site_energy_zero_stencil():
    assert site_energy_array(0.0, 0.0) == 0.0


def test_site_energy_matches_cauchy_born_under_uniform_strain():
    for g in np.linspace(-0.05, 0.05, 21):
        v = site_energy_array(g, -g)
        assert abs(v - cauchy_born_energy_density(g)) <= 1e-14


def test_site_energy_at_exact_solution_origin():
    # the stencil at the origin of the odd exact field: d_fwd = g, d_bwd = -g
    g = exact_solution(1.0, 1.5)
    assert abs(g - UBAR_1) < 1e-15
    assert abs(site_energy_array(g, -g) - V_EXACT_SOL_ORIGIN) < 1e-15


def test_site_energy_collapsed_bond():
    with pytest.raises(ConfigurationError):
        site_energy_array(-0.9, 0.0)


def test_site_energy_derivatives_against_fd():
    rng = np.random.default_rng(1)
    h = 1e-6
    for _ in range(100):
        d_fwd, d_bwd = rng.uniform(-0.1, 0.1, 2)
        vf, vb = site_gradient_arrays(d_fwd, d_bwd)
        fd_f = (site_energy_array(d_fwd + h, d_bwd)
                - site_energy_array(d_fwd - h, d_bwd)) / (2 * h)
        fd_b = (site_energy_array(d_fwd, d_bwd + h)
                - site_energy_array(d_fwd, d_bwd - h)) / (2 * h)
        assert abs(vf - fd_f) / max(abs(fd_f), 1e-10) < 1e-6
        assert abs(vb - fd_b) / max(abs(fd_b), 1e-10) < 1e-6
        ff, fb, bb = site_hessian_arrays(d_fwd, d_bwd)
        fd_ff = (site_gradient_arrays(d_fwd + h, d_bwd)[0]
                 - site_gradient_arrays(d_fwd - h, d_bwd)[0]) / (2 * h)
        fd_fb = (site_gradient_arrays(d_fwd, d_bwd + h)[0]
                 - site_gradient_arrays(d_fwd, d_bwd - h)[0]) / (2 * h)
        fd_bb = (site_gradient_arrays(d_fwd, d_bwd + h)[1]
                 - site_gradient_arrays(d_fwd, d_bwd - h)[1]) / (2 * h)
        assert abs(ff - fd_ff) / abs(fd_ff) < 1e-6
        assert abs(fb - fd_fb) / abs(fd_fb) < 1e-6
        assert abs(bb - fd_bb) / abs(fd_bb) < 1e-6
        fff, ffb, fbb, bbb = site_third_arrays(d_fwd, d_bwd)
        fd_fff = (site_hessian_arrays(d_fwd + h, d_bwd)[0]
                  - site_hessian_arrays(d_fwd - h, d_bwd)[0]) / (2 * h)
        assert abs(fff - fd_fff) / abs(fd_fff) < 1e-6


def test_cauchy_born_normalization():
    assert cauchy_born_energy_density(0.0) == 0.0


def test_cauchy_born_slope_at_zero_strain():
    # the second-neighbor bond carries stress in the reference state, so the
    # density has a nonzero slope at zero strain: phi'(1) + 2 phi'(2)
    h = 1e-7
    fd = (cauchy_born_energy_density(h)
          - cauchy_born_energy_density(-h)) / (2 * h)
    d1 = cauchy_born_d1(0.0)
    assert abs(d1 - fd) / abs(fd) < 1e-6
    assert d1 == phi_d1(1.0) + 2.0 * phi_d1(2.0)  # exact dyadic 0.1845703125
    assert d1 == 0.1845703125


def test_cauchy_born_value_at_001():
    assert abs(cauchy_born_energy_density(0.01) - W_001) < 1e-16


def test_cauchy_born_derivative_chain():
    rng = np.random.default_rng(2)
    g = rng.uniform(-0.1, 0.1, 100)
    h = 1e-6
    for fn, dfn in ((cauchy_born_energy_density, cauchy_born_d1),
                    (cauchy_born_d1, cauchy_born_d2),
                    (cauchy_born_d2, cauchy_born_d3)):
        fd = (fn(g + h) - fn(g - h)) / (2 * h)
        assert np.max(np.abs(dfn(g) - fd) / np.abs(fd)) < 1e-6


def test_cauchy_born_collapsed_strain():
    with pytest.raises(ConfigurationError):
        cauchy_born_energy_density(-0.7)


def test_frozen_constants_against_mpmath_oracle():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 40

    def phi_mp(r):
        return r**-12 - 2 * r**-6

    w = phi_mp(mp.mpf("1.01")) + phi_mp(mp.mpf("2.02")) - phi_mp(1) - phi_mp(2)
    assert abs(float(w) - W_001) < 1e-18
    g = mp.mpf("0.1") * 2 ** mp.mpf("-0.75")
    assert abs(float(g) - UBAR_1) < 1e-18
    v = phi_mp(1 + g) + phi_mp(2 + 2 * g) - phi_mp(1) - phi_mp(2)
    assert abs(float(v) - V_EXACT_SOL_ORIGIN) < 1e-17

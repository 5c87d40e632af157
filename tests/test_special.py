"""Accuracy contracts of the special-function layer."""

import math

import numpy as np
import pytest
from scipy.stats import ncx2

import oracles
from quantdet.special import (
    chi2_2_quantile,
    chi2_2_sf,
    gauss_density,
    marcum_q1,
    qfunc,
)


def test_qfunc_matches_mpmath_to_1e12_relative():
    # includes deep tails on both sides where naive 1 - Phi(x) would die
    grid = [-37.0, -8.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 8.0, 20.0, 37.0]
    for x in grid:
        ref = oracles.qfunc_mp(x)
        got = float(qfunc(x))
        assert got == pytest.approx(ref, rel=1e-12), x


def test_qfunc_edge_values():
    assert float(qfunc(0.0)) == pytest.approx(0.5, abs=1e-15)
    assert float(qfunc(np.inf)) == 0.0
    assert float(qfunc(-np.inf)) == 1.0
    # vectorized call preserves shape
    out = qfunc(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)


def test_gauss_density_zero_at_infinity():
    assert gauss_density(np.inf) == 0.0
    assert gauss_density(-np.inf) == 0.0
    assert float(gauss_density(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
    # scaled density integrates the sigma correctly at a point
    assert float(gauss_density(1.3, sigma=0.7)) == pytest.approx(
        math.exp(-0.5 * (1.3 / 0.7) ** 2) / (0.7 * math.sqrt(2 * math.pi)), rel=1e-14
    )


def test_chi2_quantile_known_values():
    assert chi2_2_quantile(0.1) == pytest.approx(4.60517, abs=5e-6)
    assert chi2_2_quantile(0.01) == pytest.approx(9.21034, abs=5e-6)
    assert chi2_2_quantile(1e-4) == pytest.approx(18.42068, abs=5e-6)


def test_chi2_quantile_round_trip_and_domain():
    for p in (1e-6, 1e-3, 0.3, 0.9):
        assert float(chi2_2_sf(chi2_2_quantile(p))) == pytest.approx(p, rel=1e-14)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            chi2_2_quantile(bad)


def test_marcum_degenerate_arguments():
    assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert marcum_q1(3.0, 0.0) == 1.0
    assert marcum_q1(0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        marcum_q1(-1.0, 1.0)
    with pytest.raises(ValueError):
        marcum_q1(1.0, -1.0)
    # a NaN a would never stop the series, and a NaN b would return NaN
    with pytest.raises(ValueError, match="a=nan, b=1.0"):
        marcum_q1(math.nan, 1.0)
    with pytest.raises(ValueError, match="a=1.0, b=nan"):
        marcum_q1(1.0, math.nan)


def test_marcum_against_quadrature_oracle():
    for lam in (0.1, 1.0, 10.0, 50.0):
        for x in (1.0, 5.0, 20.0):
            ref = oracles.ncx2_2_sf_quadrature(x, lam)
            got = marcum_q1(math.sqrt(lam), math.sqrt(x))
            assert abs(got - ref) <= 1e-8, (lam, x)


def test_marcum_against_scipy_tight():
    # scipy's ncx2 is an entirely separate code path; agreement to 1e-11
    # absolute across a broad grid pins the series truncation bound.
    for lam in (0.01, 0.5, 2.0, 25.0, 120.0):
        for x in (0.1, 2.0, 9.0, 40.0, 200.0):
            ref = float(ncx2.sf(x, 2, lam))
            got = marcum_q1(math.sqrt(lam), math.sqrt(x))
            assert abs(got - ref) <= 1e-11, (lam, x)


def test_marcum_monotone_in_each_argument():
    a_grid = np.linspace(0.0, 6.0, 25)
    vals = [marcum_q1(a, 3.0) for a in a_grid]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    b_grid = np.linspace(0.1, 8.0, 25)
    vals = [marcum_q1(2.0, b) for b in b_grid]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))


def test_marcum_large_noncentrality_supported():
    # lam/2 = 500 keeps the series anchor normal; result is essentially 1
    assert marcum_q1(math.sqrt(1000.0), math.sqrt(9.21)) >= 1.0 - 1e-12
    # past the series' range (lam/2 = 1000) the quadrature answers instead
    assert 1.0 - 1e-12 <= marcum_q1(math.sqrt(2000.0), 1.0) <= 1.0
    # lam = 1e20, where scipy's ncx2 gives NaN: the tail is certain
    assert marcum_q1(1e10, 1.0) == 1.0


@pytest.mark.parametrize("lam, eta", [(1500.0, 1400.0), (3000.0, 2900.0),
                                      (5000.0, 5200.0), (2048.0, 18.4)])
def test_marcum_beyond_series_range_against_mpmath(lam, eta):
    # a^2/2 or b^2/2 above 700, where the series anchor would underflow;
    # background on large-argument Marcum Q: Gil, Segura & Temme, ACM TOMS
    # Alg. 939 (2014)
    a, b = math.sqrt(lam), math.sqrt(eta)
    assert abs(marcum_q1(a, b) - oracles.marcum_q1_mp(a, b)) <= 1e-14


@pytest.mark.parametrize("lam", [1e10, 1e12, 1e16])
def test_marcum_far_noncentrality_against_mpmath(lam):
    # thresholds within three deviations of the mean, where scipy's ncx2
    # errs by 4e-12 at lam = 1e10 and returns 0.43 for 0.5 at 1e12
    a = math.sqrt(lam)
    for offset in range(-3, 4):
        b = a + offset
        assert abs(marcum_q1(a, b) - oracles.marcum_q1_mp(a, b)) <= 1e-12, (lam, offset)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

import oracles
from quantdet.quantizer import (
    DegenerateBinError,
    ThresholdSet,
    bin_indices,
    bin_probability,
    bin_stats_table,
)


@pytest.fixture
def q1():
    return ThresholdSet(bits=1, interior=(0.0,))


@pytest.fixture
def q2_ref(reference_q2):
    return ThresholdSet(bits=2, interior=reference_q2)


@pytest.fixture
def q3_ref(reference_q3):
    return ThresholdSet(bits=3, interior=reference_q3)


# --------------------------------------------------------------- ThresholdSet

def test_threshold_set_validation():
    with pytest.raises(ValueError):
        ThresholdSet(bits=0, interior=())
    with pytest.raises(ValueError):
        ThresholdSet(bits=2, interior=(0.0,))            # wrong count
    with pytest.raises(ValueError):
        ThresholdSet(bits=2, interior=(1.0, 0.5, 2.0))   # not increasing
    with pytest.raises(ValueError):
        ThresholdSet(bits=2, interior=(0.0, 0.0, 1.0))   # tie
    with pytest.raises(ValueError):
        ThresholdSet(bits=1, interior=(np.inf,))


def test_threshold_set_edges(q2_ref, reference_q2):
    e = q2_ref.edges()
    assert e[0] == -np.inf and e[-1] == np.inf
    assert tuple(e[1:-1]) == reference_q2
    assert len(e) == 5


def test_threshold_set_line_round_trip(q3_ref):
    line = q3_ref.to_line()
    back = ThresholdSet.from_line(line)
    assert back.bits == 3
    assert np.array_equal(back.interior, q3_ref.interior)


def test_threshold_set_from_line_errors():
    with pytest.raises(ValueError):
        ThresholdSet.from_line("no separator here")
    with pytest.raises(ValueError):
        ThresholdSet.from_line("2; 0.1")        # count mismatch
    with pytest.raises(ValueError):
        ThresholdSet.from_line("x; 0.1")


# ------------------------------------------------------------------- quantize

def test_bin_boundary_goes_to_lower_cell(q1):
    # cells are right-closed, so a sample landing exactly on a threshold
    # belongs to the cell below it
    assert bin_indices(np.array([0.0]), q1)[0] == 0
    assert bin_indices(np.array([1e-300]), q1)[0] == 1
    assert bin_indices(np.array([-1e-300]), q1)[0] == 0


def test_quantize_examples(q1, q2_ref, q3_ref):
    # a complex sample is quantized as its real and its imaginary part
    x = np.array([0.5 + 0.5j])
    assert bin_indices(x.real, q1)[0] == 1 and bin_indices(x.imag, q1)[0] == 1
    x = np.array([0.5 - 3.0j])
    assert bin_indices(x.real, q2_ref)[0] == 2   # (-0.008, 0.967] holds 0.5
    assert bin_indices(x.imag, q2_ref)[0] == 0
    x = np.array([-2.0 + 0.0j])
    assert bin_indices(x.real, q3_ref)[0] == 0   # below the lowest threshold -1.630
    assert bin_indices(x.imag, q3_ref)[0] == 3   # (-0.460, 0.067] holds 0.0


def test_quantize_monotone(q3_ref):
    rng = np.random.default_rng(11)
    x = np.sort(rng.normal(size=200))
    idx = bin_indices(x, q3_ref)
    assert np.all(np.diff(idx) >= 0)


def test_bin_indices_cover_full_range(q2_ref):
    x = np.array([-100.0, -0.99, 0.0, 0.5, 100.0])
    idx = bin_indices(x, q2_ref)
    assert idx.min() == 0 and idx.max() == 3


def test_quantize_matches_loop_reference(q3_ref):
    rng = np.random.default_rng(4)
    x = rng.normal(scale=1.4, size=500) + 1j * rng.normal(scale=1.4, size=500)
    ref_re = oracles.quantize_ref(x.real, q3_ref.interior)
    ref_im = oracles.quantize_ref(x.imag, q3_ref.interior)
    assert np.array_equal(bin_indices(x.real, q3_ref), ref_re)
    assert np.array_equal(bin_indices(x.imag, q3_ref), ref_im)


@st.composite
def _thresholds_and_values(draw):
    # strictly increasing thresholds with an exact 0.0 in the middle, so
    # -0.0 and +0.0 both sit on a threshold; values mix exact thresholds,
    # signed zeros, infinities, NaN and arbitrary floats
    bits = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.cumsum(rng.exponential(size=2**bits - 1) + 1e-3)
    ts = ThresholdSet(bits=bits, interior=t - t[t.size // 2])
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, *ts.interior]
    elements = st.one_of(st.sampled_from(specials), st.floats(width=64))
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=5))
    return ts, draw(hnp.arrays(np.float64, shape, elements=elements))


@settings(max_examples=300, deadline=None)
@given(_thresholds_and_values())
def test_bin_indices_match_searchsorted(case):
    # counting thresholds at or above x gives searchsorted(side="left"):
    # right-closed ties, -inf in bin 0, +inf and NaN in the top bin
    ts, x = case
    got = bin_indices(x, ts)
    assert np.array_equal(got, np.searchsorted(ts.interior, x, side="left"))
    assert got.shape == x.shape
    assert got.dtype == np.min_scalar_type(2**ts.bits - 1)


# ----------------------------------------------------------- cell probability

def test_bin_probability_symmetric_half(q1):
    assert bin_probability(0.0, 0, q1, noise_power=2.0) == pytest.approx(0.5, abs=1e-15)
    assert bin_probability(0.0, 1, q1, noise_power=2.0) == pytest.approx(0.5, abs=1e-15)
    for outside in (-1, 2):  # bins are 0-based: 0..2^q - 1
        with pytest.raises(ValueError):
            bin_probability(0.0, outside, q1, noise_power=2.0)


def test_bin_probability_against_mpmath(q2_ref, reference_q2):
    # middle cell mass at mean zero is Phi(b) - Phi(a) with unit sigma
    got = bin_probability(0.0, 1, q2_ref, noise_power=2.0)
    ref = oracles.normal_cdf_mp(reference_q2[1]) - oracles.normal_cdf_mp(reference_q2[0])
    assert got == pytest.approx(ref, rel=1e-13)


def test_bin_probability_sums_to_one(q3_ref):
    for u in (-2.3, -0.4, 0.0, 1.7, 5.0):
        total = sum(bin_probability(u, i, q3_ref, 2.0) for i in range(8))
        assert total == pytest.approx(1.0, abs=1e-14)


def test_bin_probability_mc_frequency(q2_ref):
    rng = np.random.default_rng(21)
    u = 0.37
    x = rng.normal(loc=u, scale=1.0, size=100_000)
    idx = bin_indices(x, q2_ref)
    for i in range(4):
        p = bin_probability(u, i, q2_ref, noise_power=2.0)
        freq = np.mean(idx == i)
        se = np.sqrt(p * (1 - p) / x.size)
        assert abs(freq - p) <= 3 * se, i


# ------------------------------------------------------------ cell derivatives

def _derivatives_at(u, thresholds, noise_power):
    """(F', F'') of every bin at mean u: F at mean u with thresholds tau
    equals F at mean 0 with thresholds tau - u."""
    shifted = ThresholdSet(bits=thresholds.bits, interior=thresholds.interior - u)
    table = bin_stats_table(shifted, noise_power)
    return table.f1, table.f2


def test_bin_derivatives_one_bit_values(q1):
    # density difference across a single threshold at the mean:
    # +/- phi(0) = 1/sqrt(2*pi); curvature term cancels exactly
    (f1_lo, f1_hi), (f2_lo, f2_hi) = _derivatives_at(0.0, q1, 2.0)
    phi0 = 1.0 / np.sqrt(2 * np.pi)
    assert f1_lo == pytest.approx(-phi0, rel=1e-14)
    assert f1_hi == pytest.approx(phi0, rel=1e-14)
    assert f2_lo == pytest.approx(0.0, abs=1e-15)
    assert f2_hi == pytest.approx(0.0, abs=1e-15)


def test_bin_derivatives_match_finite_differences(q3_ref):
    eps = 1e-5
    for u in (-1.2, -0.3, 0.0, 0.8, 2.1):
        d1s, d2s = _derivatives_at(u, q3_ref, 2.0)
        for i in range(8):
            f_plus = bin_probability(u + eps, i, q3_ref, 2.0)
            f_minus = bin_probability(u - eps, i, q3_ref, 2.0)
            f_mid = bin_probability(u, i, q3_ref, 2.0)
            d1_num = (f_plus - f_minus) / (2 * eps)
            d2_num = (f_plus - 2 * f_mid + f_minus) / eps**2
            assert d1s[i] == pytest.approx(d1_num, abs=5e-9)
            assert d2s[i] == pytest.approx(d2_num, abs=5e-5)


def test_bin_derivatives_telescope_to_zero(q3_ref):
    d1s, d2s = _derivatives_at(0.3, q3_ref, 2.0)
    assert abs(sum(d1s)) <= 1e-14
    assert abs(sum(d2s)) <= 1e-14


# ----------------------------------------------------------------- stats table

def test_stats_table_one_bit(q1):
    t = bin_stats_table(q1, noise_power=2.0)
    phi0 = 1.0 / np.sqrt(2 * np.pi)
    assert np.allclose(t.f, [0.5, 0.5], atol=1e-15)
    assert np.allclose(t.f1, [-phi0, phi0], rtol=1e-14)
    assert np.allclose(t.f2, [0.0, 0.0], atol=1e-16)
    # per-unit-energy information of the sign quantizer is 2/pi
    assert t.info_per_energy == pytest.approx(2.0 / np.pi, rel=1e-14)


def test_stats_table_partition_identities(q3_ref):
    t = bin_stats_table(q3_ref, noise_power=2.0)
    assert t.f.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(t.f1.sum()) <= 1e-14
    assert abs(t.f2.sum()) <= 1e-14
    assert np.all(t.f > 0)
    # every cell contributes non-negative information
    assert np.all(t.f1**2 - t.f2 * t.f >= 0)


def test_stats_table_matches_scalar_api(q2_ref):
    # masses against the scalar bin_probability, derivatives against the
    # closed forms phi(e_i) - phi(e_i+1) and e_i phi(e_i) - e_i+1 phi(e_i+1)
    # (unit sigma at noise_power 2) with scipy's normal density
    t = bin_stats_table(q2_ref, noise_power=2.0)
    e = q2_ref.edges()
    dens = stats.norm.pdf(e)
    tdens = np.where(np.isfinite(e), e, 0.0) * dens
    for i in range(4):
        assert t.f[i] == pytest.approx(bin_probability(0.0, i, q2_ref, 2.0), rel=1e-14)
        assert t.f1[i] == pytest.approx(dens[i] - dens[i + 1], rel=1e-14)
        assert t.f2[i] == pytest.approx(tdens[i] - tdens[i + 1], rel=1e-13, abs=1e-16)


def test_stats_table_score_ratio(q2_ref):
    t = bin_stats_table(q2_ref, noise_power=2.0)
    assert np.allclose(t.score_ratio, t.f1 / t.f, rtol=1e-15)


def test_stats_table_degenerate_cell_raises():
    # a cell stranded 40 sigma out has zero mass at double precision
    far = ThresholdSet(bits=2, interior=(40.0, 41.0, 42.0))
    with pytest.raises(DegenerateBinError):
        bin_stats_table(far, noise_power=2.0)


def test_stats_table_arrays_read_only(q2_ref):
    t = bin_stats_table(q2_ref, noise_power=2.0)
    with pytest.raises(ValueError):
        t.f[0] = 0.9


def test_stats_table_noise_power_scaling(q1):
    # widening the noise rescales the threshold in sigma units; the sign
    # quantizer at tau=0 is scale-free so info_per_energy only changes
    # through the 1/sigma^2 factor
    t2 = bin_stats_table(q1, noise_power=2.0)
    t8 = bin_stats_table(q1, noise_power=8.0)
    assert t8.info_per_energy == pytest.approx(t2.info_per_energy / 4.0, rel=1e-13)

"""Information matrix, the detectors' noncentrality, and the asymptotic ROC formulas."""

import dataclasses

import numpy as np
import pytest

import oracles
from quantdet.detectors import GlrtDetector, RaoDetector
from quantdet.perf_theory import asymptotic_pd, fisher_information
from quantdet.quantizer import ThresholdSet, bin_stats_table
from quantdet.signal_model import SceneConfig
from quantdet.special import chi2_2_quantile, marcum_q1


@pytest.fixture
def q1():
    return ThresholdSet(bits=1, interior=(0.0,))


@pytest.fixture
def q2_ref(reference_q2):
    return ThresholdSet(bits=2, interior=reference_q2)


def test_fisher_info_unit_energy_sign_quantizer(q1):
    sig = SceneConfig(n_tx=1, n_rx=1, snapshots=1).signal
    info = fisher_information(sig, q1, noise_power=2.0)
    assert type(info) is float
    assert info == pytest.approx(2.0 / np.pi, rel=1e-12)
    # exactly E * J1, the diagonal entry of the (c * I) information matrix
    assert info == sig.energy * bin_stats_table(q1, 2.0).info_per_energy


def test_fisher_info_scales_with_energy(q2_ref):
    small = SceneConfig(n_tx=1, n_rx=4, snapshots=8).signal
    big = SceneConfig(n_tx=1, n_rx=8, snapshots=8).signal
    i_small = fisher_information(small, q2_ref, 2.0)
    i_big = fisher_information(big, q2_ref, 2.0)
    assert i_big == pytest.approx(2.0 * i_small, rel=1e-12)


def test_noncentrality_values(scene, signal, q2_ref, frozen):
    rao = RaoDetector(q2_ref)
    lam = rao.noncentrality(scene)
    assert type(lam) is float
    # reference design sits a hair below the frozen optimal-design value
    assert lam == pytest.approx(
        abs(scene.beta) ** 2 * signal.energy * frozen["ref_info_q2"], rel=1e-10
    )
    assert rao.noncentrality(dataclasses.replace(scene, beta=0j)) == 0.0
    # quadratic in the amplitude
    lam3 = rao.noncentrality(dataclasses.replace(scene, beta=3.0 * scene.beta))
    assert lam3 == pytest.approx(9.0 * lam, rel=1e-12)


def test_noncentrality_optimal_design_frozen_value(scene, signal, frozen):
    t_opt = ThresholdSet(bits=2, interior=frozen["opt_tau_q2"])
    lam = RaoDetector(t_opt).noncentrality(scene)
    assert lam == pytest.approx(frozen["lambda_q2_m14db"], rel=1e-10)


def test_unquantized_bound_dominates_every_quantizer(scene, signal):
    rng = np.random.default_rng(3)
    beta = 0.2 + 0.1j
    target = dataclasses.replace(scene, beta=beta)  # noise_power 2
    lam_inf = GlrtDetector().noncentrality(target)
    assert type(lam_inf) is float
    assert lam_inf == pytest.approx(abs(beta) ** 2 * signal.energy, rel=1e-12)
    for bits in (1, 2, 3):
        for _ in range(5):
            interior = np.sort(rng.uniform(-2.5, 2.5, size=2**bits - 1))
            interior += np.arange(interior.size) * 1e-6  # enforce strict increase
            t = ThresholdSet(bits=bits, interior=interior)
            lam = RaoDetector(t).noncentrality(target)
            assert 0.0 < lam < lam_inf


def test_one_bit_ratio_is_two_over_pi(q1):
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        cfg = SceneConfig(
            n_tx=int(rng.integers(1, 4)),
            n_rx=int(rng.integers(2, 20)),
            snapshots=int(rng.integers(2, 16)),
            angle=float(rng.uniform(-1.0, 1.0)),
            noise_power=float(rng.uniform(0.5, 4.0)),
            beta=complex(float(rng.normal()) or 0.1, float(rng.normal())),
        )
        lam_q = RaoDetector(q1).noncentrality(cfg)
        lam_inf = GlrtDetector().noncentrality(cfg)
        assert lam_q / lam_inf == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_refinement_cannot_lose_information(scene, signal, reference_q2):
    # a 3-bit quantizer whose thresholds include the 2-bit set can only
    # split bins, never merge them, so its information must not drop
    coarse = ThresholdSet(bits=2, interior=reference_q2)
    extra = (-1.7, -0.5, 0.45, 1.8)
    fine_interior = tuple(sorted(reference_q2 + extra))
    fine = ThresholdSet(bits=3, interior=fine_interior)
    target = dataclasses.replace(scene, beta=0.2 + 0j)
    lam_c = RaoDetector(coarse).noncentrality(target)
    lam_f = RaoDetector(fine).noncentrality(target)
    assert lam_f > lam_c


def test_chi2_quantile_examples():
    assert chi2_2_quantile(0.1) == pytest.approx(4.60517, abs=5e-6)
    assert chi2_2_quantile(0.01) == pytest.approx(9.21034, abs=5e-6)
    assert chi2_2_quantile(1e-4) == pytest.approx(18.42068, abs=5e-6)
    assert np.exp(-chi2_2_quantile(0.037) / 2.0) == pytest.approx(0.037, rel=1e-13)


def test_asymptotic_pd_limits_and_monotonicity():
    # no signal: detection rate collapses to the false-alarm rate
    for pfa in (1e-4, 1e-2, 0.3):
        assert asymptotic_pd(0.0, chi2_2_quantile(pfa)) == pytest.approx(pfa, rel=1e-10)
    # overwhelming signal
    assert asymptotic_pd(1000.0, chi2_2_quantile(1e-2)) >= 1.0 - 1e-9
    # monotone in noncentrality at fixed budget ...
    lams = np.linspace(0.0, 30.0, 40)
    pds = [asymptotic_pd(l, chi2_2_quantile(1e-2)) for l in lams]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    # ... and in the budget at fixed noncentrality
    pfas = np.logspace(-4, -0.5, 20)
    pds = [asymptotic_pd(5.0, chi2_2_quantile(p)) for p in pfas]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    with pytest.raises(ValueError):
        asymptotic_pd(-1.0, chi2_2_quantile(0.01))


def test_asymptotic_pd_is_noncentral_tail(frozen):
    lam = frozen["lambda_q2_m14db"]
    eta = frozen["eta_1e2"]
    want = marcum_q1(np.sqrt(lam), np.sqrt(eta))
    assert asymptotic_pd(lam, chi2_2_quantile(0.01)) == pytest.approx(want, rel=1e-13)
    # and both agree with direct quadrature
    ref = oracles.ncx2_2_sf_quadrature(eta, lam)
    assert abs(asymptotic_pd(lam, chi2_2_quantile(0.01)) - ref) <= 1e-8


def test_asymptotic_pd_grid_is_its_scalars():
    # a grid is evaluated point by point: each entry equals the scalar call
    # bit for bit, and a scalar eta gives a float
    eta = np.array([0.0, 2.5, 9.21, 40.0])
    assert asymptotic_pd(4.5, eta).tolist() == [asymptotic_pd(4.5, e) for e in eta]
    assert type(asymptotic_pd(4.5, 2.5)) is float
    assert asymptotic_pd(4.5, []).shape == (0,)

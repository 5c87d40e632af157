"""Information matrix, the detectors' noncentrality, and the asymptotic ROC formulas."""

import dataclasses

import numpy as np
import pytest

import oracles
from quantdet.detectors import GlrtDetector, RaoDetector
from quantdet.perf_theory import fisher_information, theoretical_pd
from quantdet.quantizer import ThresholdSet, bin_stats_table
from quantdet.signal_model import SceneConfig, effective_signal
from quantdet.special import chi2_2_quantile, marcum_q1


def _with_beta(scene, beta):
    return dataclasses.replace(scene, beta=(beta.real, beta.imag))


@pytest.fixture
def q1():
    return ThresholdSet(bits=1, interior=(0.0,))


@pytest.fixture
def q2_ref(reference_q2):
    return ThresholdSet(bits=2, interior=reference_q2)


def test_fisher_info_unit_energy_sign_quantizer(q1):
    sig = effective_signal(SceneConfig(n_tx=1, n_rx=1, snapshots=1))
    info = fisher_information(sig, q1, noise_power=2.0)
    assert type(info) is float
    assert info == pytest.approx(2.0 / np.pi, rel=1e-12)
    # exactly E * J1, the diagonal entry of the (c * I) information matrix
    assert info == sig.energy * bin_stats_table(q1, 2.0).info_per_energy


def test_fisher_info_scales_with_energy(q2_ref):
    small = effective_signal(SceneConfig(n_tx=1, n_rx=4, snapshots=8))
    big = effective_signal(SceneConfig(n_tx=1, n_rx=8, snapshots=8))
    i_small = fisher_information(small, q2_ref, 2.0)
    i_big = fisher_information(big, q2_ref, 2.0)
    assert i_big == pytest.approx(2.0 * i_small, rel=1e-12)


def test_noncentrality_values(scene, signal, q2_ref, frozen):
    rao = RaoDetector(q2_ref)
    lam = rao.noncentrality(scene, signal)
    assert type(lam) is float
    # reference design sits a hair below the frozen optimal-design value
    assert lam == pytest.approx(
        abs(scene.beta_complex) ** 2 * signal.energy * frozen["ref_info_q2"], rel=1e-10
    )
    assert rao.noncentrality(_with_beta(scene, 0j), signal) == 0.0
    # quadratic in the amplitude
    lam3 = rao.noncentrality(_with_beta(scene, 3.0 * scene.beta_complex), signal)
    assert lam3 == pytest.approx(9.0 * lam, rel=1e-12)


def test_noncentrality_optimal_design_frozen_value(scene, signal, frozen):
    t_opt = ThresholdSet(bits=2, interior=frozen["opt_tau_q2"])
    lam = RaoDetector(t_opt).noncentrality(scene, signal)
    assert lam == pytest.approx(frozen["lambda_q2_m14db"], rel=1e-10)


def test_unquantized_bound_dominates_every_quantizer(scene, signal):
    rng = np.random.default_rng(3)
    beta = 0.2 + 0.1j
    target = _with_beta(scene, beta)  # noise_power 2
    lam_inf = GlrtDetector().noncentrality(target, signal)
    assert type(lam_inf) is float
    assert lam_inf == pytest.approx(abs(beta) ** 2 * signal.energy, rel=1e-12)
    for bits in (1, 2, 3):
        for _ in range(5):
            interior = np.sort(rng.uniform(-2.5, 2.5, size=2**bits - 1))
            interior += np.arange(interior.size) * 1e-6  # enforce strict increase
            t = ThresholdSet(bits=bits, interior=interior)
            lam = RaoDetector(t).noncentrality(target, signal)
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
            beta=(float(rng.normal()) or 0.1, float(rng.normal())),
        )
        sig = effective_signal(cfg)
        lam_q = RaoDetector(q1).noncentrality(cfg, sig)
        lam_inf = GlrtDetector().noncentrality(cfg, sig)
        assert lam_q / lam_inf == pytest.approx(2.0 / np.pi, abs=1e-12)


def test_refinement_cannot_lose_information(scene, signal, reference_q2):
    # a 3-bit quantizer whose thresholds include the 2-bit set can only
    # split bins, never merge them, so its information must not drop
    coarse = ThresholdSet(bits=2, interior=reference_q2)
    extra = (-1.7, -0.5, 0.45, 1.8)
    fine_interior = tuple(sorted(reference_q2 + extra))
    fine = ThresholdSet(bits=3, interior=fine_interior)
    target = _with_beta(scene, 0.2 + 0j)
    lam_c = RaoDetector(coarse).noncentrality(target, signal)
    lam_f = RaoDetector(fine).noncentrality(target, signal)
    assert lam_f > lam_c


def test_chi2_quantile_examples():
    assert chi2_2_quantile(0.1) == pytest.approx(4.60517, abs=5e-6)
    assert chi2_2_quantile(0.01) == pytest.approx(9.21034, abs=5e-6)
    assert chi2_2_quantile(1e-4) == pytest.approx(18.42068, abs=5e-6)
    assert np.exp(-chi2_2_quantile(0.037) / 2.0) == pytest.approx(0.037, rel=1e-13)


def test_theoretical_pd_limits_and_monotonicity():
    # no signal: detection rate collapses to the false-alarm rate
    for pfa in (1e-4, 1e-2, 0.3):
        assert theoretical_pd(0.0, pfa) == pytest.approx(pfa, rel=1e-10)
    # overwhelming signal
    assert theoretical_pd(1000.0, 1e-2) >= 1.0 - 1e-9
    # monotone in noncentrality at fixed budget ...
    lams = np.linspace(0.0, 30.0, 40)
    pds = [theoretical_pd(l, 1e-2) for l in lams]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    # ... and in the budget at fixed noncentrality
    pfas = np.logspace(-4, -0.5, 20)
    pds = [theoretical_pd(5.0, p) for p in pfas]
    assert all(b > a for a, b in zip(pds, pds[1:]))
    with pytest.raises(ValueError):
        theoretical_pd(-1.0, 0.01)


def test_theoretical_pd_is_noncentral_tail(frozen):
    lam = frozen["lambda_q2_m14db"]
    eta = frozen["eta_1e2"]
    want = marcum_q1(np.sqrt(lam), np.sqrt(eta))
    assert theoretical_pd(lam, 0.01) == pytest.approx(want, rel=1e-13)
    # and both agree with direct quadrature
    ref = oracles.ncx2_2_sf_quadrature(eta, lam)
    assert abs(theoretical_pd(lam, 0.01) - ref) <= 1e-8

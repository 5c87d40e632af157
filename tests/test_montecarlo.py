"""Monte Carlo engine: reproducibility, calibration, ROC estimation."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from quantdet.detectors import GlrtDetector, RaoDetector
from quantdet.montecarlo import (
    TrialConfig,
    _chunk_stats,
    empirical_threshold,
    estimate_roc,
    exceedance,
    pd_vs_snr,
    run_trials,
    subseed,
)
from quantdet.quantizer import ThresholdSet
from quantdet.signal_model import Hypothesis, SceneConfig, observation_planes
from quantdet.special import chi2_2_quantile, chi2_2_sf


@pytest.fixture(scope="module")
def small_scene():
    return SceneConfig(n_tx=2, n_rx=4, snapshots=4, noise_power=2.0).with_snr_db(-6.0)


@pytest.fixture(scope="module")
def rao2(reference_q2):
    return RaoDetector(thresholds=ThresholdSet(bits=2, interior=reference_q2))


def _cfg(scene, det, n0, n1, seed, **kw):
    return TrialConfig(
        scene=scene, detector=det, n_trials_h0=n0, n_trials_h1=n1, seed=seed, **kw
    )


# ------------------------------------------------------------- reproducibility

def test_same_seed_bit_identical(small_scene, rao2):
    a0, a1 = run_trials(_cfg(small_scene, rao2, 300, 300, seed=5))
    b0, b1 = run_trials(_cfg(small_scene, rao2, 300, 300, seed=5))
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    c0, _ = run_trials(_cfg(small_scene, rao2, 300, 300, seed=6))
    assert not np.array_equal(a0, c0)


def test_batch_size_invariance(small_scene, rao2):
    for det in (rao2, GlrtDetector()):
        a0, a1 = run_trials(_cfg(small_scene, det, 500, 500, seed=9, batch_size=512))
        for batch_size in (333, 1):
            b0, b1 = run_trials(_cfg(small_scene, det, 500, 500, seed=9, batch_size=batch_size))
            assert np.array_equal(a0, b0) and np.array_equal(a1, b1), (det.label, batch_size)


# SHA-256 of the statistics' bytes, recorded from the per-trial engine (one
# generator and one synthesize_observation call per trial) before the noise
# moved to re-keyed blocks: any change to a statistic's last bit shows here.
PINNED_STATS_SHA256 = {
    "rao": (
        "79d6604240619b67aafe87a74dc9313f8df3672088ff149f3311b2484ba49166",
        "92e69eb8776346b2e5cd8da673a375e70433418621c76f21498e3a3966c6c154",
    ),
    "glrt": (
        "5c6089f37976f08e22e4acdae3a176c169abb215032ce78b15e834ff7fcbb531",
        "cebeea537569c09a874090762cb677c6b562db6cc8c739607f1b787eaddb0a1a",
    ),
}


def test_statistics_match_pinned_bytes(small_scene, rao2):
    for det in (rao2, GlrtDetector()):
        h0, h1 = run_trials(_cfg(small_scene, det, 400, 400, seed=20261018))
        got = tuple(hashlib.sha256(s.tobytes()).hexdigest() for s in (h0, h1))
        assert got == PINNED_STATS_SHA256[det.label], det.label


def test_worker_count_invariance(small_scene, rao2):
    serial = run_trials(_cfg(small_scene, rao2, 400, 0, seed=4, batch_size=100))
    parallel = run_trials(
        _cfg(small_scene, rao2, 400, 0, seed=4, batch_size=100, workers=3)
    )
    assert np.array_equal(serial[0], parallel[0])


def test_null_trials_independent_of_beta(small_scene, rao2):
    # H0 never touches beta, so rescaling the target must not move it
    loud = small_scene.with_snr_db(0.0)
    a0, _ = run_trials(_cfg(small_scene, rao2, 200, 0, seed=2))
    b0, _ = run_trials(_cfg(loud, rao2, 200, 0, seed=2))
    assert np.array_equal(a0, b0)


def test_hypotheses_use_disjoint_streams(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 200, 200, seed=3))
    assert h0.shape == h1.shape == (200,)
    assert not np.array_equal(h0, h1)


def test_trial_config_validation(small_scene, rao2):
    with pytest.raises(ValueError):
        _cfg(small_scene, rao2, -1, 0, seed=1)
    with pytest.raises(ValueError):
        _cfg(small_scene, rao2, 10, 10, seed=1, workers=0)
    with pytest.raises(ValueError):
        _cfg(small_scene, rao2, 10, 10, seed=1, batch_size=0)
    with pytest.raises(ValueError):
        _cfg(small_scene, "not a detector", 10, 10, seed=1)


def test_zero_trial_runs_allowed(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 0, 0, seed=1))
    assert h0.size == 0 and h1.size == 0


@pytest.fixture(scope="module")
def large_scene():
    # n = 2048: one tile is 2^16 // 2048 = 32 trials
    return SceneConfig(n_tx=4, n_rx=64, snapshots=32, noise_power=2.0).with_snr_db(-22.0)


@pytest.fixture(scope="module")
def rao3(reference_q3):
    return RaoDetector(ThresholdSet(bits=3, interior=reference_q3))


def test_tile_boundary_invariance(large_scene, rao3):
    # 97 = 3 * 32 + 1 trials: one chunk of four tiles, the last holding one
    # row (batch_size 200), chunks of 32 + 1 rows (33) and one-row chunks
    # (1) must all give the untiled block's statistics byte for byte
    signal = _signal_of(large_scene)
    for det in (rao3, GlrtDetector()):
        want = []
        for h in (Hypothesis.H0, Hypothesis.H1):
            planes = observation_planes(large_scene, signal, h, 12, 0, 97)
            want.append(det.statistic(det.observe(planes), signal, large_scene.noise_power))
        for batch_size in (200, 1, 33):
            got = run_trials(_cfg(large_scene, det, 97, 97, seed=12, batch_size=batch_size))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (det.label, batch_size)


@pytest.mark.parametrize("det", ["rao", "glrt"])
@pytest.mark.parametrize("trials", [1000, 6000])
def test_chunk_peak_is_one_tile(large_scene, rao3, det, trials):
    # the chunk's planes take 31.25 or 187.5 MiB, one tile's 1 MiB: the
    # traced peak stays a few tiles whatever the chunk size
    detector = rao3 if det == "rao" else GlrtDetector()
    cfg = _cfg(large_scene, detector, trials, 0, seed=8, batch_size=trials)
    tracemalloc.start()
    try:
        _chunk_stats(cfg, Hypothesis.H0, 0, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# ------------------------------------------------------------------ detectors

def test_detector_labels(rao2):
    assert rao2.label == "rao" and rao2.q_label == "2"
    g = GlrtDetector()
    assert g.label == "glrt" and g.q_label == "inf"


def test_glrt_h1_mean_matches_noncentral_moment(small_scene):
    # E[chi'^2_2(lambda)] = 2 + lambda holds exactly for the matched
    # filter at every sample size, so the sample mean pins the engine's
    # SNR bookkeeping end to end
    n = 20000
    _, h1 = run_trials(_cfg(small_scene, GlrtDetector(), 0, n, seed=77))
    lam = GlrtDetector().noncentrality(small_scene, _signal_of(small_scene))
    se = np.sqrt(np.var(h1) / n)
    assert h1.mean() == pytest.approx(2.0 + lam, abs=4 * se)


def _signal_of(scene):
    from quantdet.signal_model import effective_signal

    return effective_signal(scene)


# ------------------------------------------------------- thresholds/exceedance

def test_empirical_threshold_realizes_rate():
    rng = np.random.default_rng(0)
    x = rng.exponential(size=5000)
    for pfa in (0.01, 0.1, 0.37):
        eta = empirical_threshold(x, pfa)
        realized = float(np.mean(x > eta))
        assert abs(realized - pfa) <= 1.0 / x.size + 1e-12


def test_empirical_threshold_validation():
    with pytest.raises(ValueError):
        empirical_threshold(np.arange(5.0), 0.0)
    with pytest.raises(ValueError):
        empirical_threshold(np.arange(5.0), 1.0)
    with pytest.raises(ValueError):
        empirical_threshold(np.empty(0), 0.1)


def test_exceedance_counts_strictly_above():
    x = np.array([1.0, 2.0, 3.0])
    assert exceedance(x, 2.0) == pytest.approx(1.0 / 3.0)  # tie excluded
    assert exceedance(x, -1.0) == 1.0
    assert exceedance(x, np.inf) == 0.0
    grid = exceedance(x, np.array([0.5, 1.5, 2.5, 3.5]))
    assert np.allclose(grid, [1.0, 2 / 3, 1 / 3, 0.0])


# ------------------------------------------------------------------------- ROC

def test_estimate_roc_requires_exactly_one_grid(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 200, 200, seed=11))
    with pytest.raises(ValueError):
        estimate_roc(h0, h1, 1.0)
    with pytest.raises(ValueError):
        estimate_roc(h0, h1, 1.0, eta_grid=[1.0], pfa_grid=[0.1])
    with pytest.raises(ValueError):
        estimate_roc(np.empty(0), h1, 1.0, eta_grid=[1.0])


def test_estimate_roc_monotone_and_theory_columns(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 4000, 4000, seed=13))
    lam = 3.0
    eta = np.linspace(0.0, 12.0, 7)
    roc = estimate_roc(h0, h1, lam, eta_grid=eta)
    assert np.all(np.diff(roc.p_fa_hat) <= 0)
    assert np.all(np.diff(roc.p_d_hat) <= 0)
    assert np.all(roc.p_d_hat >= roc.p_fa_hat)  # there is signal
    assert np.allclose(roc.p_fa_theory, chi2_2_sf(eta), rtol=1e-13)
    from quantdet.special import marcum_q1

    want = [marcum_q1(np.sqrt(lam), np.sqrt(e)) for e in eta]
    assert np.allclose(roc.p_d_theory, want, rtol=1e-13)
    assert roc.n_h0 == roc.n_h1 == 4000


def test_estimate_roc_pfa_grid_hits_rates(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 5000, 1000, seed=17))
    pfa = np.array([0.01, 0.05, 0.2])
    roc = estimate_roc(h0, h1, 2.0, pfa_grid=pfa)
    assert np.all(np.abs(roc.p_fa_hat - pfa) <= 1.0 / h0.size + 1e-12)


def test_roc_with_zero_noncentrality_degenerates_to_diagonal(small_scene, rao2):
    silent = SceneConfig(
        n_tx=small_scene.n_tx,
        n_rx=small_scene.n_rx,
        snapshots=small_scene.snapshots,
        noise_power=small_scene.noise_power,
        beta=(0.0, 0.0),
    )
    h0, h1 = run_trials(_cfg(silent, rao2, 4000, 4000, seed=23))
    roc = estimate_roc(h0, h1, 0.0, eta_grid=np.linspace(1.0, 9.0, 5))
    # both samples come from the same null law (different streams), so
    # the empirical rates agree to binomial noise, and theory is exact
    assert np.allclose(roc.p_d_theory, roc.p_fa_theory, atol=1e-12)
    assert np.all(np.abs(roc.p_d_hat - roc.p_fa_hat) <= 0.03)


def test_roc_arrays_read_only(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 100, 100, seed=29))
    roc = estimate_roc(h0, h1, 1.0, eta_grid=[1.0, 2.0])
    with pytest.raises(ValueError):
        roc.p_d_hat[0] = 0.5


# ----------------------------------------------------------------------- sweep

def test_subseed_deterministic_and_path_sensitive():
    assert subseed(1, 2, 3) == subseed(1, 2, 3)
    assert subseed(1, 2, 3) != subseed(1, 3, 2)
    assert subseed(1, 2) != subseed(2, 2)


def test_pd_vs_snr_rows_and_monotonicity(small_scene, rao2):
    grid = [-10.0, -4.0, 2.0]
    pts = pd_vs_snr(small_scene, [rao2, GlrtDetector()], grid, 0.1, 2000, seed=31)
    assert len(pts) == 6
    assert [p.q for p in pts] == ["2", "2", "2", "inf", "inf", "inf"]
    assert all(p.eta_asymptotic == pytest.approx(chi2_2_quantile(0.1)) for p in pts)
    for i in (0, 3):  # each detector's rates climb with SNR (3 sigma slack)
        rates = [pts[i + k].p_d_at_empirical_eta for k in range(3)]
        slack = 3.0 * np.sqrt(0.25 / 2000)
        assert rates[0] <= rates[1] + slack and rates[1] <= rates[2] + slack
    assert all(p.trials == 2000 for p in pts)
    assert all(0.0 <= p.p_d_at_asymptotic_eta <= 1.0 for p in pts)


def test_pd_vs_snr_points_stable_under_grid_extension(small_scene, rao2):
    a = pd_vs_snr(small_scene, [rao2], [-8.0], 0.1, 1500, seed=37)
    b = pd_vs_snr(small_scene, [rao2], [-8.0, -2.0], 0.1, 1500, seed=37)
    assert a[0] == b[0]  # adding a point never disturbs existing ones


def test_pd_vs_snr_warns_on_thin_tail(small_scene, rao2):
    with pytest.warns(UserWarning):
        pd_vs_snr(small_scene, [rao2], [-6.0], 0.01, 500, seed=41)


def test_pd_vs_snr_validates_budget(small_scene, rao2):
    with pytest.raises(ValueError):
        pd_vs_snr(small_scene, [rao2], [-6.0], 0.0, 100, seed=1)

"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Every test prints a single ``[criterion N] PASS/FAIL`` line (run with
``-s`` or ``-rA`` to see them for passing tests; failing tests always
show theirs) and then asserts.  The heavy Monte Carlo samples are shared
module-scoped fixtures so related criteria reuse the same runs.
"""

import time

import numpy as np
import pytest

import oracles
from conftest import FROZEN, REFERENCE_Q1, REFERENCE_Q2, REFERENCE_Q3
from quantdet import cli
from quantdet.detectors import GlrtDetector, RaoDetector, _score_sums, rao_statistic_batch
from quantdet.montecarlo import (
    TrialConfig,
    empirical_threshold,
    exceedance,
    run_trials,
    subseed,
)
from quantdet.optimizer import read_checkpoint
from quantdet.perf_theory import asymptotic_pd
from quantdet.quantizer import ThresholdSet, bin_indices, bin_stats_table
from quantdet.signal_model import Hypothesis, SceneConfig, observation_planes
from quantdet.special import chi2_2_quantile, marcum_q1

SEED = 20260819

REFERENCE = {1: REFERENCE_Q1, 2: REFERENCE_Q2, 3: REFERENCE_Q3}
# Optimum tau* of E * J1 at noise_power = 2, from the frozen independent
# values.  Recovery is measured against tau*, since the published q=3 set
# is not stationary (see test_criterion_1_expected_values_are_stationary).
_Q3_RIGHT = FROZEN["opt_tau_q3_right"]
OPTIMUM = {
    1: (0.0,),
    2: FROZEN["opt_tau_q2"],
    3: tuple(-t for t in reversed(_Q3_RIGHT)) + (0.0,) + _Q3_RIGHT,
}
TAU_TOL = {1: 0.05, 2: 0.05, 3: 0.08}


def _report(criterion: str, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


# --------------------------------------------------------------------- shared

@pytest.fixture(scope="module")
def cli_designs(tmp_path_factory):
    """Designs for q = 1, 2, 3 produced through the CLI, with wall times."""
    root = tmp_path_factory.mktemp("designs")
    out = {}
    for q in (1, 2, 3):
        path = root / f"q{q}.txt"
        t0 = time.perf_counter()
        code = cli.main(
            ["thresholds", "--q", str(q), "--seed", str(SEED), "--out", str(path)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0, f"thresholds command failed for q={q}"
        ts, meta = read_checkpoint(path)
        out[q] = {
            "path": path,
            "thresholds": ts,
            "elapsed": elapsed,
            "objective": float(meta["achieved_objective"]),
        }
    return out


@pytest.fixture(scope="module")
def mc14(scene, cli_designs):
    """10^5-trial H0/H1 statistic samples at -14 dB for q = 1, 2, 3, inf."""
    detectors = {q: RaoDetector(cli_designs[q]["thresholds"]) for q in (1, 2, 3)}
    detectors["inf"] = GlrtDetector()
    runs = {}
    for d_idx, (key, det) in enumerate(detectors.items()):
        seed = subseed(SEED, 7, d_idx)
        common = dict(scene=scene, detector=det, seed=seed)
        t0 = time.perf_counter()
        h0, _ = run_trials(TrialConfig(n_trials_h0=100_000, n_trials_h1=0, **common))
        elapsed_h0 = time.perf_counter() - t0
        _, h1 = run_trials(TrialConfig(n_trials_h0=0, n_trials_h1=100_000, **common))
        runs[key] = {"detector": det, "h0": h0, "h1": h1, "elapsed_h0": elapsed_h0}
    return runs


# --------------------------------------------------------------- criterion 1

@pytest.mark.parametrize("q", (1, 2, 3))
def test_criterion_1_reference_threshold_recovery(q, cli_designs, signal):
    design = cli_designs[q]
    ts = design["thresholds"]
    optimum = np.asarray(OPTIMUM[q])
    reference = np.asarray(REFERENCE[q])
    worst = float(np.abs(ts.interior - optimum).max())
    off_reference = float(np.abs(ts.interior - reference).max())
    ref_table = bin_stats_table(ThresholdSet(bits=q, interior=reference), 2.0)
    ref_obj = signal.energy * ref_table.info_per_energy
    ratio = design["objective"] / ref_obj
    elapsed = design["elapsed"]
    ok = worst <= TAU_TOL[q] and ratio >= 0.999 and elapsed <= 120.0
    _report(
        f"1 q={q}",
        ok,
        f"max|tau - tau*| = {worst:.2e} (tol {TAU_TOL[q]}), "
        f"objective ratio to published = {ratio:.7f} (need >= 0.999), "
        f"max|tau - published| = {off_reference:.4f}, "
        f"design time {elapsed:.1f}s (limit 120s)",
    )
    assert elapsed <= 120.0
    assert ratio >= 0.999, (
        f"designed objective {design['objective']!r} fell below 0.999x the "
        f"objective {ref_obj!r} of the published thresholds"
    )
    assert worst <= TAU_TOL[q], (
        f"q={q}: designed thresholds {np.round(ts.interior, 4).tolist()} deviate "
        f"from the optimum tau* {np.round(optimum, 4).tolist()} of E * J1 by up "
        f"to {worst:.4f} (tolerance {TAU_TOL[q]}); objective ratio to the "
        f"published set {ratio:.7f}"
    )


def test_criterion_1_expected_values_are_stationary(signal):
    """Why criterion 1 measures against tau* and not the published q=3 set.

    The gradient of J1 vanishes at the frozen optimum but not at the
    published set, so no correct optimizer can land near the latter.
    """

    def grad_j1(interior, h=1e-5):
        def j1(x):
            ts = ThresholdSet(bits=3, interior=x)
            return signal.energy * bin_stats_table(ts, 2.0).info_per_energy / signal.energy

        steps = h * np.eye(len(interior))
        return np.array([(j1(interior + e) - j1(interior - e)) / (2.0 * h) for e in steps])

    at_optimum = float(np.abs(grad_j1(np.asarray(OPTIMUM[3]))).max())
    at_published = float(np.abs(grad_j1(np.asarray(REFERENCE_Q3))).max())
    assert at_optimum <= 1e-6, at_optimum
    assert at_published >= 1e-3, at_published


# --------------------------------------------------------------- criterion 2

def test_criterion_2_null_calibration(mc14):
    h0 = mc14[2]["h0"]
    elapsed = mc14[2]["elapsed_h0"]
    mean = float(h0.mean())
    var = float(h0.var(ddof=1))
    pfa = float(np.mean(h0 > 9.21034))
    ok = (
        abs(mean - 2.0) <= 0.05
        and abs(var - 4.0) <= 0.3
        and abs(pfa - 0.01) <= 1e-3
        and elapsed <= 60.0
    )
    _report(
        "2",
        ok,
        f"mean = {mean:.4f} (2 +/- 0.05), var = {var:.4f} (4 +/- 0.3), "
        f"pfa@9.21034 = {pfa:.5f} (0.01 +/- 0.001), "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )
    assert abs(mean - 2.0) <= 0.05
    assert abs(var - 4.0) <= 0.3
    assert abs(pfa - 0.01) <= 1e-3
    assert elapsed <= 60.0


# --------------------------------------------------------------- criterion 3

@pytest.mark.parametrize("q", (1, 2, 3))
def test_criterion_3_theory_matches_simulation(q, mc14, scene, signal):
    lam = mc14[q]["detector"].noncentrality(scene)
    h1 = mc14[q]["h1"]
    diffs = {}
    for pfa in (1e-2, 1e-1):
        eta = chi2_2_quantile(pfa)
        p_hat = float(exceedance(h1, eta))
        p_theory = asymptotic_pd(lam, eta)
        diffs[pfa] = (p_hat, p_theory, abs(p_hat - p_theory))
    ok = all(d[2] <= 0.02 for d in diffs.values())
    detail = ", ".join(
        f"pfa={pfa:g}: |{d[0]:.4f} - {d[1]:.4f}| = {d[2]:.4f}"
        for pfa, d in diffs.items()
    )
    _report(f"3 q={q}", ok, detail + " (tol 0.02, 1e5 trials/hypothesis)")
    for pfa, (p_hat, p_theory, diff) in diffs.items():
        assert diff <= 0.02, f"q={q}, pfa={pfa}: {p_hat} vs theory {p_theory}"


# --------------------------------------------------------------- criterion 4

def test_criterion_4_detection_improves_with_bits(mc14):
    pd = {}
    for key in (1, 2, 3, "inf"):
        eta_emp = empirical_threshold(mc14[key]["h0"], 1e-2)
        pd[key] = float(exceedance(mc14[key]["h1"], eta_emp))
    chain = (
        pd[1] <= pd[2] + 0.01 and pd[2] <= pd[3] + 0.01 and pd[3] <= pd["inf"] + 0.01
    )
    saturation = pd["inf"] - pd[3] <= 0.03
    ok = chain and saturation
    _report(
        "4",
        ok,
        f"P_D at matched empirical pfa=1e-2: q1 = {pd[1]:.4f} <= q2 = {pd[2]:.4f} "
        f"<= q3 = {pd[3]:.4f} <= inf = {pd['inf']:.4f} (slack 0.01); "
        f"inf - q3 = {pd['inf'] - pd[3]:.4f} (limit 0.03)",
    )
    assert chain, f"bit-depth ordering violated: {pd}"
    assert saturation, f"3-bit should approach unquantized: {pd}"


# --------------------------------------------------------------- criterion 5

def _crossing(snrs, pds, level=0.5):
    """SNR where linearly interpolated P_D crosses ``level``."""
    for k in range(len(pds) - 1):
        lo, hi = pds[k], pds[k + 1]
        if (lo - level) * (hi - level) <= 0.0 and lo != hi:
            t = (level - lo) / (hi - lo)
            return snrs[k] + t * (snrs[k + 1] - snrs[k])
    raise AssertionError(f"P_D = {level} not bracketed by the SNR grid: {pds}")


def test_criterion_5_one_bit_penalty(cli_designs, tmp_path):
    # analytic half: sign quantizer keeps exactly 2/pi of the information
    sign_q = ThresholdSet(bits=1, interior=(0.0,))
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(3):
        random_scene = SceneConfig(
            n_tx=int(rng.integers(1, 4)),
            n_rx=int(rng.integers(2, 24)),
            snapshots=int(rng.integers(2, 16)),
            angle=float(rng.uniform(-1.2, 1.2)),
            noise_power=float(rng.uniform(0.5, 4.0)),
            beta=complex(float(rng.normal()) or 0.3, float(rng.normal())),
        )
        lam_1 = RaoDetector(sign_q).noncentrality(random_scene)
        lam_inf = GlrtDetector().noncentrality(random_scene)
        worst = max(worst, abs(lam_1 / lam_inf - 2.0 / np.pi))
    analytic_ok = worst <= 1e-12

    # Monte Carlo half: SNR needed for P_D = 0.5 at pfa = 1e-2, from a
    # pd-snr run on the default scene at -14 dB (the ``scene`` fixture)
    grid = ",".join(repr(float(s)) for s in np.arange(-13.5, -8.0, 0.5))
    cfg, out = tmp_path / "exp.cfg", tmp_path / "pd_snr.csv"
    cfg.write_text("snr_db = -14.0\n")
    code = cli.main(
        ["pd-snr", "--detectors", "1,inf", "--thresholds", str(cli_designs[1]["path"]),
         "--config", str(cfg), f"--snr-grid={grid}", "--pfa", "0.01", "--trials", "20000",
         "--seed", str(subseed(SEED, 9)), "--out", str(out)]
    )
    assert code == 0
    header, *rows = [line.split(",") for line in out.read_text().strip().split("\n")]
    q, snr, p_d = (header.index(k) for k in ("q", "snr_db", "p_d_at_empirical_eta"))
    by_q = {}
    for row in rows:
        by_q.setdefault(row[q], []).append((float(row[snr]), float(row[p_d])))
    snr_1 = _crossing(*zip(*sorted(by_q["1"])))
    snr_inf = _crossing(*zip(*sorted(by_q["inf"])))
    gap = snr_1 - snr_inf
    mc_ok = 1.5 <= gap <= 2.5
    _report(
        "5",
        analytic_ok and mc_ok,
        f"max|lambda ratio - 2/pi| = {worst:.2e} (tol 1e-12); "
        f"SNR at P_D=0.5: 1-bit {snr_1:.2f} dB, unquantized {snr_inf:.2f} dB, "
        f"gap = {gap:.2f} dB (need 2.0 +/- 0.5)",
    )
    assert analytic_ok
    assert mc_ok, f"one-bit SNR penalty {gap:.3f} dB outside [1.5, 2.5]"


# --------------------------------------------------------------- criterion 6

def test_criterion_6_closed_form_equals_numeric_score_test():
    rng = np.random.default_rng(66)
    worst = 0.0
    smallest_stat = np.inf
    for k in range(100):
        cfg = SceneConfig(
            n_tx=int(rng.integers(1, 3)),
            n_rx=int(rng.integers(1, 5)),
            snapshots=int(rng.integers(1, 3)),
            angle=float(rng.uniform(-1.2, 1.2)),
            noise_power=float(rng.uniform(0.5, 4.0)),
            beta=complex(float(rng.normal()), float(rng.normal())),
        )
        assert cfg.n_samples <= 8
        bits = int(rng.integers(1, 4))
        s = np.sqrt(cfg.noise_power / 2.0)
        interior = np.sort(rng.uniform(-2.5 * s, 2.5 * s, size=2**bits - 1))
        interior += np.arange(interior.size) * 1e-6
        thresholds = ThresholdSet(bits=bits, interior=interior)
        sig = cfg.signal
        planes = observation_planes(cfg, Hypothesis.H1, SEED, k, k + 1)
        re0, im0 = bin_indices(planes[0], thresholds)
        table = bin_stats_table(thresholds, cfg.noise_power)
        closed = rao_statistic_batch(re0, im0, sig, table)
        ref = oracles.score_fi_statistic(
            re0, im0, thresholds.interior, cfg.noise_power, sig.g, sig.h
        )
        smallest_stat = min(smallest_stat, abs(ref))
        worst = max(worst, abs(closed - ref) / max(abs(ref), 1e-12))
    ok = worst <= 1e-6
    _report(
        "6",
        ok,
        f"100 instances (samples <= 8, bits <= 3): max rel err = {worst:.2e} "
        f"(tol 1e-6, smallest statistic {smallest_stat:.3g})",
    )
    assert ok


# --------------------------------------------------------------- criterion 7

def test_criterion_7_score_covariance_is_fisher(scene, signal, cli_designs):
    thresholds = cli_designs[2]["thresholds"]
    table = bin_stats_table(thresholds, scene.noise_power)
    info = signal.energy * table.info_per_energy
    n_trials = 100_000
    chunk = 5_000
    seed = subseed(SEED, 11)
    sq_r = np.empty(n_trials)
    cross = np.empty(n_trials)
    for start in range(0, n_trials, chunk):
        stop = min(start + chunk, n_trials)
        planes = observation_planes(scene, Hypothesis.H0, seed, start, stop)
        re0, im0 = bin_indices(planes[:, 0], thresholds), bin_indices(planes[:, 1], thresholds)
        s_r, s_i = _score_sums(re0, im0, signal, table)
        sq_r[start:stop] = s_r * s_r
        cross[start:stop] = s_r * s_i
    # empirical standard errors of the two moment estimates
    se_diag = float(sq_r.std(ddof=1) / np.sqrt(n_trials))
    se_cross = float(cross.std(ddof=1) / np.sqrt(n_trials))
    diag_err = abs(float(sq_r.mean()) - info)
    cross_err = abs(float(cross.mean()))
    ok = diag_err <= 3 * se_diag and cross_err <= 3 * se_cross
    _report(
        "7",
        ok,
        f"diag: |{float(sq_r.mean()):.3f} - {info:.3f}| = {diag_err:.3f} "
        f"(3se = {3 * se_diag:.3f}); off-diag: |{float(cross.mean()):.3f}| "
        f"(3se = {3 * se_cross:.3f}); {n_trials} trials",
    )
    assert diag_err <= 3 * se_diag
    assert cross_err <= 3 * se_cross


# --------------------------------------------------------------- criterion 8

def test_criterion_8_noncentral_cdf_matches_quadrature():
    worst = 0.0
    for lam in (0.1, 1.0, 10.0, 50.0):
        for x in (1.0, 5.0, 20.0):
            got = 1.0 - marcum_q1(np.sqrt(lam), np.sqrt(x))
            ref = 1.0 - oracles.ncx2_2_sf_quadrature(x, lam)
            worst = max(worst, abs(got - ref))
    ok = worst <= 1e-8
    _report(
        "8",
        ok,
        f"noncentral chi2(2 dof) CDF vs quadrature on the 4x3 grid: "
        f"max abs err = {worst:.2e} (tol 1e-8)",
    )
    assert ok


# frozen-constant sanity: the optimal-design noncentrality used across
# this file matches the value frozen before the package was written
def test_frozen_lambda_is_consistent(scene, signal):
    t_opt = ThresholdSet(bits=2, interior=FROZEN["opt_tau_q2"])
    lam = RaoDetector(t_opt).noncentrality(scene)
    assert lam == pytest.approx(FROZEN["lambda_q2_m14db"], rel=1e-10)

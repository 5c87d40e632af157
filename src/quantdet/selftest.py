"""Built-in sanity battery: does the installed package still tell the truth?

Each check tests a consequence of the model, not a re-run of the code:

* ``null_moments`` -- H0 Rao statistics have chi-square(2) mean, variance
  and 1% tail.
* ``one_bit_closed_form`` -- a sign quantizer keeps exactly 2/pi of the
  information, and the engine's scorer gives the direct sign-correlation
  formula.
* ``fisher_identity`` -- the Monte Carlo covariance of the score at
  beta = 0 is the information matrix (equal diagonal, no cross term).
* ``score_test_identity`` -- the closed form equals a numerically
  differentiated log-likelihood oracle on random instances.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .detectors import RaoDetector, _score_sums, rao_statistic_batch
from .montecarlo import TILE_VALUES, TrialConfig, run_trials, subseed
from .optimizer import PsoConfig, optimize_thresholds
from .quantizer import ThresholdSet, bin_indices, bin_stats_table
from .signal_model import (
    EffectiveSignal,
    Hypothesis,
    SceneConfig,
    observation_planes,
)
from .special import chi2_2_quantile, qfunc

DEFAULT_SEED = 20260819


@dataclass(frozen=True)
class CheckResult:
    """One check's name, verdict and detail text, rendered by :meth:`line`."""

    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"check={self.name} status={status} {self.detail}"


@functools.cache
def _design(seed: int) -> ThresholdSet:
    """The 2-bit swarm design on the default scene, shared by two checks.

    A design that raises is not cached, so each check reports the failure.
    """
    scene = SceneConfig()
    return optimize_thresholds(
        2, scene.signal, scene.noise_power, PsoConfig(seed=subseed(seed, 1))
    ).thresholds


def _check_null_moments(seed: int, trials: int) -> CheckResult:
    cfg = TrialConfig(
        scene=SceneConfig(),
        detector=RaoDetector(_design(seed)),
        n_trials_h0=trials,
        n_trials_h1=0,
        seed=subseed(seed, 2),
    )
    h0, _ = run_trials(cfg)
    mean = float(h0.mean())
    var = float(h0.var(ddof=1))
    eta = chi2_2_quantile(0.01)
    pfa = float((h0 > eta).mean())
    # each bound is 3 standard errors under chi2_2 (the variances of X,
    # (X - 2)^2 and the 1% indicator are 4, 128 and 0.0099), floored at
    # its value near 1e5 trials, the default budget
    ok = all(abs(est - want) <= max(floor, 3.0 * math.sqrt(v / trials))
             for est, want, floor, v in ((mean, 2.0, 0.05, 4.0), (var, 4.0, 0.3, 128.0),
                                         (pfa, 0.01, 1e-3, 0.0099)))
    detail = f"mean={mean:.4f} var={var:.4f} pfa@1%={pfa:.5f} trials={trials}"
    return CheckResult("null_moments", ok, detail)


def _check_one_bit(seed: int) -> CheckResult:
    rng = np.random.default_rng(subseed(seed, 3))
    sign_q = ThresholdSet(bits=1, interior=np.array([0.0]))
    worst_ratio = 0.0
    worst_stat = 0.0
    for _ in range(3):
        scene = SceneConfig(
            n_tx=int(rng.integers(1, 5)),
            n_rx=int(rng.integers(2, 9)),
            snapshots=int(rng.integers(4, 13)),
            angle=float(rng.uniform(-1.2, 1.2)),
            noise_power=float(rng.uniform(0.5, 4.0)),
        )
        signal = scene.signal
        table = bin_stats_table(sign_q, scene.noise_power)
        # information ratio against the unquantized limit 2 / noise_power
        ratio = table.info_per_energy * scene.noise_power / 2.0
        worst_ratio = max(worst_ratio, abs(ratio - 2.0 / math.pi))
        # the engine's scoring path against the direct sign-correlation form
        planes = observation_planes(scene, Hypothesis.H0, subseed(seed, 4), 0, 1)
        stat = RaoDetector(sign_q).scorer(signal, scene.noise_power)(planes)[0]
        x = planes[0]
        signs = np.sign(x[0]) + 1j * np.sign(x[1])
        direct = abs(np.conj(signal.z) @ signs) ** 2 / signal.energy
        worst_stat = max(worst_stat, abs(stat - direct) / direct)
    ok = worst_ratio <= 1e-12 and worst_stat <= 1e-12
    detail = f"max|ratio-2/pi|={worst_ratio:.2e} max_rel_stat_err={worst_stat:.2e}"
    return CheckResult("one_bit_closed_form", ok, detail)


def _check_fisher_identity(seed: int, trials: int) -> CheckResult:
    scene = SceneConfig()
    signal = scene.signal
    thresholds = _design(seed)
    table = bin_stats_table(thresholds, scene.noise_power)
    info = signal.energy * table.info_per_energy
    # draw, bin and score one engine tile of trials at a time: one block
    # of 20,000 trials' planes would set the command's peak memory
    tile = max(1, TILE_VALUES // scene.n_samples)
    sums = []
    for start in range(0, trials, tile):
        planes = observation_planes(scene, Hypothesis.H0, subseed(seed, 6), start,
                                    min(start + tile, trials))
        idx = bin_indices(planes, thresholds)
        sums.append(_score_sums(idx[:, 0], idx[:, 1], signal, table))
    s_r, s_i = (np.concatenate(parts) for parts in zip(*sums))
    # var(S_R) estimates the diagonal with SE ~ diag * sqrt(2/n);
    # E[S_R S_I] estimates 0 with SE ~ diag / sqrt(n)
    se_diag = info * math.sqrt(2.0 / trials)
    se_cross = info / math.sqrt(trials)
    var_err = abs(float(np.mean(s_r**2)) - info)
    cross = abs(float(np.mean(s_r * s_i)))
    ok = var_err <= 3.0 * se_diag and cross <= 3.0 * se_cross
    detail = (
        f"diag={info:.4f} |var_err|={var_err:.4f} (3se={3*se_diag:.4f}) "
        f"|cross|={cross:.4f} (3se={3*se_cross:.4f})"
    )
    return CheckResult("fisher_identity", ok, detail)


def _mass(u: float, i: int, thresholds: ThresholdSet, noise_power: float) -> float:
    """Probability that N(u, noise_power/2) falls in bin ``i``, straight from Q."""
    e, s = thresholds.edges(), math.sqrt(noise_power / 2.0)
    return float(qfunc((e[i] - u) / s) - qfunc((e[i + 1] - u) / s))


def _loglik(u_re, u_im, thresholds, noise_power, re_bins, im_bins):
    """Exact quantized log-likelihood at per-sample means (u_re, u_im)."""
    total = 0.0
    for n in range(len(re_bins)):
        total += math.log(_mass(u_re[n], int(re_bins[n]), thresholds, noise_power))
        total += math.log(_mass(u_im[n], int(im_bins[n]), thresholds, noise_power))
    return total


def _oracle_statistic(re_bins, im_bins, signal, thresholds, noise_power, eps=1e-4):
    """Rao statistic rebuilt from numerical derivatives only.

    The score comes from central differences of the log-likelihood in
    (Re beta, Im beta) at zero; the information from central differences
    of the per-bin masses.  No bin-table, F', F'' or score-ratio code is reused.
    """
    g, h = signal.g, signal.h

    def ell(br, bi):
        return _loglik(br * g - bi * h, br * h + bi * g, thresholds, noise_power,
                       re_bins, im_bins)

    s_r = (ell(eps, 0.0) - ell(-eps, 0.0)) / (2 * eps)
    s_i = (ell(0.0, eps) - ell(0.0, -eps)) / (2 * eps)

    info1 = 0.0
    for i in range(thresholds.n_bins):
        f0 = _mass(0.0, i, thresholds, noise_power)
        fp = _mass(eps, i, thresholds, noise_power)
        fm = _mass(-eps, i, thresholds, noise_power)
        d1 = (fp - fm) / (2 * eps)
        d2 = (fp - 2 * f0 + fm) / (eps * eps)
        info1 += (d1 * d1 - d2 * f0) / f0
    return (s_r * s_r + s_i * s_i) / (signal.energy * info1)


def _check_score_identity(seed: int) -> CheckResult:
    rng = np.random.default_rng(subseed(seed, 7))
    worst = 0.0
    for trial in range(10):
        bits = int(rng.integers(1, 4))
        noise_power = float(rng.uniform(0.5, 4.0))
        s = math.sqrt(noise_power / 2.0)
        interior = np.sort(rng.uniform(-2.5 * s, 2.5 * s, size=2**bits - 1))
        interior += np.arange(2**bits - 1) * 1e-6  # guard against near-ties
        thresholds = ThresholdSet(bits=bits, interior=interior)
        n = 6
        zc = rng.normal(size=n) + 1j * rng.normal(size=n)
        signal = EffectiveSignal(g=zc.real, h=zc.imag)
        x = s * (rng.normal(size=n) + 1j * rng.normal(size=n))
        re_bins = bin_indices(x.real, thresholds)
        im_bins = bin_indices(x.imag, thresholds)
        table = bin_stats_table(thresholds, noise_power)
        closed = rao_statistic_batch(re_bins, im_bins, signal, table)
        oracle = _oracle_statistic(re_bins, im_bins, signal, thresholds, noise_power)
        worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-12))
    ok = worst <= 1e-6
    return CheckResult("score_test_identity", ok, f"max_rel_err={worst:.2e}")


def run_selftest(seed: int = DEFAULT_SEED, trials: int = 100000) -> list:
    """Run all checks; failures land in the results.

    Raises ``ValueError`` before any check runs if ``trials < 2`` (a
    sample variance needs two); past that it never raises.
    """
    if trials < 2:
        raise ValueError(f"selftest needs at least 2 trials, got {trials}")
    checks = (
        ("null_moments", lambda: _check_null_moments(seed, trials)),
        ("one_bit_closed_form", lambda: _check_one_bit(seed)),
        ("fisher_identity", lambda: _check_fisher_identity(seed, min(trials, 20000))),
        ("score_test_identity", lambda: _check_score_identity(seed)),
    )
    results = []
    for name, run in checks:
        try:
            results.append(run())
        except Exception as exc:  # noqa: BLE001 - selftest must report, not crash
            results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results

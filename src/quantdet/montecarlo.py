"""Monte Carlo estimation of detector operating characteristics.

Reproducibility model
---------------------
Each trial owns a private Philox stream named by (master seed, trial
counter); the counter encodes hypothesis and trial index (see
:func:`quantdet.signal_model.trial_counter`).  Statistics therefore
depend only on (seed, hypothesis, index) -- not on batch size, worker
count or evaluation order -- and two runs with equal seeds agree bit
for bit.  Work is split into fixed-size index ranges; with
``workers > 1`` the ranges are farmed out to processes and re-assembled
in index order.

A chunk (``batch_size`` trials, the unit of parallel work) runs in
tiles of ``max(1, _TILE_VALUES // n)`` trials, about 1 MiB of Re/Im
planes, so a tile's planes, bin indices and score gathers stay in cache
and a chunk's memory is one tile whatever its size.  A tile's
observations come from :func:`quantdet.signal_model.observation_planes`,
which draws their noise through one Philox bit generator re-keyed for
each trial: trial i's draws equal ``stream_rng(seed, trial_counter(h, i))
.standard_normal((2, n))`` bit for bit.  The detector reads the tile's
planes (``observe``: bin indices for the Rao test, the block itself as
complex rows for the GLRT) and turns that into statistics
(``statistic``); a row's statistic does not depend on the rows around
it, so neither tiles nor ``batch_size`` move a bit of the result.

Sub-experiments (one per detector / SNR point in a sweep) draw their
master seeds from a SeedSequence spawned off the experiment seed, so
adding an SNR point never disturbs the others.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .detectors import GlrtDetector, RaoDetector
from .signal_model import (
    Hypothesis,
    SceneConfig,
    effective_signal,
    observation_planes,
    stream_rng,  # noqa: F401  (the per-trial reference; perfbench's tracer test looks it up here)
)
from .special import chi2_2_quantile, chi2_2_sf, marcum_q1


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo run: scene, detector, trial counts and seed.

    ``batch_size`` is the unit of parallel work (one chunk per worker
    task); tiles inside a chunk are internal, and neither changes a result.
    """

    scene: SceneConfig
    detector: object
    n_trials_h0: int
    n_trials_h1: int
    seed: int
    workers: int = 1
    batch_size: int = 8192

    def __post_init__(self):
        if self.n_trials_h0 < 0 or self.n_trials_h1 < 0:
            raise ValueError("trial counts must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not isinstance(self.detector, (RaoDetector, GlrtDetector)):
            raise ValueError(f"unsupported detector: {self.detector!r}")


# values per Re/Im plane in one tile: 2^16 float64 per plane, 1 MiB of planes
_TILE_VALUES = 1 << 16


def _chunk_stats(cfg: TrialConfig, hypothesis: Hypothesis, start: int, stop: int) -> np.ndarray:
    """Statistics for trials [start, stop); the parallel unit of work."""
    scene, det = cfg.scene, cfg.detector
    signal = effective_signal(scene)
    tile = max(1, _TILE_VALUES // len(signal))
    out = np.empty(stop - start)
    for a in range(start, stop, tile):
        b = min(a + tile, stop)
        planes = observation_planes(scene, signal, hypothesis, cfg.seed, a, b)
        out[a - start : b - start] = det.statistic(det.observe(planes), signal, scene.noise_power)
    return out


def _run_hypothesis(cfg: TrialConfig, hypothesis: Hypothesis, n_trials: int) -> np.ndarray:
    if n_trials == 0:
        return np.empty(0)
    starts = list(range(0, n_trials, cfg.batch_size))
    stops = [min(s + cfg.batch_size, n_trials) for s in starts]
    if cfg.workers > 1 and len(starts) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunks = list(pool.map(_chunk_stats, repeat(cfg), repeat(hypothesis), starts, stops))
    else:
        chunks = [_chunk_stats(cfg, hypothesis, a, b) for a, b in zip(starts, stops)]
    return np.concatenate(chunks)


def run_trials(cfg: TrialConfig):
    """Simulate both hypotheses; returns (h0_stats, h1_stats) arrays."""
    h0 = _run_hypothesis(cfg, Hypothesis.H0, cfg.n_trials_h0)
    h1 = _run_hypothesis(cfg, Hypothesis.H1, cfg.n_trials_h1)
    return h0, h1


def empirical_threshold(h0_stats: np.ndarray, p_fa: float) -> float:
    """Order-statistic threshold with empirical exceedance closest below p_fa.

    Returns the (n - k)-th order statistic with k = floor(p_fa * n), so
    with distinct statistics exactly k of n exceed it: the realized rate
    differs from the request by at most 1/n.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    n = h0_stats.shape[0]
    if n == 0:
        raise ValueError("cannot set an empirical threshold from zero trials")
    k = int(math.floor(p_fa * n))
    srt = np.sort(h0_stats)
    return float(srt[n - k - 1])


def exceedance(stats: np.ndarray, eta) -> np.ndarray:
    """Fraction of statistics strictly above each eta (ties do not detect)."""
    srt = np.sort(stats)
    idx = np.searchsorted(srt, np.asarray(eta, dtype=float), side="right")
    return (srt.shape[0] - idx) / srt.shape[0]


@dataclass(frozen=True)
class RocCurve:
    """Empirical operating points with their asymptotic-theory companions."""

    eta: np.ndarray
    p_fa_hat: np.ndarray
    p_d_hat: np.ndarray
    p_fa_theory: np.ndarray
    p_d_theory: np.ndarray
    n_h0: int
    n_h1: int

    def __post_init__(self):
        for name in ("eta", "p_fa_hat", "p_d_hat", "p_fa_theory", "p_d_theory"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def estimate_roc(
    h0_stats: np.ndarray,
    h1_stats: np.ndarray,
    lambda_f: float,
    eta_grid=None,
    pfa_grid=None,
) -> RocCurve:
    """Empirical ROC on a threshold grid, plus matching asymptotic theory.

    Exactly one of ``eta_grid`` / ``pfa_grid`` must be given.  With
    ``pfa_grid`` the thresholds are the order statistics of the H0
    sample at the requested rates (see :func:`empirical_threshold`).
    Theory columns use the chi-square null tail exp(-eta/2) and the
    Marcum detection tail at noncentrality ``lambda_f``.
    """
    if (eta_grid is None) == (pfa_grid is None):
        raise ValueError("provide exactly one of eta_grid or pfa_grid")
    if h0_stats.shape[0] == 0 or h1_stats.shape[0] == 0:
        raise ValueError("estimate_roc needs non-empty statistic samples")
    if pfa_grid is not None:
        eta = np.array([empirical_threshold(h0_stats, p) for p in np.atleast_1d(pfa_grid)])
    else:
        eta = np.sort(np.asarray(eta_grid, dtype=float))
    p_fa_hat = exceedance(h0_stats, eta)
    p_d_hat = exceedance(h1_stats, eta)
    p_fa_theory = chi2_2_sf(eta)
    sqrt_lam = math.sqrt(lambda_f)
    p_d_theory = np.array([marcum_q1(sqrt_lam, math.sqrt(e)) for e in eta])
    return RocCurve(
        eta=eta,
        p_fa_hat=p_fa_hat,
        p_d_hat=p_d_hat,
        p_fa_theory=p_fa_theory,
        p_d_theory=p_d_theory,
        n_h0=h0_stats.shape[0],
        n_h1=h1_stats.shape[0],
    )


@dataclass(frozen=True)
class SweepPoint:
    """One (detector, SNR) cell of a detection-probability sweep."""

    detector: str
    q: str
    snr_db: float
    p_fa_target: float
    eta_asymptotic: float
    p_d_at_asymptotic_eta: float
    p_d_at_empirical_eta: float
    trials: int


def subseed(master_seed: int, *path: int) -> int:
    """Derived 64-bit seed for a sub-experiment at ``path`` under the master."""
    ss = np.random.SeedSequence((master_seed,) + path)
    return int(ss.generate_state(1, np.uint64)[0])


def pd_vs_snr(
    scene: SceneConfig,
    detectors,
    snr_grid_db,
    p_fa: float,
    n_trials: int,
    seed: int,
    workers: int = 1,
) -> list:
    """Detection probability versus SNR at a fixed false-alarm budget.

    For each detector one H0 run (sub-seed path (d, 0)) calibrates the
    empirical threshold; each SNR point then gets a fresh H1 run
    (sub-seed path (d, 1 + i)).  Both the asymptotic threshold
    -2 ln p_fa and the empirical one are applied to the same H1 sample,
    giving the two detection-rate columns.
    """
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie in (0, 1)")
    if p_fa * n_trials < 100:
        warnings.warn(
            f"p_fa * trials = {p_fa * n_trials:.0f} < 100: false-alarm tail is "
            "thinly sampled and the empirical threshold will be noisy",
            stacklevel=2,
        )
    eta_asym = chi2_2_quantile(p_fa)
    points = []
    for d_idx, det in enumerate(detectors):
        h0_cfg = TrialConfig(
            scene=scene,
            detector=det,
            n_trials_h0=n_trials,
            n_trials_h1=0,
            seed=subseed(seed, d_idx, 0),
            workers=workers,
        )
        h0_stats, _ = run_trials(h0_cfg)
        eta_emp = empirical_threshold(h0_stats, p_fa)
        for s_idx, snr_db in enumerate(snr_grid_db):
            h1_cfg = TrialConfig(
                scene=scene.with_snr_db(snr_db),
                detector=det,
                n_trials_h0=0,
                n_trials_h1=n_trials,
                seed=subseed(seed, d_idx, 1 + s_idx),
                workers=workers,
            )
            _, h1_stats = run_trials(h1_cfg)
            points.append(
                SweepPoint(
                    detector=det.label,
                    q=det.q_label,
                    snr_db=float(snr_db),
                    p_fa_target=p_fa,
                    eta_asymptotic=eta_asym,
                    p_d_at_asymptotic_eta=float(exceedance(h1_stats, eta_asym)),
                    p_d_at_empirical_eta=float(exceedance(h1_stats, eta_emp)),
                    trials=n_trials,
                )
            )
    return points

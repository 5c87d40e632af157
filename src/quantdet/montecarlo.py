"""Monte Carlo engine: detector statistics of simulated trials, and their estimators.

Trial i of hypothesis h under master seed s draws from its own Philox
stream, keyed by (s, :func:`~quantdet.signal_model.trial_counter` (h, i)),
and a trial's statistic depends on that trial alone.  So every result
depends only on (seed, hypothesis, index): not on ``workers``, tiles or
evaluation order, and two runs with equal seeds agree bit for bit.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .detectors import GlrtDetector, RaoDetector
from .perf_theory import asymptotic_pd
from .signal_model import (
    Hypothesis,
    SceneConfig,
    _philox_key,
    observation_planes,
    stream_rng,  # noqa: F401  (the per-trial reference; perfbench's tracer test looks it up here)
)
from .special import chi2_2_sf


# values per Re/Im plane in one engine tile (2^14 float64, 256 KiB of
# planes); with the per-tile fixed costs paid once per template, table or
# range, larger tiles ran no faster and peaked higher in memory
TILE_VALUES = 1 << 14


def __getattr__(name):
    """``ProcessPoolExecutor``, imported on first use (PEP 562); other names raise AttributeError.

    The pool stack (multiprocessing, socket, subprocess, logging) cost a
    one-process run about 2 MB and 25 ms, so it is imported when a pool is
    first built, or the name first read, and then kept as a module global:
    a caller that rebinds ``montecarlo.ProcessPoolExecutor`` rebinds the
    class :func:`_engine_pool` builds.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _processes(workers: int) -> int:
    """Processes an engine call can start: the workers asked for, at most one per CPU."""
    return min(workers, os.cpu_count() or 1)


@dataclass(frozen=True)
class TrialConfig:
    """One Monte Carlo run: scene, detector, trials per hypothesis, seed and workers.

    ``detector`` is a :class:`RaoDetector` or :class:`GlrtDetector`, the
    trial counts are integers >= 0, ``workers`` an integer >= 1 and
    ``seed`` in [0, 2^64); anything else raises ``ValueError``.
    ``workers`` changes no result.
    """

    scene: SceneConfig
    detector: object
    n_trials_h0: int
    n_trials_h1: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        for name, least in (("n_trials_h0", 0), ("n_trials_h1", 0), ("workers", 1)):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")
        if not isinstance(self.detector, (RaoDetector, GlrtDetector)):
            raise ValueError(f"unsupported detector: {self.detector!r}")
        _philox_key(self.seed, 0)  # a seed outside [0, 2^64) fails here, not in a worker

    @property
    def batch_size(self) -> int:
        """Trials per index range: the larger hypothesis split over the processes.

        A property rather than a line of :func:`run_trials` only because
        ``perfbench/child.py`` reads it.
        """
        trials = max(self.n_trials_h0, self.n_trials_h1)
        return max(1, math.ceil(trials / _processes(self.workers)))


def _chunk_stats(cfg: TrialConfig, hypothesis: Hypothesis, start: int, stop: int) -> np.ndarray:
    """Statistics of ``hypothesis``'s trials [start, stop), float64: the unit of parallel work.

    Each tile's planes are drawn new and bound to no name, so they are
    freed once scored and the next draw takes their heap block back: one
    tile's planes are alive at a time.  The scorers keep their own
    working arrays across the range.  Measured in-process after a
    warm-up call, 3,000 + 3,000 trials each of Rao q = 3 and the GLRT on
    roc_large's scene took 360 minor page faults, against 309 with a
    planes buffer kept for the range; keeping the last tile's planes
    alive while the next was drawn took 618 and 0.4 MB more peak RSS.
    A row's statistic depends on that row alone, so no tile boundary
    moves a bit.
    """
    scene = cfg.scene
    tile = max(1, TILE_VALUES // scene.n_samples)
    score = cfg.detector.scorer(scene.signal, scene.noise_power)
    out = np.empty(stop - start)
    for a in range(start, stop, tile):
        b = min(a + tile, stop)
        out[a - start : b - start] = score(observation_planes(scene, hypothesis, cfg.seed, a, b))
    return out


# the pool of the open _engine_pool block, else None
_pool = None


@contextmanager
def _engine_pool(workers: int):
    """Decide where the block's engine calls run, and yield the ``map`` that runs them there.

    This is the one place that decides between in-process and pool: an
    enclosing block's open pool if there is one, else builtin ``map``
    when one process is enough, else a new pool of ``workers`` processes
    (at most one per CPU).  The CLI runs all of a command's engine calls
    in one block, so there is one pool per command, and a
    :func:`run_trials` outside any block builds one for that call.  The
    executor forks at the first range submitted, after every threshold
    design; a new pool is shut down, its processes joined, when its block
    exits, on an exception too, and a worker that died raises
    ``ChildProcessError``.  One pool per command in place of one per
    engine call took pd_snr_sweep from 12 pools to 1, and its wall time
    from 1.545 to 1.339 s.
    """
    global _pool
    if _pool is not None or _processes(workers) <= 1:
        yield map if _pool is None else _pool.map
        return
    from concurrent.futures.process import BrokenProcessPool

    executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    with executor(max_workers=_processes(workers)) as pool:
        _pool = pool
        try:
            yield pool.map
        except BrokenProcessPool as exc:
            raise ChildProcessError(str(exc)) from exc
        finally:
            _pool = None


def run_trials(cfg: TrialConfig):
    """Simulate both hypotheses: (h0_stats, h1_stats), float64 arrays in trial-index order.

    This decides how the trials split: H0's index ranges, then H1's, one
    range per process, form one plan of :func:`_chunk_stats` calls.
    Where the plan runs, :func:`_engine_pool` decides, asked for no more
    processes than ranges.
    """
    plan = [(h, a, min(a + cfg.batch_size, n))
            for h, n in ((Hypothesis.H0, cfg.n_trials_h0), (Hypothesis.H1, cfg.n_trials_h1))
            for a in range(0, n, cfg.batch_size)]
    with _engine_pool(min(cfg.workers, len(plan))) as run:
        # repeat is bounded so that an empty plan maps nothing
        chunks = list(run(_chunk_stats, repeat(cfg, len(plan)), *zip(*plan)))
    stats = np.concatenate([np.empty(0), *chunks])  # H0's trials in index order, then H1's
    return stats[: cfg.n_trials_h0], stats[cfg.n_trials_h0 :]


def empirical_threshold(h0_stats: np.ndarray, p_fa):
    """Order-statistic threshold with empirical exceedance closest below p_fa.

    Returns the (n - k)-th order statistic with k = floor(p_fa * n), so
    with distinct statistics exactly k of n exceed it: the realized rate
    differs from the request by at most 1/n.  A scalar ``p_fa`` gives a
    float; a grid gives an array of thresholds from one sort.  A rate
    outside (0, 1), or an empty sample, raises ``ValueError``.
    """
    p_fa = np.asarray(p_fa, dtype=float)
    if not np.all((p_fa > 0.0) & (p_fa < 1.0)):
        raise ValueError("p_fa must lie in (0, 1)")
    n = h0_stats.shape[0]
    if n == 0:
        raise ValueError("cannot set an empirical threshold from zero trials")
    k = np.floor(p_fa * n).astype(np.intp)
    eta = np.sort(h0_stats)[n - k - 1]
    return float(eta) if eta.ndim == 0 else eta


def exceedance(stats: np.ndarray, eta) -> np.ndarray:
    """Fraction of statistics strictly above each eta (ties do not detect).

    A scalar ``eta`` gives a scalar; a grid gives an array, from one sort.
    An empty sample raises ``ValueError``.
    """
    srt = np.sort(stats)
    if srt.shape[0] == 0:
        raise ValueError("cannot take an exceedance rate of zero trials")
    idx = np.searchsorted(srt, np.asarray(eta, dtype=float), side="right")
    return (srt.shape[0] - idx) / srt.shape[0]


@dataclass(frozen=True)
class RocCurve:
    """Empirical operating points with their asymptotic-theory companions.

    The five columns are read-only float64 arrays, row i at threshold ``eta[i]``.
    """

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


def estimate_roc(h0_stats: np.ndarray, h1_stats: np.ndarray, lambda_f: float, eta) -> RocCurve:
    """Empirical rates at thresholds ``eta``, plus matching asymptotic theory.

    ``eta`` is a scalar or a 1-D array, and row i of the curve is ``eta[i]``,
    in the order given.  For thresholds at false-alarm rates pass
    ``empirical_threshold(h0_stats, p_fa)``.  The theory columns are the
    chi-square null tail exp(-eta/2) and :func:`~quantdet.perf_theory.asymptotic_pd`
    at ``lambda_f``.  An empty sample raises ``ValueError``.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    p_fa_hat = exceedance(h0_stats, eta)
    p_d_hat = exceedance(h1_stats, eta)
    return RocCurve(
        eta=eta,
        p_fa_hat=p_fa_hat,
        p_d_hat=p_d_hat,
        p_fa_theory=chi2_2_sf(eta),
        p_d_theory=asymptotic_pd(lambda_f, eta),
        n_h0=h0_stats.shape[0],
        n_h1=h1_stats.shape[0],
    )


def subseed(master_seed: int, *path: int) -> int:
    """Derived 64-bit seed for the sub-experiment at integer ``path`` under ``master_seed``.

    Distinct paths give independent seeds; :func:`quantdet.cli.cmd_pd_snr`
    states the paths the CLI uses.
    """
    ss = np.random.SeedSequence((master_seed,) + path)
    return int(ss.generate_state(1, np.uint64)[0])


"""Monte Carlo estimation of detector operating characteristics.

Reproducibility model
---------------------
Each trial owns a private Philox stream named by (master seed, trial
counter); the counter encodes hypothesis and trial index (see
:func:`quantdet.signal_model.trial_counter`).  Statistics therefore
depend only on (seed, hypothesis, index) -- not on worker count, tile
size or evaluation order -- and two runs with equal seeds agree bit
for bit.  Each hypothesis is split into one index range per process
the engine can start (the workers asked for, at most one per CPU); an
engine call runs both hypotheses' ranges in-process, or on a process
pool, in index order.  Every engine call inside an :func:`_engine_pool`
block runs on that block's one pool, which forks at the first range
submitted and is shut down when the block exits; the CLI runs all of a
command's engine calls in one block, so it opens one pool per command.
Out of a block an engine call opens a pool of its own, of no more
processes than ranges.  The pool stack is imported when the first pool
is built (the module's ``__getattr__``), so a one-process run never
loads it.

A range (the unit of parallel work) runs in tiles of
``max(1, TILE_VALUES // n)`` trials, about 256 KiB of Re/Im planes, so a
tile's planes, bin indices and score gathers stay in cache.  A range
allocates one tile's planes, and its scorer one tile's working buffers,
at its first tile and reuses them for every later one (a shorter last
tile uses a prefix), so a range's memory is one tile whatever its length
and its tiles take no fresh pages.  What does not change from tile to
tile is computed once, where it belongs: the template's complex form,
conjugate and energy on the template, the H1 mean on the scene, the
score ratios and J1 on the bin table, and the bit generator per thread;
a tile pays only its array work.  A tile's
observations come from :func:`quantdet.signal_model.observation_planes`,
which draws their noise through its thread's one Philox bit generator,
re-keyed for each trial with a state dict of plain ints: trial i's draws equal
``stream_rng(seed, trial_counter(h, i)).standard_normal((2, n))`` bit for
bit.  The detector's scoring step is built once per range from the
scene's template ``scene.signal`` (``scorer``: for the Rao test the bin
statistics and, when n * 4^q <= 2^16, the table's own limit
``detectors.TABLE_VALUES``, a table of score terms gathered by pair code
instead of multiplied out) and scores each tile's planes in one
call (bin indices for the Rao test, complex rows for the GLRT); a row's
statistic does not depend on the rows around it, and a gathered term
equals a computed one, so neither tiles, ranges nor the table move a bit
of the result.

The experiment loops live in :mod:`quantdet.cli`: its roc, pd-eta and
pd-snr commands give each sub-experiment (one per detector, and per SNR
point in a pd-snr sweep) the master seed :func:`subseed` derives from
the experiment seed at the sub-experiment's path, so adding a detector
or an SNR point never disturbs the others.
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
    """``ProcessPoolExecutor``, imported on first use (PEP 562).

    The pool stack (multiprocessing, socket, subprocess, logging) costs a
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
    """One Monte Carlo run: scene, detector, trial counts and seed.

    Each hypothesis runs as one index range per process, each range in
    tiles; neither the ranges nor the tiles change a result.  ``seed``
    must lie in [0, 2^64).
    """

    scene: SceneConfig
    detector: object
    n_trials_h0: int
    n_trials_h1: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.n_trials_h0 < 0 or self.n_trials_h1 < 0:
            raise ValueError("trial counts must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not isinstance(self.detector, (RaoDetector, GlrtDetector)):
            raise ValueError(f"unsupported detector: {self.detector!r}")
        _philox_key(self.seed, 0)  # a seed outside [0, 2^64) fails here, not in a worker

    @property
    def batch_size(self) -> int:
        """Trials per index range: the larger hypothesis split over the processes."""
        trials = max(self.n_trials_h0, self.n_trials_h1)
        return max(1, math.ceil(trials / _processes(self.workers)))


def _chunk_stats(cfg: TrialConfig, hypothesis: Hypothesis, start: int, stop: int) -> np.ndarray:
    """Statistics for trials [start, stop); the parallel unit of work.

    One tile's planes, and the scorer's buffers, are allocated once and
    reused by every tile of the range; a shorter last tile uses a prefix.
    """
    scene = cfg.scene
    tile = max(1, TILE_VALUES // scene.n_samples)
    score = cfg.detector.scorer(scene.signal, scene.noise_power)
    buf = np.empty((min(tile, stop - start), 2, scene.n_samples))
    out = np.empty(stop - start)
    for a in range(start, stop, tile):
        b = min(a + tile, stop)
        planes = observation_planes(scene, hypothesis, cfg.seed, a, b, out=buf[: b - a])
        out[a - start : b - start] = score(planes)
    return out


# the pool of the open _engine_pool block, else None
_pool = None


@contextmanager
def _engine_pool(workers: int):
    """Run every engine call inside the block on one process pool.

    Yields the open pool: an enclosing block's if there is one, else a new
    pool of ``workers`` processes (at most one per CPU), or None when one
    process is enough.  The executor forks all its processes at the first
    range submitted; a new pool is shut down, its processes joined, when
    its block exits, on an exception too.  A new pool is built from the
    module attribute ``ProcessPoolExecutor``, imported at the first pool.
    """
    global _pool
    if _pool is not None or _processes(workers) <= 1:
        yield _pool
        return
    executor = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
    with executor(max_workers=_processes(workers)) as pool:
        _pool = pool
        try:
            yield pool
        finally:
            _pool = None


def run_trials(cfg: TrialConfig):
    """Simulate both hypotheses; returns (h0_stats, h1_stats) arrays.

    H0's index ranges, then H1's, form one plan, run in-process when one
    process is enough and else on the open :func:`_engine_pool` pool, so
    on one pool per command; out of a block, on a pool of its own for
    this call, of no more processes than ranges.
    """
    plan = [(h, a, min(a + cfg.batch_size, n))
            for h, n in ((Hypothesis.H0, cfg.n_trials_h0), (Hypothesis.H1, cfg.n_trials_h1))
            for a in range(0, n, cfg.batch_size)]
    processes = min(_processes(cfg.workers), len(plan))
    if processes <= 1:
        chunks = [_chunk_stats(cfg, h, a, b) for h, a, b in plan]
    else:
        with _engine_pool(processes) as pool:
            chunks = list(pool.map(_chunk_stats, repeat(cfg), *zip(*plan)))
    stats = np.concatenate([np.empty(0), *chunks])  # H0's trials in index order, then H1's
    return stats[: cfg.n_trials_h0], stats[cfg.n_trials_h0 :]


def empirical_threshold(h0_stats: np.ndarray, p_fa):
    """Order-statistic threshold with empirical exceedance closest below p_fa.

    Returns the (n - k)-th order statistic with k = floor(p_fa * n), so
    with distinct statistics exactly k of n exceed it: the realized rate
    differs from the request by at most 1/n.  A scalar ``p_fa`` gives a
    float; a grid gives an array of thresholds from one sort.
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


def estimate_roc(h0_stats: np.ndarray, h1_stats: np.ndarray, lambda_f: float, eta) -> RocCurve:
    """Empirical rates at thresholds ``eta``, plus matching asymptotic theory.

    ``eta`` is a scalar or a 1-D array, and row i of the curve is ``eta[i]``:
    the rows keep the order given, nothing is sorted.  For thresholds at
    requested false-alarm rates pass ``empirical_threshold(h0_stats, p_fa)``.
    Theory columns use the chi-square null tail exp(-eta/2) and
    :func:`quantdet.perf_theory.asymptotic_pd` at noncentrality ``lambda_f``.
    """
    if h0_stats.shape[0] == 0 or h1_stats.shape[0] == 0:
        raise ValueError("estimate_roc needs non-empty statistic samples")
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
    """Derived 64-bit seed for a sub-experiment at ``path`` under the master."""
    ss = np.random.SeedSequence((master_seed,) + path)
    return int(ss.generate_state(1, np.uint64)[0])


"""Monte Carlo engine: reproducibility, calibration, ROC estimation."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from quantdet import detectors, montecarlo
from quantdet.detectors import GlrtDetector, RaoDetector
from quantdet.montecarlo import (
    TrialConfig,
    _chunk_stats,
    empirical_threshold,
    estimate_roc,
    exceedance,
    run_trials,
    subseed,
)
from quantdet.quantizer import ThresholdSet
from quantdet.signal_model import Hypothesis, SceneConfig, observation_planes
from quantdet.special import chi2_2_sf


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


def _ranged_stats(cfg, hypothesis, bounds):
    """Statistics for trials [bounds[0], bounds[-1]), one range between neighbours at a time."""
    pieces = [_chunk_stats(cfg, hypothesis, a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    return np.concatenate(pieces)


# ------------------------------------------------------------- reproducibility

def test_same_seed_bit_identical(small_scene, rao2):
    a0, a1 = run_trials(_cfg(small_scene, rao2, 300, 300, seed=5))
    b0, b1 = run_trials(_cfg(small_scene, rao2, 300, 300, seed=5))
    assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
    c0, _ = run_trials(_cfg(small_scene, rao2, 300, 300, seed=6))
    assert not np.array_equal(a0, c0)


def test_batch_size_invariance(small_scene, rao2):
    # one range per worker (1, 2 or 3 of them), ragged ranges and one-row
    # ranges all give the same statistics byte for byte
    for det in (rao2, GlrtDetector()):
        a0, a1 = run_trials(_cfg(small_scene, det, 500, 500, seed=9))
        for workers in (2, 3):
            b0, b1 = run_trials(_cfg(small_scene, det, 500, 500, seed=9, workers=workers))
            assert np.array_equal(a0, b0) and np.array_equal(a1, b1), (det.label, workers)
        cfg = _cfg(small_scene, det, 500, 500, seed=9)
        for h, want in ((Hypothesis.H0, a0), (Hypothesis.H1, a1)):
            for bounds in ((0, 333, 500), range(501)):
                got = _ranged_stats(cfg, h, bounds)
                assert np.array_equal(got, want), (det.label, h, len(bounds) - 1)


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
    # both hypotheses, unequal in size, share one pool's plan at 2 and 3 workers
    serial = run_trials(_cfg(small_scene, rao2, 400, 250, seed=4))
    assert serial[0].shape == (400,) and serial[1].shape == (250,)
    for workers in (2, 3):
        parallel = run_trials(_cfg(small_scene, rao2, 400, 250, seed=4, workers=workers))
        for a, b in zip(serial, parallel):
            assert a.tobytes() == b.tobytes(), workers


class _SerialPool:
    """Stands in for ProcessPoolExecutor: runs ``map`` in-process and records."""

    opened: list = []

    def __init__(self, max_workers):
        self.ranges = []
        self.opened.append((max_workers, self.ranges))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        for args in zip(*iterables):
            self.ranges.append(args[-2:])
            yield fn(*args)


@pytest.mark.parametrize(
    "trials, workers, pools",
    [
        (10_000, 2, [(2, [(0, 5000), (5000, 10_000)])]),
        (3, 8, [(3, [(0, 1), (1, 2), (2, 3)])]),
        (10, 4, [(4, [(0, 3), (3, 6), (6, 9), (9, 10)])]),
        (9, 4, [(3, [(0, 3), (3, 6), (6, 9)])]),
        (10_000, 1, []),
        (10, 5000, [(4, [(0, 3), (3, 6), (6, 9), (9, 10)])]),
        pytest.param(
            (10_000, 4000), 2,
            [(2, [(0, 5000), (5000, 10_000), (0, 4000)])],
            id="both-hypotheses",
        ),
    ],
)
def test_one_range_per_worker(small_scene, rao2, monkeypatch, trials, workers, pools):
    # each hypothesis splits into ceil(max(n0, n1) / processes)-trial ranges,
    # processes being the workers capped at the CPUs (four here), and one
    # pool runs the ranges of both (H0's first) when there are two or more,
    # with no more processes than ranges
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "opened", [])
    n0, n1 = trials if isinstance(trials, tuple) else (trials, 0)
    cfg = _cfg(small_scene, rao2, n0, n1, seed=7, workers=workers)
    assert cfg.batch_size == -(-max(n0, n1) // min(workers, 4))
    h0, h1 = run_trials(cfg)
    assert _SerialPool.opened == pools
    assert h0.shape == (n0,) and h1.shape == (n1,)


class _RecordingPool(montecarlo.ProcessPoolExecutor):
    """The engine's executor, recording the ranges each ``map`` call is given."""

    mapped: list = []

    def map(self, fn, *iterables):
        iterables = [list(it) for it in iterables]
        self.mapped.append(list(zip(*iterables[-2:])))
        return super().map(fn, *iterables)


def test_one_range_call_runs_on_an_open_pool(small_scene, rao2, monkeypatch):
    # _engine_pool alone decides where a call runs: inside an open block a
    # one-range call runs on that block's pool, with the bytes of a call
    # outside any block
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "mapped", [])
    cfg = _cfg(small_scene, rao2, 300, 0, seed=5)
    alone = run_trials(cfg)
    assert _RecordingPool.mapped == []
    with montecarlo._engine_pool(2) as run:
        assert run == montecarlo._pool.map
        pooled = run_trials(cfg)
    assert _RecordingPool.mapped == [[(0, 300)]]
    assert montecarlo._pool is None
    for a, b in zip(alone, pooled):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("in_block", [False, True], ids=["alone", "in-block"])
def test_zero_trial_call_returns_two_empty_arrays(small_scene, rao2, monkeypatch, in_block):
    # an empty plan maps nothing, in-process or on an open pool
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "opened", [])
    with montecarlo._engine_pool(4 if in_block else 1):
        h0, h1 = run_trials(_cfg(small_scene, rao2, 0, 0, seed=1, workers=4))
    for stats in (h0, h1):
        assert stats.shape == (0,) and stats.dtype == np.float64
    assert [ranges for _, ranges in _SerialPool.opened] == ([[]] if in_block else [])


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
    with pytest.raises(TypeError):
        _cfg(small_scene, rao2, 10, 10, seed=1, batch_size=8)  # derived, not settable
    with pytest.raises(ValueError):
        _cfg(small_scene, "not a detector", 10, 10, seed=1)
    # -1 and 2^64 would alias seeds 2^64 - 1 and 0; the config fails before any draw
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            _cfg(small_scene, rao2, 10, 10, seed=seed)
    _cfg(small_scene, rao2, 10, 10, seed=2**64 - 1)


def test_zero_trial_runs_allowed(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 0, 0, seed=1))
    assert h0.size == 0 and h1.size == 0


@pytest.fixture(scope="module")
def large_scene():
    # n = 2048: one tile is 2^14 // 2048 = 8 trials
    return SceneConfig(n_tx=4, n_rx=64, snapshots=32, noise_power=2.0).with_snr_db(-22.0)


@pytest.fixture(scope="module")
def rao3(reference_q3):
    return RaoDetector(ThresholdSet(bits=3, interior=reference_q3))


def test_tile_boundary_invariance(large_scene, rao3):
    # 97 = 12 * 8 + 1 trials: one range of thirteen tiles, the last holding
    # one row in new planes and in a prefix of the scorer's buffers, ranges
    # of 33 (four 8-row tiles and one row) and 64 rows (eight tiles), and
    # one-row ranges must all give the untiled block's statistics byte for
    # byte
    signal = large_scene.signal
    for det in (rao3, GlrtDetector()):
        cfg = _cfg(large_scene, det, 97, 97, seed=12)
        for h in (Hypothesis.H0, Hypothesis.H1):
            planes = observation_planes(large_scene, h, 12, 0, 97)
            want = det.scorer(signal, large_scene.noise_power)(planes)
            for bounds in ((0, 97), (0, 33, 97), range(98)):
                got = _ranged_stats(cfg, h, bounds)
                assert np.array_equal(got, want), (det.label, h, len(bounds) - 1)


@pytest.mark.parametrize("det", ["rao", "glrt", "rao4-n256"])
@pytest.mark.parametrize("trials", [1000, 6000])
def test_chunk_peak_is_one_tile(large_scene, rao3, det, trials):
    # the chunk's planes take 31.25 or 187.5 MiB at n = 2048, one tile's
    # 256 KiB: the traced peak stays a few tiles whatever the chunk size.
    # At n = 256 and q = 4 (n * 4^q = 2^16) the range also holds the Rao
    # scorer's largest score-term table, 1 MiB.
    if det == "rao4-n256":
        scene = SceneConfig(n_tx=2, n_rx=16, snapshots=16, noise_power=2.0).with_snr_db(-22.0)
        detector = RaoDetector(ThresholdSet(bits=4, interior=np.linspace(-2.0, 2.0, 15)))
    else:
        scene = large_scene
        detector = rao3 if det == "rao" else GlrtDetector()
    cfg = _cfg(scene, detector, trials, 0, seed=8)
    tracemalloc.start()
    try:
        _chunk_stats(cfg, Hypothesis.H0, 0, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.skipif(sys.platform != "linux", reason="reads minor faults from getrusage")
@pytest.mark.parametrize("det", ["rao", "glrt"])
def test_a_range_reuses_its_buffers(large_scene, rao3, det):
    # a range keeps the scorer's buffers (the Rao test's index and gather
    # arrays, the GLRT's complex rows) and reuses them for every tile; it
    # keeps no planes, which are new per tile and freed once scored.  Once
    # a first range has warmed the allocator, a range of 189 tiles takes
    # fewer minor page faults than a one-tile range (which allocates the
    # same buffers) plus its 188 further tiles.  The buffers' own pages are
    # not counted, as the heap may hand them back to the system between
    # ranges.  This process's heap can meet the bound without the buffers
    # too; the next test checks a command in a fresh interpreter.
    import resource

    tile = max(1, montecarlo.TILE_VALUES // large_scene.n_samples)
    cfg = _cfg(large_scene, rao3 if det == "rao" else GlrtDetector(), 189 * tile, 0, seed=8)

    def faults(trials):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _chunk_stats(cfg, Hypothesis.H0, 0, trials)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    faults(tile)
    one_tile = faults(tile)
    extra = faults(189 * tile) - one_tile
    assert extra < 188, f"{extra} minor faults in 188 tiles"


@pytest.mark.skipif(sys.platform != "linux", reason="reads minor faults from getrusage")
@pytest.mark.parametrize("det", ["3", "inf"], ids=["rao", "glrt"])
def test_a_command_reuses_its_buffers_in_a_fresh_interpreter(tmp_path, large_scene, det):
    # whether a tile that frees its arrays takes fresh pages depends on the
    # heap's history, which this suite's own allocations change: on glibc
    # 2.36 the test above passed, alone and in the whole suite, with every
    # scorer buffer removed.  So a command runs in a fresh interpreter, on
    # one detector: once a first run has warmed the allocator, a roc run of
    # 101 tiles per hypothesis takes fewer minor page faults than a
    # one-tile run plus its 200 further tiles.  Without the Rao scorer's
    # buffers the Rao run took about 29,000 more, and with a new GLRT
    # interleave array per tile the GLRT run took about 19,000 more.
    tile = max(1, montecarlo.TILE_VALUES // large_scene.n_samples)
    (tmp_path / "large.cfg").write_text("n_tx = 4\nn_rx = 64\nsnapshots = 32\n")
    script = (
        "import resource\n"
        "from quantdet import cli\n"
        "def faults(trials):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"    assert cli.main(['roc', '--config', 'large.cfg', '--detectors', '{det}',\n"
        "                     '--snr-db=-22', '--trials', str(trials), '--workers', '1',\n"
        "                     '--seed', '1', '--out', 'r.csv']) == 0\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        f"faults({tile})\n"
        f"one_tile = faults({tile})\n"
        f"print(faults({101 * tile}) - one_tile)\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    extra = int(done.stdout.splitlines()[-1])
    assert extra < 200, f"{extra} minor faults in 200 tiles"


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
    lam = GlrtDetector().noncentrality(small_scene)
    se = np.sqrt(np.var(h1) / n)
    assert h1.mean() == pytest.approx(2.0 + lam, abs=4 * se)


# ---------------------------------------------------------------- exact tails

def _eta_near(t, prob, p_fa):
    """A threshold between two neighbouring values of T whose exact tail is nearest ``p_fa``.

    Values equal in exact arithmetic are merged by rounding, and only gaps
    wider than 1e-6 are used, so the last bits of the engine's T cannot
    flip a comparison with the threshold.
    """
    vals = np.unique(np.round(t, 9))
    mids = ((vals[:-1] + vals[1:]) / 2)[np.diff(vals) > 1e-6]
    srt = np.argsort(t)
    upper = np.append(np.cumsum(prob[srt][::-1])[::-1], 0.0)  # mass at sorted index >= j
    tail = upper[np.searchsorted(t[srt], mids, side="right")]
    return mids[np.argmin(np.abs(np.log(tail + 1e-300) - np.log(p_fa)))]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("path", ["table", "direct"])
@pytest.mark.parametrize("q, snapshots, snr_db", [(1, 2, 0.0), (1, 4, -3.0), (2, 2, 0.0)],
                         ids=["q1-n4", "q1-n8", "q2-n4"])
def test_rao_rates_match_exact_tails(q, snapshots, snr_db, path, workers, reference_q2,
                                     monkeypatch):
    # on a tiny scene T takes finitely many values, so its tail is an exact
    # sum over every bin-index pattern (oracles.exact_rao_tail); both
    # empirical rates lie within 4 binomial SE of it.  20,000 trials per
    # hypothesis are 5 tiles of 4,096 at n = 4 (10 of 2,048 at n = 8), and
    # 3 (5) per range at two workers.  TABLE_VALUES = 0 forces the direct
    # formula in place of the score-term table.
    if path == "direct":
        monkeypatch.setattr(detectors, "TABLE_VALUES", 0)
    scene = SceneConfig(n_tx=1, n_rx=2, snapshots=snapshots).with_snr_db(snr_db)
    ts = ThresholdSet(bits=q, interior=(0.0,) if q == 1 else reference_q2)
    trials = 20_000
    h0, h1 = run_trials(_cfg(scene, RaoDetector(ts), trials, trials, seed=41, workers=workers))
    t, prob = oracles.rao_atoms(scene, ts, Hypothesis.H0)
    for p_fa in (0.1, 0.01):
        eta = _eta_near(t, prob, p_fa)
        for stats, hypothesis in ((h0, Hypothesis.H0), (h1, Hypothesis.H1)):
            p = oracles.exact_rao_tail(scene, ts, eta, hypothesis)
            assert 0.0 < p < 1.0
            se = math.sqrt(p * (1.0 - p) / trials)
            assert abs(exceedance(stats, eta) - p) <= 4.0 * se, (eta, hypothesis)


# ------------------------------------------------------- thresholds/exceedance

def test_empirical_threshold_realizes_rate():
    rng = np.random.default_rng(0)
    x = rng.exponential(size=5000)
    grid = (0.01, 0.1, 0.37)
    for pfa in grid:
        eta = empirical_threshold(x, pfa)
        realized = float(np.mean(x > eta))
        assert abs(realized - pfa) <= 1.0 / x.size + 1e-12
    # a grid sorts once and gives each rate's scalar threshold, bit for bit
    etas = empirical_threshold(x, np.array(grid))
    assert etas.shape == (3,)
    assert etas.tolist() == [empirical_threshold(x, p) for p in grid]


def test_empirical_threshold_validation():
    with pytest.raises(ValueError):
        empirical_threshold(np.arange(5.0), 0.0)
    with pytest.raises(ValueError):
        empirical_threshold(np.arange(5.0), 1.0)
    with pytest.raises(ValueError):
        empirical_threshold(np.empty(0), 0.1)
    # one rate outside (0, 1) fails the whole grid
    for bad in ((0.1, 1.0), (0.0, 0.5), (0.1, np.nan)):
        with pytest.raises(ValueError):
            empirical_threshold(np.arange(5.0), np.array(bad))


def test_exceedance_counts_strictly_above():
    x = np.array([1.0, 2.0, 3.0])
    assert exceedance(x, 2.0) == pytest.approx(1.0 / 3.0)  # tie excluded
    assert exceedance(x, -1.0) == 1.0
    assert exceedance(x, np.inf) == 0.0
    grid = exceedance(x, np.array([0.5, 1.5, 2.5, 3.5]))
    assert np.allclose(grid, [1.0, 2 / 3, 1 / 3, 0.0])
    with pytest.raises(ValueError):  # no rate of zero trials, as empirical_threshold
        exceedance(np.empty(0), 1.0)


# ------------------------------------------------------------------------- ROC

def test_estimate_roc_rejects_empty_samples(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 200, 200, seed=11))
    with pytest.raises(ValueError):
        estimate_roc(np.empty(0), h1, 1.0, [1.0])
    with pytest.raises(ValueError):
        estimate_roc(h0, np.empty(0), 1.0, [1.0])


def test_estimate_roc_keeps_the_order_of_eta(small_scene, rao2):
    # row i is eta[i]: a descending grid gives the ascending call's rows reversed
    h0, h1 = run_trials(_cfg(small_scene, rao2, 500, 500, seed=31))
    up = estimate_roc(h0, h1, 2.0, np.linspace(0.0, 12.0, 7))
    down = estimate_roc(h0, h1, 2.0, np.linspace(12.0, 0.0, 7))
    for name in ("eta", "p_fa_hat", "p_d_hat", "p_fa_theory", "p_d_theory"):
        assert np.array_equal(getattr(down, name), getattr(up, name)[::-1]), name
    one = estimate_roc(h0, h1, 2.0, 4.0)  # a scalar threshold is a one-row curve
    assert one.eta.tolist() == [4.0] and one.p_d_hat.tolist() == [up.p_d_hat[2]]


def test_estimate_roc_monotone_and_theory_columns(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 4000, 4000, seed=13))
    lam = 3.0
    eta = np.linspace(0.0, 12.0, 7)
    roc = estimate_roc(h0, h1, lam, eta)
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
    roc = estimate_roc(h0, h1, 2.0, empirical_threshold(h0, pfa))
    assert np.all(np.abs(roc.p_fa_hat - pfa) <= 1.0 / h0.size + 1e-12)


def test_roc_with_zero_noncentrality_degenerates_to_diagonal(small_scene, rao2):
    silent = SceneConfig(
        n_tx=small_scene.n_tx,
        n_rx=small_scene.n_rx,
        snapshots=small_scene.snapshots,
        noise_power=small_scene.noise_power,
        beta=0j,
    )
    h0, h1 = run_trials(_cfg(silent, rao2, 4000, 4000, seed=23))
    roc = estimate_roc(h0, h1, 0.0, np.linspace(1.0, 9.0, 5))
    # both samples come from the same null law (different streams), so
    # the empirical rates agree to binomial noise, and theory is exact
    assert np.allclose(roc.p_d_theory, roc.p_fa_theory, atol=1e-12)
    assert np.all(np.abs(roc.p_d_hat - roc.p_fa_hat) <= 0.03)


def test_roc_arrays_read_only(small_scene, rao2):
    h0, h1 = run_trials(_cfg(small_scene, rao2, 100, 100, seed=29))
    roc = estimate_roc(h0, h1, 1.0, [1.0, 2.0])
    with pytest.raises(ValueError):
        roc.p_d_hat[0] = 0.5


# ------------------------------------------------------------------- sub-seeds

def test_subseed_deterministic_and_path_sensitive():
    assert subseed(1, 2, 3) == subseed(1, 2, 3)
    assert subseed(1, 2, 3) != subseed(1, 3, 2)
    assert subseed(1, 2) != subseed(2, 2)


"""Scene geometry, waveforms, and the deterministic noise streams."""

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest

import oracles
from quantdet import signal_model
from quantdet.signal_model import (
    EffectiveSignal,
    Hypothesis,
    SceneConfig,
    effective_signal,
    lfm_waveform,
    observation_planes,
    steering_matrix,
    stream_rng,
    synthesize_observation,
    trial_counter,
)


# ---------------------------------------------------------------- SceneConfig

def test_scene_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(n_tx=0, n_rx=4, snapshots=8)
    with pytest.raises(ValueError):
        SceneConfig(n_tx=2, n_rx=4, snapshots=0)
    with pytest.raises(ValueError):
        SceneConfig(n_tx=2, n_rx=4, snapshots=8, noise_power=0.0)
    with pytest.raises(ValueError):
        SceneConfig(n_tx=2, n_rx=4, snapshots=8, noise_power=-1.0)
    with pytest.raises(ValueError):
        SceneConfig(n_tx=2, n_rx=4, snapshots=8, angle=np.nan)
    for beta in (complex(np.inf, 0.0), complex(0.0, np.nan)):
        with pytest.raises(ValueError):
            SceneConfig(n_tx=2, n_rx=4, snapshots=8, beta=beta)


def test_scene_snr_round_trip():
    cfg = SceneConfig(n_tx=2, n_rx=16, snapshots=8, noise_power=2.0)
    for target in (-20.0, -14.0, -3.5, 0.0):
        beta = cfg.with_snr_db(target).beta
        assert 10.0 * np.log10(abs(beta) ** 2 / cfg.noise_power) == pytest.approx(target, abs=1e-10)


def test_with_snr_db_preserves_phase():
    cfg = SceneConfig(n_tx=2, n_rx=4, snapshots=8, beta=0.3 - 0.4j)
    out = cfg.with_snr_db(-10.0)
    assert type(out.beta) is complex
    assert np.angle(out.beta) == pytest.approx(np.angle(0.3 - 0.4j), abs=1e-12)


def test_with_snr_db_rejects_an_overflowing_amplitude():
    cfg = SceneConfig(n_tx=2, n_rx=4, snapshots=8)
    # 10 ** 400 overflows in the power; 10 ** 308 fits, times noise_power it does not
    for snr_db in (4000.0, 3080.0):
        with pytest.raises(ValueError, match="overflows"):
            cfg.with_snr_db(snr_db)


def test_with_snr_db_rejects_a_non_finite_snr():
    cfg = SceneConfig(n_tx=2, n_rx=4, snapshots=8)
    for snr_db in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            cfg.with_snr_db(snr_db)


def test_with_snr_db_from_zero_amplitude():
    cfg = SceneConfig(n_tx=2, n_rx=4, snapshots=8, beta=0j)
    out = cfg.with_snr_db(-6.0)
    snr_db = 10.0 * np.log10(abs(out.beta) ** 2 / out.noise_power)
    assert snr_db == pytest.approx(-6.0, abs=1e-10)


# ------------------------------------------------------------------- steering

def test_steering_broadside_is_all_ones():
    a = steering_matrix(SceneConfig(n_tx=3, n_rx=5, snapshots=4, angle=0.0))
    assert np.allclose(a, 1.0 + 0.0j, atol=1e-15)
    assert a.shape == (5, 3)


def test_steering_endfire_half_wavelength_entry():
    # quarter-turn geometry: sin(pi/2) = 1 with half-wavelength spacing
    # puts adjacent elements exactly out of phase
    cfg = SceneConfig(n_tx=2, n_rx=2, snapshots=4, angle=np.pi / 2)
    a = steering_matrix(cfg)
    assert a[0, 0] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    assert a[1, 0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)
    assert a[1, 1] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_steering_unit_modulus_and_rank_one():
    cfg = SceneConfig(n_tx=4, n_rx=6, snapshots=4, angle=0.7)
    a = steering_matrix(cfg)
    assert np.allclose(np.abs(a), 1.0, atol=1e-13)
    # every 2x2 minor of an outer product vanishes
    for i in range(5):
        for j in range(3):
            minor = a[i, j] * a[i + 1, j + 1] - a[i, j + 1] * a[i + 1, j]
            assert abs(minor) <= 1e-12


def test_steering_entry_against_mpmath():
    cfg = SceneConfig(n_tx=4, n_rx=5, snapshots=4, angle=0.31)
    a = steering_matrix(cfg)
    ref = oracles.steering_entry(2, 3, spacing=0.5, angle=0.31)
    assert a[2, 3].real == pytest.approx(ref.real, abs=1e-14)
    assert a[2, 3].imag == pytest.approx(ref.imag, abs=1e-14)


# ------------------------------------------------------------------ waveforms

def test_lfm_first_snapshot_column():
    s = lfm_waveform(n_tx=3, snapshots=8)
    assert s.shape == (3, 8)
    assert np.allclose(s[:, 0], 1.0 / 3.0, atol=1e-15)


def test_lfm_constant_modulus():
    s = lfm_waveform(n_tx=4, snapshots=16)
    assert np.allclose(np.abs(s), 0.25, atol=1e-14)


def test_lfm_specific_entry():
    # row index 0 is the p = 1 chirp; sample index 2 has offset l0 = 2
    s = lfm_waveform(n_tx=2, snapshots=8)
    want = np.exp(1j * (2 * np.pi * 1 * 2 / 8 + np.pi * 4 / 8)) / 2.0
    assert s[0, 2] == pytest.approx(want, abs=1e-14)
    # and the quadratic term alone separates the rows
    want_p2 = np.exp(1j * (2 * np.pi * 2 * 2 / 8 + np.pi * 4 / 8)) / 2.0
    assert s[1, 2] == pytest.approx(want_p2, abs=1e-14)


def test_lfm_rejects_an_empty_shape():
    for n_tx, snapshots in ((0, 4), (2, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            lfm_waveform(n_tx, snapshots)


def test_lfm_rows_nearly_orthogonal():
    # chirp offsets decorrelate the transmit rows; exact orthogonality is
    # not promised, but the cross term must be far below the diagonal
    s = lfm_waveform(n_tx=2, snapshots=64)
    gram = s @ s.conj().T
    assert abs(gram[0, 1]) < 0.1 * abs(gram[0, 0])


# ----------------------------------------------------------- effective signal

def test_effective_signal_trivial_scene():
    cfg = SceneConfig(n_tx=1, n_rx=1, snapshots=1)
    sig = effective_signal(cfg)
    assert sig.g.shape == (1,)
    assert sig.g[0] == pytest.approx(1.0, abs=1e-15)
    assert sig.h[0] == pytest.approx(0.0, abs=1e-15)
    assert sig.energy == pytest.approx(1.0, rel=1e-15)


def test_effective_signal_matches_manual_product():
    cfg = SceneConfig(n_tx=2, n_rx=3, snapshots=5, angle=0.42)
    sig = effective_signal(cfg)
    a = steering_matrix(cfg)
    s = lfm_waveform(cfg.n_tx, cfg.snapshots)
    manual = np.empty(cfg.n_rx * cfg.snapshots, dtype=complex)
    k = 0
    for r in range(cfg.n_rx):       # receiver-major flattening
        for l in range(cfg.snapshots):
            acc = 0.0 + 0.0j
            for t in range(cfg.n_tx):
                acc += a[r, t] * s[t, l]
            manual[k] = acc
            k += 1
    assert np.allclose(sig.z, manual, atol=1e-13)
    assert np.allclose(sig.g, manual.real, atol=1e-13)
    assert np.allclose(sig.h, manual.imag, atol=1e-13)


def test_effective_signal_energy_reference_scene(scene, signal):
    # N_r * L / N_t for orthonormal-ish rows: 16 * 8 / 2 = 64
    assert signal.energy == pytest.approx(64.0, rel=1e-12)
    assert signal.z.shape == (scene.n_rx * scene.snapshots,)


def test_effective_signal_validation():
    for g, h in ((np.zeros(3), np.zeros(4)), (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(ValueError, match="equal length"):
            EffectiveSignal(g=g, h=h)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            EffectiveSignal(g=np.array([1.0, bad]), h=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            EffectiveSignal(g=np.zeros(2), h=np.array([bad, 1.0]))


def test_effective_signal_arrays_read_only(scene, signal):
    with pytest.raises(ValueError):
        signal.g[0] = 99.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        scene.signal = signal


def test_template_caches_z_read_only():
    # z and the energy are computed at the first read and kept: the same
    # read-only array on every read, equal to g + j h
    sig = effective_signal(SceneConfig(n_tx=2, n_rx=3, snapshots=5, angle=0.42))
    z = sig.z
    assert sig.z is z and not z.flags.writeable
    assert z.tobytes() == (sig.g + 1j * sig.h).tobytes()
    assert sig.energy == float(np.sum(sig.g ** 2) + np.sum(sig.h ** 2))
    with pytest.raises(ValueError):
        z[0] = 0.0
    # pickling rebuilds the template through __post_init__: read-only
    # arrays, and nothing cached is carried along
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(sig, protocol=protocol))
        assert not back.g.flags.writeable and not back.h.flags.writeable, protocol
        assert {"z", "energy"}.isdisjoint(vars(back)), protocol
        assert back.z.tobytes() == z.tobytes() and not back.z.flags.writeable


def test_scene_signal_is_its_template_computed_once():
    cfg = SceneConfig(n_tx=2, n_rx=3, snapshots=5, angle=0.42, beta=0.5j)
    sig = cfg.signal
    want = effective_signal(cfg)
    assert sig.g.tobytes() == want.g.tobytes() and sig.h.tobytes() == want.h.tobytes()
    assert cfg.signal is sig
    # a copy at another amplitude computes its own, equal template
    louder = dataclasses.replace(cfg, beta=3.0)
    assert louder.signal is not sig
    assert louder.signal.g.tobytes() == sig.g.tobytes()
    assert louder.signal.h.tobytes() == sig.h.tobytes()
    # not a field: equality, hashing, repr and the field list ignore it
    unread = SceneConfig(n_tx=2, n_rx=3, snapshots=5, angle=0.42, beta=0.5j)
    assert "signal" not in vars(unread) and "signal" in vars(cfg)
    assert unread == cfg and hash(unread) == hash(cfg) and repr(unread) == repr(cfg)
    assert "signal" not in {f.name for f in dataclasses.fields(SceneConfig)}
    # a pickled scene, as the engine's pool ships it, carries the template
    # but not the H1 mean derived from it, which the copy computes read-only
    mean = cfg._h1_mean
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(cfg, protocol=protocol))
        assert back == cfg and "signal" in vars(back) and "_h1_mean" not in vars(back)
        assert back._h1_mean.tobytes() == mean.tobytes() and not back._h1_mean.flags.writeable
        for got, want in ((back.signal.g, sig.g), (back.signal.h, sig.h)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable, protocol


# -------------------------------------------------------------- noise streams

def test_stream_rng_counter_separation():
    a = stream_rng(7, 1).standard_normal(8)
    b = stream_rng(7, 2).standard_normal(8)
    c = stream_rng(7, 1).standard_normal(8)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_trial_counter_separates_hypotheses():
    assert trial_counter(Hypothesis.H0, 5) != trial_counter(Hypothesis.H1, 5)
    assert trial_counter(Hypothesis.H0, 0) == 0
    with pytest.raises(ValueError):
        trial_counter(Hypothesis.H0, -1)


@pytest.mark.parametrize(
    "seed, hypothesis, start, stop, n, noise_power",
    [
        (7, Hypothesis.H0, 0, 4, 8, 2.0),
        (7, Hypothesis.H1, 5, 9, 8, 2.0),
        # odd n leaves Philox output buffered after each trial; it must not
        # leak into the next one
        (2**64 - 5, Hypothesis.H0, 3, 7, 3, 2.0),
        (7, Hypothesis.H1, 2**63 - 3, 2**63, 5, 2.0),
        (11, Hypothesis.H1, 0, 3, 6, 0.7),
    ],
    ids=["h0", "h1-offset", "seed-above-2^63", "last-trial-index", "h1-noise-power"],
)
def test_observation_planes_rows_replay_per_trial_streams(
    seed, hypothesis, start, stop, n, noise_power
):
    scene = SceneConfig(n_tx=2, n_rx=n, snapshots=1, angle=0.3, noise_power=noise_power,
                        beta=0.4 - 1.3j)
    planes = observation_planes(scene, hypothesis, seed, start, stop)
    assert planes.shape == (stop - start, 2, n)
    mean = scene.beta * effective_signal(scene).z
    for j, row in enumerate(planes):
        w = stream_rng(seed, trial_counter(hypothesis, start + j)).standard_normal((2, n))
        ref = np.sqrt(noise_power / 2.0) * w
        if hypothesis is Hypothesis.H1:
            ref[0] += mean.real
            ref[1] += mean.imag
        assert row.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "seed, start, stop, match",
    [
        (7, 2**63 - 2, 2**63 + 1, "trial_index out of range"),
        (7, -1, 3, "trial_index out of range"),
        # -1 and 2^64 would alias seeds 2^64 - 1 and 0
        (-1, 0, 3, r"seed must lie in \[0, 2\^64\)"),
        (2**64, 0, 3, r"seed must lie in \[0, 2\^64\)"),
    ],
    ids=["past-last-trial-index", "negative-start", "negative-seed", "seed-2^64"],
)
def test_observation_planes_check_the_range_before_drawing(
    monkeypatch, scene, seed, start, stop, match
):
    # both ends of the range, and the seed, are checked before a thread's
    # first call builds its bit generator
    def no_draw(*args, **kwargs):
        raise AssertionError("built a generator before the checks")

    monkeypatch.delattr(signal_model._thread, "stream", raising=False)
    monkeypatch.setattr(np.random, "Philox", no_draw)
    with pytest.raises(ValueError, match=match):
        observation_planes(scene, Hypothesis.H1, seed, start, stop)


def _per_trial_planes(scene, hypothesis, seed, start, stop):
    """Trials [start, stop) drawn with a fresh generator per trial."""
    rows = []
    for trial in range(start, stop):
        w = stream_rng(seed, trial_counter(hypothesis, trial)).standard_normal((2, scene.n_samples))
        row = np.sqrt(scene.noise_power / 2.0) * w
        if hypothesis is Hypothesis.H1:
            mean = scene.beta * (scene.signal.g + 1j * scene.signal.h)
            row += np.stack([mean.real, mean.imag])
        rows.append(row)
    return np.array(rows)


def _plain(state):
    """A bit generator state with its arrays as lists, comparable with ==."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


_CALLS = [
    # (scene, hypothesis, seed, start, stop): odd n leaves Philox output
    # buffered after a trial, and the seeds, scenes and hypotheses change
    # from call to call
    (SceneConfig(n_tx=2, n_rx=3, snapshots=1, beta=0.4 - 1.3j), Hypothesis.H1, 7, 5, 9),
    (SceneConfig(n_tx=1, n_rx=8, snapshots=2, noise_power=0.7), Hypothesis.H0, 2**64 - 5, 0, 3),
    (SceneConfig(n_tx=2, n_rx=3, snapshots=1, beta=0.4 - 1.3j), Hypothesis.H0, 7, 5, 9),
    (SceneConfig(n_tx=3, n_rx=5, snapshots=1, angle=0.3), Hypothesis.H1, 11, 2**63 - 2, 2**63),
    (SceneConfig(n_tx=1, n_rx=8, snapshots=2, noise_power=0.7), Hypothesis.H0, 2**64 - 5, 1, 2),
    (SceneConfig(), Hypothesis.H1, 0, 100, 103),
]


def test_observation_planes_carry_no_state_between_calls():
    # each thread keeps one generator for all its calls, and every call
    # re-keys it whole: calls interleaved across seeds, hypotheses, scenes
    # and ranges give the bytes of a fresh generator per trial, even after
    # something else drew from the kept generator and left a partly used
    # buffer and a kept uint32 behind; and after a call the generator is in
    # the state a fresh one is in after drawing the last trial
    for scene, hypothesis, seed, start, stop in _CALLS * 2:
        got = observation_planes(scene, hypothesis, seed, start, stop)
        assert got.tobytes() == _per_trial_planes(scene, hypothesis, seed, start, stop).tobytes()
        rng = signal_model._thread.stream[0]
        last = stream_rng(seed, trial_counter(hypothesis, stop - 1))
        last.standard_normal((2, scene.n_samples))
        assert _plain(rng.bit_generator.state) == _plain(last.bit_generator.state)
        rng.bit_generator.random_raw()  # moves the buffer on by one value
        rng.random(dtype=np.float32)  # takes half of the next value, keeps the other half
        assert rng.bit_generator.state["has_uint32"] == 1


def test_observation_planes_threads_draw_apart():
    # threads drawing at once (more of them than CPUs, switching as often
    # as the interpreter allows) each keep their own generator, so each
    # gets the bytes of serial calls; one generator shared between them
    # would let a re-key land between another thread's re-key and its draw
    want = [observation_planes(*call).tobytes() for call in _CALLS] * 20
    start = threading.Barrier(4)
    got = {}

    def draw(name):
        start.wait(timeout=60)
        got[name] = [observation_planes(*call).tobytes() for _ in range(20) for call in _CALLS]

    threads = [threading.Thread(target=draw, args=(name,)) for name in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(got[name] == want for name in range(4))


def test_synthesize_deterministic_and_stream_keyed(scene):
    x1 = synthesize_observation(scene, Hypothesis.H0, 3, 10)
    x2 = synthesize_observation(scene, Hypothesis.H0, 3, 10)
    x3 = synthesize_observation(scene, Hypothesis.H0, 3, 11)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, x3)
    # the trial's row of planes, read as Re + j Im
    x_re, x_im = observation_planes(scene, Hypothesis.H0, 3, 9, 12)[1]
    assert x1.real.tobytes() == x_re.tobytes() and x1.imag.tobytes() == x_im.tobytes()


def test_synthesize_null_noise_moments():
    # one large draw: per-component variance sigma^2/2 and no Re/Im
    # correlation, each within 3 standard errors
    cfg = SceneConfig(n_tx=1, n_rx=500, snapshots=200, noise_power=2.0)
    x_re, x_im = observation_planes(cfg, Hypothesis.H0, 99, 0, 1)[0]
    n = x_re.size
    for part in (x_re, x_im):
        assert abs(part.mean()) <= 3.0 / np.sqrt(n)
        assert part.var() == pytest.approx(1.0, abs=3.0 * np.sqrt(2.0 / n))
    cross = np.mean(x_re * x_im)
    assert abs(cross) <= 3.0 / np.sqrt(n)

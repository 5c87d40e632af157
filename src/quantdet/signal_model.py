"""Scene geometry, probing waveform and observation synthesis.

A colocated MIMO radar with ``n_tx`` transmitters and ``n_rx`` receivers
on uniform linear arrays probes a far-field point scatterer at a known
angle.  After matched filtering the length ``n = n_rx * snapshots``
observation is

    H0:  x = w
    H1:  x = beta * z + w

with ``z`` the scene's template (:attr:`SceneConfig.signal`), ``beta``
the unknown complex amplitude and ``w`` circular complex Gaussian noise
of power ``noise_power`` per sample (``noise_power / 2`` per real part).

Conventions: space-time matrices of shape ``(n_rx, snapshots)`` are
flattened receiver-major (C order), and every consumer of ``z`` relies
on that order.  All randomness comes from the Philox streams of
:func:`stream_rng`, named by (master seed, counter).
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class Hypothesis(Enum):
    """Null (noise only) versus alternative (signal present)."""

    H0 = "H0"
    H1 = "H1"


@dataclass(frozen=True)
class SceneConfig:
    """Immutable description of one radar scene; the defaults are the paper's scene.

    ``n_tx`` and ``n_rx`` count the transmit and receive elements and
    ``snapshots`` the samples per receiver, each a positive int.
    ``spacing`` (between elements, in carrier lambdas) and ``noise_power``
    (complex noise power per sample) are finite and positive; ``angle``
    (radians, 0 = broadside) and ``beta`` (the complex reflection
    amplitude) are finite.  Anything else raises ``ValueError``.
    """

    n_tx: int = 2
    n_rx: int = 16
    snapshots: int = 8
    spacing: float = 0.5
    angle: float = 0.0
    noise_power: float = 2.0
    beta: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "snapshots"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("spacing", "noise_power"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v!r}")
        if not math.isfinite(self.angle):
            raise ValueError("angle must be finite")
        if not cmath.isfinite(self.beta):
            raise ValueError(f"beta must be a finite complex number, got {self.beta!r}")
        object.__setattr__(self, "beta", complex(self.beta))

    @property
    def n_samples(self) -> int:
        return self.n_rx * self.snapshots

    @cached_property
    def signal(self) -> "EffectiveSignal":
        """This scene's template z, :func:`effective_signal` computed once per scene object.

        Not a field: equality, hashing and ``repr`` ignore it, a
        ``dataclasses.replace`` copy computes its own, and a pickled scene
        carries it once it has been read, so pool workers do not rebuild it.
        """
        return effective_signal(self)

    @cached_property
    def _h1_mean(self) -> np.ndarray:
        """Re/Im planes of beta * z, shape (2, n), read-only: the H1 mean every tile adds."""
        mean = self.beta * self.signal.z
        return _read_only(np.stack([mean.real, mean.imag]))

    def __getstate__(self):  # a pickled scene carries its template, not the mean derived from it
        return {k: v for k, v in vars(self).items() if k != "_h1_mean"}

    def with_snr_db(self, snr_db: float) -> "SceneConfig":
        """Copy of the scene with |beta| rescaled to hit ``snr_db``.

        The per-sample SNR is 10 log10(|beta|^2 / noise_power).  The phase
        of beta is preserved (a zero beta is rescaled along the real axis).
        A non-finite ``snr_db``, or one whose |beta| overflows, raises ``ValueError``.
        """
        if not math.isfinite(snr_db):
            raise ValueError("snr_db must be finite")
        try:
            target_mag = math.sqrt(self.noise_power * 10.0 ** (snr_db / 10.0))
        except OverflowError:
            target_mag = math.inf
        if not math.isfinite(target_mag):
            raise ValueError(f"snr_db = {snr_db!r} overflows the amplitude |beta|")
        old_mag = math.hypot(self.beta.real, self.beta.imag)
        if old_mag == 0.0:
            new_beta = complex(target_mag, 0.0)
        else:
            scale = target_mag / old_mag
            new_beta = complex(self.beta.real * scale, self.beta.imag * scale)
        return dataclasses.replace(self, beta=new_beta)


def steering_matrix(cfg: SceneConfig) -> np.ndarray:
    """Joint receive/transmit steering matrix of shape (n_rx, n_tx).

    Entry (i, k) is exp(-j * 2 pi * (i + k) * spacing * sin(angle)) with
    ``spacing`` in carrier lambdas and zero-based element indices -- the outer
    product of the receive and transmit steering vectors, hence rank one
    with every entry on the unit circle.
    """
    phase_step = 2.0 * math.pi * cfg.spacing * math.sin(cfg.angle)
    rx = np.arange(cfg.n_rx)[:, None]
    tx = np.arange(cfg.n_tx)[None, :]
    return np.exp(-1j * phase_step * (rx + tx))


def lfm_waveform(n_tx: int, snapshots: int) -> np.ndarray:
    """Orthogonal-ish linear-FM probing matrix of shape (n_tx, snapshots).

    Row p (1-based), sample l (1-based):

        S[p, l] = exp(j 2 pi p (l-1) / snapshots + j pi (l-1)^2 / snapshots) / n_tx

    Every entry has magnitude 1 / n_tx.
    """
    if n_tx < 1 or snapshots < 1:
        raise ValueError("n_tx and snapshots must be positive")
    p = np.arange(1, n_tx + 1)[:, None]
    l0 = np.arange(snapshots)[None, :]
    phase = 2.0 * math.pi * p * l0 / snapshots + math.pi * l0 ** 2 / snapshots
    return np.exp(1j * phase) / n_tx


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EffectiveSignal:
    """Known noise-free signal template z, split into real and imaginary parts.

    ``g`` and ``h`` are finite 1-D float64 arrays of equal length, Re(z)
    and Im(z), else ``ValueError``.  They are copied and marked read-only,
    so one template can be shared across threads and worker processes.
    """

    g: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if g.ndim != 1 or g.shape != h.shape:
            raise ValueError("g and h must be 1-D arrays of equal length")
        if not (np.isfinite(g).all() and np.isfinite(h).all()):
            raise ValueError("signal template must be finite")
        object.__setattr__(self, "g", _read_only(g.copy()))
        object.__setattr__(self, "h", _read_only(h.copy()))

    def __reduce__(self):  # unpickle through __post_init__: read-only arrays, nothing cached
        return EffectiveSignal, (self.g, self.h)

    def __len__(self) -> int:
        return self.g.shape[0]

    @cached_property
    def z(self) -> np.ndarray:
        """The complex template g + j h, read-only; computed at the first read and kept.

        Every GLRT tile reads it: keeping it and ``energy`` took roc_large's
        traced GLRT time from 0.114 to 0.023-0.028 s.  Each tile conjugates
        it afresh, which costs 0.9-2.0 us at n = 128-2048.
        """
        return _read_only(self.g + 1j * self.h)

    @cached_property
    def energy(self) -> float:
        """sum(g^2 + h^2) = ||z||^2; computed at the first read and kept."""
        return float(np.sum(self.g ** 2) + np.sum(self.h ** 2))


def effective_signal(cfg: SceneConfig) -> EffectiveSignal:
    """Template z = vec(A @ S) of steering and LFM probing matrices, raveled receiver-major."""
    a = steering_matrix(cfg)
    s = lfm_waveform(cfg.n_tx, cfg.snapshots)
    z = (a @ s).ravel(order="C")
    return EffectiveSignal(g=z.real, h=z.imag)


def _philox_key(master_seed: int, counter: int) -> list:
    """The two 64-bit words of stream (master_seed, counter)'s Philox key."""
    key = [counter & 0xFFFFFFFFFFFFFFFF, master_seed & 0xFFFFFFFFFFFFFFFF]
    if key[1] != master_seed:
        raise ValueError(f"seed must lie in [0, 2^64), got {master_seed!r}")
    return key


def stream_rng(master_seed: int, counter: int = 0) -> np.random.Generator:
    """Independent Philox stream named by (master_seed, counter).

    The 128-bit Philox key is ``master_seed << 64 | counter`` with
    ``counter`` reduced mod 2^64; a ``master_seed`` outside [0, 2^64)
    raises ``ValueError`` instead of aliasing another seed's streams.
    """
    key = np.array(_philox_key(master_seed, counter), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_counter(hypothesis: Hypothesis, trial_index: int) -> int:
    """Stream counter for one Monte Carlo trial.

    Bit 63 carries the hypothesis (0 for H0, 1 for H1) and the low bits
    the trial index, so the two hypothesis populations never share a
    stream even at equal indices.  An index outside [0, 2^63) raises ``ValueError``.
    """
    if trial_index < 0 or trial_index >= 1 << 63:
        raise ValueError("trial_index out of range")
    hyp_bit = 1 if hypothesis is Hypothesis.H1 else 0
    return (hyp_bit << 63) | trial_index


# each thread's (generator, fresh state dict) for observation_planes
_thread = threading.local()


def observation_planes(
    scene: SceneConfig, hypothesis: Hypothesis, seed: int, start: int, stop: int
) -> np.ndarray:
    """Re/Im planes of trials [start, stop), a new float64 array of shape (stop - start, 2, n).

    Row j is trial ``start + j``: ``sqrt(noise_power / 2)`` times
    ``stream_rng(seed, trial_counter(hypothesis, start + j)).standard_normal((2, n))``,
    plus the Re/Im planes of ``beta * z`` under H1; plane 0 is the real
    part.  Before the first draw, the trial range is checked (by its two
    ends), then the seed, each raising ``ValueError``.

    Each thread keeps one Philox bit generator and re-keys it for each
    trial: a Philox stream depends only on its key, so this replays every
    trial's stream without building a generator per trial (about 70 us
    each).  The re-key assigns one whole state (key, zeroed counter, empty
    buffer, no kept uint32), so nothing of an earlier draw survives it.
    That state is one dict of plain ints whose key word alone changes per
    trial: numpy's state setter reads plain ints far faster than numpy
    scalars.
    """
    if stop > start:
        trial_counter(hypothesis, stop - 1)
        first = trial_counter(hypothesis, start)
    planes = np.empty((stop - start, 2, scene.n_samples))
    key = _philox_key(seed, 0)
    try:
        rng, fresh = _thread.stream
    except AttributeError:
        rng = stream_rng(0)
        fresh = rng.bit_generator.state  # an empty buffer, no uint32 kept
        fresh["state"] = {"counter": [0, 0, 0, 0]}
        fresh["buffer"] = [0, 0, 0, 0]
        _thread.stream = rng, fresh
    fresh["state"]["key"] = key
    bits = rng.bit_generator
    for j in range(stop - start):
        key[0] = first + j  # trial_counter(hypothesis, start + j), checked above
        bits.state = fresh
        rng.standard_normal(out=planes[j])
    planes *= math.sqrt(scene.noise_power / 2.0)
    if hypothesis is Hypothesis.H1:
        planes += scene._h1_mean  # one (2, n) block added to every row
    return planes


def synthesize_observation(
    scene: SceneConfig, hypothesis: Hypothesis, seed: int, trial: int
) -> np.ndarray:
    """Trial ``trial``'s observation as one complex (n,) vector: its planes read as Re + j Im.

    Kept only because ``BENCHMARK.json``'s per-layer metrics still name it.
    """
    re, im = observation_planes(scene, hypothesis, seed, trial, trial + 1)[0]
    return re + 1j * im

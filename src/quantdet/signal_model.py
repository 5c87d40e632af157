"""Scene geometry, probing waveform and observation synthesis.

Models a colocated MIMO radar: ``n_tx`` transmitters and ``n_rx``
receivers on uniform linear arrays with common element spacing, probing
a far-field point scatterer at a known angle.  After matched filtering,
the length ``n_rx * snapshots`` observation under the two hypotheses is

    H0:  x = w
    H1:  x = beta * z + w

where ``z`` is the deterministic effective signal (steering structure
times waveform), ``beta`` the unknown complex amplitude and ``w``
circular complex Gaussian noise with per-sample power ``noise_power``
(so ``noise_power / 2`` per real component).  ``z`` is fixed by the
scene, which computes it once as :attr:`SceneConfig.signal`; every
function here that takes a scene reads its template there.

Vectorization convention: space-time matrices of shape
``(n_rx, snapshots)`` are flattened receiver-major (C order), i.e. all
snapshots of receiver 0 first.  Every consumer of ``z`` in this package
relies on that ordering.

Reproducibility: all randomness flows through counter-based Philox
streams keyed by (master seed, counter), as built by :func:`stream_rng`,
with the master seed in [0, 2^64).
A pair names a stream independently of how work is batched or
distributed, so serial and parallel runs of the same experiment produce
identical draws.  :func:`observation_planes` synthesises a range of
trials as Re/Im planes, drawing their streams with one generator re-keyed
per trial through a state dict of plain ints.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
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

    Parameters
    ----------
    n_tx, n_rx : int
        Number of transmit / receive elements (>= 1).
    snapshots : int
        Temporal samples per receiver after matched filtering (>= 1).
    spacing : float
        Inter-element spacing in carrier lambdas, shared by both arrays.
    angle : float
        Target direction in radians, 0 = broadside.
    noise_power : float
        Complex noise power per sample (variance of Re + variance of Im).
    beta : complex
        Complex reflection amplitude.
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
        carries it once it has been read.
        """
        return effective_signal(self)

    def with_snr_db(self, snr_db: float) -> "SceneConfig":
        """Copy of the scene with |beta| rescaled to hit ``snr_db``.

        The per-sample SNR is 10 log10(|beta|^2 / noise_power).  The phase
        of beta is preserved (a zero beta is rescaled along the real axis).
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


@dataclass(frozen=True)
class EffectiveSignal:
    """Known noise-free signal template z, split into real and imaginary parts.

    ``g`` and ``h`` are equal-length float arrays with Re(z) and Im(z).
    Instances are immutable (the arrays are marked read-only) so one
    template can be shared freely across threads and worker processes.
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
        g = g.copy()
        h = h.copy()
        g.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

    def __reduce__(self):  # unpickle through __post_init__, so the arrays stay read-only
        return EffectiveSignal, (self.g, self.h)

    def __len__(self) -> int:
        return self.g.shape[0]

    @property
    def z(self) -> np.ndarray:
        """Complex view g + j h (fresh array)."""
        return self.g + 1j * self.h

    @property
    def energy(self) -> float:
        """sum(g^2 + h^2) = ||z||^2."""
        return float(np.sum(self.g ** 2) + np.sum(self.h ** 2))


def effective_signal(cfg: SceneConfig) -> EffectiveSignal:
    """Template z = vec(A(angle) @ S), receiver-major flattening.

    A is the steering matrix, S the LFM probing matrix; the (n_rx,
    snapshots) product is raveled in C order per the module convention.
    """
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

    The 128-bit Philox key is the concatenation ``master_seed << 64 |
    counter`` with ``counter`` reduced mod 2^64; a ``master_seed`` outside
    [0, 2^64) raises ``ValueError`` instead of aliasing another seed's
    streams.  Distinct counters give independent streams without any
    sequential draw-order coupling -- the property that makes trial-level
    parallelism reproducible.
    """
    key = np.array(_philox_key(master_seed, counter), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def trial_counter(hypothesis: Hypothesis, trial_index: int) -> int:
    """Stream counter for one Monte Carlo trial.

    Bit 63 carries the hypothesis (0 for H0, 1 for H1) and the low bits
    the trial index, so the two hypothesis populations never share a
    stream even at equal indices.
    """
    if trial_index < 0 or trial_index >= 1 << 63:
        raise ValueError("trial_index out of range")
    hyp_bit = 1 if hypothesis is Hypothesis.H1 else 0
    return (hyp_bit << 63) | trial_index


def observation_planes(
    scene: SceneConfig, hypothesis: Hypothesis, seed: int, start: int, stop: int
) -> np.ndarray:
    """Re/Im planes of trials [start, stop), shape (stop - start, 2, n).

    Row j is trial ``start + j``: ``sqrt(noise_power / 2)`` times the
    draw ``stream_rng(seed, trial_counter(hypothesis, start + j))
    .standard_normal((2, n))``, plus Re/Im of ``beta * z`` under H1, with
    ``z`` the scene's template :attr:`SceneConfig.signal`.
    Plane 0 is the real part, plane 1 the imaginary part.  A Philox
    stream depends only on its key, so one bit generator re-keyed per
    trial (counter zeroed, buffer emptied) replays every trial's stream
    without building a generator per trial.  The re-key assigns one state
    dict of plain ints, with only the key's counter word changed in place:
    numpy's state setter reads the dict element by element, and plain ints
    read far faster than numpy scalars.  The indices run up from ``start``,
    so checking both ends range-checks them all before the first draw; the
    seed is checked as the generator is built.
    """
    n = scene.n_samples
    if stop > start:
        trial_counter(hypothesis, stop - 1)
        first = trial_counter(hypothesis, start)
    planes = np.empty((stop - start, 2, n))
    rng = stream_rng(seed)
    bits = rng.bit_generator
    key = _philox_key(seed, 0)
    fresh = bits.state
    fresh["state"] = {"counter": [0, 0, 0, 0], "key": key}
    fresh["buffer"] = [0, 0, 0, 0]
    for j in range(stop - start):
        key[0] = first + j  # trial_counter(hypothesis, start + j), checked above
        bits.state = fresh
        rng.standard_normal(out=planes[j])
    planes *= math.sqrt(scene.noise_power / 2.0)
    if hypothesis is Hypothesis.H1:
        mean = scene.beta * scene.signal.z
        planes[:, 0] += mean.real
        planes[:, 1] += mean.imag
    return planes


def synthesize_observation(
    scene: SceneConfig, hypothesis: Hypothesis, seed: int, trial: int
) -> np.ndarray:
    """Trial ``trial``'s observation as one complex vector.

    Row ``trial`` of :func:`observation_planes`, read as Re + j Im.  The
    per-layer metrics of ``BENCHMARK.json`` still name this function, so
    it stays until they are pointed at :func:`observation_planes`.
    """
    re, im = observation_planes(scene, hypothesis, seed, trial, trial + 1)[0]
    return re + 1j * im

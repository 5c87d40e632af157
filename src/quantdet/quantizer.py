"""Per-component scalar quantization and its Gaussian bin statistics.

A ``q``-bit quantizer is a strictly increasing vector of ``2^q - 1``
interior thresholds; with the framing edges ``e_0 = -inf`` and
``e_{2^q} = +inf`` it has ``2^q`` bins.  Bin indices are 0-based
everywhere in the package, and bins are right-closed: bin ``i`` is
``e_i < x <= e_{i+1}``.  Real and imaginary parts are quantized
independently by the same thresholds.

For a Gaussian component N(u, noise_power / 2) the per-bin probability
mass F_i and its first two derivatives in u,

    F_i  = Q((e_i - u)/s) - Q((e_{i+1} - u)/s),        s = sqrt(noise_power/2)
    F'_i = phi_s(e_i - u) - phi_s(e_{i+1} - u)
    F''_i = [(e_i - u) phi_s(e_i - u) - (e_{i+1} - u) phi_s(e_{i+1} - u)] / s^2

(phi_s the N(0, s^2) density) are the only statistics downstream code
needs: the score ratios F'_i / F_i drive the detector, and
J1 = sum_i (F'_i^2 - F''_i F_i) / F_i the information and the design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .special import gauss_density, qfunc


# smallest usable bin mass, for the table and for the swarm's candidates
_MASS_FLOOR = 1e-300


class DegenerateBinError(ArithmeticError):
    """A quantizer bin has mass below ``_MASS_FLOOR``, so 1/F would overflow."""


@dataclass(frozen=True)
class ThresholdSet:
    """A ``bits``-bit quantizer: ``2^bits - 1`` finite, strictly increasing interior thresholds.

    ``interior`` is copied to a read-only float64 array; a non-positive
    ``bits`` or a wrong, non-finite or unsorted ``interior`` raises ``ValueError``.
    """

    bits: int
    interior: np.ndarray

    def __post_init__(self):
        if not isinstance(self.bits, (int, np.integer)) or self.bits < 1:
            raise ValueError(f"bits must be a positive integer, got {self.bits!r}")
        t = np.asarray(self.interior, dtype=float).copy()
        want = 2 ** self.bits - 1
        if t.ndim != 1 or t.shape[0] != want:
            raise ValueError(
                f"{self.bits}-bit quantizer needs {want} interior thresholds, got shape {t.shape}"
            )
        if not np.isfinite(t).all():
            raise ValueError("interior thresholds must be finite")
        if want > 1 and not (np.diff(t) > 0.0).all():
            raise ValueError("interior thresholds must be strictly increasing")
        t.flags.writeable = False
        object.__setattr__(self, "bits", int(self.bits))
        object.__setattr__(self, "interior", t)

    @property
    def n_bins(self) -> int:
        return 2 ** self.bits

    def edges(self) -> np.ndarray:
        """Interior thresholds framed by -inf and +inf (length 2^bits + 1)."""
        return np.concatenate(([-np.inf], self.interior, [np.inf]))


def bin_indices(values: np.ndarray, thresholds: ThresholdSet) -> np.ndarray:
    """0-based bin indices in the shape of ``values``: any, a whole (rows, 2, n) tile too.

    The index of x is ``K - #{t : x <= t}`` with ``K = 2^bits - 1`` the
    top bin, one compare-and-subtract pass per threshold: x == e_{i+1}
    lands in bin i, -inf in bin 0, +inf and NaN in bin K.  The dtype is
    ``np.min_scalar_type(K)`` (uint8 up to 8 bits).
    """
    values = np.asarray(values)
    top = thresholds.n_bins - 1
    out = np.full(values.shape, top, np.min_scalar_type(top))
    for t in thresholds.interior:
        out -= values <= t
    return out


def _stats_from_edges(edges: np.ndarray, noise_power: float):
    """(F, F', F'') of each bin at mean zero: the package's one Gaussian-statistics kernel.

    ``edges`` has the framing infinities along its last axis, and its
    leading axes broadcast: one call scores a whole swarm of candidate
    threshold vectors, or one bin at many means (a bin at mean u is the
    bin at mean zero with its edges shifted by -u).  Terms at infinite
    edges are exact zeros, not 0 * inf.
    """
    s = math.sqrt(noise_power / 2.0)
    t = edges / s
    finite = np.isfinite(t)
    tf = np.where(finite, t, 0.0)
    dens = np.where(finite, gauss_density(tf * s, sigma=s), 0.0)
    qv = qfunc(t)
    tdens = tf * s * dens
    f = qv[..., :-1] - qv[..., 1:]
    f1 = dens[..., :-1] - dens[..., 1:]
    f2 = (tdens[..., :-1] - tdens[..., 1:]) / (s * s)
    return f, f1, f2


def _info_per_energy(f, f1, f2):
    """J1 = sum_i (F'_i^2 - F''_i F_i) / F_i over the last axis; an empty bin gives inf or nan."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((f1 ** 2 - f2 * f) / f).sum(axis=-1)


@dataclass(frozen=True)
class BinStats:
    """Per-bin Gaussian statistics F, F', F'' of one quantizer at mean zero.

    ``f``, ``f1`` and ``f2`` are read-only float64 arrays of length 2^bits.
    """

    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        for name in ("f", "f1", "f2"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @cached_property
    def score_ratio(self) -> np.ndarray:
        """F'/F, each bin's detector weight, read-only; computed at the first read and kept.

        Every tile's scoring reads it, and the table is built once per range.
        """
        ratio = self.f1 / self.f
        ratio.flags.writeable = False
        return ratio

    @cached_property
    def info_per_energy(self) -> float:
        """J1, the Fisher information per unit signal energy; computed at the first read and kept.

        Log-concavity of the Gaussian makes every summand, hence J1, positive.
        """
        return float(_info_per_energy(self.f, self.f1, self.f2))


def bin_stats_table(thresholds: ThresholdSet, noise_power: float) -> BinStats:
    """The :class:`BinStats` of ``thresholds`` at u = 0.

    A non-positive ``noise_power`` raises ``ValueError``, and a bin mass
    below ``_MASS_FLOOR`` raises :class:`DegenerateBinError`.
    """
    if not noise_power > 0.0:
        raise ValueError("noise_power must be positive")
    f, f1, f2 = _stats_from_edges(thresholds.edges(), noise_power)
    if f.min() < _MASS_FLOOR:
        worst = int(np.argmin(f))
        raise DegenerateBinError(
            f"bin {worst} of 0..{thresholds.n_bins - 1} has mass {f[worst]:.3e} < {_MASS_FLOOR:g}"
        )
    return BinStats(f=f, f1=f1, f2=f2)


def fisher_rows(interior: np.ndarray, energy: float, noise_power: float) -> np.ndarray:
    """Fisher diagonal E * J1 of each row of a (rows, 2^q - 1) block of thresholds.

    Rows must be strictly increasing.  A row with a bin mass below
    ``_MASS_FLOOR`` -- one :func:`bin_stats_table` would refuse -- scores
    -inf, so a swarm can fly through infeasible territory and recover.
    """
    inf_col = np.full((interior.shape[0], 1), np.inf)
    edges = np.concatenate((-inf_col, interior, inf_col), axis=1)
    f, f1, f2 = _stats_from_edges(edges, noise_power)
    return np.where(f.min(axis=1) >= _MASS_FLOOR, energy * _info_per_energy(f, f1, f2), -np.inf)

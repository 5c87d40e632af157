"""Per-component scalar quantization and its Gaussian bin statistics.

A ``q``-bit quantizer is a strictly increasing vector of ``2^q - 1``
interior thresholds; with the implicit -inf / +inf edges
``e_0 < e_1 < ... < e_{2^q}`` (:meth:`ThresholdSet.edges`) it induces
``2^q`` half-open bins.  Bin indices are 0-based everywhere in the
package: bin ``i`` in ``0..2^q - 1`` is ``e_i < x <= e_{i+1}`` --
right-closed, so a sample exactly on a threshold belongs to the
lower-indexed bin.  Real and imaginary parts are quantized
independently by the same thresholds (:func:`bin_indices`: one
compare-and-count pass per threshold into uint8 indices up to 8 bits;
NaN lands in the top bin).

For a Gaussian component N(u, noise_power / 2) the per-bin probability
mass F_i and its first two derivatives in u,

    F_i  = Q((e_i - u)/s) - Q((e_{i+1} - u)/s),        s = sqrt(noise_power/2)
    F'_i = phi_s(e_i - u) - phi_s(e_{i+1} - u)
    F''_i = [(e_i - u) phi_s(e_i - u) - (e_{i+1} - u) phi_s(e_{i+1} - u)] / s^2

(phi_s the N(0, s^2) density) are the only statistics any downstream
code needs: the score ratios F'_i / F_i drive the detector and
sum_i (F'_i^2 - F''_i F_i) / F_i drives both the information matrix and
threshold design.  Terms at infinite edges vanish and are evaluated as
exact zeros here rather than left to 0 * inf arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import gauss_density, qfunc


class DegenerateBinError(ArithmeticError):
    """A quantizer bin has (numerically) zero probability mass.

    Raised instead of letting 1/F overflow; callers treating threshold
    vectors as candidates (e.g. the swarm optimizer) catch this and score
    the candidate as infeasible.
    """


@dataclass(frozen=True)
class ThresholdSet:
    """Strictly increasing interior thresholds of a ``bits``-bit quantizer."""

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

    def to_line(self) -> str:
        """Serialize as ``bits; t1,t2,...`` with full round-trip precision."""
        body = ",".join(repr(float(v)) for v in self.interior)
        return f"{self.bits}; {body}"

    @classmethod
    def from_line(cls, line: str) -> "ThresholdSet":
        """Parse the :meth:`to_line` format (whitespace tolerant)."""
        head, sep, body = line.partition(";")
        if not sep:
            raise ValueError(f"threshold line missing ';' separator: {line!r}")
        bits = int(head.strip())
        values = [float(tok) for tok in body.split(",")] if body.strip() else []
        return cls(bits=bits, interior=np.array(values, dtype=float))


def bin_indices(values: np.ndarray, thresholds: ThresholdSet) -> np.ndarray:
    """0-based bin index of each real value (vectorized hot path).

    The index of x is ``K - #{t : x <= t}`` with ``K = 2^bits - 1`` the
    top bin: the number of thresholds strictly below x, which lands
    x == e_{i+1} in bin i -- exactly the right-closed convention.  -inf
    lands in bin 0, +inf and NaN (false against every threshold) in bin
    K.  The indices have ``values``' shape and dtype
    ``np.min_scalar_type(K)`` (uint8 up to 8 bits).  A complex
    observation is quantized as ``bin_indices(x.real, ...)`` and
    ``bin_indices(x.imag, ...)``.
    """
    values = np.asarray(values)
    top = thresholds.n_bins - 1
    out = np.full(values.shape, top, np.min_scalar_type(top))
    for t in thresholds.interior:
        out -= values <= t
    return out


def _edge_terms(edges: np.ndarray, s: float):
    """(Q values, densities, t*density) at the edges, inf-safe.

    Returns arrays shaped like ``edges``: ``qfunc(e/s)``, ``phi_s(e)`` and
    ``e * phi_s(e)``, the last two forced to an exact 0.0 at infinite edges.
    """
    t = edges / s
    finite = np.isfinite(t)
    tf = np.where(finite, t, 0.0)
    dens = np.where(finite, gauss_density(tf * s, sigma=s), 0.0)
    return qfunc(t), dens, tf * s * dens


def _stats_from_edges(edges: np.ndarray, noise_power: float):
    """Core (F, F', F'') at u = 0, shared by the table builder and optimizer.

    ``edges`` has the framing infinities along its last axis; broadcasting
    over leading axes lets one call score a whole swarm of candidate
    threshold vectors.
    """
    s = math.sqrt(noise_power / 2.0)
    qv, dens, tdens = _edge_terms(edges, s)
    lo = slice(None, -1)
    hi = slice(1, None)
    f = qv[..., lo] - qv[..., hi]
    f1 = dens[..., lo] - dens[..., hi]
    f2 = (tdens[..., lo] - tdens[..., hi]) / (s * s)
    return f, f1, f2


def bin_probability(u, i: int, thresholds: ThresholdSet, noise_power: float):
    """Probability that N(u, noise_power/2) falls in bin ``i`` (0-based)."""
    if not 0 <= i < thresholds.n_bins:
        raise ValueError(f"bin index {i} outside 0..{thresholds.n_bins - 1}")
    s = math.sqrt(noise_power / 2.0)
    e = thresholds.edges()
    out = qfunc((e[i] - np.asarray(u, dtype=float)) / s) - qfunc(
        (e[i + 1] - np.asarray(u, dtype=float)) / s
    )
    return float(out) if np.isscalar(u) or np.ndim(u) == 0 else out


@dataclass(frozen=True)
class BinStats:
    """All per-bin Gaussian statistics of one quantizer at mean zero.

    Arrays ``f``, ``f1``, ``f2`` have length 2^bits.  ``score_ratio`` is
    F'/F (the per-bin detector weight) and ``info_per_energy`` the scalar
    sum_i (F'_i^2 - F''_i F_i)/F_i, i.e. the Fisher information per unit
    of signal energy; log-concavity of the Gaussian makes every summand,
    hence the sum, strictly positive.
    """

    f: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        for name in ("f", "f1", "f2"):
            a = np.asarray(getattr(self, name), dtype=float).copy()
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def score_ratio(self) -> np.ndarray:
        return self.f1 / self.f

    @property
    def info_per_energy(self) -> float:
        return float(np.sum((self.f1 ** 2 - self.f2 * self.f) / self.f))


def bin_stats_table(
    thresholds: ThresholdSet, noise_power: float, floor: float = 1e-300
) -> BinStats:
    """Precompute (F, F', F'') for every bin at u = 0.

    Raises
    ------
    DegenerateBinError
        If any bin mass falls below ``floor`` -- such a quantizer cannot
        be scored or run without dividing by (near) zero.
    """
    if not noise_power > 0.0:
        raise ValueError("noise_power must be positive")
    f, f1, f2 = _stats_from_edges(thresholds.edges(), noise_power)
    if f.min() < floor:
        worst = int(np.argmin(f))
        raise DegenerateBinError(
            f"bin {worst} of 0..{thresholds.n_bins - 1} has mass {f[worst]:.3e} < {floor:g}"
        )
    return BinStats(f=f, f1=f1, f2=f2)

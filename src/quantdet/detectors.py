"""Detection statistics: quantized Rao test and unquantized GLRT baseline.

The Rao (score) test for an unknown complex amplitude on a known
template needs no parameter estimate under the alternative, which is
what makes it closed-form on quantized data.  Writing r1_n = (F'/F) at
the real-part bin of sample n and r2_n the same at the imaginary-part
bin, the statistic is

    T_R = (S_R^2 + S_I^2) / (E * J1)

    S_R = sum_n (g_n r1_n + h_n r2_n)        # score w.r.t. Re(beta)
    S_I = sum_n (g_n r2_n - h_n r1_n)        # score w.r.t. Im(beta)
    E   = sum_n (g_n^2 + h_n^2)
    J1  = sum_i (F'_i^2 - F''_i F_i) / F_i   # information per unit energy

Under H0, T_R is asymptotically chi-square with 2 dof, independent of
the quantizer; the quantizer only moves the H1 noncentrality.  All the
sums run over every receiver/snapshot sample and are evaluated with
numpy's pairwise-compensated ``sum``, keeping rounding error growth
logarithmic in the sample count.

The unquantized benchmark is the matched-filter GLRT
|z^H x|^2 / (||z||^2 * noise_power / 2), chi-square 2 dof under H0 at
every sample size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantizer import BinStats, QuantizedObservation, ThresholdSet, bin_stats_table
from .signal_model import EffectiveSignal, Hypothesis


class ZeroSignalError(ArithmeticError):
    """The template has zero energy, so no statistic is defined."""


@dataclass(frozen=True)
class DetectorOutcome:
    statistic: float
    threshold: float
    decision: Hypothesis


def decide(statistic: float, threshold: float) -> Hypothesis:
    """Threshold comparison; ties go to H0 (strict exceedance detects)."""
    return Hypothesis.H1 if statistic > threshold else Hypothesis.H0


def run_detector(statistic: float, threshold: float) -> DetectorOutcome:
    return DetectorOutcome(statistic, threshold, decide(statistic, threshold))


def _score_sums(re_idx0, im_idx0, signal: EffectiveSignal, table: BinStats):
    """(S_R, S_I) score components from 0-based bin indices.

    Index arrays may be (n,) for one observation or (batch, n); the sums
    run along the last axis.
    """
    ratio = table.score_ratio
    r1 = ratio[re_idx0]
    r2 = ratio[im_idx0]
    s_r = (signal.g * r1 + signal.h * r2).sum(axis=-1)
    s_i = (signal.g * r2 - signal.h * r1).sum(axis=-1)
    return s_r, s_i


def score_components(
    y: QuantizedObservation, signal: EffectiveSignal, table: BinStats
):
    """Score vector (S_R, S_I) at beta = 0 for one quantized observation.

    Exposed separately from :func:`rao_statistic` because the score's
    H0 covariance is the Fisher information -- the identity the
    self-test checks by Monte Carlo.
    """
    if len(y) != len(signal):
        raise ValueError("observation and template lengths differ")
    s_r, s_i = _score_sums(y.re_bins - 1, y.im_bins - 1, signal, table)
    return float(s_r), float(s_i)


def rao_statistic(
    y: QuantizedObservation,
    signal: EffectiveSignal,
    thresholds: ThresholdSet,
    noise_power: float,
    table: BinStats | None = None,
) -> float:
    """Closed-form Rao statistic of one quantized observation.

    ``table`` may be passed to reuse a precomputed :func:`bin_stats_table`
    (it must correspond to ``thresholds`` and ``noise_power``); otherwise
    it is built on the fly.
    """
    if table is None:
        table = bin_stats_table(thresholds, noise_power)
    if len(y) != len(signal):
        raise ValueError("observation and template lengths differ")
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    if int(max(y.re_bins.max(), y.im_bins.max())) > thresholds.n_bins:
        raise ValueError("bin index exceeds 2^bits for the given thresholds")
    s_r, s_i = _score_sums(y.re_bins - 1, y.im_bins - 1, signal, table)
    return float((s_r * s_r + s_i * s_i) / (energy * table.info_per_energy))


def rao_statistic_batch(
    re_idx0: np.ndarray,
    im_idx0: np.ndarray,
    signal: EffectiveSignal,
    table: BinStats,
) -> np.ndarray:
    """Vectorized Rao statistics for a (batch, n) block of 0-based indices.

    Bit-identical to calling :func:`rao_statistic` row by row; the Monte
    Carlo engine uses this path.
    """
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    s_r, s_i = _score_sums(re_idx0, im_idx0, signal, table)
    return (s_r * s_r + s_i * s_i) / (energy * table.info_per_energy)


def glrt_unquantized(
    x: np.ndarray, signal: EffectiveSignal, noise_power: float
) -> float:
    """Matched-filter GLRT on the raw (unquantized) observation."""
    x = np.asarray(x)
    if x.shape[-1] != len(signal):
        raise ValueError("observation and template lengths differ")
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    corr = x @ np.conj(signal.z)
    return float(np.abs(corr) ** 2 / (energy * noise_power / 2.0))


def glrt_unquantized_batch(
    x: np.ndarray, signal: EffectiveSignal, noise_power: float
) -> np.ndarray:
    """Row-wise :func:`glrt_unquantized` for a (batch, n) complex block.

    A row's statistic does not depend on the batch around it: matmul
    reduces a lone row with a dot kernel but a block of rows with gemv,
    whose sums differ in the last bits, so a single row is reduced as a
    two-row block.
    """
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    rows = np.concatenate([x, x]) if x.shape[0] == 1 else x
    corr = (rows @ np.conj(signal.z))[: x.shape[0]]
    return np.abs(corr) ** 2 / (energy * noise_power / 2.0)

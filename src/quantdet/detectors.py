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

The two detector classes own what differs between the tests: what a
statistic reads from a chunk's Re/Im planes (:meth:`RaoDetector.observe`),
the statistic itself (``statistic``) and its H1 noncentrality
lambda_F = |beta|^2 * E * J, with J = J1 for the quantizer and
2 / noise_power without it (``noncentrality``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perf_theory import fisher_information
from .quantizer import BinStats, ThresholdSet, bin_indices, bin_stats_table
from .signal_model import EffectiveSignal, SceneConfig


class ZeroSignalError(ArithmeticError):
    """The template has zero energy, so no statistic is defined."""


def _check_template(n: int, signal: EffectiveSignal) -> float:
    """Template energy, once the observation length ``n`` is known to fit."""
    if n != len(signal):
        raise ValueError("observation and template lengths differ")
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    return energy


def _score_sums(re_idx0, im_idx0, signal: EffectiveSignal, table: BinStats):
    """(S_R, S_I) score components from 0-based bin indices.

    Index arrays may be (n,) for one observation or (batch, n); the sums
    run along the last axis.  Their H0 covariance is the Fisher
    information, the identity the self-test checks by Monte Carlo.
    """
    ratio = table.score_ratio
    # take() gathers through small unsigned indices at intp speed; fancy
    # indexing converts them to intp first
    r1 = ratio.take(re_idx0)
    r2 = ratio.take(im_idx0)
    s_r = (signal.g * r1 + signal.h * r2).sum(axis=-1)
    s_i = (signal.g * r2 - signal.h * r1).sum(axis=-1)
    return s_r, s_i


def rao_statistic_batch(
    re_idx0: np.ndarray,
    im_idx0: np.ndarray,
    signal: EffectiveSignal,
    table: BinStats,
) -> np.ndarray:
    """Closed-form Rao statistics of 0-based bin indices.

    The indices of the real and imaginary parts are an (n,) row, which
    gives one statistic, or a (batch, n) block, which gives one per row;
    a row's statistic does not depend on the block around it.  ``table``
    is the :func:`~quantdet.quantizer.bin_stats_table` of the quantizer
    that produced the indices, each of which must lie in 0..2^q - 1.
    """
    re_idx0 = np.asarray(re_idx0)
    im_idx0 = np.asarray(im_idx0)
    if re_idx0.shape != im_idx0.shape:
        raise ValueError("real and imaginary bin indices differ in shape")
    energy = _check_template(re_idx0.shape[-1], signal)
    n_bins = table.f.shape[0]
    for idx in (re_idx0, im_idx0):
        # numpy would wrap a negative index silently, so check both ends
        if idx.size and (idx.min() < 0 or idx.max() >= n_bins):
            raise ValueError(f"bin index outside 0..{n_bins - 1} for the given table")
    s_r, s_i = _score_sums(re_idx0, im_idx0, signal, table)
    return (s_r * s_r + s_i * s_i) / (energy * table.info_per_energy)


def glrt_unquantized_batch(
    x: np.ndarray, signal: EffectiveSignal, noise_power: float
) -> np.ndarray:
    """Matched-filter GLRT of an (n,) complex row or a (batch, n) block.

    A row's statistic does not depend on the batch around it: matmul
    reduces a lone row with a dot kernel but a block of rows with gemv,
    whose sums differ in the last bits, so a single row (including a
    1-D input) is reduced as a two-row block.
    """
    x = np.asarray(x)
    energy = _check_template(x.shape[-1], signal)
    rows = np.atleast_2d(x)
    block = np.concatenate([rows, rows]) if len(rows) == 1 else rows
    corr = (block @ np.conj(signal.z))[: len(rows)]
    stat = np.abs(corr) ** 2 / (energy * noise_power / 2.0)
    return stat if x.ndim > 1 else stat[0]


@dataclass(frozen=True)
class RaoDetector:
    """Quantized Rao detector with a fixed threshold design."""

    thresholds: ThresholdSet

    @property
    def label(self) -> str:
        return "rao"

    @property
    def q_label(self) -> str:
        return str(self.thresholds.bits)

    def observe(self, planes: np.ndarray):
        """Bin indices of the Re and Im planes of a (batch, 2, n) block."""
        ts = self.thresholds
        return bin_indices(planes[:, 0], ts), bin_indices(planes[:, 1], ts)

    def statistic(self, observed, signal: EffectiveSignal, noise_power: float) -> np.ndarray:
        table = bin_stats_table(self.thresholds, noise_power)
        return rao_statistic_batch(*observed, signal, table)

    def noncentrality(self, scene: SceneConfig, signal: EffectiveSignal) -> float:
        """lambda_F = |beta|^2 * E * J1 of this quantizer."""
        return abs(scene.beta_complex) ** 2 * fisher_information(
            signal, self.thresholds, scene.noise_power
        )


@dataclass(frozen=True)
class GlrtDetector:
    """Unquantized matched-filter GLRT (infinite-resolution benchmark)."""

    @property
    def label(self) -> str:
        return "glrt"

    @property
    def q_label(self) -> str:
        return "inf"

    def observe(self, planes: np.ndarray) -> np.ndarray:
        """The (batch, 2, n) block read in place as (batch, n) complex rows."""
        # interleave each trial's two planes in place, so the block itself holds
        # the complex observations; the transposed copy is one block, which the
        # engine keeps to one cache-sized tile
        rows = planes.reshape(len(planes), -1)
        rows[:] = planes.transpose(0, 2, 1).reshape(len(planes), -1)
        return rows.view(complex)

    def statistic(self, observed, signal: EffectiveSignal, noise_power: float) -> np.ndarray:
        return glrt_unquantized_batch(observed, signal, noise_power)

    def noncentrality(self, scene: SceneConfig, signal: EffectiveSignal) -> float:
        """lambda_F = |beta|^2 * E * 2 / noise_power: J1 without quantization."""
        return abs(scene.beta_complex) ** 2 * signal.energy * 2.0 / scene.noise_power

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

The two detector classes own what differs between the tests: the
scoring step of one index range (``scorer``: a function from a
(batch, 2, n) block of Re/Im planes to its statistics; the Rao test bins
both planes, the GLRT reads them as complex rows) and the H1
noncentrality lambda_F = |beta|^2 * E * J, with J = J1 for the quantizer
and 2 / noise_power without it (``noncentrality``).

The Rao scorer builds the bin statistics once per range and, when
n * 4^q <= 2^16 (the values of one engine tile's plane, so the table is
no larger than a tile's planes), a table of every sample's score terms
for every (Re bin, Im bin) pair: a block is then scored by gathering
terms instead of multiplying them out, with the same bits.
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


# values per Re/Im plane in one engine tile (2^16 float64, 1 MiB of planes),
# and the largest n * K^2 whose score-term table the Rao scorer builds
TILE_VALUES = 1 << 16


def _score_terms(signal: EffectiveSignal, table: BinStats) -> np.ndarray:
    """Score terms of every sample and (Re bin i, Im bin k) pair, shape (2, n * K^2).

    Column ``m * K^2 + i * K + k`` holds sample m's terms of S_R and S_I,
    ``g_m r_i + h_m r_k`` and ``g_m r_k - h_m r_i`` with ``r`` the score
    ratios: the float expressions of :func:`_score_sums`, so a gathered
    term is the same IEEE result as a computed one.
    """
    r = table.score_ratio
    g, h = signal.g[:, None, None], signal.h[:, None, None]
    r1, r2 = r[:, None], r[None, :]
    return np.stack([g * r1 + h * r2, g * r2 - h * r1]).reshape(2, -1)


def _score_sums(re_idx0, im_idx0, signal: EffectiveSignal, table: BinStats, terms=None):
    """(S_R, S_I) score components from 0-based bin indices.

    Index arrays may be (n,) for one observation or (batch, n); the sums
    run along the last axis.  Their H0 covariance is the Fisher
    information, the identity the self-test checks by Monte Carlo.  With
    ``terms`` (:func:`_score_terms` of the same signal and table) each
    sample's terms are gathered through its pair code ``re * K + im +
    m * K^2`` rather than computed.
    """
    if terms is not None:
        n_bins = table.f.shape[0]
        code = np.multiply(re_idx0, n_bins, dtype=np.intp)
        code += im_idx0
        code += np.arange(0, terms.shape[1], n_bins * n_bins)
        return terms[0].take(code).sum(axis=-1), terms[1].take(code).sum(axis=-1)
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
    terms: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form Rao statistics of 0-based bin indices.

    The indices of the real and imaginary parts are an (n,) row, which
    gives one statistic, or a (batch, n) block, which gives one per row;
    a row's statistic does not depend on the block around it.  ``table``
    is the :func:`~quantdet.quantizer.bin_stats_table` of the quantizer
    that produced the indices, each of which must lie in 0..2^q - 1.
    ``terms``, if given, is ``_score_terms(signal, table)``; it changes
    how the sums are formed, not a bit of the result.
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
    s_r, s_i = _score_sums(re_idx0, im_idx0, signal, table, terms)
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

    def scorer(self, signal: EffectiveSignal, noise_power: float):
        """Scoring step of one index range: (batch, 2, n) planes -> Rao statistics.

        Builds the bin statistics once, and the score-term table when
        n * 4^q <= 2^16; each call bins the block's Re and Im planes and
        scores them with :func:`rao_statistic_batch`.
        """
        ts = self.thresholds
        table = bin_stats_table(ts, noise_power)
        small = len(signal) * ts.n_bins ** 2 <= TILE_VALUES
        terms = _score_terms(signal, table) if small else None

        def score(planes):
            re0, im0 = bin_indices(planes[:, 0], ts), bin_indices(planes[:, 1], ts)
            return rao_statistic_batch(re0, im0, signal, table, terms)

        return score

    def noncentrality(self, scene: SceneConfig) -> float:
        """lambda_F = |beta|^2 * E * J1 of this quantizer on the scene's template."""
        return abs(scene.beta) ** 2 * fisher_information(
            scene.signal, self.thresholds, scene.noise_power
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

    def scorer(self, signal: EffectiveSignal, noise_power: float):
        """Scoring step of one index range: (batch, 2, n) planes -> GLRT statistics.

        Each call reads the block as (batch, n) complex rows.
        """

        def score(planes):
            rows = planes.transpose(0, 2, 1).copy().view(complex)[..., 0]
            return glrt_unquantized_batch(rows, signal, noise_power)

        return score

    def noncentrality(self, scene: SceneConfig) -> float:
        """lambda_F = |beta|^2 * E * 2 / noise_power: J1 without quantization."""
        return abs(scene.beta) ** 2 * scene.signal.energy * 2.0 / scene.noise_power

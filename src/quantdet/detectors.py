"""Detection statistics: the quantized Rao test and the unquantized GLRT baseline.

With r1_n = (F'/F) at the real-part bin of sample n and r2_n the same at
the imaginary-part bin, the Rao (score) statistic is

    T_R = (S_R^2 + S_I^2) / (E * J1)

    S_R = sum_n (g_n r1_n + h_n r2_n)        # score w.r.t. Re(beta)
    S_I = sum_n (g_n r2_n - h_n r1_n)        # score w.r.t. Im(beta)
    E   = sum_n (g_n^2 + h_n^2)
    J1  = sum_i (F'_i^2 - F''_i F_i) / F_i   # information per unit energy

It needs no amplitude estimate, so it is closed-form on quantized data.
Under H0 it is asymptotically chi-square with 2 dof whatever the
quantizer, which moves only the H1 noncentrality.  The GLRT
|z^H x|^2 / (||z||^2 * noise_power / 2) is chi-square 2 dof under H0 at
every n.  Sums run in numpy's pairwise ``sum``, whose rounding error
grows logarithmically in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .quantizer import BinStats, ThresholdSet, bin_indices, bin_stats_table
from .signal_model import EffectiveSignal, SceneConfig


class ZeroSignalError(ArithmeticError):
    """The template has zero energy, so no statistic is defined."""


def _check_template(n: int, signal: EffectiveSignal) -> float:
    """Template energy; ``ValueError`` if ``n`` is not its length, ZeroSignalError if it is 0."""
    if n != len(signal):
        raise ValueError("observation and template lengths differ")
    energy = signal.energy
    if energy == 0.0:
        raise ZeroSignalError("template has zero energy")
    return energy


# the largest n * K^2 whose score-term table the Rao scorer builds: the
# table then takes at most 1 MiB (2 x 2^16 float64); a limit of its own,
# not the engine's tile size.  Scoring a 2^14-value tile, the table beat
# the direct formula at every n * K^2 <= 2^16 (n = 128..2048, q = 1..4;
# n = 256, q = 4: 115 vs 140 us) and lost above it (n = 512, q = 4: 153 vs
# 145 us; n = 2048, q = 3: 152 vs 140 us)
TABLE_VALUES = 1 << 16


def _buffer(scratch: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An array of ``shape`` on the leading values of ``scratch[key]``.

    The flat buffer is allocated on the first call and again only when a
    later call needs more values; a shorter block gets a C-contiguous prefix.
    A scorer keeps its dict for a whole range, so its working arrays take
    no fresh pages per tile: 3,000 + 3,000 Rao q = 3 trials on roc_large's
    scene took 312 minor page faults and 0.60-0.66 s with the Rao
    scorer's dict, and 90,032 faults and 0.78-1.03 s with a new one per tile.
    """
    size = math.prod(shape)
    buf = scratch.get(key)
    if buf is None or buf.size < size:
        buf = scratch[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _score_terms(signal: EffectiveSignal, table: BinStats) -> np.ndarray:
    """Score terms of every sample and (Re bin i, Im bin k) pair, shape (2, n * K^2).

    Column ``m * K^2 + i * K + k`` holds sample m's terms of S_R and S_I,
    ``g_m r_i + h_m r_k`` and ``g_m r_k - h_m r_i`` with ``r`` the score
    ratios: the float expressions of :func:`_score_sums`, so a gathered
    term is the same IEEE result as a computed one.  The Rao scorer builds
    it once per range when n * K^2 <= TABLE_VALUES, and then scores each
    tile by gathering terms through their pair codes instead of multiplying
    them out; building this table and the bin table once per range took
    roc_small's traced Rao scoring time from 0.336 to 0.120 s.
    """
    r = table.score_ratio
    g, h = signal.g[:, None, None], signal.h[:, None, None]
    r1, r2 = r[:, None], r[None, :]
    return np.stack([g * r1 + h * r2, g * r2 - h * r1]).reshape(2, -1)


def _score_sums(re_idx0, im_idx0, signal: EffectiveSignal, table: BinStats, terms=None,
                scratch=None):
    """(S_R, S_I) score components of 0-based bin indices, summed along the last axis.

    Index arrays are (n,) for one observation or (batch, n).  ``terms`` is
    :func:`_score_terms` of the same signal and table, or None.  Working
    arrays live in ``scratch`` (:func:`_buffer`; a new dict when None).
    Each gather reads an intp index buffer with ``mode="clip"``: ``take``
    would otherwise convert small unsigned indices to a new intp array,
    and with ``mode="raise"`` it buffers its output.  So the indices must
    be in range, which :func:`rao_statistic_batch` checks.
    """
    scratch = {} if scratch is None else scratch
    shape = np.shape(re_idx0)
    idx = _buffer(scratch, "idx", shape, np.intp)
    a = _buffer(scratch, "a", shape)
    if terms is not None:
        n_bins = table.f.shape[0]
        np.multiply(re_idx0, n_bins, out=idx, dtype=np.intp)
        idx += im_idx0
        idx += np.arange(0, terms.shape[1], n_bins * n_bins)
        s_r = terms[0].take(idx, out=a, mode="clip").sum(axis=-1)
        s_i = terms[1].take(idx, out=a, mode="clip").sum(axis=-1)
        return s_r, s_i
    ratio = table.score_ratio
    r1, r2, b = (_buffer(scratch, key, shape) for key in ("r1", "r2", "b"))
    np.copyto(idx, re_idx0)
    ratio.take(idx, out=r1, mode="clip")
    np.copyto(idx, im_idx0)
    ratio.take(idx, out=r2, mode="clip")
    np.multiply(signal.g, r1, out=a)
    np.multiply(signal.h, r2, out=b)
    s_r = np.add(a, b, out=a).sum(axis=-1)
    np.multiply(signal.g, r2, out=a)
    np.multiply(signal.h, r1, out=b)
    s_i = np.subtract(a, b, out=a).sum(axis=-1)
    return s_r, s_i


def rao_statistic_batch(
    re_idx0: np.ndarray,
    im_idx0: np.ndarray,
    signal: EffectiveSignal,
    table: BinStats,
    terms: np.ndarray | None = None,
    scratch: dict | None = None,
) -> np.ndarray:
    """Closed-form Rao statistics of 0-based bin indices.

    The real and imaginary parts' indices are an (n,) row, which gives a
    float, or a (batch, n) block, which gives one float64 per row; a row's
    statistic does not depend on the block around it.  ``table`` is the
    :func:`~quantdet.quantizer.bin_stats_table` of the quantizer that made
    the indices.  ``terms`` (``_score_terms(signal, table)``) and
    ``scratch`` (a dict kept between calls for the working arrays) change
    no bit of the result.  Mismatched shapes or lengths, or an index
    outside 0..2^q - 1, raise ``ValueError``; a zero-energy template
    raises :class:`ZeroSignalError`.
    """
    re_idx0 = np.asarray(re_idx0)
    im_idx0 = np.asarray(im_idx0)
    if re_idx0.shape != im_idx0.shape:
        raise ValueError("real and imaginary bin indices differ in shape")
    energy = _check_template(re_idx0.shape[-1], signal)
    n_bins = table.f.shape[0]
    for idx in (re_idx0, im_idx0):
        # numpy would wrap a negative index silently; an unsigned index, as
        # bin_indices returns, cannot be negative, so it skips the min() pass
        if idx.size and (idx.max() >= n_bins or idx.dtype.kind != "u" and idx.min() < 0):
            raise ValueError(f"bin index outside 0..{n_bins - 1} for the given table")
    s_r, s_i = _score_sums(re_idx0, im_idx0, signal, table, terms, scratch)
    return (s_r * s_r + s_i * s_i) / (energy * table.info_per_energy)


def glrt_unquantized_batch(
    x: np.ndarray, signal: EffectiveSignal, noise_power: float
) -> np.ndarray:
    """Matched-filter GLRT of an (n,) complex row (a float) or a (batch, n) block (float64).

    A row's statistic does not depend on the batch around it: matmul
    reduces a lone row with a dot kernel but a block of rows with gemv,
    whose sums differ in the last bits, so a single row (including a
    1-D input) is reduced as a two-row block.  A template of another
    length raises ``ValueError``, one of zero energy :class:`ZeroSignalError`.
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
    label: ClassVar[str] = "rao"

    @property
    def q_label(self) -> str:
        return str(self.thresholds.bits)

    def scorer(self, signal: EffectiveSignal, noise_power: float):
        """Scoring step of one index range: (batch, 2, n) float64 planes -> (batch,) statistics.

        Builds the bin statistics, the score-term table when it fits
        (:func:`_score_terms`) and the working arrays once; each call bins
        the whole block, both planes in one pass, and scores it with
        :func:`rao_statistic_batch`.  The returned function keeps its
        working arrays between calls, so it serves one thread at a time.
        A bin of negligible mass raises ``DegenerateBinError`` here.
        """
        ts = self.thresholds
        table = bin_stats_table(ts, noise_power)
        small = len(signal) * ts.n_bins ** 2 <= TABLE_VALUES
        terms = _score_terms(signal, table) if small else None
        scratch = {}

        def score(planes):
            idx = bin_indices(planes, ts)
            return rao_statistic_batch(idx[:, 0], idx[:, 1], signal, table, terms, scratch)

        return score

    def noncentrality(self, scene: SceneConfig) -> float:
        """lambda_F = |beta|^2 * E * J1 of this quantizer on the scene's template.

        A bin of negligible mass raises ``DegenerateBinError``.
        """
        table = bin_stats_table(self.thresholds, scene.noise_power)
        return abs(scene.beta) ** 2 * (scene.signal.energy * table.info_per_energy)


@dataclass(frozen=True)
class GlrtDetector:
    """Unquantized matched-filter GLRT (infinite-resolution benchmark)."""

    label: ClassVar[str] = "glrt"
    q_label: ClassVar[str] = "inf"

    def scorer(self, signal: EffectiveSignal, noise_power: float):
        """Scoring step of one index range: (batch, 2, n) float64 planes -> (batch,) statistics.

        Each call interleaves the planes into (batch, n) complex rows, one
        write per plane, in an array kept between calls, so the returned
        function serves one thread at a time.  The engine draws each tile's
        planes new, and a new array here too freed two tile-sized blocks at
        the end of every tile, which the heap gave back and took again:
        roc_large's ``roc`` command then took 150,427 minor page faults in
        place of 6,624, and 2.6-2.8 s in place of 2.3 s.
        """
        scratch = {}

        def score(planes):
            rows = _buffer(scratch, "rows", (len(planes), planes.shape[2], 2))
            rows[..., 0] = planes[:, 0]
            rows[..., 1] = planes[:, 1]
            return glrt_unquantized_batch(rows.view(complex)[..., 0], signal, noise_power)

        return score

    def noncentrality(self, scene: SceneConfig) -> float:
        """lambda_F = |beta|^2 * E * 2 / noise_power: J1 without quantization."""
        return abs(scene.beta) ** 2 * scene.signal.energy * 2.0 / scene.noise_power

"""Threshold design by particle-swarm maximization of the Fisher information.

The thresholds tau enter the asymptotic detection probability only
through the noncentrality |beta|^2 * E * J1(tau), in which it is
monotone.  So a q-bit design maximizes E * J1(tau) over strictly
increasing tau in R^(2^q - 1), scored for the whole swarm at once by
:func:`quantdet.quantizer.fisher_rows`.  The landscape is smooth but
multimodal in the sorted coordinates, hence a small swarm with
sort-repair rather than a local gradient method.  One seed fixes the
whole trajectory.

Designs are saved and loaded as checkpoint files, whose format lives
only in :func:`write_checkpoint` and :func:`read_checkpoint`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import ThresholdSet, fisher_rows
from .signal_model import EffectiveSignal

# Largest bit depth of any design, made or read: the swarm searches 2^q - 1
# thresholds per particle (q = 30: ~430 GB), and binning takes one pass per
# threshold.
MAX_BITS = 8

# Minimum post-repair gap between neighbouring thresholds.  Large enough
# to keep bins numerically distinct, small enough never to move an
# optimum that has genuinely separated thresholds.
_SEPARATION = 1e-9

# The swarm itself: 50 particles with the Clerc-Kennedy constriction
# coefficients.  A global best that gains less than a relative _STALL_TOL
# over stall_iters iterations has stalled.
_SWARM_SIZE = 50
_INERTIA = 0.72
_COGNITIVE = 1.49
_SOCIAL = 1.49
_STALL_TOL = 1e-9


@dataclass(frozen=True)
class PsoConfig:
    """Seed and iteration budget of one swarm run.

    The run stops after ``max_iters`` iterations, or as converged once the
    global best has stalled for ``stall_iters`` iterations; both must be
    positive integers, else ``ValueError``.  The swarm's size, coefficients
    and search box are fixed by this module.
    """

    seed: int
    max_iters: int = 500
    stall_iters: int = 50

    def __post_init__(self):
        for name in ("max_iters", "stall_iters"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class PsoResult:
    """A swarm run's best design, its objective E * J1, iterations run and whether it stalled."""

    thresholds: ThresholdSet
    achieved_objective: float
    iterations: int
    converged: bool


def _repair(positions: np.ndarray) -> np.ndarray:
    """Sort each row and enforce strict increase with a tiny separation."""
    positions = np.sort(positions, axis=-1)
    for k in range(1, positions.shape[-1]):
        np.maximum(
            positions[..., k],
            positions[..., k - 1] + _SEPARATION,
            out=positions[..., k],
        )
    return positions


def optimize_thresholds(
    bits: int,
    signal: EffectiveSignal,
    noise_power: float,
    config: PsoConfig,
) -> PsoResult:
    """Run the swarm and return the best ``bits``-bit threshold vector found.

    Initialization mixes two families: symmetric uniform grids (first half
    of the swarm: the +/- 3 sigma_component grid, then random half-widths)
    and fully random sorted candidates -- symmetric starts matter because
    the u = 0 objective is even, while the random half guards against the
    optimum not being a uniform grid.  Every particle stays in the box
    +/- 5 sigma_component, beyond which thresholds see essentially no
    probability mass; so the design scales with sigma_component.
    ``bits`` outside ``1..MAX_BITS`` or a non-positive ``noise_power``
    raises ``ValueError``.
    """
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"bits must be in 1..{MAX_BITS}, got {bits}")
    if not noise_power > 0.0:
        raise ValueError("noise_power must be positive")
    dim = 2 ** bits - 1
    sigma = math.sqrt(noise_power / 2.0)
    radius = 5.0 * sigma
    rng = np.random.default_rng(config.seed)

    n_sym = _SWARM_SIZE // 2
    widths = np.r_[3.0 * sigma, rng.uniform(0.1 * radius, 0.95 * radius, size=n_sym - 1)]
    grids = np.linspace(-widths, widths, 2 ** bits + 1, axis=1)[:, 1:-1]
    randoms = rng.uniform(-radius, radius, size=(_SWARM_SIZE - n_sym, dim))
    pos = _repair(np.concatenate((grids, randoms)))
    vel = rng.uniform(-0.1 * radius, 0.1 * radius, size=(_SWARM_SIZE, dim))

    fitness = fisher_rows(pos, signal.energy, noise_power)
    best_pos = pos.copy()
    best_fit = fitness.copy()
    g_idx = int(np.argmax(best_fit))
    g_fit = float(best_fit[g_idx])
    g_pos = best_pos[g_idx].copy()
    history = [g_fit]

    converged = False
    for it in range(1, config.max_iters + 1):
        r_cog = rng.uniform(size=(_SWARM_SIZE, dim))
        r_soc = rng.uniform(size=(_SWARM_SIZE, dim))
        vel = (
            _INERTIA * vel
            + _COGNITIVE * r_cog * (best_pos - pos)
            + _SOCIAL * r_soc * (g_pos[None, :] - pos)
        )
        np.clip(vel, -radius, radius, out=vel)
        pos = _repair(np.clip(pos + vel, -radius, radius))
        fitness = fisher_rows(pos, signal.energy, noise_power)

        improved = fitness > best_fit
        best_pos[improved] = pos[improved]
        best_fit[improved] = fitness[improved]
        g_idx = int(np.argmax(best_fit))
        if float(best_fit[g_idx]) > g_fit:
            g_fit = float(best_fit[g_idx])
            g_pos = best_pos[g_idx].copy()
        history.append(g_fit)

        if it >= config.stall_iters:
            gain = g_fit - history[-1 - config.stall_iters]
            if gain <= _STALL_TOL * max(1.0, abs(g_fit)):
                converged = True
                break

    thresholds = ThresholdSet(bits=bits, interior=g_pos)
    return PsoResult(
        thresholds=thresholds,
        achieved_objective=g_fit,
        iterations=it,
        converged=converged,
    )


def write_checkpoint(path, result: PsoResult, seed: int) -> None:
    """Persist a design: ``# key = value`` metadata above the payload line.

    The payload ``bits; t1,t2,...`` holds round-trip ``repr`` floats.
    Metadata is purely informational -- loading ignores all but the payload.
    """
    ts = result.thresholds
    lines = [
        f"# seed = {seed}",
        f"# iterations = {result.iterations}",
        f"# converged = {result.converged}",
        f"# achieved_objective = {result.achieved_objective!r}",
        f"{ts.bits}; " + ",".join(repr(float(v)) for v in ts.interior),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path):
    """Load a checkpoint: (ThresholdSet, metadata dict of str).

    Metadata lines are optional, so a bare ``bits; t1,...`` file loads too.
    A malformed, missing or second payload line, or a bit depth outside
    ``1..MAX_BITS`` (checked before ``2^bits`` is formed), raises ``ValueError``.
    """
    meta: dict[str, str] = {}
    payload = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
                continue
            if payload is not None:
                raise ValueError(f"second threshold payload line in {path}: {line!r}")
            payload = line
    if payload is None:
        raise ValueError(f"no threshold payload line found in {path}")
    head, sep, body = payload.partition(";")
    if not sep:
        raise ValueError(f"threshold line missing ';' separator: {payload!r}")
    bits = int(head)
    if not 1 <= bits <= MAX_BITS:
        raise ValueError(f"threshold file bit depth must be in 1..{MAX_BITS}, got {bits}")
    values = [float(tok) for tok in body.split(",")] if body.strip() else []
    return ThresholdSet(bits=bits, interior=np.array(values, dtype=float)), meta

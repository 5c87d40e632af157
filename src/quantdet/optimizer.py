"""Threshold design by particle swarm maximization of Fisher information.

For a fixed template and noise power the asymptotic detection
probability is monotone in the noncentrality, which factorizes as
|beta|^2 * E * J1(tau); only J1 depends on the thresholds.  Designing a
q-bit quantizer therefore means maximizing

    objective(tau) = E * J1(tau)
                   = E * sum_i (F'_i(tau)^2 - F''_i(tau) F_i(tau)) / F_i(tau)

over strictly increasing tau in R^(2^q - 1) -- the Fisher-information
diagonal itself.  The landscape is smooth but multimodal in the sorted
coordinates, so a small particle swarm with sort-repair is used rather
than a local gradient method.

Determinism: one seed fixes the full trajectory.  All random draws
happen in a fixed order inside the iteration loop and candidate
evaluation is vectorized across the swarm, so results do not depend on
evaluation scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import ThresholdSet, _stats_from_edges
from .signal_model import EffectiveSignal

# Minimum post-repair gap between neighbouring thresholds.  Large enough
# to keep bins numerically distinct, small enough never to move an
# optimum that has genuinely separated thresholds.
_SEPARATION = 1e-9

_MASS_FLOOR = 1e-300


@dataclass(frozen=True)
class PsoConfig:
    """Swarm hyperparameters.  Defaults are deliberately conservative.

    ``search_radius = None`` resolves to 5 standard deviations of one
    noise component (5 * sqrt(noise_power / 2)) at run time: thresholds
    beyond that see essentially no probability mass, so nothing useful
    lives outside the box.
    """

    seed: int
    swarm_size: int = 50
    max_iters: int = 500
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    stall_tol: float = 1e-9
    stall_iters: int = 50
    search_radius: float | None = None

    def __post_init__(self):
        if self.swarm_size < 2:
            raise ValueError("swarm_size must be at least 2")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.stall_iters < 1:
            raise ValueError("stall_iters must be positive")
        if not all(math.isfinite(c) for c in (self.inertia, self.cognitive, self.social)):
            raise ValueError("inertia, cognitive and social must be finite")
        if not 0.0 <= self.stall_tol < math.inf:
            raise ValueError(f"stall_tol must be finite and >= 0, got {self.stall_tol}")
        if self.search_radius is not None and not 0.0 < self.search_radius < math.inf:
            raise ValueError("search_radius must be finite and positive")


@dataclass(frozen=True)
class PsoResult:
    thresholds: ThresholdSet
    achieved_objective: float
    iterations: int
    converged: bool


def _objective_rows(positions: np.ndarray, energy: float, noise_power: float) -> np.ndarray:
    """Objective E * J1 of each row of a (swarm, dim) block of candidates.

    Rows must already be strictly increasing (run through :func:`_repair`).
    Degenerate candidates (a bin with vanishing mass) score -inf so the
    swarm can fly through infeasible territory and recover.
    """
    swarm = positions.shape[0]
    inf_col = np.full((swarm, 1), np.inf)
    edges = np.concatenate((-inf_col, positions, inf_col), axis=1)
    f, f1, f2 = _stats_from_edges(edges, noise_power)
    feasible = f.min(axis=1) >= _MASS_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        info = ((f1 ** 2 - f2 * f) / f).sum(axis=1)
    return np.where(feasible, energy * info, -np.inf)


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


def canonical_grid(bits: int, noise_power: float, radius: float) -> np.ndarray:
    """Symmetric uniform-grid thresholds, the classic hand-designed start.

    The grid spans +/- min(3 sigma_component, 0.9 * radius), covering
    the bulk of the Gaussian without wasting outer bins.
    """
    half_width = min(3.0 * math.sqrt(noise_power / 2.0), 0.9 * radius)
    return np.linspace(-half_width, half_width, 2 ** bits + 1)[1:-1]


def optimize_thresholds(
    bits: int,
    signal: EffectiveSignal,
    noise_power: float,
    config: PsoConfig,
) -> PsoResult:
    """Run the swarm and return the best threshold vector found.

    Initialization mixes three families: the canonical grid (particle 0),
    random symmetric uniform grids (first half of the swarm), and fully
    random sorted candidates -- symmetric starts matter because the
    u = 0 objective is even, while the random half guards against the
    optimum not being a uniform grid.

    The run stops early once the global best improves by less than
    ``stall_tol`` (relative) over ``stall_iters`` consecutive iterations.
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not noise_power > 0.0:
        raise ValueError("noise_power must be positive")
    dim = 2 ** bits - 1
    radius = config.search_radius
    if radius is None:
        radius = 5.0 * math.sqrt(noise_power / 2.0)
    rng = np.random.default_rng(config.seed)
    swarm = config.swarm_size
    energy = signal.energy

    pos = np.empty((swarm, dim))
    pos[0] = canonical_grid(bits, noise_power, radius)
    n_sym = swarm // 2
    widths = rng.uniform(0.1 * radius, 0.95 * radius, size=n_sym - 1)
    for j, w in enumerate(widths, start=1):
        pos[j] = np.linspace(-w, w, 2 ** bits + 1)[1:-1]
    pos[n_sym:] = rng.uniform(-radius, radius, size=(swarm - n_sym, dim))
    pos = _repair(pos)
    vel = rng.uniform(-0.1 * radius, 0.1 * radius, size=(swarm, dim))

    fitness = _objective_rows(pos, energy, noise_power)
    best_pos = pos.copy()
    best_fit = fitness.copy()
    g_idx = int(np.argmax(best_fit))
    g_fit = float(best_fit[g_idx])
    g_pos = best_pos[g_idx].copy()
    history = [g_fit]

    iterations = 0
    converged = False
    for it in range(1, config.max_iters + 1):
        iterations = it
        r_cog = rng.uniform(size=(swarm, dim))
        r_soc = rng.uniform(size=(swarm, dim))
        vel = (
            config.inertia * vel
            + config.cognitive * r_cog * (best_pos - pos)
            + config.social * r_soc * (g_pos[None, :] - pos)
        )
        np.clip(vel, -radius, radius, out=vel)
        pos = _repair(np.clip(pos + vel, -radius, radius))
        fitness = _objective_rows(pos, energy, noise_power)

        improved = fitness > best_fit
        best_pos[improved] = pos[improved]
        best_fit[improved] = fitness[improved]
        g_idx = int(np.argmax(best_fit))
        if float(best_fit[g_idx]) > g_fit:
            g_fit = float(best_fit[g_idx])
            g_pos = best_pos[g_idx].copy()
        history.append(g_fit)

        if it >= config.stall_iters and math.isfinite(g_fit):
            gain = g_fit - history[-1 - config.stall_iters]
            if gain <= config.stall_tol * max(1.0, abs(g_fit)):
                converged = True
                break

    thresholds = ThresholdSet(bits=bits, interior=g_pos)
    return PsoResult(
        thresholds=thresholds,
        achieved_objective=g_fit,
        iterations=iterations,
        converged=converged,
    )


def write_checkpoint(path, result: PsoResult, seed: int | None = None, extra=None) -> None:
    """Persist a design: ``# key = value`` metadata above the payload line.

    ``extra`` maps additional metadata keys to values.  Metadata is purely
    informational -- loading ignores everything but the payload line.
    """
    lines = []
    if seed is not None:
        lines.append(f"# seed = {seed}")
    lines.append(f"# iterations = {result.iterations}")
    lines.append(f"# converged = {result.converged}")
    lines.append(f"# achieved_objective = {result.achieved_objective!r}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {value}")
    lines.append(result.thresholds.to_line())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path):
    """Load a checkpoint; returns (ThresholdSet, metadata dict).

    Metadata lines are optional, so a bare ``bits; t1,...`` file loads too.
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
            payload = line
            break
    if payload is None:
        raise ValueError(f"no threshold payload line found in {path}")
    return ThresholdSet.from_line(payload), meta

"""Experiment configuration: one flat dataclass and a ``key = value`` file format.

One assignment per line, ``#`` comments, no sections or nesting, so
configs diff cleanly and shell scripts can write them.  A comment starts
at a ``#`` that begins the line or follows whitespace, so in
``out = runs/a#1.csv`` the ``#`` is part of the value.  Every key is a
field of :class:`ExperimentSpec`, typed by its annotation alone
(:func:`parse_value`, for files and flags alike); an unknown or duplicate
key is an error.
"""

from __future__ import annotations

import math
import re
import typing
from dataclasses import dataclass

from .optimizer import MAX_BITS, PsoConfig
from .signal_model import SceneConfig


class ConfigError(ValueError):
    """Malformed experiment configuration (file or merged flags)."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Every knob of every command, with working defaults.

    ``None`` means "not set": commands fill in their own defaults or
    reject the spec if the value is mandatory (e.g. ``seed`` for any
    Monte Carlo command).  An empty list or text is never "not set": it
    is rejected, so a default is only ever taken for a key left out.
    """

    # scene
    n_tx: int = SceneConfig.n_tx
    n_rx: int = SceneConfig.n_rx
    snapshots: int = SceneConfig.snapshots
    spacing: float = SceneConfig.spacing
    angle: float = SceneConfig.angle
    noise_power: float = SceneConfig.noise_power
    beta_r: float = SceneConfig.beta.real
    beta_i: float = SceneConfig.beta.imag
    snr_db: float | None = None
    # detectors / quantization
    q: int | None = None
    detectors: tuple[str, ...] = ("1", "2", "3", "inf")
    thresholds_path: str | None = None
    # operating points
    pfa: float = 1e-2
    pfa_grid: tuple[float, ...] | None = None
    eta_grid: tuple[float, ...] | None = None
    snr_grid_db: tuple[float, ...] | None = None
    # monte carlo (trials = None lets each command pick its own default)
    trials: int | None = None
    seed: int | None = None
    workers: int = 1
    # swarm optimizer
    max_iters: int = PsoConfig.max_iters
    stall_iters: int = PsoConfig.stall_iters
    # output
    out: str | None = None

    def __post_init__(self):
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not 0.0 < self.pfa < 1.0:
            raise ConfigError("pfa must lie in (0, 1)")
        if self.q is not None and not 1 <= self.q <= MAX_BITS:
            raise ConfigError(f"q must be in 1..{MAX_BITS}, got {self.q}")
        for name in ("pfa_grid", "eta_grid", "snr_grid_db", "detectors"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(v))
        for name in ("pfa_grid", "eta_grid", "snr_grid_db", "detectors", "out", "thresholds_path"):
            if getattr(self, name) in ((), ""):
                raise ConfigError(f"{name} is empty: give it a value or leave it unset")
        if not all(0.0 < p < 1.0 for p in self.pfa_grid or ()):
            raise ConfigError(f"every pfa_grid entry must lie in (0, 1), got {self.pfa_grid}")
        # statistics are >= 0, and the theory column takes sqrt(eta)
        if not all(0.0 <= e < math.inf for e in self.eta_grid or ()):
            raise ConfigError(f"every eta_grid entry must be finite and >= 0, got {self.eta_grid}")
        if not all(math.isfinite(s) for s in self.snr_grid_db or ()):
            raise ConfigError(f"every snr_grid_db entry must be finite, got {self.snr_grid_db}")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        canonical = []  # each token as str(int(tok)) or 'inf', listed once
        for tok in self.detectors:
            try:
                canon = "inf" if tok == "inf" else str(int(tok))
                ok = canon == "inf" or 1 <= int(canon) <= MAX_BITS
            except ValueError:
                ok = False
            if not ok:
                raise ConfigError(
                    f"bad detector token {tok!r}: expected a bit depth in 1..{MAX_BITS} or 'inf'"
                )
            if canon in canonical:
                raise ConfigError(f"detector {canon} is listed twice in {self.detectors}")
            canonical.append(canon)
        object.__setattr__(self, "detectors", tuple(canonical))


_TYPES = typing.get_type_hints(ExperimentSpec)
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_value(key: str, text: str):
    """Read ``text`` as a value of config key ``key``, typed by its annotation."""
    kind = _TYPES[key]
    if type(None) in typing.get_args(kind):  # "X | None" reads as X
        kind, _ = typing.get_args(kind)
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(tok.strip()) for tok in text.split(",") if tok.strip())
    return kind(text)


def parse_config(text: str) -> ExperimentSpec:
    """Parse ``key = value`` text into an :class:`ExperimentSpec`."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}") from exc
    return ExperimentSpec(**values)


def load_config(path) -> ExperimentSpec:
    """:func:`parse_config` of the UTF-8 file at ``path``; ``OSError`` if it cannot be read."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())

"""quantdet: weak-target detection from coarsely quantized MIMO radar data.

Library layout:

* :mod:`quantdet.signal_model`  -- scenes, steering/waveform structure, synthesis
* :mod:`quantdet.quantizer`     -- threshold sets, 0-based binning, Gaussian bin statistics
* :mod:`quantdet.detectors`     -- batch-first Rao test and unquantized GLRT, detector classes
* :mod:`quantdet.perf_theory`   -- Fisher information and asymptotic detection rates
* :mod:`quantdet.optimizer`     -- swarm design of detection-optimal thresholds
* :mod:`quantdet.montecarlo`    -- reproducible trial engine, ROC / SNR sweeps
* :mod:`quantdet.experiment`    -- flat config files
* :mod:`quantdet.selftest`      -- built-in sanity battery
* :mod:`quantdet.cli`           -- the ``quantdet`` command
"""

from .detectors import (
    GlrtDetector,
    RaoDetector,
    ZeroSignalError,
    glrt_unquantized_batch,
    rao_statistic_batch,
)
from .experiment import ConfigError, ExperimentSpec, load_config, parse_config, save_config, serialize_config
from .montecarlo import (
    RocCurve,
    SweepPoint,
    TrialConfig,
    empirical_threshold,
    estimate_roc,
    pd_vs_snr,
    run_trials,
    subseed,
)
from .optimizer import (
    PsoConfig,
    PsoResult,
    canonical_grid,
    optimize_thresholds,
    read_checkpoint,
    write_checkpoint,
)
from .perf_theory import fisher_information, theoretical_pd
from .quantizer import BinStats, DegenerateBinError, ThresholdSet, bin_probability, bin_stats_table
from .selftest import CheckResult, run_selftest
from .signal_model import (
    EffectiveSignal,
    Hypothesis,
    SceneConfig,
    effective_signal,
    lfm_waveform,
    observation_planes,
    steering_matrix,
    stream_rng,
    trial_counter,
)
from .special import marcum_q1, qfunc

__version__ = "0.1.0"

__all__ = [
    "BinStats",
    "CheckResult",
    "ConfigError",
    "DegenerateBinError",
    "EffectiveSignal",
    "ExperimentSpec",
    "GlrtDetector",
    "Hypothesis",
    "PsoConfig",
    "PsoResult",
    "RaoDetector",
    "RocCurve",
    "SceneConfig",
    "SweepPoint",
    "ThresholdSet",
    "TrialConfig",
    "ZeroSignalError",
    "bin_probability",
    "bin_stats_table",
    "canonical_grid",
    "effective_signal",
    "empirical_threshold",
    "estimate_roc",
    "fisher_information",
    "glrt_unquantized_batch",
    "lfm_waveform",
    "load_config",
    "marcum_q1",
    "observation_planes",
    "optimize_thresholds",
    "parse_config",
    "pd_vs_snr",
    "qfunc",
    "rao_statistic_batch",
    "read_checkpoint",
    "run_selftest",
    "run_trials",
    "save_config",
    "serialize_config",
    "steering_matrix",
    "stream_rng",
    "subseed",
    "theoretical_pd",
    "trial_counter",
    "write_checkpoint",
]

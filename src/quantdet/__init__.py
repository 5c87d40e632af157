"""quantdet: weak-target detection from coarsely quantized MIMO radar data.

Library layout:

* :mod:`quantdet.signal_model`  -- scenes and their templates (``SceneConfig.signal``),
                                   steering/waveform structure, synthesis
* :mod:`quantdet.quantizer`     -- threshold sets, 0-based binning, Gaussian bin statistics
* :mod:`quantdet.detectors`     -- batch-first Rao test and unquantized GLRT, detector classes
* :mod:`quantdet.perf_theory`   -- Fisher information and asymptotic detection rates
* :mod:`quantdet.optimizer`     -- swarm design of detection-optimal thresholds
* :mod:`quantdet.montecarlo`    -- reproducible trial engine, empirical thresholds, ROC estimation
* :mod:`quantdet.experiment`    -- flat config files
* :mod:`quantdet.special`       -- Q function, chi-square (2 dof) tail, Marcum Q1
* :mod:`quantdet.selftest`      -- built-in sanity battery
* :mod:`quantdet.cli`           -- the ``quantdet`` command: roc / pd-eta / pd-snr loops,
                                   threshold resolution, CSV output

The package namespace holds only the names the README's examples import;
everything else is imported from the module that defines it.
"""

from .detectors import RaoDetector
from .montecarlo import TrialConfig, empirical_threshold, estimate_roc, run_trials
from .optimizer import PsoConfig, optimize_thresholds
from .signal_model import Hypothesis, SceneConfig, observation_planes

__version__ = "0.1.0"

__all__ = [
    "Hypothesis",
    "PsoConfig",
    "RaoDetector",
    "SceneConfig",
    "TrialConfig",
    "empirical_threshold",
    "estimate_roc",
    "observation_planes",
    "optimize_thresholds",
    "run_trials",
]

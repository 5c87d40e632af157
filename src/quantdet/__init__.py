"""quantdet: weak-target detection from coarsely quantized MIMO radar data.

The README's "Library layout" table maps the modules.  The package
namespace holds only the names the README's examples import; everything
else is imported from the module that defines it.
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

"""Shared fixtures and frozen reference constants for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from quantdet import PsoConfig, SceneConfig, optimize_thresholds

# Published quantizer designs for noise_power = 2.  They are the baseline
# for objective-ratio checks, not targets for threshold recovery: the q=3
# set is not an optimum of E * J1 (its gradient reaches 5.7e-3, and a local
# ascent from it ends at FROZEN["opt_tau_q3_right"], mirrored).
REFERENCE_Q1 = (-0.003,)
REFERENCE_Q2 = (-0.978, -0.008, 0.967)
REFERENCE_Q3 = (-1.630, -1.012, -0.460, 0.067, 0.542, 1.067, 1.803)

# Frozen values computed by independent scripts before the package was
# written (scipy minimize / quadrature / hand evaluation).  Tests assert
# against these, not against the package's own output.
FROZEN = {
    # per-unit-energy information at the true optimum, noise_power = 2
    "opt_info_q1": 0.6366197723675814,  # = 2/pi
    "opt_info_q2": 0.8825181521706709,
    "opt_info_q3": 0.9654522392114968,
    # true optimal interior thresholds (symmetric), noise_power = 2
    "opt_tau_q2": (-0.9815988070447006, 0.0, 0.9815988070447006),
    "opt_tau_q3_right": (0.5005497355040166, 1.049957279321605, 1.7479275108202206),
    # information at the reference designs (for objective-ratio checks)
    "ref_info_q1": 0.6366176903551526,
    "ref_info_q2": 0.8824956518969539,
    "ref_info_q3": 0.9650307048410985,
    # scene energy for n_tx=2, n_rx=16, snapshots=8
    "scene_energy": 64.0,
    # noncentrality at -14 dB for the optimal 2-bit design on that scene
    "lambda_q2_m14db": 4.497111097891413,
    # detection threshold at p_fa = 0.01
    "eta_1e2": 9.210340371976182,
}


@pytest.fixture(scope="session")
def reference_q2():
    return REFERENCE_Q2


@pytest.fixture(scope="session")
def reference_q3():
    return REFERENCE_Q3


@pytest.fixture(scope="session")
def frozen():
    return dict(FROZEN)


@pytest.fixture(scope="session")
def scene():
    """The default 16-receiver, 8-snapshot scene at reference SNR -14 dB."""
    return SceneConfig(n_tx=2, n_rx=16, snapshots=8, noise_power=2.0).with_snr_db(-14.0)


@pytest.fixture(scope="session")
def signal(scene):
    return scene.signal


@pytest.fixture(scope="session")
def designs(signal):
    """Swarm-designed thresholds for q = 1, 2, 3 (seeded, shared per session)."""
    out = {}
    for q in (1, 2, 3):
        res = optimize_thresholds(q, signal, 2.0, PsoConfig(seed=1000 + q))
        out[q] = res
    return out

"""Fisher information and asymptotic detection rates.

At beta = 0 the Fisher information matrix of (Re beta, Im beta) is
diagonal with equal entries E * J1 (template energy times information per
unit energy): quantization never couples the two components at the null.
Under H0 the statistic is asymptotically central chi-square with 2 dof,
so the threshold for false-alarm rate p_fa is eta = -2 ln p_fa; under a
weak H1 it is noncentral with lambda_F = |beta|^2 * E * J1.  Without a
quantizer, J1 becomes its upper bound 2 / noise_power.
"""

from __future__ import annotations

import math

import numpy as np

from .quantizer import ThresholdSet, bin_stats_table
from .signal_model import EffectiveSignal
from .special import marcum_q1


def fisher_information(
    signal: EffectiveSignal, thresholds: ThresholdSet, noise_power: float
) -> float:
    """Diagonal entry E * J1 of the Fisher information at beta = 0.

    Raises as :func:`~quantdet.quantizer.bin_stats_table` does.
    """
    table = bin_stats_table(thresholds, noise_power)
    return float(signal.energy * table.info_per_energy)


def asymptotic_pd(lambda_f: float, eta):
    """Asymptotic detection probability Q_1(sqrt(lambda_f), sqrt(eta)) at each threshold.

    A scalar ``eta`` gives a float; a grid gives an array.  lambda_f = 0
    gives the false-alarm rate exp(-eta/2) itself; a negative lambda_f
    raises ``ValueError``.
    """
    if lambda_f < 0.0:
        raise ValueError("noncentrality must be non-negative")
    eta = np.asarray(eta, dtype=float)
    a = math.sqrt(lambda_f)
    p_d = np.array([marcum_q1(a, math.sqrt(e)) for e in eta.flat]).reshape(eta.shape)
    return float(p_d) if p_d.ndim == 0 else p_d

"""Asymptotic detection rates.

At beta = 0 the Fisher information of (Re beta, Im beta) is diagonal with
equal entries E * J1, template energy times the bin table's
``info_per_energy``; quantization never couples the two at the null.  Under
H0 the statistic is asymptotically central chi-square with 2 dof, so the
threshold for false-alarm rate p_fa is eta = -2 ln p_fa; under a weak H1 it
is noncentral with lambda_F = |beta|^2 * E * J1, each detector's
``noncentrality``.  Without a quantizer, J1 is its upper bound 2 / noise_power.
"""

from __future__ import annotations

import math

import numpy as np

from .special import marcum_q1


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

"""Fisher information and asymptotic detection rates.

Key facts behind them:

* The per-amplitude Fisher information matrix at beta = 0 is diagonal
  with equal entries E * J1 (template energy times information per unit
  energy), and exactly zero off-diagonal -- quantization never couples
  the real and imaginary amplitude components at the null -- so the
  scalar E * J1 stands for the whole matrix.
* Under H0 the statistic is asymptotically central chi-square, 2 dof;
  under a weak H1 it is noncentral with

      lambda_F = |beta|^2 * E * J1.

* Hence the false-alarm threshold for target p_fa is eta = -2 ln p_fa
  and the detection probability is the Marcum tail Q_1(sqrt(lambda_F),
  sqrt(eta)).

The unquantized matched filter obeys the same formulas with J1 replaced
by its infinite-resolution limit 2 / noise_power, which upper-bounds
every quantized J1.  Each detector class computes its own lambda_F
(``noncentrality`` in :mod:`quantdet.detectors`), the quantized one from
:func:`fisher_information`.
"""

from __future__ import annotations

import math

from .quantizer import ThresholdSet, bin_stats_table
from .signal_model import EffectiveSignal
from .special import chi2_2_quantile, marcum_q1


def fisher_information(
    signal: EffectiveSignal, thresholds: ThresholdSet, noise_power: float
) -> float:
    """Diagonal entry E * J1 of the Fisher information at beta = 0."""
    table = bin_stats_table(thresholds, noise_power)
    return float(signal.energy * table.info_per_energy)


def theoretical_pd(lambda_f: float, p_fa: float) -> float:
    """Asymptotic detection probability at false-alarm rate ``p_fa``.

    Exact limits fall out of the Marcum form: lambda_f = 0 returns
    ``p_fa`` itself, and lambda_f -> inf tends to 1.
    """
    if lambda_f < 0.0:
        raise ValueError("noncentrality must be non-negative")
    eta = chi2_2_quantile(p_fa)
    return marcum_q1(math.sqrt(lambda_f), math.sqrt(eta))

"""Special functions with explicit accuracy contracts.

Everything downstream (bin probabilities, detection-probability curves,
threshold design) bottoms out in the three primitives below, so their
accuracy is pinned here once:

* :func:`qfunc` -- Gaussian right-tail probability, relative error <= 1e-12
  over the IEEE double range where the result is normal.
* :func:`marcum_q1` -- first-order Marcum Q function over its whole domain,
  absolute error <= 1e-12 (a rigorous tail bound where its series runs,
  checked against a 40-digit oracle past it).
* chi-square (2 dof) tail helpers, exact closed forms.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import special as _sp

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# exp(-x) underflows to 0 below roughly -745; the series in marcum_q1 is
# anchored at exp(-lam) and exp(-x), so it runs only while both stay clear
_MAX_HALF_EXPONENT = 700.0
_MARCUM_ATOL = 1e-12  # the series stops once its remaining Poisson mass is below this
_HERMITE_NODES = 32  # Gauss-Hermite order of marcum_q1 past the series' range


def qfunc(x):
    """Gaussian tail probability Q(x) = P(Z > x) for Z ~ N(0, 1).

    Evaluated as 0.5 * erfc(x / sqrt(2)), which keeps full relative
    accuracy in the far right tail where 1 - Phi(x) would cancel.
    Accepts scalars or arrays; +/-inf map to 0 and 1 exactly.
    """
    return 0.5 * _sp.erfc(np.asarray(x, dtype=float) / _SQRT2)


def gauss_density(x, sigma: float = 1.0):
    """Density of N(0, sigma^2) at ``x``; 0.0 at x = +/-inf (no NaN)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / sigma) ** 2) / (sigma * _SQRT2PI)


def chi2_2_sf(x):
    """Survival function of a central chi-square with 2 dof: exp(-x/2)."""
    return np.exp(-0.5 * np.asarray(x, dtype=float))


def chi2_2_quantile(p_right: float) -> float:
    """Value eta with P(chi2_2 > eta) = p_right, i.e. eta = -2 ln p_right."""
    if not 0.0 < p_right < 1.0:
        raise ValueError(f"tail probability must lie in (0, 1), got {p_right!r}")
    return -2.0 * math.log(p_right)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q function Q_1(a, b).

    Equals the right tail P(X > b^2) of a noncentral chi-square X with
    2 degrees of freedom and noncentrality a^2.  Computed from the
    Poisson-mixture series

        Q_1(a, b) = sum_k  e^{-a^2/2} (a^2/2)^k / k!  *  G_k(b^2/2),
        G_k(x)    = e^{-x} sum_{j<=k} x^j / j!,

    with both factors advanced by multiplicative recurrences.  Since
    G_k <= 1, the truncated tail is bounded by the remaining Poisson
    mass, which past the mode is itself bounded geometrically; the loop
    stops once that bound drops below 1e-12, so the absolute error is
    at most 1e-12 plus float rounding (a few ulp per term).

    The series needs a^2/2 and b^2/2 below 700 so that the anchoring
    exponentials stay normal; past that, :func:`_marcum_q1_far` integrates
    over one Gaussian coordinate instead.
    """
    if not (a >= 0.0 and b >= 0.0):  # NaN fails too: it would never stop the series
        raise ValueError(f"marcum_q1 arguments must be non-negative, got a={a!r}, b={b!r}")
    lam = 0.5 * a * a  # Poisson intensity of the mixture
    x = 0.5 * b * b
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-x)
    if lam > _MAX_HALF_EXPONENT or x > _MAX_HALF_EXPONENT:
        return _marcum_q1_far(a, b)

    pois = math.exp(-lam)        # Poisson pmf at k = 0
    chi_term = math.exp(-x)      # e^{-x} x^k / k! at k = 0
    chi_sf = chi_term            # G_k(x), running inner partial sum
    total = pois * chi_sf
    k = 0
    while True:
        k += 1
        pois *= lam / k
        chi_term *= x / k
        chi_sf += chi_term
        total += pois * chi_sf
        if k >= lam:
            # Past the Poisson mode the pmf decays at least geometrically
            # with ratio r = lam/(k+1) < 1, so the untouched tail mass is
            # under pois * r / (1 - r); G_k <= 1 makes it an error bound.
            r = lam / (k + 1)
            if pois * r / (1.0 - r) <= _MARCUM_ATOL:
                break
    return min(total, 1.0)


@functools.cache
def _hermite_rule():
    """Probabilists' Gauss-Hermite nodes and weights, normalised to sum to 1."""
    from numpy.polynomial.hermite_e import hermegauss  # 5 ms: paid on first use only

    t, w = hermegauss(_HERMITE_NODES)
    return t, w / w.sum()


def _marcum_q1_far(a: float, b: float) -> float:
    """Q_1(a, b) as E_t[Q(r - a) + Q(r + a)] over t ~ N(0, 1), r = sqrt(b^2 - t^2).

    Q_1(a, b) = P(|a + Z| > b) for a standard complex Gaussian Z (unit
    variance per component).  Given Im Z = t, the event is certain once
    t^2 >= b^2, and otherwise has probability Q(r - a) + Q(r + a).  Where
    the series cannot run, a or b exceeds 37, so the integrand is smooth
    over the nodes (or within rounding of 1 where a node passes b), and 32
    nodes reach double precision.  r - a is formed as
    ((b - a)(b + a) - t^2) / (r + a), which keeps its digits when a and b
    are large and close.
    """
    t, w = _hermite_rule()
    tt = t * t
    inside = tt < b * b
    r = np.sqrt(np.where(inside, b * b - tt, 0.0))
    tail = qfunc(((b - a) * (b + a) - tt) / (r + a)) + qfunc(r + a)
    return min(max(float(w @ np.where(inside, tail, 1.0)), 0.0), 1.0)

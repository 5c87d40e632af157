"""Special functions: the Gaussian tail, the chi-square (2 dof) tail and Marcum Q1.

Bin probabilities, detection curves and threshold design all bottom out
here, so each function states its accuracy.  They need numpy alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

# exp(-x) underflows to 0 below roughly -745; the series in marcum_q1 is
# anchored at exp(-lam) and exp(-x), so it runs only while both stay clear
_MAX_HALF_EXPONENT = 700.0
_MARCUM_ATOL = 1e-12  # the series stops once its remaining Poisson mass is below this
_HERMITE_NODES = 32  # Gauss-Hermite order of marcum_q1 past the series' range

# Cephes ndtr.c: erfc's rational approximations on [1, 8) (P/Q) and from 8
# on (R/S), erf's on [0, 1) (T/U, in a^2), highest power first; Q, S and U
# omit their leading 1.0.  erfc is 0 (or 2) once a^2 exceeds _MAXLOG.
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)


def qfunc(x):
    """Gaussian tail probability Q(x) = P(Z > x) for Z ~ N(0, 1), elementwise.

    Evaluated as 0.5 * erfc(x / sqrt(2)), which keeps full relative
    accuracy in the far right tail where 1 - Phi(x) would cancel: relative
    error <= 1e-12 wherever the result is a normal double.  +/-inf map to
    0 and 1 exactly.  erfc is :func:`_erfc`, so every value is
    bit-identical to ``0.5 * scipy.special.erfc(x / sqrt(2))``.
    """
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)


def _polevl(x, coef):
    """Cephes polevl: Horner's rule, one multiply then one add per step."""
    acc = coef[0] * x + coef[1]
    for c in coef[2:]:
        acc = acc * x + c
    return acc


def _p1evl(x, coef):
    """Cephes p1evl: :func:`_polevl` with an implicit leading coefficient 1.0."""
    acc = x + coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erfc(a: np.ndarray) -> np.ndarray:
    """Complementary error function, elementwise: Moshier's Cephes ``erfc``, ported.

    Cephes (*Methods and Programs for Mathematical Functions*, 1989) is
    what ``scipy.special.erfc`` runs.  Below |a| = 1 it is
    1 - a T(a^2)/U(a^2), Cephes' erf; up to a^2 = _MAXLOG it is
    exp(-a^2) P(|a|)/Q(|a|) (R/S from |a| = 8), reflected as 2 - y for
    a < 0; past that it is 0 or 2, as at +/-inf.
    Each entry's polynomials are evaluated in its own branch only, and
    the products and quotients keep Cephes' order: (a T) / U, (e P) / Q.
    numpy's + - * / round as C does, but ``np.exp`` may use a SIMD
    kernel whose last bit differs from the C library's, so exp(-a^2)
    is ``math.exp``, one entry at a time.  Cephes' final "y == 0 means
    underflow" step is omitted: it returns the 0.0 that y already is.
    """
    x = np.abs(a)
    z = np.square(np.minimum(x, 27.0))  # a*a wherever it is read; 27^2 > _MAXLOG
    out = np.where(a < 0.0, 2.0, 0.0)
    out[np.isnan(a)] = np.nan
    near = x < 1.0
    zn = z[near]
    out[near] = 1.0 - a[near] * _polevl(zn, _ERF_T) / _p1evl(zn, _ERF_U)
    mid = (x >= 1.0) & (z <= _MAXLOG)
    xm = x[mid]
    y = np.fromiter(map(math.exp, (-z[mid]).tolist()), float, xm.size)
    for part, num, den in ((xm < 8.0, _ERFC_P, _ERFC_Q), (xm >= 8.0, _ERFC_R, _ERFC_S)):
        if part.any():  # the R/S branch (a^2 >= 64) is seldom reached
            xp = xm[part]
            y[part] = y[part] * _polevl(xp, num) / _p1evl(xp, den)
    out[mid] = np.where(a[mid] < 0.0, 2.0 - y, y)
    return out


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
    """First-order Marcum Q function Q_1(a, b), to an absolute error of 1e-12.

    Equals the right tail P(X > b^2) of a noncentral chi-square X with
    2 dof and noncentrality a^2.  While a^2/2 and b^2/2 stay below 700,
    so that the anchoring exponentials are normal, it sums the
    Poisson-mixture series

        Q_1(a, b) = sum_k  e^{-a^2/2} (a^2/2)^k / k!  *  G_k(b^2/2),
        G_k(x)    = e^{-x} sum_{j<=k} x^j / j!,

    with both factors advanced by multiplicative recurrences.  Since
    G_k <= 1, the truncated tail is at most the remaining Poisson mass,
    bounded geometrically past the mode; the loop stops once that bound
    is below 1e-12, so the error is 1e-12 plus a few ulp per term.  Past
    that range :func:`_marcum_q1_far` takes over.  An infinite argument
    returns the limit (1.0 at a = inf, 0.0 at b = inf); both infinite, or
    a negative or NaN argument, raises ``ValueError``.
    """
    if not (a >= 0.0 and b >= 0.0):  # NaN fails too: it would never stop the series
        raise ValueError(f"marcum_q1 arguments must be non-negative, got a={a!r}, b={b!r}")
    if math.isinf(a) or math.isinf(b):
        if a == b:
            raise ValueError("marcum_q1 has no limit at a = b = inf")
        return float(a > b)
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

"""Slow reference implementations used only by tests.

Everything here is deliberately written from first principles with
different numerical machinery than the package (mpmath arbitrary
precision, scipy.stats distributions, adaptive quadrature, explicit
finite differences) so that agreement is evidence, not tautology.
"""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
from scipy import integrate
from scipy import special as sp
from scipy import stats

from quantdet.detectors import RaoDetector
from quantdet.quantizer import bin_stats_table
from quantdet.signal_model import Hypothesis, observation_planes

mpmath.mp.dps = 40


def qfunc_mp(x: float) -> float:
    """Gaussian tail via 40-digit mpmath erfc."""
    return float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))


def normal_cdf_mp(x: float) -> float:
    return float(mpmath.ncdf(x))


def bin_mass(u: float, lo: float, hi: float, noise_power: float) -> float:
    """P(lo < N(u, noise_power/2) <= hi) via scipy.stats.norm."""
    s = math.sqrt(noise_power / 2.0)
    dist = stats.norm(loc=u, scale=s)
    return float(dist.cdf(hi) - dist.cdf(lo))


def edges_of(interior) -> np.ndarray:
    return np.concatenate(([-np.inf], np.asarray(interior, dtype=float), [np.inf]))


def quantize_ref(values, interior) -> np.ndarray:
    """Right-closed binning by explicit comparison, 0-based indices."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    edges = edges_of(interior)
    out = np.empty(values.shape, dtype=int)
    for k, v in enumerate(values):
        for i in range(len(edges) - 1):
            if edges[i] < v <= edges[i + 1]:
                out[k] = i
                break
        else:  # v == -inf would be needed to get here; guard anyway
            out[k] = 0
    return out


def loglik(beta_r, beta_i, re_bins, im_bins, interior, noise_power, g, h) -> float:
    """Exact log-likelihood of a quantized observation (0-based bins) at amplitude beta."""
    edges = edges_of(interior)
    total = 0.0
    for n in range(len(re_bins)):
        u_re = beta_r * g[n] - beta_i * h[n]
        u_im = beta_r * h[n] + beta_i * g[n]
        i = int(re_bins[n])
        j = int(im_bins[n])
        total += math.log(bin_mass(u_re, edges[i], edges[i + 1], noise_power))
        total += math.log(bin_mass(u_im, edges[j], edges[j + 1], noise_power))
    return total


def score_fi_statistic(re_bins, im_bins, interior, noise_power, g, h, eps=1e-4) -> float:
    """Score-test statistic built purely from finite differences.

    Score: central differences of :func:`loglik` in (beta_r, beta_i) at
    zero.  Information: per-bin central differences of the bin masses,
    assembled into sum_i (F'^2 - F'' F) / F times the template energy.
    """
    def ell(br, bi):
        return loglik(br, bi, re_bins, im_bins, interior, noise_power, g, h)

    s_r = (ell(eps, 0.0) - ell(-eps, 0.0)) / (2.0 * eps)
    s_i = (ell(0.0, eps) - ell(0.0, -eps)) / (2.0 * eps)

    edges = edges_of(interior)
    info1 = 0.0
    for i in range(len(edges) - 1):
        f0 = bin_mass(0.0, edges[i], edges[i + 1], noise_power)
        fp = bin_mass(eps, edges[i], edges[i + 1], noise_power)
        fm = bin_mass(-eps, edges[i], edges[i + 1], noise_power)
        d1 = (fp - fm) / (2.0 * eps)
        d2 = (fp - 2.0 * f0 + fm) / (eps * eps)
        info1 += (d1 * d1 - d2 * f0) / f0
    energy = float(np.sum(np.asarray(g) ** 2) + np.sum(np.asarray(h) ** 2))
    return (s_r * s_r + s_i * s_i) / (energy * info1)


def rao_atoms(scene, thresholds, hypothesis):
    """(T, P): the Rao statistic and probability of every one of the K^(2n) bin-index patterns.

    Masses come from :func:`bin_mass` at each component's mean (0 under
    H0, Re/Im of beta * z_m under H1).  The statistic is written as a
    complex matched filter on score-ratio symbols,
    T = |sum_m conj(z_m) (r_i + j r_k)|^2 / (E * sum_i F'_i^2 / F_i),
    with F' from the Gaussian density at the edges; sum_i F''_i = 0 turns
    the package's sum_i (F'^2 - F'' F) / F into that denominator.
    Patterns are enumerated one component at a time, so K^(2n) must fit in memory.
    """
    edges = edges_of(thresholds.interior)
    k = len(edges) - 1
    noise_power = scene.noise_power
    dens = stats.norm(scale=math.sqrt(noise_power / 2.0)).pdf(edges)  # 0 at +-inf
    f0 = np.array([bin_mass(0.0, edges[i], edges[i + 1], noise_power) for i in range(k)])
    f1 = dens[:-1] - dens[1:]
    ratio = f1 / f0
    z = np.asarray(scene.signal.g) + 1j * np.asarray(scene.signal.h)
    mean = scene.beta * z if hypothesis.name == "H1" else np.zeros_like(z)
    w, prob = np.zeros(1, complex), np.ones(1)
    for m in range(len(z)):
        for u, unit in ((mean[m].real, 1.0), (mean[m].imag, 1j)):
            mass = [bin_mass(u, edges[i], edges[i + 1], noise_power) for i in range(k)]
            w = (w[:, None] + np.conj(z[m]) * unit * ratio[None, :]).ravel()
            prob = (prob[:, None] * np.array(mass)[None, :]).ravel()
    energy = float(np.vdot(z, z).real)
    return np.abs(w) ** 2 / (energy * np.sum(f1 * f1 / f0)), prob


def exact_rao_tail(scene, thresholds, eta, hypothesis) -> float:
    """P(T > eta) under ``hypothesis``, summed exactly over every bin-index pattern."""
    t, prob = rao_atoms(scene, thresholds, hypothesis)
    return float(prob[t > eta].sum())


def is_null_tail(scene, thresholds, eta, trials, seed):
    """(estimate, SE) of the Rao detector's H0 tail P(T > eta), by importance sampling.

    Trial k is the engine's H0 draw (``observation_planes``, stream
    ``seed``) shifted by a e^{j theta_k} z, with theta_k uniform and a
    chosen so that a^2 E J1 = eta - 2 (``eta`` > 2): the shifted
    statistic's mean, about 2 + a^2 E J1, then sits near ``eta``.  Each
    trial is scored by the detector's own scorer and weighted by the
    phase-averaged likelihood ratio exp(a^2 E / N0) / I0(2 a |z^H x| / N0),
    with I0 exponentially rescaled (scipy ``i0e``) to stay finite.  Trials
    are drawn and scored in blocks of 4096, which bounds the planes' memory.
    """
    detector = RaoDetector(thresholds)
    signal, n0 = scene.signal, scene.noise_power
    scorer = detector.scorer(signal, n0)
    a = math.sqrt((eta - 2.0) / detector.noncentrality(dataclasses.replace(scene, beta=1.0)))
    theta = np.random.default_rng([seed, 1]).uniform(0.0, 2.0 * math.pi, trials)
    hits = np.empty(trials)
    for start in range(0, trials, 4096):
        stop = min(start + 4096, trials)
        planes = observation_planes(scene, Hypothesis.H0, seed, start, stop)
        shift = a * np.exp(1j * theta[start:stop])[:, None] * signal.z
        planes[:, 0] += shift.real
        planes[:, 1] += shift.imag
        y = 2.0 * a * np.abs((planes[:, 0] + 1j * planes[:, 1]) @ np.conj(signal.z)) / n0
        weights = np.exp(a * a * signal.energy / n0 - y) / sp.i0e(y)
        hits[start:stop] = np.where(scorer(planes) > eta, weights, 0.0)
    return float(hits.mean()), float(hits.std(ddof=1) / math.sqrt(trials))


def edgeworth_null_tail(scene, thresholds, eta) -> float:
    """The Rao detector's H0 tail P(T > eta) with one Edgeworth term.

    e^{-eta/2} [1 + K eta (eta - 4) / 64], with
    K = 2 (mu4 / mu2^2 - 3) sum_m e_m^2 / E^2, mu_k = sum_i F'_i^k / F_i^{k-1}
    from ``bin_stats_table`` and e_m = g_m^2 + h_m^2; K = 0 gives chi2_2's tail.
    """
    stats = bin_stats_table(thresholds, scene.noise_power)
    mu2 = np.sum(stats.f1 ** 2 / stats.f)
    mu4 = np.sum(stats.f1 ** 4 / stats.f ** 3)
    e = scene.signal.g ** 2 + scene.signal.h ** 2
    k = 2.0 * (mu4 / mu2 ** 2 - 3.0) * np.sum(e * e) / np.sum(e) ** 2
    return float(math.exp(-eta / 2.0) * (1.0 + k * eta * (eta - 4.0) / 64.0))


def ncx2_2_sf_quadrature(x: float, lam: float) -> float:
    """Right tail of noncentral chi-square (2 dof) by adaptive quadrature.

    Integrates the Bessel-form density 0.5 exp(-(t+lam)/2) I0(sqrt(lam t))
    from x to infinity, with the Bessel factor exponentially rescaled
    (scipy ``ive``) to stay finite.
    """
    if x <= 0.0:
        return 1.0

    def dens(t):
        root = math.sqrt(lam * t)
        return 0.5 * sp.ive(0, root) * math.exp(-(t + lam) / 2.0 + root)

    val, err = integrate.quad(dens, x, np.inf, limit=400, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9
    return float(val)


def marcum_q1_mp(a: float, b: float) -> float:
    """Q_1(a, b) by 40-digit mpmath quadrature of the noncentral chi-square density.

    Integrates 0.5 exp(-(t + a^2)/2) I0(a sqrt(t)) from b^2 to infinity,
    split around the mean a^2 + 2 so that the quadrature sees the peak;
    mpmath's arbitrary exponent range keeps exp and I0 finite at any a.
    """
    lam = mpmath.mpf(a) ** 2
    eta = mpmath.mpf(b) ** 2
    mean, sd = lam + 2, mpmath.sqrt(4 * lam + 8)
    cuts = [mean + k * sd for k in (-20, -5, 0, 5, 20, 60)]
    points = [eta] + [c for c in cuts if c > eta] + [mpmath.inf]

    def dens(t):
        return mpmath.exp(-(t + lam) / 2) * mpmath.besseli(0, mpmath.sqrt(lam * t)) / 2

    return float(mpmath.quad(dens, points))


def steering_entry(i_r, i_t, spacing, angle) -> complex:
    """Array response phase term computed with mpmath trig (spacing in carrier lambdas)."""
    phase = -2.0 * mpmath.pi * (i_r + i_t) * spacing * mpmath.sin(angle)
    return complex(mpmath.cos(phase) + 1j * mpmath.sin(phase))

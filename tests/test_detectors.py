"""Closed-form detection statistics against hand values and numeric oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REFERENCE_Q2
from quantdet import detectors
from quantdet.detectors import (
    GlrtDetector,
    RaoDetector,
    ZeroSignalError,
    _score_sums,
    _score_terms,
    glrt_unquantized_batch,
    rao_statistic_batch,
)
from quantdet.quantizer import ThresholdSet, bin_indices, bin_stats_table
from quantdet.signal_model import (
    EffectiveSignal,
    Hypothesis,
    SceneConfig,
    synthesize_observation,
)


@pytest.fixture
def q1():
    return ThresholdSet(bits=1, interior=(0.0,))


@pytest.fixture
def q2_ref(reference_q2):
    return ThresholdSet(bits=2, interior=reference_q2)


def _unit_signal():
    # single real sample, g = [1], h = [0], energy 1
    return SceneConfig(n_tx=1, n_rx=1, snapshots=1).signal


def _rao(x, thresholds, signal, noise_power):
    """Rao statistic of a complex row or block quantized by ``thresholds``."""
    table = bin_stats_table(thresholds, noise_power)
    re0 = bin_indices(x.real, thresholds)
    im0 = bin_indices(x.imag, thresholds)
    return rao_statistic_batch(re0, im0, signal, table)


# -------------------------------------------------------------- hand examples

def test_single_sample_sign_quantizer_statistic_is_two(q1):
    # with one sample, g = 1, h = 0 and the sign quantizer the score
    # ratios are +/- sqrt(2/pi), so (S_R^2 + S_I^2)/(E*J1)
    # = (2/pi + 2/pi)/(2/pi) = 2 regardless of which bins come up
    sig = _unit_signal()
    table = bin_stats_table(q1, noise_power=2.0)
    for re_bin in (0, 1):
        for im_bin in (0, 1):
            t = rao_statistic_batch(np.array([re_bin]), np.array([im_bin]), sig, table)
            assert t == pytest.approx(2.0, rel=1e-12), (re_bin, im_bin)


def test_one_bit_statistic_equals_sign_correlator(q1):
    # with tau = 0 the quantized Rao statistic must coincide with the
    # classic sign-correlator form |z^H (sign Re x + j sign Im x)|^2 / E
    cfg = SceneConfig(n_tx=2, n_rx=8, snapshots=4, angle=0.2).with_snr_db(-10.0)
    sig = cfg.signal
    for counter in range(5):
        x = synthesize_observation(cfg, Hypothesis.H1, 77, counter)
        got = _rao(x, q1, sig, cfg.noise_power)
        s = np.sign(x.real) + 1j * np.sign(x.imag)
        want = np.abs(np.conj(sig.z) @ s) ** 2 / sig.energy
        assert got == pytest.approx(want, rel=1e-12)


def test_statistic_matches_numeric_score_oracle(q2_ref):
    # small instance: closed-form statistic vs central-difference
    # log-likelihood machinery (the full 100-instance sweep lives in the
    # acceptance suite; this is the smoke version)
    cfg = SceneConfig(n_tx=2, n_rx=2, snapshots=2, angle=0.4)
    sig = cfg.signal
    x = synthesize_observation(cfg, Hypothesis.H0, 5, 3)
    got = _rao(x, q2_ref, sig, 2.0)
    want = oracles.score_fi_statistic(
        bin_indices(x.real, q2_ref), bin_indices(x.imag, q2_ref),
        q2_ref.interior, 2.0, sig.g, sig.h,
    )
    assert got == pytest.approx(want, rel=1e-6)


# ----------------------------------------------------------------- invariances

def test_statistic_invariant_under_template_phase_rotation(q2_ref):
    cfg = SceneConfig(n_tx=2, n_rx=4, snapshots=4, angle=0.3)
    sig = cfg.signal
    x = synthesize_observation(cfg, Hypothesis.H1, 9, 0)
    base = _rao(x, q2_ref, sig, 2.0)
    for phase in (0.3, 1.1, -2.0):
        rot = sig.z * np.exp(1j * phase)
        rotated = type(sig)(g=rot.real, h=rot.imag)
        assert _rao(x, q2_ref, rotated, 2.0) == pytest.approx(base, rel=1e-12)


def test_statistic_nonnegative_on_noise(q2_ref, scene, signal):
    for counter in range(20):
        x = synthesize_observation(scene, Hypothesis.H0, 31, counter)
        assert _rao(x, q2_ref, signal, scene.noise_power) >= 0.0


def test_batch_matches_scalar_loop(q2_ref):
    # row j of a block must equal the kernel on that row alone, passed as
    # (n,) and as (1, n), bit for bit: a statistic may not depend on the
    # batch around it (numpy's matmul reduces a lone row with another
    # kernel than a block, so a naive GLRT fails this)
    table = bin_stats_table(q2_ref, 2.0)
    rng = np.random.default_rng(12)
    for n in (3, 128, 2048):
        signal = EffectiveSignal(g=rng.normal(size=n), h=rng.normal(size=n))
        x = rng.normal(size=(16, n)) + 1j * rng.normal(size=(16, n))
        re0 = bin_indices(x.real, q2_ref)
        im0 = bin_indices(x.imag, q2_ref)
        rao = rao_statistic_batch(re0, im0, signal, table)
        glrt = glrt_unquantized_batch(x, signal, 2.0)
        assert rao.shape == glrt.shape == (16,)
        for j in range(16):
            assert rao[j] == rao_statistic_batch(re0[j], im0[j], signal, table), (n, j)
            assert rao[j] == rao_statistic_batch(re0[j : j + 1], im0[j : j + 1], signal, table)[0]
            assert glrt[j] == glrt_unquantized_batch(x[j], signal, 2.0), (n, j)
            assert glrt[j] == glrt_unquantized_batch(x[j : j + 1], signal, 2.0)[0], (n, j)


@settings(max_examples=50, deadline=None)
@given(rows=st.integers(1, 70), n=st.sampled_from([3, 128]), seed=st.integers(0, 2**32 - 1))
def test_detector_statistic_is_its_kernel_on_the_planes(rows, n, seed):
    # a detector's scorer scores a (rows, 2, n) tile of Re/Im planes in one
    # call: byte for byte its kernel on the binned planes (Rao, here through
    # the score-term table) or on the complex rows (GLRT), row j equal to the
    # score of planes[j:j+1] alone, and the planes left as they were
    rng = np.random.default_rng(seed)
    signal = EffectiveSignal(g=rng.normal(size=n), h=rng.normal(size=n))
    planes = rng.normal(size=(rows, 2, n))
    before = planes.copy()
    ts = ThresholdSet(bits=2, interior=REFERENCE_Q2)
    rao, glrt = RaoDetector(ts).scorer(signal, 2.0), GlrtDetector().scorer(signal, 2.0)
    t_rao = rao(planes)
    t_glrt = glrt(planes)
    assert np.array_equal(planes, before)
    want = rao_statistic_batch(bin_indices(planes[:, 0], ts), bin_indices(planes[:, 1], ts),
                               signal, bin_stats_table(ts, 2.0))
    assert t_rao.tobytes() == want.tobytes()
    x = np.empty((rows, n), dtype=complex)
    x.real = planes[:, 0]
    x.imag = planes[:, 1]
    assert t_glrt.tobytes() == glrt_unquantized_batch(x, signal, 2.0).tobytes()
    for j in range(rows):
        assert rao(planes[j : j + 1]).tobytes() == t_rao[j].tobytes()
        assert glrt(planes[j : j + 1]).tobytes() == t_glrt[j].tobytes()


def _increasing(rng, count):
    """``count`` strictly increasing thresholds around zero."""
    return np.cumsum(rng.uniform(0.05, 1.0, size=count)) - 0.5 * count


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 4), rows=st.integers(1, 40), n=st.integers(1, 130),
       dtype=st.sampled_from([np.uint8, np.intp]), seed=st.integers(0, 2**32 - 1))
def test_score_term_table_matches_the_formula(q, rows, n, dtype, seed):
    # gathering the tabulated terms gives the direct formula's statistics
    # byte for byte, for a block, for one row and with both end bins present
    rng = np.random.default_rng(seed)
    k = 2**q
    table = bin_stats_table(ThresholdSet(bits=q, interior=_increasing(rng, k - 1)), 2.0)
    signal = EffectiveSignal(g=rng.normal(size=n), h=rng.normal(size=n))
    re0, im0 = rng.integers(0, k, size=(2, rows, n)).astype(dtype)
    re0[0, 0], im0[0, 0], re0[-1, -1], im0[-1, -1] = 0, k - 1, k - 1, 0
    terms = _score_terms(signal, table)
    assert terms.shape == (2, n * k * k)
    want = rao_statistic_batch(re0, im0, signal, table)
    assert rao_statistic_batch(re0, im0, signal, table, terms).tobytes() == want.tobytes()
    got_row = rao_statistic_batch(re0[-1], im0[-1], signal, table, terms)
    assert got_row.tobytes() == want[-1].tobytes()


@pytest.mark.parametrize("n, tabulated", [(256, True), (257, False)])
def test_rao_scorer_tabulates_up_to_one_tile(monkeypatch, n, tabulated):
    # q = 4 at n = 256 gives n * 4^q = 2^16, the largest table the scorer
    # builds; one more sample keeps the direct formula.  Both score like it.
    built = []
    monkeypatch.setattr(detectors, "_score_terms",
                        lambda *args: built.append(args) or _score_terms(*args))
    rng = np.random.default_rng(n)
    ts = ThresholdSet(bits=4, interior=np.linspace(-2.0, 2.0, 15))
    signal = EffectiveSignal(g=rng.normal(size=n), h=rng.normal(size=n))
    score = RaoDetector(ts).scorer(signal, 2.0)
    assert len(built) == int(tabulated)
    planes = rng.normal(size=(300, 2, n))
    re0, im0 = bin_indices(planes[:, 0], ts), bin_indices(planes[:, 1], ts)
    assert set(np.unique(re0)) == set(range(16))
    want = rao_statistic_batch(re0, im0, signal, bin_stats_table(ts, 2.0))
    assert score(planes).tobytes() == want.tobytes()


def test_score_components_match_sums(q2_ref, scene, signal):
    table = bin_stats_table(q2_ref, scene.noise_power)
    x = synthesize_observation(scene, Hypothesis.H0, 2, 2)
    re0 = bin_indices(x.real, q2_ref)
    im0 = bin_indices(x.imag, q2_ref)
    s_r, s_i = _score_sums(re0, im0, signal, table)
    ratio = table.score_ratio
    r1 = ratio[re0]
    r2 = ratio[im0]
    assert s_r == pytest.approx(float(np.sum(signal.g * r1 + signal.h * r2)), rel=1e-14)
    assert s_i == pytest.approx(float(np.sum(signal.g * r2 - signal.h * r1)), rel=1e-14)


# ------------------------------------------------------------------------ GLRT

def test_glrt_matched_and_orthogonal_inputs():
    cfg = SceneConfig(n_tx=1, n_rx=16, snapshots=8, noise_power=2.0)
    sig = cfg.signal  # energy 128
    assert sig.energy == pytest.approx(128.0, rel=1e-12)
    # x = z: |z^H z|^2 / (E * 1) = E
    assert glrt_unquantized_batch(sig.z, sig, 2.0) == pytest.approx(sig.energy, rel=1e-12)
    # x = 0.1 z: scales by |0.1|^2 -> 1.28
    assert glrt_unquantized_batch(0.1 * sig.z, sig, 2.0) == pytest.approx(1.28, rel=1e-12)
    # orthogonal input scores zero
    v = np.zeros(len(sig), dtype=complex)
    v[0], v[1] = sig.z[1].conj(), -sig.z[0].conj()
    assert abs(np.vdot(sig.z, v)) < 1e-12
    assert glrt_unquantized_batch(v, sig, 2.0) == pytest.approx(0.0, abs=1e-20)


def test_glrt_scaling_and_batch(scene, signal):
    x = synthesize_observation(scene, Hypothesis.H1, 8, 0)
    base = glrt_unquantized_batch(x, signal, scene.noise_power)
    assert glrt_unquantized_batch(3.0 * x, signal, scene.noise_power) == pytest.approx(
        9.0 * base, rel=1e-12
    )
    got = glrt_unquantized_batch(np.vstack([x, 2.0 * x]), signal, scene.noise_power)
    assert got[0] == base
    assert got[1] == pytest.approx(4.0 * base, rel=1e-14)


# --------------------------------------------------------------------- errors

def test_zero_energy_template_raises(q1):
    class _Fake:
        g = np.zeros(4)
        h = np.zeros(4)
        z = np.zeros(4, dtype=complex)
        energy = 0.0

        def __len__(self):
            return 4

    table = bin_stats_table(q1, 2.0)
    zeros = np.zeros(4, dtype=int)
    with pytest.raises(ZeroSignalError):
        rao_statistic_batch(zeros, zeros, _Fake(), table)
    with pytest.raises(ZeroSignalError):
        rao_statistic_batch(zeros[None], zeros[None], _Fake(), table)
    with pytest.raises(ZeroSignalError):
        glrt_unquantized_batch(np.zeros(4, dtype=complex), _Fake(), 2.0)
    with pytest.raises(ZeroSignalError):
        glrt_unquantized_batch(np.zeros((3, 4), dtype=complex), _Fake(), 2.0)


def test_length_mismatch_raises(q1, signal):
    table = bin_stats_table(q1, 2.0)
    short = np.zeros(3, dtype=int)
    with pytest.raises(ValueError):
        rao_statistic_batch(short, short, signal, table)
    with pytest.raises(ValueError):
        rao_statistic_batch(np.zeros((5, 3), dtype=int), np.zeros((5, 3), dtype=int), signal, table)
    full = np.zeros(len(signal), dtype=int)
    with pytest.raises(ValueError):  # real and imaginary parts disagree
        rao_statistic_batch(full, np.zeros((2, len(signal)), dtype=int), signal, table)
    with pytest.raises(ValueError):
        glrt_unquantized_batch(np.zeros(3, dtype=complex), signal, 2.0)
    with pytest.raises(ValueError):
        glrt_unquantized_batch(np.zeros((5, 3), dtype=complex), signal, 2.0)


def test_bin_index_beyond_quantizer_raises(q1, q2_ref, signal):
    # indices are 0-based, in 0..2^q - 1; -1 must not wrap to the top bin
    n = len(signal)
    # also with the score-term table, where a code past the top bin would
    # read the next sample's terms
    for thresholds in (q1, q2_ref):
        table = bin_stats_table(thresholds, 2.0)
        for terms in (None, _score_terms(signal, table)):
            for bad in (-1, thresholds.n_bins):
                row = np.zeros(n, dtype=int)
                row[n // 2] = bad
                block = np.zeros((3, n), dtype=int)
                block[2, -1] = bad
                zeros = np.zeros_like(block)
                for re0, im0 in ((row, row * 0), (row * 0, row), (block, zeros), (zeros, block)):
                    with pytest.raises(ValueError):
                        rao_statistic_batch(re0, im0, signal, table, terms)
            top = np.full(n, thresholds.n_bins - 1)
            assert np.isfinite(rao_statistic_batch(top, top * 0, signal, table, terms))

"""The built-in check battery, including a mutation check of its teeth."""

import dataclasses
import re
import sys

import numpy as np
import pytest

from quantdet import detectors, selftest
from quantdet.montecarlo import TILE_VALUES
from quantdet.quantizer import BinStats, bin_stats_table, fisher_rows
from quantdet.selftest import CheckResult, run_selftest
from quantdet.signal_model import SceneConfig


@pytest.fixture(scope="module")
def results():
    # full default budget: the tail-rate tolerance inside null_moments
    # (1e-3 at a 1% rate) needs ~1e5 trials to sit at 3 standard errors
    return run_selftest(seed=20260819)


def test_all_checks_pass(results):
    assert [r.name for r in results] == [
        "null_moments",
        "one_bit_closed_form",
        "fisher_identity",
        "score_test_identity",
    ]
    for r in results:
        assert r.passed, r.line()


def test_line_format_is_greppable(results):
    for r in results:
        line = r.line()
        assert line.startswith(f"check={r.name} status=")
        assert " status=pass " in line or " status=FAIL " in line


def test_check_result_line_failure_case():
    line = CheckResult("demo", False, "x=1").line()
    assert line == "check=demo status=FAIL x=1"


def test_corrupted_table_is_caught(monkeypatch):
    # corrupt one score weight (a uniform f1 scaling would cancel between
    # score and information, since sum f2 telescopes to zero); the identity
    # check compares the table against independent numerics, and the
    # one-bit check against the sign-correlation form, so both must trip
    def skewed(thresholds, noise_power):
        table = bin_stats_table(thresholds, noise_power)
        f1 = np.array(table.f1)
        f1[0] *= 1.05
        return BinStats(f=table.f, f1=f1, f2=table.f2)

    monkeypatch.setattr(selftest, "bin_stats_table", skewed)
    results = run_selftest(seed=20260819, trials=2000)
    by_name = {r.name: r for r in results}
    assert not by_name["score_test_identity"].passed
    assert not by_name["one_bit_closed_form"].passed
    # and both fail on their numbers, not on an exception inside the check
    score = re.fullmatch(r"max_rel_err=(\S+)", by_name["score_test_identity"].detail)
    assert score and float(score[1]) > 1e-6
    one_bit = re.fullmatch(
        r"max\|ratio-2/pi\|=(\S+) max_rel_stat_err=(\S+)", by_name["one_bit_closed_form"].detail
    )
    assert one_bit and max(float(one_bit[1]), float(one_bit[2])) > 1e-12


def test_corrupted_score_terms_are_caught(monkeypatch):
    # the one-bit check scores through the engine's scorer, so a score-term
    # table that disagrees with the computed terms (every other S_R column
    # off by 5%) fails it on its statistic
    score_terms = detectors._score_terms

    def skewed(signal, table):
        terms = score_terms(signal, table)
        terms[0, ::2] *= 1.05
        return terms

    monkeypatch.setattr(detectors, "_score_terms", skewed)
    result = selftest._check_one_bit(20260819)
    assert not result.passed
    one_bit = re.fullmatch(r"max\|ratio-2/pi\|=(\S+) max_rel_stat_err=(\S+)", result.detail)
    assert one_bit and float(one_bit[1]) <= 1e-12 and float(one_bit[2]) > 1e-12


def test_exceptions_become_failures(monkeypatch):
    def explode(thresholds, noise_power):
        raise RuntimeError("boom")

    monkeypatch.setattr(selftest, "bin_stats_table", explode)
    results = run_selftest(seed=20260819, trials=2000)
    by_name = {r.name: r for r in results}
    assert not by_name["score_test_identity"].passed
    assert "boom" in by_name["score_test_identity"].detail


def test_results_are_immutable(results):
    with pytest.raises(dataclasses.FrozenInstanceError):
        results[0].passed = False


def test_fisher_identity_draws_one_tile_at_a_time(monkeypatch):
    # the check's 20,000 trials are drawn, binned and scored one engine tile
    # of rows at a time, and the result is that of one 20,000-row block
    rows = []
    draw = selftest.observation_planes

    def counting(scene, hypothesis, seed, start, stop):
        rows.append(stop - start)
        return draw(scene, hypothesis, seed, start, stop)

    monkeypatch.setattr(selftest, "observation_planes", counting)
    tiled = selftest._check_fisher_identity(20260819, 20000)
    assert max(rows) == TILE_VALUES // SceneConfig().n_samples
    assert sum(rows) == 20000
    monkeypatch.setattr(selftest, "TILE_VALUES", 20000 * SceneConfig().n_samples)
    rows.clear()
    assert selftest._check_fisher_identity(20260819, 20000) == tiled
    assert rows == [20000]


@pytest.mark.parametrize("seed", [2, 5, 6, 8])
def test_null_moments_bounds_follow_the_trial_budget(seed):
    # at 10,000 trials the standard errors exceed the 1e5-trial bounds:
    # seed 2 reads var=3.7915 and pfa@1%=0.00770, within 3 standard errors
    assert selftest._check_null_moments(seed, 10_000).passed


def test_null_moments_catches_a_scaled_statistic(monkeypatch):
    # a statistic 10% too large at 10,000 trials is outside the widened bounds
    run_trials = selftest.run_trials

    def scaled(cfg):
        h0, h1 = run_trials(cfg)
        return h0 * 1.1, h1

    monkeypatch.setattr(selftest, "run_trials", scaled)
    assert not selftest._check_null_moments(2, 10_000).passed


def test_fixed_design_is_the_frozen_optimum(frozen):
    # the checks' quantizer carries the optimal 2-bit information at
    # noise_power 2, and it satisfies Kassam's midpoint rule: each
    # threshold sits halfway between its two bins' s^2 * F'/F
    interior = selftest._OPTIMAL_Q2.interior
    # the frozen tau* came from a numerical maximiser of a flat objective,
    # so it is the midpoint root only to about 1.5e-8
    assert np.allclose(interior, frozen["opt_tau_q2"], rtol=0.0, atol=2e-8)
    info = fisher_rows(interior[None, :], 64.0, 2.0)[0]
    assert info == pytest.approx(64.0 * frozen["opt_info_q2"], rel=1e-12)
    s = 1.0  # sqrt(noise_power / 2)
    r = bin_stats_table(selftest._OPTIMAL_Q2, 2.0).score_ratio
    midpoints = s**2 * (r[:-1] + r[1:]) / 2.0
    assert np.max(np.abs(interior - midpoints)) / s <= 1e-9


def test_no_design_per_run(monkeypatch):
    # the battery checks a fixed quantizer: a swarm that raises is never reached
    def no_design(*args, **kwargs):
        raise AssertionError("optimize_thresholds was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("quantdet") and hasattr(module, "optimize_thresholds"):
            monkeypatch.setattr(module, "optimize_thresholds", no_design)
    results = run_selftest(seed=20260819, trials=2000)
    assert all(r.passed for r in results), [r.line() for r in results]

"""The built-in check battery, including a mutation check of its teeth."""

import dataclasses

import numpy as np
import pytest

from quantdet import selftest
from quantdet.quantizer import BinStats, bin_stats_table
from quantdet.selftest import CheckResult, run_selftest


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

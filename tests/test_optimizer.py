"""Threshold design by particle swarm: recovery, invariants, checkpoints."""

import numpy as np
import pytest

from quantdet.optimizer import (
    PsoConfig,
    PsoResult,
    canonical_grid,
    optimize_thresholds,
    read_checkpoint,
    write_checkpoint,
    _repair,
)
from quantdet.quantizer import ThresholdSet, bin_stats_table, fisher_rows
from quantdet.signal_model import EffectiveSignal


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(seed=1, max_iters=0)
    with pytest.raises(ValueError):
        PsoConfig(seed=1, stall_iters=0)
    with pytest.raises(TypeError):
        PsoConfig()  # seed is mandatory: no silent nondeterminism
    with pytest.raises(TypeError):
        PsoConfig(seed=1, inertia=0.5)  # the swarm's coefficients are fixed


def test_objective_equals_fisher_diagonal(signal, reference_q2):
    # the swarm's vectorized score of a candidate is the Fisher diagonal E * J1
    t = ThresholdSet(bits=2, interior=reference_q2)
    obj = fisher_rows(t.interior[None, :], signal.energy, 2.0)[0]
    assert obj == signal.energy * bin_stats_table(t, 2.0).info_per_energy


def test_objective_frozen_reference_value(signal, frozen):
    t = ThresholdSet(bits=2, interior=frozen["opt_tau_q2"])
    assert signal.energy * bin_stats_table(t, 2.0).info_per_energy == pytest.approx(
        signal.energy * frozen["opt_info_q2"], rel=1e-10
    )


def test_objective_degenerate_candidate_is_minus_inf(signal):
    rows = np.array([[40.0, 41.0, 42.0], [-1.0, 0.0, 1.0]])
    obj = fisher_rows(rows, signal.energy, 2.0)
    assert obj[0] == -np.inf
    assert np.isfinite(obj[1])


def test_objective_prefers_reference_over_shifted(signal, reference_q2):
    good = ThresholdSet(bits=2, interior=reference_q2)
    shifted = ThresholdSet(bits=2, interior=tuple(v + 0.5 for v in reference_q2))
    info_good = signal.energy * bin_stats_table(good, 2.0).info_per_energy
    info_shifted = signal.energy * bin_stats_table(shifted, 2.0).info_per_energy
    assert info_good > info_shifted


def test_repair_enforces_strict_increase():
    rows = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 5.0]])
    out = _repair(rows.copy())
    assert np.all(np.diff(out, axis=-1) > 0)
    # sorted content is preserved up to the tiny separation nudges
    assert np.allclose(np.sort(rows[0]), out[0], atol=1e-8)


def test_canonical_grid_shapes():
    g1 = canonical_grid(1, 2.0)
    assert g1.shape == (1,) and g1[0] == pytest.approx(0.0, abs=1e-15)
    g2 = canonical_grid(2, 2.0)
    assert g2.shape == (3,)
    assert np.allclose(g2, -g2[::-1], atol=1e-15)  # symmetric
    assert np.all(np.abs(g2) <= 5.0)


# ----------------------------------------------------------------- swarm runs

def test_same_seed_same_design(signal):
    cfg = PsoConfig(seed=42, max_iters=120)
    a = optimize_thresholds(2, signal, 2.0, cfg)
    b = optimize_thresholds(2, signal, 2.0, cfg)
    assert np.array_equal(a.thresholds.interior, b.thresholds.interior)
    assert a.achieved_objective == b.achieved_objective
    assert a.iterations == b.iterations


@pytest.mark.parametrize("q", [1, 2, 3])
def test_design_depends_on_the_template_only_through_its_energy(signal, designs, q):
    # j * z (g, h -> -h, g) and -z have z's energy, so the swarm, which reads
    # the template only through it, returns the same design bit for bit
    want = designs[q]
    for g, h in ((-signal.h, signal.g), (-signal.g, -signal.h)):
        got = optimize_thresholds(q, EffectiveSignal(g=g, h=h), 2.0, PsoConfig(seed=1000 + q))
        assert got.thresholds.interior.tobytes() == want.thresholds.interior.tobytes()
        assert (got.achieved_objective, got.iterations, got.converged) == (
            want.achieved_objective, want.iterations, want.converged)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_design_scales_with_the_noise_standard_deviation(signal, q):
    # the search box is +/- 5 sigma_component, so at noise power N0 the design
    # is k = sqrt(N0 / 2) times the N0 = 2 one and its objective E * J1 is
    # 2 / N0 times as large; with k a power of two both hold bit for bit
    for seed in (1, 7, 1003):
        want = optimize_thresholds(q, signal, 2.0, PsoConfig(seed=seed))
        for noise_power, k in ((0.5, 0.5), (8.0, 2.0), (32.0, 4.0)):
            got = optimize_thresholds(q, signal, noise_power, PsoConfig(seed=seed))
            assert np.array_equal(got.thresholds.interior, k * want.thresholds.interior)
            assert got.achieved_objective == want.achieved_objective * (2.0 / noise_power)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)


def test_different_seeds_reach_same_optimum(signal, frozen):
    # the q=2 landscape has a single symmetric optimum; two independent
    # swarms must agree on the objective to high relative accuracy
    target = signal.energy * frozen["opt_info_q2"]
    for seed in (7, 8):
        res = optimize_thresholds(2, signal, 2.0, PsoConfig(seed=seed))
        assert res.achieved_objective == pytest.approx(target, rel=1e-6)


def test_design_recovers_frozen_optimum(designs, frozen):
    ts2 = designs[2].thresholds
    assert np.allclose(ts2.interior, frozen["opt_tau_q2"], atol=2e-3)
    ts3 = designs[3].thresholds
    want_right = np.asarray(frozen["opt_tau_q3_right"])
    assert np.allclose(ts3.interior[4:], want_right, atol=5e-3)
    assert abs(ts3.interior[3]) <= 5e-3  # middle threshold pinned to zero


def test_design_objectives_hit_frozen_info(designs, signal, frozen):
    for q in (1, 2, 3):
        want = signal.energy * frozen[f"opt_info_q{q}"]
        assert designs[q].achieved_objective == pytest.approx(want, rel=1e-6), q


def test_design_beats_canonical_grid(designs, signal):
    for q in (1, 2, 3):
        grid = ThresholdSet(bits=q, interior=canonical_grid(q, 2.0))
        grid_info = signal.energy * bin_stats_table(grid, 2.0).info_per_energy
        assert designs[q].achieved_objective >= grid_info - 1e-12


def test_designs_nearly_antisymmetric(designs):
    for q in (2, 3):
        t = designs[q].thresholds.interior
        assert np.allclose(t, -t[::-1], atol=0.01), q


def test_information_chain_increases_with_bits(designs, signal):
    # more bits never hurt, and everything sits under the unquantized
    # information E * 2 / noise_power = E
    objs = [designs[q].achieved_objective for q in (1, 2, 3)]
    assert objs[0] < objs[1] < objs[2] < signal.energy


def test_more_iterations_never_worse(signal):
    short = optimize_thresholds(
        3, signal, 2.0, PsoConfig(seed=5, max_iters=30, stall_iters=50)
    )
    long = optimize_thresholds(
        3, signal, 2.0, PsoConfig(seed=5, max_iters=90, stall_iters=200)
    )
    assert long.achieved_objective >= short.achieved_objective
    assert not short.converged  # stall window longer than the run


def test_nonconverged_run_is_flagged_but_valid(signal):
    res = optimize_thresholds(2, signal, 2.0, PsoConfig(seed=3, max_iters=3))
    assert res.converged is False
    assert res.iterations == 3
    assert np.isfinite(res.achieved_objective)
    assert res.thresholds.bits == 2


def test_optimize_input_validation(signal):
    for bits in (0, 9):  # outside 1..MAX_BITS, caught before 2^bits thresholds are made
        with pytest.raises(ValueError):
            optimize_thresholds(bits, signal, 2.0, PsoConfig(seed=1))
    with pytest.raises(ValueError):
        optimize_thresholds(2, signal, -1.0, PsoConfig(seed=1))


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path, designs):
    path = tmp_path / "design_q2.txt"
    res = designs[2]
    write_checkpoint(path, res, seed=1002)
    ts, meta = read_checkpoint(path)
    assert ts.bits == 2
    assert np.array_equal(ts.interior, res.thresholds.interior)  # exact, via repr
    assert meta["seed"] == "1002"
    assert meta["converged"] == str(res.converged)
    assert float(meta["achieved_objective"]) == res.achieved_objective


def test_checkpoint_bare_payload_loads(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("2; -0.9,0.0,0.9\n")
    ts, meta = read_checkpoint(path)
    assert ts.bits == 2
    assert meta == {}


def test_checkpoint_payload_round_trip(tmp_path, reference_q3):
    # the payload line alone carries the thresholds, exactly, via repr
    path = tmp_path / "design_q3.txt"
    ts = ThresholdSet(bits=3, interior=reference_q3)
    write_checkpoint(path, PsoResult(ts, 1.0, 1, True), seed=3)
    assert path.read_text().splitlines()[-1] == "3; " + ",".join(map(repr, reference_q3))
    back, _ = read_checkpoint(path)
    assert back.bits == 3
    assert np.array_equal(back.interior, ts.interior)


def test_checkpoint_malformed_payload_raises(tmp_path):
    path = tmp_path / "bad.txt"
    for payload in ("no separator here", "2; 0.1", "x; 0.1"):  # no ';', count, bits
        path.write_text(f"# seed = 4\n{payload}\n")
        with pytest.raises(ValueError):
            read_checkpoint(path)


def test_checkpoint_second_payload_raises(tmp_path):
    # one payload per file: a second one raises rather than loading the first;
    # blank and '#' lines after the payload still load
    path = tmp_path / "two.txt"
    path.write_text("2; -0.9,0.0,0.9\n1; 0.0\n")
    with pytest.raises(ValueError, match="second threshold payload"):
        read_checkpoint(path)
    path.write_text("2; -0.9,0.0,0.9\n\n# note = kept\n")
    ts, meta = read_checkpoint(path)
    assert ts.bits == 2 and meta == {"note": "kept"}


def test_checkpoint_without_payload_raises(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# seed = 4\n\n")
    with pytest.raises(ValueError):
        read_checkpoint(path)

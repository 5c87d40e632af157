"""Threshold design by particle swarm: recovery, invariants, checkpoints."""

import numpy as np
import pytest

from quantdet.optimizer import (
    PsoConfig,
    canonical_grid,
    optimize_thresholds,
    read_checkpoint,
    write_checkpoint,
    _objective_rows,
    _repair,
)
from quantdet.perf_theory import fisher_information
from quantdet.quantizer import ThresholdSet


def test_pso_config_validation():
    with pytest.raises(ValueError):
        PsoConfig(seed=1, swarm_size=1)
    with pytest.raises(ValueError):
        PsoConfig(seed=1, max_iters=0)
    with pytest.raises(ValueError):
        PsoConfig(seed=1, stall_iters=0)
    with pytest.raises(ValueError):
        PsoConfig(seed=1, search_radius=-1.0)
    # a non-finite coefficient freezes the swarm, which then reads as converged;
    # a negative stall_tol can never be met; an infinite box cannot be sampled
    nan, inf = float("nan"), float("inf")
    for fields in (dict(inertia=nan), dict(cognitive=inf), dict(social=-inf),
                   dict(stall_tol=-1.0), dict(stall_tol=nan), dict(stall_tol=inf),
                   dict(search_radius=inf)):
        with pytest.raises(ValueError):
            PsoConfig(seed=1, **fields)
    assert PsoConfig(seed=1, stall_tol=0.0).stall_tol == 0.0
    with pytest.raises(TypeError):
        PsoConfig()  # seed is mandatory: no silent nondeterminism


def test_objective_equals_fisher_diagonal(signal, reference_q2):
    # the swarm's vectorized score of a candidate is the Fisher diagonal E * J1
    t = ThresholdSet(bits=2, interior=reference_q2)
    obj = _objective_rows(t.interior[None, :], signal.energy, 2.0)[0]
    diag = fisher_information(signal, t, 2.0)
    assert obj == pytest.approx(diag, rel=1e-14)


def test_objective_frozen_reference_value(signal, frozen):
    t = ThresholdSet(bits=2, interior=frozen["opt_tau_q2"])
    assert fisher_information(signal, t, 2.0) == pytest.approx(
        signal.energy * frozen["opt_info_q2"], rel=1e-10
    )


def test_objective_degenerate_candidate_is_minus_inf(signal):
    rows = np.array([[40.0, 41.0, 42.0], [-1.0, 0.0, 1.0]])
    obj = _objective_rows(rows, signal.energy, 2.0)
    assert obj[0] == -np.inf
    assert np.isfinite(obj[1])


def test_objective_prefers_reference_over_shifted(signal, reference_q2):
    good = ThresholdSet(bits=2, interior=reference_q2)
    shifted = ThresholdSet(bits=2, interior=tuple(v + 0.5 for v in reference_q2))
    assert fisher_information(signal, good, 2.0) > fisher_information(signal, shifted, 2.0)


def test_repair_enforces_strict_increase():
    rows = np.array([[3.0, 1.0, 2.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 5.0]])
    out = _repair(rows.copy())
    assert np.all(np.diff(out, axis=-1) > 0)
    # sorted content is preserved up to the tiny separation nudges
    assert np.allclose(np.sort(rows[0]), out[0], atol=1e-8)


def test_canonical_grid_shapes():
    g1 = canonical_grid(1, 2.0, 5.0)
    assert g1.shape == (1,) and g1[0] == pytest.approx(0.0, abs=1e-15)
    g2 = canonical_grid(2, 2.0, 5.0)
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
        grid = ThresholdSet(bits=q, interior=canonical_grid(q, 2.0, 5.0))
        assert designs[q].achieved_objective >= fisher_information(signal, grid, 2.0) - 1e-12


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
    with pytest.raises(ValueError):
        optimize_thresholds(0, signal, 2.0, PsoConfig(seed=1))
    with pytest.raises(ValueError):
        optimize_thresholds(2, signal, -1.0, PsoConfig(seed=1))


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path, designs):
    path = tmp_path / "design_q2.txt"
    res = designs[2]
    write_checkpoint(path, res, seed=1002, extra={"note": "session"})
    ts, meta = read_checkpoint(path)
    assert ts.bits == 2
    assert np.array_equal(ts.interior, res.thresholds.interior)  # exact, via repr
    assert meta["seed"] == "1002"
    assert meta["converged"] == str(res.converged)
    assert meta["note"] == "session"
    assert float(meta["achieved_objective"]) == res.achieved_objective


def test_checkpoint_bare_payload_loads(tmp_path):
    path = tmp_path / "bare.txt"
    path.write_text("2; -0.9,0.0,0.9\n")
    ts, meta = read_checkpoint(path)
    assert ts.bits == 2
    assert meta == {}


def test_checkpoint_without_payload_raises(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# seed = 4\n\n")
    with pytest.raises(ValueError):
        read_checkpoint(path)

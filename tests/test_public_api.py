"""The package's public names and knobs, pinned so that any change shows in review."""

import dataclasses

import quantdet
from quantdet import cli
from quantdet.experiment import ExperimentSpec

PUBLIC = [
    "BinStats",
    "CheckResult",
    "ConfigError",
    "DegenerateBinError",
    "EffectiveSignal",
    "ExperimentSpec",
    "GlrtDetector",
    "Hypothesis",
    "PsoConfig",
    "PsoResult",
    "RaoDetector",
    "RocCurve",
    "SceneConfig",
    "SweepPoint",
    "ThresholdSet",
    "TrialConfig",
    "ZeroSignalError",
    "bin_probability",
    "bin_stats_table",
    "canonical_grid",
    "effective_signal",
    "empirical_threshold",
    "estimate_roc",
    "fisher_information",
    "glrt_unquantized_batch",
    "lfm_waveform",
    "load_config",
    "marcum_q1",
    "observation_planes",
    "optimize_thresholds",
    "parse_config",
    "pd_vs_snr",
    "qfunc",
    "rao_statistic_batch",
    "read_checkpoint",
    "run_selftest",
    "run_trials",
    "serialize_config",
    "steering_matrix",
    "stream_rng",
    "subseed",
    "theoretical_pd",
    "trial_counter",
    "write_checkpoint",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert quantdet.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in quantdet.__all__:
        assert getattr(quantdet, name) is not None, name


def test_config_keys_and_flags_are_pinned():
    # adding a knob, or orphaning one that nothing reads, means editing this
    assert len(dataclasses.fields(ExperimentSpec)) == 28
    assert sum(len(flags) for _, _, flags in cli._SUBCOMMANDS.values()) == 44
    keys = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert all(key == "config" or key in keys for key, _ in cli._FLAGS.values())
    # the engine works out its own index ranges: no chunk size to set
    assert [f.name for f in dataclasses.fields(quantdet.TrialConfig)] == [
        "scene", "detector", "n_trials_h0", "n_trials_h1", "seed", "workers"
    ]

"""The package's public names, pinned so that any change shows in review."""

import quantdet

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
    "noncentrality",
    "noncentrality_unquantized",
    "objective",
    "optimize_thresholds",
    "parse_config",
    "pd_vs_snr",
    "qfunc",
    "rao_statistic_batch",
    "read_checkpoint",
    "run_selftest",
    "run_trials",
    "save_config",
    "serialize_config",
    "steering_matrix",
    "stream_rng",
    "subseed",
    "synthesize_observation",
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

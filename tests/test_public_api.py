"""The package's public names and knobs, pinned so that any change shows in review."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import quantdet
from quantdet import cli
from quantdet.detectors import GlrtDetector
from quantdet.experiment import ExperimentSpec

PUBLIC = [
    "Hypothesis",
    "PsoConfig",
    "RaoDetector",
    "SceneConfig",
    "TrialConfig",
    "empirical_threshold",
    "estimate_roc",
    "observation_planes",
    "optimize_thresholds",
    "run_trials",
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(PUBLIC)
    assert quantdet.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in quantdet.__all__:
        assert getattr(quantdet, name) is not None, name


def test_config_keys_and_flags_are_pinned():
    # adding a knob, or orphaning one that nothing reads, means editing this
    assert len(dataclasses.fields(ExperimentSpec)) == 22
    assert sum(len(flags) for _, _, flags in cli._SUBCOMMANDS.values()) == 35
    keys = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert all(key == "config" or key in keys for key, _ in cli._FLAGS.values())
    # the engine works out its own index ranges: no chunk size to set
    assert [f.name for f in dataclasses.fields(quantdet.TrialConfig)] == [
        "scene", "detector", "n_trials_h0", "n_trials_h1", "seed", "workers"
    ]
    # the swarm's size, coefficients and box are constants: only its budget is set
    assert [f.name for f in dataclasses.fields(quantdet.PsoConfig)] == [
        "seed", "max_iters", "stall_iters"
    ]


def _trial_config(**count):
    counts = {"n_trials_h0": 10, "n_trials_h1": 10, **count}
    return quantdet.TrialConfig(scene=quantdet.SceneConfig(), detector=GlrtDetector(), seed=1,
                                **counts)


def _pso_config(**count):
    return quantdet.PsoConfig(seed=1, **count)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (_trial_config, "n_trials_h0", 10.0),
        (_trial_config, "n_trials_h1", np.float64(10.0)),
        (_trial_config, "workers", 1.5),
        (_trial_config, "workers", "2"),
        (_pso_config, "max_iters", 10.0),
        (_pso_config, "stall_iters", 2.5),
    ],
)
def test_configs_reject_a_non_integer_count_when_built(build, field, value):
    # a count that is not an integer fails when the config is built, not
    # with a TypeError inside the engine or after some swarm iterations;
    # numpy integers are counts too
    with pytest.raises(ValueError, match=f"{field} must be"):
        build(**{field: value})
    build(**{field: np.int64(3)})


def test_every_public_module_level_name_has_a_docstring():
    missing = []
    for path in sorted(Path(quantdet.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and not ast.get_docstring(node)):
                missing.append(f"{path.stem}.{node.name}")
    assert missing == []

"""The package's public names and knobs, pinned so that any change shows in review."""

import ast
import dataclasses
from pathlib import Path

import quantdet
from quantdet import cli
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
    assert sum(len(flags) for _, _, flags in cli._SUBCOMMANDS.values()) == 44
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


def test_every_public_module_level_name_has_a_docstring():
    missing = []
    for path in sorted(Path(quantdet.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and not ast.get_docstring(node)):
                missing.append(f"{path.stem}.{node.name}")
    assert missing == []

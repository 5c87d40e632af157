"""Byte identity: the benchmark's workloads write exactly the outputs on record.

Each workload of ``perfbench/workloads.py`` is run through ``cli.main``
in-process at seeds 0 and 1, and every file it writes must hash to the
SHA-256 stored for it in ``perfbench/digests.json``.  A change that moves
an output byte fails here, not only in the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from quantdet import cli

_WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up in sys.modules while it builds Workload
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _assert_digests(workloads, name, seed, work, workers=None):
    workload = workloads.WORKLOADS[name]
    stored = workloads.load_digests()[name][str(seed)]
    for argv, outputs in workload.invocations(seed, str(work), workers):
        assert cli.main(argv) == 0, argv
        for out in outputs:
            assert workloads.sha256(str(work / out)) == stored[out], (name, seed, out)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["roc_small", "roc_large", "pd_snr_sweep"])
def test_workload_outputs_match_stored_digests(workloads, name, seed, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _assert_digests(workloads, name, seed, tmp_path)


def test_sweep_digest_holds_at_one_worker(workloads, tmp_path, monkeypatch):
    # the digest was recorded at the workload's two workers; one must give the same bytes
    monkeypatch.chdir(tmp_path)
    assert workloads.WORKLOADS["pd_snr_sweep"].workers == 2
    _assert_digests(workloads, "pd_snr_sweep", 1, tmp_path, workers=1)

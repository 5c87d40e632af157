"""Checks on the benchmark itself; none of them is timed.

    python3 -m pytest -q perfbench/test_perfbench.py

The determinism probe runs pd_snr_sweep at 1 and at 2 workers and requires
identical CSV bytes: the batch/worker invariance the README promises, and
the first thing a pool or RNG change could break.  The traced pass must
reach into pool workers, leave no wrapper behind, and separate the layers
the workloads were chosen for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracer as tr
import workloads as wl

SEED = 1


def test_pd_snr_sweep_bytes_identical_across_workers(tmp_path):
    workload = wl.WORKLOADS["pd_snr_sweep"]
    digests = []
    for workers in (1, 2):
        work = tmp_path / f"w{workers}"
        work.mkdir()
        (argv, (out,)), = workload.invocations(SEED, str(work), workers=workers)
        report = run.spawn(argv, str(work / "inv.json"), "run", str(work))
        assert report["rc"] == 0, report["log"]
        assert report["workers"] == [workers]
        assert wl.check_output(workload, out, str(work)) == []
        digests.append(wl.sha256(str(work / out)))
    assert digests[0] == digests[1]


def test_uninstall_restores_every_attribute():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import quantdet.cli  # noqa: F401

    before = {(m.__name__, k): v for m in tr._package_modules() for k, v in vars(m).items()}
    tracer = tr.Tracer(spill_dir="unused")
    tracer.install()
    try:
        import quantdet.montecarlo as mc

        assert hasattr(mc.stream_rng, tr.MARK)  # the name the engine looks up
        assert hasattr(mc.ProcessPoolExecutor, tr.MARK)
        assert "montecarlo.run_trials" in tracer.names
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in tr._package_modules() for k, v in vars(m).items()}
    assert tr.wrapped_names() == []
    assert all(after[key] is value for key, value in before.items())


def test_self_time_counts_overlapping_children_once():
    spans = tr.Spans()
    spans.extend([["pool"], [0.0], [10.0], [-1]], -1)
    # two workers overlapping on [2, 6] and [4, 8]; a child running past its parent
    spans.extend([["chunk", "chunk", "late"], [2.0, 4.0, 9.0], [6.0, 8.0, 12.0], [-1, -1, -1]], 0)
    times = tr.layer_times(spans)
    assert times["pool"]["s"] == 10.0
    assert times["pool"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert times["chunk"] == {"calls": 2, "s": 8.0, "self_s": 8.0}


def test_output_checks_reject_bad_rows(tmp_path):
    workload = wl.WORKLOADS["roc_large"]
    rows = [",".join(wl.ROC_HEADER)]
    for label, q in workload.detectors:
        for _ in range(wl.ROC_POINTS):
            rows.append(f"{label},{q},1.0,0.5,0.5,0.5,0.5,{workload.trials},{workload.trials}")
    path = tmp_path / "roc.csv"
    path.write_text("\n".join(rows) + "\n")
    assert wl.check_output(workload, "roc.csv", str(tmp_path)) == []
    digests = {"roc_large": {str(SEED): {"roc.csv": "0" * 64}}}
    assert wl.check_digest(workload, "roc.csv", SEED, str(tmp_path), digests)
    assert wl.check_digest(workload, "roc.csv", SEED + 1, str(tmp_path), digests) is None

    rows[3] = rows[3].replace(",0.5,0.5,0.5,", ",0.5,1.5,0.5,")
    path.write_text("\n".join(rows) + "\n")
    assert any("probability" in p for p in wl.check_output(workload, "roc.csv", str(tmp_path)))
    path.write_text("\n".join(rows[:-1]) + "\n")
    assert any("rows" in p for p in wl.check_output(workload, "roc.csv", str(tmp_path)))


def test_traced_pass_reaches_workers_and_separates_layers():
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    m = {k: v["value"] for k, v in line["metrics"].items()}
    diag = {}
    for name in wl.WORKLOADS:
        with open(os.path.join(run.OUT_DIR, f"{name}-seed{SEED}-trace1.json")) as fh:
            diag.update({f"{name}.{k}": v["median"] for k, v in json.load(fh)["diagnostics"].items()})
    assert diag["pd_snr_sweep.trace.worker_spans"] > 0
    assert diag["pd_snr_sweep.montecarlo.pools_started"] == 12
    assert diag["roc_small.montecarlo.pools_started"] == 0
    assert diag["roc_small.detectors.glrt_unquantized_batch.calls"] == 0
    assert diag["roc_large.detectors.glrt_unquantized_batch.calls"] > 0
    # every BENCHMARK.json per-layer metric is non-zero on every workload
    assert all(value != 0 for value in m.values())
    # generator construction weighs on the small scene, bin indexing on the large one
    assert m["roc_small.signal_model.stream_rng.share"] > m["roc_large.signal_model.stream_rng.share"]
    assert m["roc_small.quantizer.bin_indices.share"] < m["roc_large.quantizer.bin_indices.share"]
    # exact counts: one generator per trial, one chunk per 8192 trials and hypothesis
    assert m["roc_small.signal_model.stream_rng.calls"] == 100_000
    assert m["roc_small.montecarlo.chunks"] == 14
    assert m["pd_snr_sweep.montecarlo.chunks"] == 24


def test_setup_probe_stops_at_the_engine(tmp_path):
    workload = wl.WORKLOADS["roc_large"]
    argv, outputs = workload.invocations(SEED, str(tmp_path))[-1]
    report = run.spawn(argv, str(tmp_path / "setup.json"), "setup", str(tmp_path))
    assert report["rc"] == 0, report["log"]
    assert report["first_run_trials"] > report["spawned"]
    assert report["exited"] > report["first_run_trials"]
    assert not any(os.path.exists(tmp_path / name) for name in outputs)

"""quantdet benchmark: three CLI workloads, end-to-end metrics and a traced per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roc_small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One repetition runs a workload's CLI invocations in order, each in a fresh
interpreter started by this script (see ``child.py``), and checks what they
wrote.  Repetitions start while a typical one still ends within
``--seconds`` (at least one runs), and every timing is reported as the
median over repetitions with a high percentile and the sample count.  The package under
test is ``src/quantdet`` of the checkout; nothing is installed.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``wall_s``       wall time of one repetition, from spawning each interpreter
                   until it has exited;
* ``trials_per_s`` Monte Carlo trials (all hypotheses, detectors and SNR
                   points) per wall second of a repetition;
* ``setup_s``      from spawning the interpreter to its first ``run_trials``
                   call (import, config merge, template, thresholds/swarm),
                   sampled in every repetition and in extra set-up probes
                   that stop there (``SETUP_PROBES_PER_REP``);
* ``peak_rss_mb``  larger of the peak RSS of the CLI process and of its
                   pool workers.

Failures are counted per CLI invocation: an unexpected exit code, a failed
structural check, a digest mismatch with ``digests.json``, output bytes
that differ between repetitions, or a benchmark wrapper found where none
should be; a set-up probe fails if it exits non-zero or never reaches
``run_trials``.  ``error_rate`` (printed, and as ``failed``/``attempted``
in the JSON line) is failed / attempted.

``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of ``BENCHMARK.json`` (medians over traced repetitions).
Those are the layers every workload exercises, so none is 0 by
construction.  Layers that only some workloads reach (GLRT, pool,
``marcum_q1``, ``estimate_roc``), the worker span count and the tracing
overhead (traced minus untraced ``wall_s``) are printed and stored as
diagnostics instead (``DIAGNOSTICS``).  Layer times add up busy time over
processes, so with pool workers a ``share`` (self time over ``run_trials``
time) can exceed 1.  Counts and computed bytes are exact and repeat from run
to run.  What each layer metric or diagnostic should move:

* ``signal_model.stream_rng``: ``trials_per_s`` on roc_small, little on roc_large
* ``signal_model.synthesize_observation``, ``normals_drawn``: ``trials_per_s``
  on roc_large first, then roc_small
* ``signal_model.effective_signal.calls``, ``quantizer.bin_stats_table.calls``
  (rebuilt per chunk): ``wall_s`` on pd_snr_sweep
* ``quantizer.bin_indices``, ``values_quantized``: ``trials_per_s`` on
  roc_large (Rao half only)
* ``detectors.rao_statistic_batch``: ``trials_per_s`` on roc_large and roc_small
* ``detectors.glrt_unquantized_batch`` (diagnostic): ``trials_per_s`` on roc_large
* ``montecarlo.run_trials.self_s`` (engine overhead): ``trials_per_s`` on pd_snr_sweep
* ``montecarlo.chunks``, and the diagnostics ``pools_started``, ``pool_s``:
  ``wall_s`` on pd_snr_sweep, no change on the single-worker workloads
* ``montecarlo.exceedance``, ``estimate_roc`` (diagnostic): ``wall_s`` on roc_small
* ``special.marcum_q1`` (diagnostic): ``wall_s`` on the roc workloads
* ``optimizer.*``: ``setup_s`` on pd_snr_sweep and roc_large
* ``cli.main.self_s`` (parsing, config merge, CSV writing): ``wall_s`` everywhere

Every run writes a result file with a provenance block under
``.perfbench_out/`` and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

import tracer as tr
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "quantdet")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

# A run must finish within 180 s; no repetition starts once this much has passed.
START_BUDGET_S = 120.0
CHILD_TIMEOUT_S = 170.0
# One BLAS thread per process keeps pd_snr_sweep's 2 workers within 2 CPUs
# and keeps the single-worker workloads from timing a thread pool.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
SHARE_BASE = "montecarlo.run_trials"
# Set-up-only invocations after each repetition of an untraced run: one sample
# per repetition is too few for a steady set-up median.
SETUP_PROBES_PER_REP = 2
# Traced values printed and stored, but not BENCHMARK.json metrics: each is
# 0 by construction on some workload, or (the overhead) a difference of two
# noisy medians that can come out negative.
DIAGNOSTICS = {
    "detectors.glrt_unquantized_batch.calls": "count",
    "detectors.glrt_unquantized_batch.s": "s",
    "special.marcum_q1.calls": "count",
    "special.marcum_q1.s": "s",
    "montecarlo.estimate_roc.s": "s",
    "montecarlo.pools_started": "count",
    "montecarlo.pool_s": "s",
    "trace.worker_spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


class BenchmarkError(Exception):
    """BENCHMARK.json names a metric that this benchmark cannot compute."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- running one invocation ---------------------------------------------------

def spawn(argv: list, result_path: str, mode: str, spill_dir: str) -> dict:
    """Run one CLI invocation in a child interpreter (``mode`` as in child.py).

    The report's ``exited - spawned`` is the invocation's wall time, from
    before the interpreter starts until it has exited.
    """
    env = dict(os.environ, **THREAD_ENV)
    spawned = tr.now()
    cmd = [sys.executable, CHILD, result_path, repr(spawned), mode, spill_dir, "--", *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        log, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        exited = tr.now()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        log, _ = proc.communicate()
        return {"rc": None, "error": f"timed out after {CHILD_TIMEOUT_S} s", "log": log.decode()}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return {"rc": None, "error": f"child exited {proc.returncode}", "log": log.decode()}
    with open(result_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report.update(exited=exited, log=log.decode())
    return report


def invocation_problems(rep: dict) -> list:
    """Problems of one spawned invocation that no output check sees."""
    problems = []
    if rep.get("error") or rep.get("rc") != 0:
        detail = rep.get("error") or rep["log"].strip()[-300:]
        problems.append(f"{rep['argv'][0]} exit code {rep.get('rc')}: {detail}")
    if rep.get("wrapped_after_run"):
        problems.append(f"wrappers left after removal: {rep['wrapped_after_run']}")
    return problems


def run_rep(workload: wl.Workload, seed: int, work: str, trace: bool, digests: dict) -> dict:
    """One repetition: every invocation of the workload, then the output checks."""
    shutil.rmtree(work, ignore_errors=True)
    spill = os.path.join(work, "spill")
    os.makedirs(spill)
    invs = []
    for i, (argv, outputs) in enumerate(workload.invocations(seed, work)):
        if trace:
            shutil.rmtree(spill)
            os.makedirs(spill)
        rep = spawn(argv, os.path.join(work, f"inv{i}.json"), "trace" if trace else "run", spill)
        rep["argv"] = argv
        problems = invocation_problems(rep)
        if not trace and rep.get("wrapped_during_run"):
            problems.append("untraced run found tracing wrappers installed")
        out_digests = {}
        for name in outputs:
            problems.extend(wl.check_output(workload, name, work))
            mismatch = wl.check_digest(workload, name, seed, work, digests)
            if mismatch:
                problems.append(mismatch)
            path = os.path.join(work, name)
            out_digests[name] = wl.sha256(path) if os.path.isfile(path) else None
        rep.update(problems=problems, digests=out_digests)
        invs.append(rep)
    result = {"traced": trace, "invocations": invs, "probes": []}
    if any(inv.get("rc") != 0 for inv in invs):
        return result  # nothing to time; the failures are counted
    trials = sum(inv["trials"] for inv in invs)
    if trials != workload.total_trials:
        invs[-1]["problems"].append(f"{trials} trials run, want {workload.total_trials}")
    wall = sum(inv["exited"] - inv["spawned"] for inv in invs)
    engine = next(inv for inv in invs if inv["first_run_trials"] is not None)
    result.update(
        wall_s=wall,
        trials_per_s=trials / wall,
        setup_s=[engine["first_run_trials"] - engine["spawned"]],
        peak_rss_mb=max(inv["peak_rss_kb"] for inv in invs) / 1024.0,
    )
    if trace:
        result["layers"] = merge_layers(invs)
        result["counts"] = sum_counts(invs)
        result["worker_spans"] = sum(inv["worker_spans"] for inv in invs)
        result["traced_names"] = sorted({n for inv in invs for n in inv["traced_names"]})
    return result


def probe_setup(workload: wl.Workload, seed: int, work: str, rep: dict) -> None:
    """Add ``SETUP_PROBES_PER_REP`` set-up samples to an untraced repetition.

    Each probe runs the workload's engine invocation (its last, the one that
    calls ``run_trials``) in ``work``, where the repetition left its inputs,
    and stops at the first ``run_trials`` call.  Probes are counted as
    invocations, so a failed one is a failed operation.
    """
    argv, _ = workload.invocations(seed, work)[-1]
    for i in range(SETUP_PROBES_PER_REP):
        probe = spawn(argv, os.path.join(work, f"setup{i}.json"), "setup", work)
        probe["argv"] = argv
        probe["problems"] = invocation_problems(probe)
        if not probe["problems"] and probe["first_run_trials"] is None:
            probe["problems"].append(f"{argv[0]} never reached run_trials")
        if not probe["problems"]:
            rep["setup_s"].append(probe["first_run_trials"] - probe["spawned"])
        rep["probes"].append(probe)


def merge_layers(invs: list) -> dict:
    merged: dict = {}
    for inv in invs:
        for name, rec in inv["layers"].items():
            into = merged.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field, value in rec.items():
                into[field] += value
    return merged


def sum_counts(invs: list) -> dict:
    total: dict = {}
    for inv in invs:
        for name, value in inv["counts"].items():
            total[name] = total.get(name, 0) + value
    return total


# --- metrics ------------------------------------------------------------------

def summarize(values: list) -> dict:
    """Median, the highest percentile with >= 10 samples above it (else max), n."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        hi, label = ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f}"
    else:
        hi, label = ordered[-1], "max"
    return {"median": statistics.median(ordered), "hi": hi, "hi_label": label, "n": n}


def layer_value(name: str, rep: dict) -> float:
    """Per-layer metric ``name`` of one traced repetition.

    ``<layer>.<function>.{calls,s,self_s,share}`` read span aggregates
    (``share`` is self time over ``run_trials`` time); other names are exact
    counts or the derived values below.
    """
    layers, counts = rep["layers"], rep["counts"]

    def span(base: str, field: str) -> float:
        return layers.get(base, {}).get(field, 0)

    derived = {
        "montecarlo.chunks": span("montecarlo._chunk_stats", "calls"),
        "montecarlo.pools_started": span("montecarlo.pool", "calls"),
        "montecarlo.pool_s": span("montecarlo.pool", "s"),
        "optimizer.converged_frac": (
            counts.get("optimizer.converged", 0) / span("optimizer.optimize_thresholds", "calls")
            if span("optimizer.optimize_thresholds", "calls") else 0.0
        ),
        "trace.worker_spans": rep["worker_spans"],
    }
    if name in derived:
        return derived[name]
    if name in tr.COUNTED or name in counts:
        return counts.get(name, 0)
    base, _, field = name.rpartition(".")
    if base not in rep["traced_names"]:
        raise BenchmarkError(f"per-layer metric {name!r} names no traced function")
    if field == "share":
        run_s = span(SHARE_BASE, "s")
        return span(base, "self_s") / run_s if run_s else 0.0
    if field not in ("calls", "s", "self_s"):
        raise BenchmarkError(f"per-layer metric {name!r} has an unknown field")
    return span(base, field)


# --- provenance ---------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def provenance(workload: wl.Workload, seed: int, seconds: int, trace: bool, reps: list) -> dict:
    invs = [inv for rep in reps for inv in rep["invocations"] if inv.get("rc") == 0]
    nproc = len(os.sched_getaffinity(0))
    threads = workload.workers * int(THREAD_ENV["OPENBLAS_NUM_THREADS"])
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": invs[0]["blas"] if invs else "unknown",
        "blas_threads_env": THREAD_ENV,
        "workers": workload.workers,
        "threads_total": threads,
        "threads_within_nproc": threads <= nproc,
        "git_commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "trials_per_hypothesis": workload.trials,
        "trials_per_rep": workload.total_trials,
        "batch_size": sorted({b for inv in invs for b in inv["batch_sizes"]}),
        "seconds": seconds,
        "trace": trace,
    }


# --- one workload -------------------------------------------------------------

def run_workload(workload: wl.Workload, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    digests = wl.load_digests()
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    run_dir = os.path.join(OUT_DIR, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    modes = [True, False] if trace else [False]
    reps: list = []
    start = tr.now()
    durations: list = []
    while True:
        # Start a repetition only if a typical one still ends within --seconds,
        # so a run lasts about --seconds however long one repetition takes.
        elapsed = tr.now() - start
        next_end = elapsed + (statistics.median(durations) if durations else 0.0)
        if len(reps) >= len(modes) and (next_end > seconds or elapsed >= START_BUDGET_S):
            break
        traced = modes[len(reps) % len(modes)]
        work = os.path.join(run_dir, "traced" if traced else "untraced")
        began = tr.now()
        reps.append(run_rep(workload, seed, work, traced, digests))
        if not trace and "wall_s" in reps[-1]:
            probe_setup(workload, seed, work, reps[-1])
        durations.append(tr.now() - began)

    # Output bytes must not change between repetitions of one seed.
    first = reps[0]["invocations"]
    for rep in reps[1:]:
        for a, b in zip(first, rep["invocations"]):
            if a["digests"] != b["digests"] and not b["problems"]:
                b["problems"].append("output bytes differ from the first repetition")
    invs = [inv for rep in reps for inv in rep["invocations"] + rep["probes"]]
    failed = sum(1 for inv in invs if inv["problems"])
    # Timings come from every repetition whose invocations all exited 0; a
    # failed output check is counted in ``failed`` and clears ``correct``.
    timed = [rep for rep in reps if "wall_s" in rep]
    plain = [rep for rep in timed if not rep["traced"]]
    traced = [rep for rep in timed if rep["traced"]]

    summaries = {m: summarize([rep[m] for rep in plain])
                 for m in ("wall_s", "trials_per_s", "peak_rss_mb") if plain}
    if plain:
        summaries["setup_s"] = summarize([s for rep in plain for s in rep["setup_s"]])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    layer_summaries = {}
    diagnostics = {}
    if not trace and plain:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = summaries[m["name"]]["median"]
    counts_repeat = None
    if trace and traced and plain:
        for m in spec["per_layer"]:
            layer_summaries[m["name"]] = summarize([layer_value(m["name"], rep) for rep in traced])
        for name in DIAGNOSTICS:
            if not name.startswith("trace.overhead"):
                diagnostics[name] = summarize([layer_value(name, rep) for rep in traced])
        counts_repeat = all(rep["counts"] == traced[0]["counts"] for rep in traced)
        traced_wall = statistics.median(rep["wall_s"] for rep in traced)
        overhead = traced_wall - summaries["wall_s"]["median"]
        diagnostics["trace.overhead_s"] = {"median": overhead, "n": len(traced)}
        diagnostics["trace.overhead_share"] = {
            "median": overhead / summaries["wall_s"]["median"], "n": len(traced)}
        for m in spec["per_layer"]:
            metrics[m["name"]] = layer_summaries[m["name"]]["median"]

    result = {
        "workload": workload.name,
        "why": workload.why,
        "provenance": provenance(workload, seed, seconds, trace, reps),
        "attempted": len(invs),
        "failed": failed,
        "error_rate": failed / len(invs),
        "end_to_end": summaries,
        "per_layer": layer_summaries,
        "diagnostics": diagnostics,
        "counts_repeat": counts_repeat,
        "problems": [p for inv in invs for p in inv["problems"]],
        "outputs": first[-1]["digests"] if first else {},
        "repetitions": [{k: v for k, v in rep.items()
                         if k not in ("invocations", "probes", "layers", "traced_names")}
                        for rep in reps],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"{tag}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    report(result, {**units, **DIAGNOSTICS}, result_path)
    return result


def report(result: dict, units: dict, path: str) -> None:
    print(f"== {result['workload']}  seed {result['provenance']['seed']}  "
          f"({result['provenance']['nproc']} CPUs, {result['provenance']['cpu_model']})")
    for name, s in result["end_to_end"].items():
        print(f"  {name:<14} median {s['median']:.6g} {units.get(name, '')}  "
              f"{s['hi_label']} {s['hi']:.6g}  n={s['n']}")
    print(f"  {'error_rate':<14} {result['error_rate']:.6g}  "
          f"({result['failed']} failed of {result['attempted']} invocations)")
    for name, s in {**result["per_layer"], **result["diagnostics"]}.items():
        print(f"  {name:<46} {s['median']:.6g} {units.get(name, '')}  n={s['n']}")
    for problem in result["problems"][:20]:
        print(f"  FAILED: {problem}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


# --- entry point --------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (the CLI seeds numpy SeedSequences)")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "cli.py")):
        print(f"error: no quantdet sources at {SRC_PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Byte-compile once so no timed interpreter start pays for it.
    compileall.compile_dir(SRC_PACKAGE, quiet=1)
    spec = load_spec()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(wl.WORKLOADS[n], args.seed, args.seconds, bool(args.trace), spec)
               for n in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    expected = spec["per_layer" if args.trace else "end_to_end"]
    complete = all(len(r["metrics"]) == len(expected) for r in results)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

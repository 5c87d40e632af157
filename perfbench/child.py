"""Run one quantdet CLI invocation in a fresh interpreter and report its timings.

    python3 perfbench/child.py RESULT_JSON SPAWNED MODE SPILL_DIR -- CLI_ARGS...

``SPAWNED`` is the ``CLOCK_MONOTONIC`` reading the parent took just before
starting this process; the parent takes the wall time from it to this
process's exit.  The package is imported from ``src/`` of the checkout that
holds this file.  ``quantdet.cli.main`` is called in-process, as the
``quantdet`` console script does.

A probe on ``run_trials`` (at most a few dozen calls per run) records when
the engine is first entered, which ends set-up, and how many trials ran.
``MODE`` is one of

* ``run``   the invocation as a user runs it;
* ``trace`` the same with the layer wrappers of :mod:`tracer` installed,
            removed again after the call; the per-layer aggregates and raw
            spans are written next to the result;
* ``setup`` stops at the first ``run_trials`` call, so it measures set-up
            only and writes no output file.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import traceback

import tracer as tr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class SetupReached(BaseException):
    """Raised at the first ``run_trials`` call in ``setup`` mode.

    A ``BaseException``, so the CLI's own ``except Exception`` handlers let it pass.
    """


class RunTrialsProbe:
    """Time of the first ``run_trials`` call and the trials requested."""

    def __init__(self, stop_at_first: bool):
        self.stop_at_first = stop_at_first
        self.first_call = None
        self.trials = 0
        self.batch_sizes: set = set()
        self.workers: set = set()
        self._undo: list = []

    def install(self) -> None:
        original = sys.modules["quantdet.montecarlo"].run_trials

        @functools.wraps(original)
        def run_trials(cfg):
            if self.first_call is None:
                self.first_call = tr.now()
                if self.stop_at_first:
                    raise SetupReached
            self.trials += cfg.n_trials_h0 + cfg.n_trials_h1
            self.batch_sizes.add(cfg.batch_size)
            self.workers.add(cfg.workers)
            return original(cfg)

        tr.patch_everywhere(original, run_trials, self._undo)

    def uninstall(self) -> None:
        tr.restore(self._undo)


def _blas_name() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    result_path, spawned, mode, spill_dir, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py RESULT SPAWNED {run,trace,setup} SPILL_DIR -- CLI_ARGS...")
    sys.path.insert(0, SRC)
    import quantdet.cli

    if not os.path.abspath(quantdet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"quantdet imported from {quantdet.__file__}, not from {SRC}")
    probe = RunTrialsProbe(stop_at_first=mode == "setup")
    probe.install()
    tracer = tr.Tracer(spill_dir) if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    out = {"wrapped_during_run": len(tr.wrapped_names()),
           "traced_names": tracer.names if tracer is not None else []}

    error = None
    try:
        rc = quantdet.cli.main(argv)
    except SetupReached:
        rc = 0
    except Exception:  # the CLI's own handlers missed it; report, do not die silently
        rc, error = None, traceback.format_exc()

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(
        rc=rc, error=error, spawned=float(spawned),
        first_run_trials=probe.first_call, trials=probe.trials,
        batch_sizes=sorted(probe.batch_sizes), workers=sorted(probe.workers),
        peak_rss_kb=max(self_kb, children_kb), blas=_blas_name(),
    )
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans
        counts = tracer.counts
        out["worker_spans"] = tr.merge_worker_spans(spans, counts, spill_dir)
        out["layers"] = tr.layer_times(spans)
        out["counts"] = dict(counts)
        tr.write_spans(result_path + ".spans.tsv", spans)
    probe.uninstall()
    # Any wrapper still bound after removal would tax later untraced runs.
    out["wrapped_after_run"] = tr.wrapped_names()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters recorded around the calls into each quantdet layer.

The wrappers live here, outside the package: :meth:`Tracer.install` replaces
every public function of the layer modules with a timing wrapper, on every
name a caller looks up.  ``montecarlo`` imports names directly
(``from .signal_model import stream_rng``), so patching only
``quantdet.signal_model.stream_rng`` would miss the engine's calls; the
wrapper therefore goes on each module attribute that *is* the original
function.  :meth:`Tracer.uninstall` puts every original object back.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans stay in memory until the run ends.
Pool workers are forked from the traced process, so they inherit the
wrappers; :meth:`Tracer.enter_worker` (the pool initializer) clears the
inherited spans, and each worker appends its finished chunk spans to a file
in ``spill_dir`` that the parent merges with :func:`merge_worker_spans`.

Times come from ``CLOCK_MONOTONIC``, one clock for every process on the
machine, so worker spans and parent spans share a time axis.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYER_MODULES = (
    "signal_model", "quantizer", "detectors", "perf_theory", "optimizer", "montecarlo", "special",
)
# Private or CLI names traced in addition to the public functions above:
# the chunk function is the unit of pool work, cli.main is the entry point.
EXTRA_FUNCTIONS = (("montecarlo", "_chunk_stats"), ("cli", "main"))
# A two-line integer helper called once per trial: a span would cost more
# than its body, and it is no layer of its own.
UNTRACED = ("signal_model.trial_counter",)
MARK = "_perfbench_original"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "quantdet" or name.startswith("quantdet."))]


def patch_everywhere(original, replacement, undo: list) -> None:
    """Rebind every quantdet module attribute that is ``original``."""
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def restore(undo: list) -> None:
    while undo:
        mod, attr, original = undo.pop()
        setattr(mod, attr, original)


def wrapped_names() -> list:
    """Module attributes in quantdet that still carry a benchmark wrapper."""
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if hasattr(value, MARK)]


# --- exact counts and computed bytes, taken from arguments and results -----
# Bytes are derived from array shapes ("computed"), not measured traffic:
# noise   = float64 normals drawn + the complex128 observation written,
# quantise = float64 values read + intp bin indices written,
# score   = index (or complex sample) blocks read + ratios gathered + output.

def _count_synthesize(c, args, kwargs, result):
    if kwargs.get("noise_free") or (len(args) > 4 and args[4]):
        return
    n = result.shape[-1]
    c["signal_model.normals_drawn"] += 2 * n
    c["signal_model.noise_bytes_computed"] += 2 * n * 8 + n * 16


def _count_bin_indices(c, args, kwargs, result):
    size = int(result.size)
    c["quantizer.values_quantized"] += size
    c["quantizer.quantise_bytes_computed"] += size * 8 + size * result.itemsize


def _count_rao(c, args, kwargs, result):
    re_idx = args[0]
    c["detectors.score_bytes_computed"] += 2 * re_idx.size * (re_idx.itemsize + 8) + result.size * 8


def _count_glrt(c, args, kwargs, result):
    c["detectors.score_bytes_computed"] += args[0].size * args[0].itemsize + result.size * 8


def _count_pso(c, args, kwargs, result):
    c["optimizer.iterations"] += result.iterations
    c["optimizer.converged"] += int(result.converged)


COUNTED = (
    "signal_model.normals_drawn",
    "signal_model.noise_bytes_computed",
    "quantizer.values_quantized",
    "quantizer.quantise_bytes_computed",
    "detectors.score_bytes_computed",
    "optimizer.iterations",
    "optimizer.converged",
)
COUNTERS = {
    "signal_model.synthesize_observation": _count_synthesize,
    "quantizer.bin_indices": _count_bin_indices,
    "detectors.rao_statistic_batch": _count_rao,
    "detectors.glrt_unquantized_batch": _count_glrt,
    "optimizer.optimize_thresholds": _count_pso,
}


class Spans:
    """Spans as four parallel columns.

    Columns of floats and ints, rather than one small list per span, keep
    hundreds of thousands of spans from feeding the cyclic garbage
    collector, which would otherwise tax every traced allocation.
    """

    def __init__(self):
        self.name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []

    def __len__(self) -> int:
        return len(self.name)

    def rows(self):
        return zip(self.name, self.start, self.end, self.parent)

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent]

    def extend(self, columns: list, root_parent: int) -> None:
        """Append spans from another process; its roots hang under ``root_parent``."""
        offset = len(self)
        names, starts, ends, parents = columns
        self.name.extend(names)
        self.start.extend(starts)
        self.end.extend(ends)
        self.parent.extend(root_parent if p < 0 else p + offset for p in parents)


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self, spill_dir: str):
        self.spill_dir = spill_dir
        self.spans = Spans()
        self.stack: list = []
        self.counts: Counter = Counter()
        self.in_worker = False
        self.worker_parent = -1
        self.names: list = []
        self._undo: list = []

    # -- span primitives ----------------------------------------------------
    def open(self, name: str) -> int:
        sp = self.spans
        idx = len(sp)
        sp.name.append(name)
        sp.start.append(now())
        sp.end.append(0.0)
        sp.parent.append(self.stack[-1] if self.stack else -1)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans.end[idx] = now()
        self.stack.remove(idx)
        if self.in_worker and not self.stack:
            self._spill()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        clock, mono = time.clock_gettime, time.CLOCK_MONOTONIC

        # open()/close() inlined: this runs once per trial on the hot path.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sp, stack = self.spans, self.stack
            idx = len(sp.name)
            sp.name.append(name)
            sp.parent.append(stack[-1] if stack else -1)
            sp.end.append(0.0)
            stack.append(idx)
            sp.start.append(clock(mono))
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end[idx] = clock(mono)
                stack.pop()
                if self.in_worker and not stack:
                    self._spill()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        import quantdet.cli  # noqa: F401  (loads every layer module)

        targets = []
        for short in LAYER_MODULES:
            mod = sys.modules[f"quantdet.{short}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and f"{short}.{attr}" not in UNTRACED):
                    targets.append((f"{short}.{attr}", fn))
        for short, attr in EXTRA_FUNCTIONS:
            targets.append((f"{short}.{attr}", getattr(sys.modules[f"quantdet.{short}"], attr)))
        for name, fn in targets:
            patch_everywhere(fn, self.wrap(name, fn), self._undo)
        montecarlo = sys.modules["quantdet.montecarlo"]
        base = montecarlo.ProcessPoolExecutor
        patch_everywhere(base, self._pool_class(base), self._undo)
        self.names = [name for name, _ in targets] + ["montecarlo.pool"]

    def uninstall(self) -> None:
        restore(self._undo)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Process pool whose lifetime is the ``montecarlo.pool`` span."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.open("montecarlo.pool")
                kwargs.setdefault("initializer", tracer.enter_worker)
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.close(self._span)
                        self._span = None

        setattr(TracedPool, MARK, base)
        return TracedPool

    # -- pool workers -------------------------------------------------------
    def enter_worker(self) -> None:
        """Pool initializer: drop spans inherited through fork."""
        self.worker_parent = self.stack[-1] if self.stack else -1
        self.spans = Spans()
        self.stack = []
        self.counts = Counter()
        self.in_worker = True

    def _spill(self) -> None:
        path = os.path.join(self.spill_dir, f"worker-{os.getpid()}.jsonl")
        batch = {"pid": os.getpid(), "root_parent": self.worker_parent,
                 "spans": self.spans.to_json(), "counts": dict(self.counts)}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(batch) + "\n")
        self.spans = Spans()
        self.counts = Counter()


def merge_worker_spans(spans: Spans, counts: Counter, spill_dir: str) -> int:
    """Append spilled worker spans to ``spans``; returns how many."""
    added = 0
    for fname in sorted(os.listdir(spill_dir)):
        with open(os.path.join(spill_dir, fname), encoding="utf-8") as fh:
            for line in fh:
                batch = json.loads(line)
                spans.extend(batch["spans"], batch["root_parent"])
                added += len(batch["spans"][0])
                counts.update(batch["counts"])
    return added


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(spans: Spans) -> dict:
    """Per span name: ``{"calls", "s", "self_s"}``.

    ``s`` sums span durations; ``self_s`` subtracts from each span the part
    of its interval that its child spans cover (children that overlap, as
    pool workers do, are counted once).
    """
    children: dict = {}
    for _name, start, end, parent in spans.rows():
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for idx, (name, start, end, _parent) in enumerate(spans.rows()):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        dur = end - start
        rec["calls"] += 1
        rec["s"] += dur
        rec["self_s"] += dur - _covered(children.get(idx, ()), start, end)
    return out


def write_spans(path: str, spans: Spans) -> None:
    """One tab-separated line per span: index, name, start, end, parent."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, start, end, parent) in enumerate(spans.rows()):
            fh.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\n")

"""The benchmark's workloads and the checks on what they write.

Each workload is a fixed sequence of ``quantdet`` CLI invocations, run as a
user would run them.  The benchmark seed becomes the CLI ``--seed``; nothing
else depends on it, so one seed always names the same inputs.

Outputs are checked twice: structurally (header, row count, every
probability in [0, 1], trial counts) and, where ``digests.json`` holds a
SHA-256 for the workload at that seed, byte for byte.  A digest is the
proof that a speed change left the output untouched.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
LARGE_SCENE = os.path.join(HERE, "large_scene.cfg")

ROC_HEADER = ["detector", "q", "eta", "p_fa_hat", "p_d_hat", "p_fa_theory", "p_d_theory", "n0", "n1"]
ROC_PROBS = ("p_fa_hat", "p_d_hat", "p_fa_theory", "p_d_theory")
ROC_POINTS = 16  # the roc command's default false-alarm grid
SWEEP_HEADER = [
    "detector", "q", "snr_db", "p_fa_target", "eta_asymptotic",
    "p_d_at_asymptotic_eta", "p_d_at_empirical_eta", "trials",
]
SWEEP_PROBS = ("p_fa_target", "p_d_at_asymptotic_eta", "p_d_at_empirical_eta")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    trials: int              # --trials, per hypothesis
    detectors: tuple         # (label, q) in CSV order
    snr_grid: tuple = ()     # pd-snr only
    workers: int = 1

    @property
    def total_trials(self) -> int:
        """Monte Carlo trials per run over all hypotheses, detectors and SNR points."""
        per_detector = 2 if not self.snr_grid else 1 + len(self.snr_grid)
        return self.trials * per_detector * len(self.detectors)

    def invocations(self, seed: int, work: str, workers: int | None = None) -> list:
        """``(argv, outputs)`` per CLI call, in order; outputs land in ``work``."""
        seed_args = ["--seed", str(seed)]
        roc_out = ["--out", os.path.join(work, "roc.csv")]
        if self.name == "roc_small":
            q2 = os.path.join(work, "q2.txt")
            return [
                (["thresholds", "--q", "2", "--out", q2, *seed_args], ("q2.txt",)),
                (["roc", "--q", "2", "--snr-db=-14", "--trials", str(self.trials),
                  "--thresholds", q2, "--workers", "1", *roc_out, *seed_args], ("roc.csv",)),
            ]
        if self.name == "roc_large":
            return [
                (["roc", "--config", LARGE_SCENE, "--detectors", "3,inf", "--snr-db=-22",
                  "--trials", str(self.trials), "--workers", "1", *roc_out, *seed_args],
                 ("roc.csv",)),
            ]
        grid = ",".join(repr(s) for s in self.snr_grid)
        return [
            (["pd-snr", "--detectors", ",".join(q for _, q in self.detectors), "--pfa", "0.01",
              f"--snr-grid={grid}", "--trials", str(self.trials),
              "--workers", str(workers or self.workers),
              "--out", os.path.join(work, "pd_snr.csv"), *seed_args], ("pd_snr.csv",)),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="roc_small",
            why="paper's default 2x16x8 scene at -14 dB, q=2: per-trial fixed costs "
                "(generator construction, one synthesis call per trial) dominate",
            trials=50_000,
            detectors=(("rao", "2"),),
        ),
        Workload(
            name="roc_large",
            why="4x64x32 scene (n=2048) at -22 dB, q=3 and GLRT: per-sample array work "
                "(noise draw, bin_indices, score gather) dominates; GLRT half never quantises",
            trials=6_000,
            detectors=(("rao", "3"), ("glrt", "inf")),
        ),
        Workload(
            name="pd_snr_sweep",
            why="pd-snr over 1,2,3,inf bits at 2 SNR points with 2 workers: the only "
                "workload with the process pool, a fresh pool per engine call, 3 swarm designs",
            trials=10_000,
            detectors=(("rao", "1"), ("rao", "2"), ("rao", "3"), ("glrt", "inf")),
            # Two SNR points, not four, keep a repetition near 6 s so a 40 s run
            # holds enough repetitions for a steady median; every engine call
            # still spans two chunks and so starts a pool.
            snr_grid=(-16.0, -10.0),
            workers=2,
        ),
    )
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _probability(text: str) -> bool:
    v = float(text)
    return math.isfinite(v) and 0.0 <= v <= 1.0


def _check_checkpoint(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    payload = [ln for ln in lines if not ln.startswith("#")]
    if len(payload) != 1:
        return [f"{path}: expected one payload line, found {len(payload)}"]
    head, _, body = payload[0].partition(";")
    try:
        values = [float(t) for t in body.split(",") if t.strip()]
    except ValueError as exc:
        return [f"{path}: {exc}"]
    problems = []
    if head.strip() != "2" or len(values) != 3:
        problems.append(f"{path}: expected a 2-bit design with 3 thresholds")
    if any(not math.isfinite(v) for v in values) or values != sorted(set(values)):
        problems.append(f"{path}: thresholds not finite and strictly increasing")
    if "# converged = True" not in lines:
        problems.append(f"{path}: swarm did not converge")
    return problems


def check_output(workload: Workload, name: str, work: str) -> list:
    """Structural problems in one output file (empty when it looks right)."""
    path = os.path.join(work, name)
    if not os.path.isfile(path):
        return [f"{name}: missing"]
    if name.endswith(".txt"):
        return _check_checkpoint(path)
    header, rows = _read_csv(path)
    sweep = bool(workload.snr_grid)
    want_header = SWEEP_HEADER if sweep else ROC_HEADER
    if header != want_header:
        return [f"{name}: header {header}"]
    per_det = len(workload.snr_grid) if sweep else ROC_POINTS
    if len(rows) != per_det * len(workload.detectors):
        return [f"{name}: {len(rows)} rows, want {per_det * len(workload.detectors)}"]
    prob_cols = [want_header.index(p) for p in (SWEEP_PROBS if sweep else ROC_PROBS)]
    count_cols = [want_header.index(c) for c in (("trials",) if sweep else ("n0", "n1"))]
    problems = []
    for i, row in enumerate(rows):
        where = f"{name} row {i + 1}"
        label, q = workload.detectors[i // per_det]
        if len(row) != len(want_header) or row[:2] != [label, q]:
            problems.append(f"{where}: {row[:2]}, want {[label, q]} and {len(want_header)} cells")
            continue
        try:
            if not all(_probability(row[c]) for c in prob_cols):
                problems.append(f"{where}: probability outside [0, 1]")
            if any(int(row[c]) != workload.trials for c in count_cols):
                problems.append(f"{where}: trial count differs from {workload.trials}")
            if sweep and float(row[2]) != workload.snr_grid[i % per_det]:
                problems.append(f"{where}: snr {row[2]}")
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return problems


def check_digest(workload: Workload, name: str, seed: int, work: str, digests: dict):
    """Problem text if the stored SHA-256 for (workload, seed, file) differs, else None.

    Seeds without a stored digest pass; :func:`check_output` still applies.
    """
    want = digests.get(workload.name, {}).get(str(seed), {}).get(name)
    if want is None:
        return None
    path = os.path.join(work, name)
    got = sha256(path) if os.path.isfile(path) else None
    return None if got == want else f"{name}: sha256 {got} != stored {want}"

"""End-to-end command-line behaviour: exit codes, files, determinism."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ncx2

from quantdet import cli, montecarlo, optimizer, selftest
from quantdet.detectors import GlrtDetector
from quantdet.experiment import ConfigError, parse_config
from quantdet.montecarlo import estimate_roc
from quantdet.optimizer import read_checkpoint
from quantdet.quantizer import DegenerateBinError
from quantdet.selftest import CheckResult
from quantdet.signal_model import Hypothesis, SceneConfig
from quantdet.special import chi2_2_quantile


def run(argv):
    return cli.main(argv)


def _read(path):
    return path.read_text(encoding="utf-8")


# ----------------------------------------------------------------- thresholds

def test_thresholds_designs_and_saves(tmp_path, capsys):
    out = tmp_path / "q2.txt"
    code = run(["thresholds", "--q", "2", "--seed", "11", "--out", str(out)])
    assert code == 0
    ts, meta = read_checkpoint(out)
    assert ts.bits == 2
    assert meta["seed"] == "11"
    assert meta["converged"] == "True"
    stdout = capsys.readouterr().out
    assert "codeword -> bin:" in stdout
    assert "00" in stdout and "11" in stdout  # 2-bit codewords listed


def test_thresholds_requires_q_and_seed(tmp_path):
    assert run(["thresholds", "--seed", "1", "--out", str(tmp_path / "x.txt")]) == 1
    assert run(["thresholds", "--q", "2", "--out", str(tmp_path / "x.txt")]) == 1
    assert run(["thresholds", "--q", "9", "--seed", "1"]) == 1
    assert run(["thresholds", "--q", "zero", "--seed", "1"]) == 1  # junk int


def test_thresholds_nonconvergence_exit_code(tmp_path, monkeypatch):
    # 2 iterations cannot satisfy a 50-iteration stall window; the design
    # must still be written, with the warning exit code
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("max_iters = 2\n")
    out = tmp_path / "q1.txt"
    code = run(["thresholds", "--config", str(cfg), "--q", "1", "--seed", "4",
                "--out", str(out)])
    assert code == 2
    ts, meta = read_checkpoint(out)
    assert meta["converged"] == "False"
    assert ts.bits == 1


# ------------------------------------------------------------------------ roc

@pytest.fixture(scope="module")
def roc_args(tmp_path_factory):
    # one small simulated ROC shared by the assertions below
    out = tmp_path_factory.mktemp("roc") / "roc.csv"
    argv = ["roc", "--q", "1", "--trials", "400", "--seed", "21",
            "--pfa-grid", "0.1,0.3", "--out", str(out)]
    assert run(argv) == 0
    return argv, out


def test_roc_csv_shape(roc_args):
    _, out = roc_args
    lines = _read(out).strip().split("\n")
    assert lines[0] == "detector,q,eta,p_fa_hat,p_d_hat,p_fa_theory,p_d_theory,n0,n1"
    assert len(lines) == 3  # header + one row per grid point
    row = lines[1].split(",")
    assert row[0] == "rao" and row[1] == "1"
    assert row[7] == "400" and row[8] == "400"


def test_roc_rerun_byte_identical(roc_args, tmp_path):
    argv, out = roc_args
    again = tmp_path / "again.csv"
    argv2 = argv[:-1] + [str(again)]
    assert run(argv2) == 0
    assert _read(again) == _read(out)


def test_roc_reuses_threshold_file(tmp_path, capsys):
    ts_file = tmp_path / "q2.txt"
    assert run(["thresholds", "--q", "2", "--seed", "5", "--out", str(ts_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "roc.csv"
    code = run(["roc", "--q", "2", "--trials", "200", "--seed", "6",
                "--thresholds", str(ts_file), "--eta-grid", "2,6",
                "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert f"thresholds file {ts_file}" in captured.out
    assert captured.err == ""
    # a depth the file does not hold is designed, and stderr says so
    code = run(["roc", "--detectors", "1,2", "--trials", "200", "--seed", "6",
                "--thresholds", str(ts_file), "--eta-grid", "2,6", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {ts_file} holds a 2-bit design; designing q=1 by swarm\n"
    assert "detector rao q=1: thresholds swarm," in captured.out
    assert f"detector rao q=2: thresholds file {ts_file}," in captured.out


def test_roc_degenerate_threshold_file_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2; 40.0,41.0,42.0\n")  # outer bins carry no mass
    out = tmp_path / "roc.csv"
    code = run(["roc", "--q", "2", "--trials", "100", "--seed", "1",
                "--thresholds", str(bad), "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["pd-snr", "--detectors", "inf,2", "--snr-grid=-10,-8,-6"],
    ["roc", "--detectors", "inf,2"],
], ids=lambda argv: argv[0])
def test_empty_bin_in_any_detector_exits_2_before_any_trial(argv, tmp_path, monkeypatch,
                                                             capsys):
    # every detector's lambda_F is computed before the first trial, so a
    # 2-bit file whose outer bins carry no mass stops pd-snr before the
    # GLRT listed ahead of it runs (the GLRT alone would be five engine calls)
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return montecarlo.run_trials(cfg)

    monkeypatch.setattr(cli, "run_trials", counting)
    bad = tmp_path / "bad.txt"
    bad.write_text("2; 40.0,41.0,42.0\n")
    out = tmp_path / "o.csv"
    assert run([*argv, "--thresholds", str(bad), "--trials", "200", "--seed", "1",
                "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "2 -0.9,0.0,0.9\n"], ids=["missing", "malformed"])
@pytest.mark.parametrize("argv", [
    ["roc", "--detectors", "inf"],
    ["pd-snr", "--detectors", "inf", "--snr-grid=-10"],
], ids=lambda argv: argv[0])
def test_glrt_only_run_checks_its_threshold_file_before_any_trial(argv, content, tmp_path,
                                                                  monkeypatch, capsys):
    # a given --thresholds is read and checked even when no detector is
    # quantized, so a missing or malformed file exits 1 before any trial
    calls = []
    monkeypatch.setattr(cli, "run_trials", calls.append)
    path = tmp_path / "q.txt"
    if content is not None:
        path.write_text(content)
    out = tmp_path / "o.csv"
    assert run([*argv, "--thresholds", str(path), "--trials", "50", "--seed", "1",
                "--out", str(out)]) == 1
    assert calls == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_roc_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 300\nseed = 8\nq = 1\npfa_grid = 0.1\n")
    out = tmp_path / "roc.csv"
    assert run(["roc", "--config", str(cfg), "--trials", "150",
                "--out", str(out)]) == 0
    rows = _read(out).strip().split("\n")
    assert rows[1].split(",")[7] == "150"  # flag beat the file


def test_config_values_keep_their_hash(tmp_path, capsys):
    # a '#' inside a path is part of it; only one after whitespace starts a comment
    design, out = tmp_path / "q#1.txt", tmp_path / "a#1.csv"
    assert run(["thresholds", "--q", "1", "--seed", "1", "--out", str(design)]) == 0
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"thresholds_path = {design}  # the design\nout = {out}   # note\n"
                   "pfa_grid = 0.1 # one point\n")
    assert run(["roc", "--config", str(cfg), "--detectors", "1", "--seed", "1",
                "--trials", "200"]) == 0
    assert f"thresholds file {design}," in capsys.readouterr().out
    assert len(_read(out).strip().split("\n")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a#1.csv", "exp.cfg", "q#1.txt"]


def test_q_overrides_detectors(tmp_path):
    # with both set, by flag or in a config file, --q is the one detector
    # and --detectors is ignored: the CSV is that of --q alone
    common = ["--trials", "200", "--seed", "1", "--pfa-grid", "0.1"]
    alone, both, from_file = (tmp_path / f"{name}.csv" for name in ("alone", "both", "file"))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("q = 2\ndetectors = 1,inf\n")
    assert run(["roc", "--q", "2", *common, "--out", str(alone)]) == 0
    assert run(["roc", "--q", "2", "--detectors", "1,inf", *common, "--out", str(both)]) == 0
    assert run(["roc", "--config", str(cfg), *common, "--out", str(from_file)]) == 0
    rows = _read(alone).strip().split("\n")[1:]
    assert [row.split(",")[:2] for row in rows] == [["rao", "2"]]
    assert _read(both) == _read(alone) and _read(from_file) == _read(alone)


# SHA-256 of CSVs written by the pd-eta command before it was folded into
# roc --eta-grid: the fold moved no byte
_ETA_GRID_SHA256 = {
    "default scene": "1fe7f3ce4b67504c35ea0404561abef0e3731b727631c72b514b0964acf56779",
    "large scene": "1285b712db030c894d519a48b07a633a208e6b3bb0d510557f18034d3c435bc8",
}
_LARGE_SCENE_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "large_scene.cfg"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("default scene", ["--detectors", "1,inf", "--snr-db=-14", "--eta-grid=10,0,2,4,6,8",
                           "--trials", "2000", "--seed", "3"]),
        ("large scene", ["--config", str(_LARGE_SCENE_CFG), "--q", "3", "--snr-db=-22",
                         "--eta-grid=1,5,9", "--trials", "300", "--seed", "4", "--workers", "2"]),
    ],
)
def test_roc_eta_grid_matches_pinned_bytes(name, argv, tmp_path):
    # the grid is sorted ascending, so the first case's rows run 0, 2, ..., 10
    out = tmp_path / "roc.csv"
    assert run(["roc", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _ETA_GRID_SHA256[name]


@pytest.mark.parametrize(
    "argv, config",
    [
        (["roc", "--q", "1", "--trials", "200", "--seed", "3", "--pfa-grid", "0.1",
          "--eta-grid", "4"], None),
        (["roc", "--q", "1", "--trials", "200", "--seed", "3", "--eta-grid", "4"],
         "pfa_grid = 0.1\n"),
        (["roc", "--q", "1", "--trials", "200", "--seed", "3", "--pfa-grid", "0.1"],
         "eta_grid = 4\n"),
    ],
    ids=["roc --pfa-grid 0.1 --eta-grid 4", "roc --eta-grid, config pfa_grid",
         "roc --pfa-grid, config eta_grid"],
)
def test_roc_takes_one_grid(argv, config, tmp_path, monkeypatch, capsys):
    # a false-alarm grid and a threshold grid together, by flag or config,
    # exit 1 before any design or trial, and nothing is written
    def never(*args, **kwargs):
        raise AssertionError("a design or a trial ran")

    monkeypatch.setattr(cli, "optimize_thresholds", never)
    monkeypatch.setattr(cli, "run_trials", never)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = argv + ["--config", "exp.cfg"]
    assert run(argv) == 1
    assert [p.name for p in tmp_path.iterdir()] == (["exp.cfg"] if config else [])
    assert capsys.readouterr() == ("", "error: roc: set pfa_grid or eta_grid, not both\n")


def test_roc_missing_seed_fails(tmp_path):
    assert run(["roc", "--q", "1", "--trials", "100",
                "--out", str(tmp_path / "r.csv")]) == 1


def test_roc_bad_detector_token(tmp_path):
    assert run(["roc", "--detectors", "fast", "--trials", "50", "--seed", "1",
                "--out", str(tmp_path / "r.csv")]) == 1


def test_roc_eta_grid_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["roc", "--q", "1", "--trials", "200", "--seed", "3", "--eta-grid", "1,5,9"])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["roc.csv"]
    etas = [line.split(",")[2] for line in _read(tmp_path / "roc.csv").strip().split("\n")[1:]]
    assert etas == ["1.0", "5.0", "9.0"]


# --------------------------------------------------------------------- pd-snr


def test_pd_snr_rows_and_header(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["pd-snr", "--q", "1", "--trials", "1200", "--seed", "13",
                "--pfa", "0.1", "--snr-grid=-10,-2", "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")
    assert lines[0] == ("detector,q,snr_db,p_fa_target,eta_asymptotic,"
                        "p_d_at_asymptotic_eta,p_d_at_empirical_eta,trials")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "-10.0"


def test_pd_snr_multiple_detectors(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run(["pd-snr", "--detectors", "1,inf", "--trials", "400", "--seed", "17",
                "--pfa", "0.25", "--snr-grid=-6", "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")[1:]
    assert [l.split(",")[1] for l in lines] == ["1", "inf"]
    # one threshold-origin line per detector, as roc prints them
    assert capsys.readouterr().out == (
        "detector rao q=1: thresholds swarm\n"
        "detector glrt q=inf: thresholds exact\n"
        f"wrote 2 rows to {out}\n"
    )


_SMALL_SCENE = "n_tx = 2\nn_rx = 4\nsnapshots = 4\n"  # n = 32


def _sweep(tmp_path, grid, detectors, trials, seed):
    """Rows of a pd-snr run (pfa 0.1) on the small scene, as lists of CSV fields."""
    cfg, out = tmp_path / "small.cfg", tmp_path / "sweep.csv"
    cfg.write_text(_SMALL_SCENE)
    assert run(["pd-snr", "--config", str(cfg), "--detectors", detectors, "--pfa", "0.1",
                f"--snr-grid={grid}", "--trials", str(trials), "--seed", str(seed),
                "--out", str(out)]) == 0
    return [line.split(",") for line in _read(out).strip().split("\n")[1:]]


def test_pd_snr_rows_and_monotonicity(tmp_path):
    rows = _sweep(tmp_path, "-10,-4,2", "2,inf", 2000, seed=31)
    assert [r[1] for r in rows] == ["2", "2", "2", "inf", "inf", "inf"]
    assert all(float(r[4]) == chi2_2_quantile(0.1) for r in rows)
    assert all(r[7] == "2000" for r in rows)
    assert all(0.0 <= float(r[5]) <= 1.0 for r in rows)
    slack = 3.0 * np.sqrt(0.25 / 2000)
    for i in (0, 3):  # each detector's rates climb with SNR (3 sigma slack)
        rates = [float(rows[i + k][6]) for k in range(3)]
        assert rates[0] <= rates[1] + slack and rates[1] <= rates[2] + slack


def test_pd_snr_points_stable_under_grid_extension(tmp_path):
    # sub-seeds are keyed by position, so appending an SNR point or a detector
    # leaves the earlier rows unchanged (inserting one can move the rows after it)
    one = _sweep(tmp_path, "-8", "2", 1500, seed=37)
    two = _sweep(tmp_path, "-8,-2", "2", 1500, seed=37)
    assert len(two) == 2 and one[0] == two[0]
    with_glrt = _sweep(tmp_path, "-8,-2", "2,inf", 1500, seed=37)
    assert [r[1] for r in with_glrt] == ["2", "2", "inf", "inf"] and with_glrt[:2] == two


def test_pd_snr_ignores_a_config_snr_db(tmp_path):
    # pd-snr takes every SNR from its grid, so a config's snr_db, even one
    # whose |beta| would overflow, changes no byte
    cfg, plain, keyed = tmp_path / "exp.cfg", tmp_path / "plain.csv", tmp_path / "keyed.csv"
    cfg.write_text("snr_db = 4000\n")
    argv = ["pd-snr", "--detectors", "1,inf", "--pfa", "0.1", "--snr-grid=-8", "--trials", "500",
            "--seed", "5"]
    assert run([*argv, "--out", str(plain)]) == 0
    assert run([*argv, "--config", str(cfg), "--out", str(keyed)]) == 0
    assert keyed.read_bytes() == plain.read_bytes()


def test_pd_snr_thin_tail_warns_in_one_plain_line(tmp_path, capsys):
    code = run(["pd-snr", "--q", "1", "--trials", "2000", "--pfa", "0.01", "--seed", "3",
                "--snr-grid=-6", "--out", str(tmp_path / "sweep.csv")])
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: p_fa * trials = 20 < 100: false-alarm tail is thinly sampled "
        "and the empirical threshold will be noisy\n"
    )


# ----------------------------------------------------------------------- pool

class _CountingPool(montecarlo.ProcessPoolExecutor):
    """The engine's executor, recording each pool built."""

    built: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.built.append(self)


_CHUNK_STATS = montecarlo._chunk_stats


def _chunk_stats_failing_under_h1(cfg, hypothesis, start, stop):
    # pd-snr's first engine call simulates H0 only, its second H1 only
    if hypothesis == Hypothesis.H1:
        raise DegenerateBinError("a bin carries no mass")
    return _CHUNK_STATS(cfg, hypothesis, start, stop)


@pytest.fixture
def counting_pool(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a pool of two even on one CPU
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", _CountingPool)
    monkeypatch.setattr(_CountingPool, "built", [])
    return _CountingPool.built


@pytest.mark.parametrize("argv", [
    ["pd-snr", "--detectors", "1,inf", "--pfa", "0.25", "--snr-grid=-6,-2"],
    ["roc", "--detectors", "1,inf", "--pfa-grid", "0.1,0.3"],
], ids=lambda argv: argv[0])
def test_one_pool_per_command(argv, tmp_path, counting_pool):
    # every engine call of a command (six for pd-snr, two for roc) runs on
    # one pool, none at one worker, and the pool is shut down, its
    # processes joined, before main returns; the bytes are those of the
    # in-process run
    csv = {}
    for workers, pools in (("1", 0), ("2", 1)):
        out = tmp_path / f"w{workers}.csv"
        assert run([*argv, "--trials", "400", "--seed", "9", "--workers", workers,
                    "--out", str(out)]) == 0
        assert len(counting_pool) == pools
        assert multiprocessing.active_children() == []
        csv[workers] = out.read_bytes()
    assert csv["2"] == csv["1"]
    assert montecarlo._pool is None


def test_pool_closes_when_an_engine_call_fails(tmp_path, counting_pool, monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "_chunk_stats", _chunk_stats_failing_under_h1)
    code = run(["pd-snr", "--detectors", "inf", "--pfa", "0.25", "--snr-grid=-6",
                "--trials", "400", "--seed", "9", "--workers", "2",
                "--out", str(tmp_path / "sweep.csv")])
    assert code == 2
    assert capsys.readouterr().err == "numerical failure: a bin carries no mass\n"
    assert multiprocessing.active_children() == []
    assert montecarlo._pool is None and len(counting_pool) == 1
    # the slot is clear, so the next engine call opens a pool of its own
    cfg = montecarlo.TrialConfig(SceneConfig(), GlrtDetector(), 400, 0, seed=9, workers=2)
    h0, _ = montecarlo.run_trials(cfg)
    assert h0.shape == (400,) and len(counting_pool) == 2
    assert multiprocessing.active_children() == []


def test_run_too_large_for_memory_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    # numpy's allocation failure is a MemoryError; the command reports it
    # in one error line, as any other run it cannot do, and writes nothing
    def out_of_memory(cfg, hypothesis, start, stop):
        raise MemoryError(f"Unable to allocate {8 * (stop - start)} bytes")

    monkeypatch.setattr(montecarlo, "_chunk_stats", out_of_memory)
    out = tmp_path / "roc.csv"
    code = run(["roc", "--detectors", "inf", "--trials", "3000", "--seed", "1",
                "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: Unable to allocate 24000 bytes\n"
    assert not out.exists()


def _chunk_stats_dying(cfg, hypothesis, start, stop):
    os._exit(9)  # the worker process dies mid-range


def test_dead_worker_exits_1_in_one_line(tmp_path, monkeypatch, capsys):
    # a pool whose worker died is reported as any other run the command
    # cannot do: one error line, no output file, the pool's slot cleared
    monkeypatch.setattr("os.cpu_count", lambda: 2)  # a pool of two even on one CPU
    monkeypatch.setattr(montecarlo, "_chunk_stats", _chunk_stats_dying)
    out = tmp_path / "roc.csv"
    code = run(["roc", "--detectors", "inf", "--trials", "400", "--workers", "2",
                "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    assert montecarlo._pool is None
    assert multiprocessing.active_children() == []


class _Interrupt(BaseException):
    """Stands in for a KeyboardInterrupt, or a probe that stops at the engine."""


def test_interrupt_before_the_first_engine_call_forks_nothing(tmp_path, counting_pool,
                                                               monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def interrupt(cfg):
        raise _Interrupt

    monkeypatch.setattr(cli, "run_trials", interrupt)
    with pytest.raises(_Interrupt):
        run(["pd-snr", "--detectors", "inf", "--pfa", "0.25", "--snr-grid=-6",
             "--trials", "400", "--seed", "9", "--workers", "2",
             "--out", str(tmp_path / "sweep.csv")])
    assert len(counting_pool) == 1 and forks == []
    assert montecarlo._pool is None
    assert multiprocessing.active_children() == []


def test_commands_without_a_pool_import_no_pool_stack(tmp_path):
    # the pool stack (multiprocessing, socket, subprocess) is imported when
    # a pool is first built, so a one-process command never loads it; a
    # read of montecarlo.ProcessPoolExecutor imports it and keeps the class
    # as a module global, and other names still raise AttributeError.  A
    # fresh interpreter sees what the commands load, which this suite's own
    # imports would hide.
    script = (
        "import sys\n"
        "from quantdet import cli, montecarlo\n"
        "assert cli.main(['roc', '--detectors', '1,inf', '--trials', '200', '--workers', '1',\n"
        "                 '--seed', '1', '--out', 'r.csv']) == 0\n"
        "assert cli.main(['thresholds', '--q', '2', '--seed', '7', '--out', 'q2.txt']) == 0\n"
        "assert cli.main(['theory', '--out', 't.csv']) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "assert montecarlo.ProcessPoolExecutor is ProcessPoolExecutor\n"
        "assert vars(montecarlo)['ProcessPoolExecutor'] is ProcessPoolExecutor\n"
        "assert not hasattr(montecarlo, 'ThreadPoolExecutor')\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "False"


# --------------------------------------------------------------------- theory

def test_theory_needs_no_seed(tmp_path):
    out = tmp_path / "theory.csv"
    assert run(["theory", "--out", str(out)]) == 0
    lines = _read(out).strip().split("\n")
    assert lines[0] == "p_fa,eta,lambda_f,p_d_theory"
    assert len(lines) == 26  # default 25-point grid


def test_theory_zero_signal_curve_equals_diagonal(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("beta_r = 0.0\nbeta_i = 0.0\n")
    out = tmp_path / "theory.csv"
    assert run(["theory", "--config", str(cfg), "--out", str(out),
                "--pfa-grid", "0.001,0.01,0.1"]) == 0
    for line in _read(out).strip().split("\n")[1:]:
        p_fa, _eta, lam, p_d = line.split(",")
        assert float(lam) == 0.0
        assert float(p_d) == pytest.approx(float(p_fa), rel=1e-10)


def test_theory_quantized_needs_seed_for_design(tmp_path):
    # a q-bit theory curve without a checkpoint file must design
    # thresholds, which requires a seed
    assert run(["theory", "--q", "2", "--out", str(tmp_path / "t.csv")]) == 1
    assert run(["theory", "--q", "2", "--seed", "9",
                "--out", str(tmp_path / "t.csv")]) == 0


def test_theory_from_checkpoint_matches_direct_noncentrality(tmp_path, capsys):
    ts_file = tmp_path / "q1.txt"
    assert run(["thresholds", "--q", "1", "--seed", "2", "--out", str(ts_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "t.csv"
    assert run(["theory", "--thresholds", str(ts_file), "--snr-db=-14",
                "--out", str(out), "--pfa-grid", "0.01"]) == 0
    lam_col = float(_read(out).strip().split("\n")[1].split(",")[2])
    from quantdet.detectors import RaoDetector
    from quantdet.signal_model import SceneConfig

    scene = SceneConfig(n_tx=2, n_rx=16, snapshots=8).with_snr_db(-14.0)
    ts, _ = read_checkpoint(ts_file)
    want = RaoDetector(ts).noncentrality(scene)
    assert lam_col == pytest.approx(want, rel=1e-12)


def test_theory_q_designs_when_the_file_has_other_bits(tmp_path, capsys):
    # --q wins over a threshold file of another depth, as in roc: the
    # curve is for a fresh q=3 design, not for the q=2 file
    ts_file = tmp_path / "q2.txt"
    assert run(["thresholds", "--q", "2", "--seed", "1", "--out", str(ts_file)]) == 0
    capsys.readouterr()
    out = tmp_path / "t.csv"
    assert run(["theory", "--q", "3", "--thresholds", str(ts_file), "--seed", "1",
                "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "theory curve for rao q=3 (thresholds swarm)" in captured.out
    assert captured.err == f"warning: {ts_file} holds a 2-bit design; designing q=3 by swarm\n"
    direct = tmp_path / "direct.csv"
    assert run(["theory", "--q", "3", "--seed", "1", "--out", str(direct)]) == 0
    assert _read(out) == _read(direct)


def test_theory_q_uses_a_file_of_the_same_bits(tmp_path, capsys, monkeypatch):
    # --q with a file of that depth reads the file, as roc does, and writes
    # the bytes of the file alone; no swarm runs and nothing goes to stderr
    ts_file = tmp_path / "q2.txt"
    assert run(["thresholds", "--q", "2", "--seed", "1", "--out", str(ts_file)]) == 0

    def no_design(*args, **kwargs):
        raise AssertionError("optimize_thresholds was called")

    monkeypatch.setattr(cli, "optimize_thresholds", no_design)
    capsys.readouterr()
    out, alone = tmp_path / "t.csv", tmp_path / "alone.csv"
    assert run(["theory", "--q", "2", "--thresholds", str(ts_file), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"theory curve for rao q=2 (thresholds file {ts_file})," in captured.out
    assert captured.err == ""
    assert run(["theory", "--thresholds", str(ts_file), "--out", str(alone)]) == 0
    assert f"theory curve for rao q=2 (thresholds file {ts_file})," in capsys.readouterr().out
    assert out.read_bytes() == alone.read_bytes()


def test_theory_reads_its_threshold_file_once(tmp_path, monkeypatch, capsys):
    # the file both picks the detector (its bit depth) and supplies its design
    reads = []

    def counting(path):
        reads.append(path)
        return read_checkpoint(path)

    monkeypatch.setattr(cli, "read_checkpoint", counting)
    ts_file = tmp_path / "q2.txt"
    ts_file.write_text("2; -0.9,0.0,0.9\n")
    assert run(["theory", "--thresholds", str(ts_file), "--out", str(tmp_path / "t.csv")]) == 0
    assert reads == [str(ts_file)]
    assert f"theory curve for rao q=2 (thresholds file {ts_file})," in capsys.readouterr().out


# SHA-256 of theory CSVs recorded from the Marcum series before the theory
# column moved into asymptotic_pd: a change to any written bit shows here
_THEORY_SHA256 = {
    "glrt": "ef4b9f9bf62824a0f10f92aade7c97830366f5828a94aec16858d5803a2c1f48",
    "q3": "0c175fd7b3fe4dd39b9b12b84bab637aceebd74048a7f49f9750bb603f87a7c2",
    "200 dB": "ec41808b24232dca5c77e9218e0e32d6abdf56632c6ded597096a9355e3214f4",
}


@pytest.mark.parametrize(
    "name, argv",
    [
        ("glrt", []),
        ("q3", ["--q", "3", "--seed", "4", "--snr-db=-12"]),
        ("200 dB", ["--snr-db=200", "--pfa-grid", "1e-300,0.3"]),
    ],
)
def test_theory_csv_matches_pinned_bytes(name, argv, tmp_path):
    out = tmp_path / "theory.csv"
    assert run(["theory", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _THEORY_SHA256[name]


def test_theory_past_overflowing_noncentrality_detects_surely(tmp_path, capsys):
    # lambda_F overflows to inf near 3,062 dB on the default scene; the
    # Marcum limit there is certain detection, without a warning
    out = tmp_path / "theory.csv"
    assert run(["theory", "--snr-db=3070", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [line.split(",") for line in _read(out).strip().split("\n")[1:]]
    assert len(rows) == 25
    assert all(lam == "inf" and p_d == "1.0" for _, _, lam, p_d in rows)


def test_theory_column_equals_estimate_roc(tmp_path):
    # the theory command and estimate_roc give the same p_d_theory at the
    # same eta and lambda_f, to the last bit
    out = tmp_path / "t.csv"
    assert run(["theory", "--q", "2", "--seed", "3", "--snr-db=-10",
                "--pfa-grid", "1e-4,0.01,0.3", "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")] for line in _read(out).strip().split("\n")[1:]]
    _, eta, lam, p_d = map(np.array, zip(*rows))
    curve = estimate_roc(np.zeros(1), np.zeros(1), lam[0], eta)
    assert curve.p_d_theory.tolist() == p_d.tolist()


@pytest.mark.parametrize(
    "content",
    ["2 -0.9,0.0,0.9\n", "2; -0.9,0.9\n", "two; -0.9,0.0,0.9\n", "# seed = 1\n",
     "2; -0.9,0.0,0.9\n1; 0.0\n"],
    ids=["no-separator", "count-mismatch", "non-integer-bits", "no-payload", "two-payloads"],
)
def test_malformed_threshold_file_exits_1_before_any_trial(content, tmp_path, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials was called")

    def no_design(*args, **kwargs):
        raise AssertionError("optimize_thresholds was called")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    monkeypatch.setattr(cli, "optimize_thresholds", no_design)
    bad = tmp_path / "bad.txt"
    bad.write_text(content)
    out = tmp_path / "roc.csv"
    assert run(["roc", "--q", "2", "--trials", "100", "--seed", "1",
                "--thresholds", str(bad), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("bits", [0, 9, 64])
@pytest.mark.parametrize("command", ["roc", "theory"])
def test_threshold_file_bit_depth_bounded_before_any_design(command, bits, tmp_path,
                                                            monkeypatch, capsys):
    # a file's bit depth must lie in 1..8, as --q's does; 2^bits is never
    # formed for one outside (a 9-bit file holds its full 511 thresholds)
    def never(*args, **kwargs):
        raise AssertionError("a design or a trial ran")

    monkeypatch.setattr(cli, "optimize_thresholds", never)
    monkeypatch.setattr(cli, "run_trials", never)
    monkeypatch.setattr(optimizer, "ThresholdSet", never)
    count = 2 ** bits - 1 if bits == 9 else 1
    path = tmp_path / "q.txt"
    path.write_text(f"{bits}; " + ",".join(str(k / 100) for k in range(count)) + "\n")
    out = tmp_path / "o.csv"
    assert run([command, "--thresholds", str(path), "--seed", "1", "--out", str(out)]) == 1
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: threshold file bit depth must be in 1..8, got {bits}\n"


# ------------------------------------------------------------------- selftest

def test_selftest_pass_exit_zero(monkeypatch, capsys):
    fake = [CheckResult("a", True, "ok"), CheckResult("b", True, "ok")]
    monkeypatch.setattr(cli, "run_selftest", lambda **kw: fake)
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "check=a status=pass ok" in out
    assert "all checks passed" in out


def test_selftest_failure_exit_three(monkeypatch, capsys):
    fake = [CheckResult("a", True, "ok"), CheckResult("b", False, "bad")]
    monkeypatch.setattr(cli, "run_selftest", lambda **kw: fake)
    assert run(["selftest"]) == 3
    assert "check=b status=FAIL bad" in capsys.readouterr().out


def test_selftest_forwards_seed_and_trials(monkeypatch):
    seen = {}

    def spy(**kw):
        seen.update(kw)
        return [CheckResult("a", True, "ok")]

    monkeypatch.setattr(cli, "run_selftest", spy)
    assert run(["selftest", "--seed", "77", "--trials", "123"]) == 0
    assert seen == {"seed": 77, "trials": 123}


# ------------------------------------------------------------------ plumbing

def test_usage_errors_exit_one():
    assert run([]) == 1
    assert run(["no-such-command"]) == 1
    assert run(["roc", "--trials", "ten"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "thresholds" in capsys.readouterr().out


# a text each flag reads, and one it rejects (None: any text is a valid string)
_FLAG_TEXTS = {
    "--q": ("3", "x"),
    "--snr-db": ("-14.5", "loud"),
    "--pfa": ("0.05", "1e"),
    "--trials": ("12", "1.5"),
    "--seed": ("7", "seven"),
    "--out": ("o.csv", None),
    "--thresholds": ("q2.txt", None),
    "--workers": ("2", "two"),
    "--detectors": ("2, inf", None),
    "--pfa-grid": ("0.01,0.1", "0.1,x"),
    "--eta-grid": ("0,4.5", "4;5"),
    "--snr-grid": ("-16,-12.5", "-16,,x"),
}


def test_flags_read_texts_as_their_config_keys(tmp_path, monkeypatch, capsys):
    # a flag's value is read exactly as the same key in a config file; a text
    # the config rejects, the flag rejects too, with a message naming the flag
    assert set(_FLAG_TEXTS) == set(cli._FLAGS) - {"--config"}
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    for flag, (good, bad) in _FLAG_TEXTS.items():
        key = cli._FLAGS[flag][0]
        command = next(c for c, (_, _, flags) in cli._SUBCOMMANDS.items() if flag in flags)
        args = parser.parse_args([command, f"{flag}={good}"])
        assert getattr(args, key) == getattr(parse_config(f"{key} = {good}"), key), flag
        if bad is None:
            continue
        with pytest.raises(ConfigError):
            parse_config(f"{key} = {bad}")
        assert run([command, f"{flag}={bad}"]) == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid value: {bad!r}" in err
        assert "functools.partial" not in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["roc", "--q", "9", "--seed", "1"], None),
        (["pd-snr", "--detectors", "1,9", "--seed", "1"], None),
        (["theory", "--q", "9", "--seed", "1"], None),
        (["roc", "--seed", "1"], "detectors = 2,x\n"),
        (["roc", "--pfa-grid=0.1,nan", "--seed", "1"], None),
        (["pd-snr", "--snr-grid=-6,nan", "--trials", "20000", "--seed", "1"], None),
        (["roc", "--eta-grid=1,nan", "--seed", "1"], None),
        (["roc", "--eta-grid=-5,1", "--seed", "1"], None),
        (["theory", "--snr-db=4000"], None),
        (["pd-snr", "--snr-grid=4000", "--seed", "1"], None),
        (["roc", "--seed", "1"], "pfa_grid = 0.5,1.0\n"),
        (["pd-snr", "--seed", "1"], "command = roc\n"),
        (["roc", "--detectors", "inf", "--seed", "-1"], None),
        (["pd-snr", "--detectors", "inf", "--trials", "2000", "--seed", "-1"], None),
        (["selftest", "--seed", "-1"], None),
        (["thresholds", "--q", "2", "--seed", "1"], "inertia = nan\n"),
        (["roc", "--detectors", "inf", "--pfa-grid=", "--trials", "300", "--seed", "1"], None),
        (["roc", "--detectors", "inf", "--eta-grid=", "--trials", "300", "--seed", "1"], None),
        (["pd-snr", "--snr-grid=", "--seed", "1"], None),
        (["theory", "--pfa-grid="], None),
        (["theory", "--out="], None),
        (["theory"], "out =\n"),
        (["roc", "--thresholds=", "--seed", "1"], None),
        (["selftest", "--trials", "1"], None),
        (["theory", "--config="], None),
        (["thresholds", "--q", "3", "--seed", "1", "--out", "missing/q3.txt"], None),
        (["roc", "--detectors", "1,inf", "--trials", "2000", "--seed", "1",
          "--out", "missing/roc.csv"], None),
        (["roc", "--detectors", "inf", "--trials", "300", "--seed", "1", "--out", "."], None),
        (["pd-snr", "--detectors", "inf", "--trials", "300", "--seed", "1",
          "--out", "missing/pd_snr.csv"], None),
        (["theory", "--q", "2", "--seed", "1", "--out", "."], None),
        (["pd-snr", "--pfa", "0", "--seed", "1"], None),
        (["pd-snr", "--pfa", "1", "--seed", "1"], None),
        (["pd-snr", "--seed", "1"], "pfa = 1.0\n"),
        (["roc", "--detectors", "1,inf", "--snr-db=3044", "--seed", "1"], None),
        (["roc", "--detectors", "1,inf", "--seed", "1"], "snr_db = 3044\n"),
        (["pd-snr", "--snr-grid=-6,3044", "--seed", "1"], None),
        (["roc", "--detectors", "1,01,+1", "--seed", "1", "--trials", "200",
          "--pfa-grid", "0.1"], None),
        (["roc", "--detectors", "1,1", "--seed", "1", "--trials", "200"], None),
        (["pd-snr", "--seed", "1", "--trials", "200"], "detectors = inf,2,inf\n"),
        # 32 B per trial: about 3 TB of statistics
        (["roc", "--detectors", "1,2,3", "--trials", "100000000000", "--seed", "1"], None),
        (["pd-snr", "--detectors", "1,2,3", "--trials", "100000000000", "--seed", "1"], None),
    ],
    ids=["roc --q 9", "pd-snr --detectors 1,9", "theory --q 9", "config detectors = 2,x",
         "roc --pfa-grid=0.1,nan", "pd-snr --snr-grid=-6,nan", "roc --eta-grid=1,nan",
         "roc --eta-grid=-5,1", "theory --snr-db=4000", "pd-snr --snr-grid=4000",
         "config pfa_grid = 0.5,1.0",
         "config command = roc", "roc --seed -1", "pd-snr --seed -1", "selftest --seed -1",
         "config inertia = nan", "roc --pfa-grid=", "roc --eta-grid=",
         "pd-snr --snr-grid=", "theory --pfa-grid=", "theory --out=", "config out =",
         "roc --thresholds=", "selftest --trials 1", "theory --config=",
         "thresholds --out missing/q3.txt", "roc --out missing/roc.csv", "roc --out .",
         "pd-snr --out missing/pd_snr.csv", "theory --out .", "pd-snr --pfa 0",
         "pd-snr --pfa 1", "config pfa = 1.0", "roc glrt --snr-db=3044",
         "roc glrt config snr_db = 3044", "pd-snr glrt --snr-grid=-6,3044",
         "roc --detectors 1,01,+1", "roc --detectors 1,1", "config detectors = inf,2,inf",
         "roc --trials 1e11", "pd-snr --trials 1e11"],
)
def test_bit_depth_checked_before_any_design(argv, config, tmp_path, monkeypatch, capsys):
    # q and every detector token must be 'inf' or 1..8, listed once, every
    # grid value and SNR usable, no setting empty, and the statistics must
    # fit in memory; a bad one fails with one error line before any
    # threshold is designed, any trial runs or anything is written
    def no_design(*args, **kwargs):
        raise AssertionError("optimize_thresholds was called")

    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials was called")

    for module in (cli, selftest):
        monkeypatch.setattr(module, "optimize_thresholds", no_design)
        monkeypatch.setattr(module, "run_trials", no_trials)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = argv + ["--config", "exp.cfg"]
    assert run(argv) == 1
    assert [p.name for p in tmp_path.iterdir()] == (["exp.cfg"] if config else [])
    captured = capsys.readouterr()
    assert captured.out == ""  # not even a detector line
    assert sum("error: " in line for line in captured.err.splitlines()) == 1


_BIG_SCENE = "n_tx = 4\nn_rx = 64\nsnapshots = 64\n"  # n = 16384: lambda_f = 2048 at 0 dB


@pytest.mark.parametrize(
    "argv, config",
    [
        (["roc", "--detectors", "inf", "--seed", "1", "--trials", "20000",
          "--eta-grid=2000", "--snr-db=10"], None),
        (["roc", "--detectors", "inf", "--seed", "1", "--snr-db=20"], None),
        (["theory", "--snr-db=0"], _BIG_SCENE),
        (["roc", "--detectors", "inf", "--snr-db=0", "--trials", "200", "--seed", "1"],
         _BIG_SCENE),
        (["theory", "--snr-db=200"], None),
        (["roc", "--detectors", "inf", "--seed", "1", "--snr-db=200"], None),
    ],
    ids=["roc --eta-grid=2000 --snr-db=10", "roc --snr-db=20",
         "theory 4x64x64 at 0 dB", "roc 4x64x64 at 0 dB",
         "theory --snr-db=200", "roc --snr-db=200"],
)
def test_theory_column_beyond_the_marcum_series_range(argv, config, tmp_path, monkeypatch):
    # an eta or a noncentrality past the Marcum series' reach (a^2/2 or
    # b^2/2 above 700) still gets its theory column, from the quadrature;
    # at 200 dB lambda_f is 1.28e22, where scipy's ncx2 has no value
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv = argv + ["--config", "exp.cfg"]
    assert run(argv + ["--out", "o.csv"]) == 0
    header, *rows = _read(tmp_path / "o.csv").strip().split("\n")
    col = header.split(",").index("p_d_theory")
    p_d_theory = [float(row.split(",")[col]) for row in rows]
    if "--eta-grid=2000" in argv:
        # lambda_f = 1280: the threshold sits ten deviations above the mean
        assert p_d_theory == [pytest.approx(ncx2.sf(2000.0, 2, 1280.0), rel=1e-9)]
        assert 0.0 < p_d_theory[0] < 1e-18
    else:
        assert p_d_theory == [1.0] * len(rows)


@pytest.mark.parametrize("detectors, snr_db", [("inf", 3043), ("2", 3050), ("inf", 3044)])
def test_glrt_statistic_overflow_fails_fast(detectors, snr_db, tmp_path, capsys):
    # on the default scene (E = 64) the noise-free |z^H x| = |beta| E squares
    # past the largest double between 3043 and 3044 dB; the Rao test never
    # squares it, so a Rao-only run keeps going
    out = tmp_path / "o.csv"
    code = run(["roc", "--detectors", detectors, f"--snr-db={snr_db}", "--seed", "1",
                "--trials", "200", "--out", str(out)])
    err = capsys.readouterr().err
    if snr_db == 3044:
        assert code == 1 and not out.exists()
        assert err.startswith("error: the GLRT statistic overflows") and err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        header, *rows = _read(out).strip().split("\n")
        col = header.split(",").index("p_d_hat")
        assert {row.split(",")[col] for row in rows} == {"1.0"}


def test_commands_load_no_scipy(tmp_path):
    # scipy is a test oracle only: no command imports any of it, not the
    # Gaussian tail under every bin mass and swarm design, nor a theory
    # column far past the Marcum series' range, nor a pool run; a fresh
    # interpreter sees what the commands load, which this suite's own
    # imports would hide
    script = (
        "import sys\n"
        "from quantdet import cli\n"
        "assert cli.main(['theory', '--snr-db=200', '--out', 't.csv']) == 0\n"
        "assert cli.main(['roc', '--detectors', 'inf', '--snr-db=200', '--trials', '200',\n"
        "                 '--seed', '1', '--out', 'r.csv']) == 0\n"
        "assert cli.main(['thresholds', '--q', '2', '--seed', '7', '--out', 'q2.txt']) == 0\n"
        "assert cli.main(['roc', '--q', '2', '--thresholds', 'q2.txt', '--trials', '200',\n"
        "                 '--seed', '1', '--out', 'q.csv']) == 0\n"
        "assert cli.main(['pd-snr', '--detectors', '1,inf', '--pfa', '0.1', '--snr-grid=-10',\n"
        "                 '--trials', '1000', '--workers', '2', '--seed', '1',\n"
        "                 '--out', 'p.csv']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_config_file_missing_exits_one(tmp_path):
    assert run(["roc", "--config", str(tmp_path / "ghost.cfg"), "--seed", "1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--snr-grid=-3"],
        ["selftest", "--q", "2"],
        ["theory", "--trials", "5"],
        ["theory", "--workers", "2"],
        ["thresholds", "--q", "1", "--seed", "1", "--trials", "5"],
        ["thresholds", "--q", "1", "--seed", "1", "--thresholds", "q1.txt"],
        ["roc", "--q", "1", "--seed", "1", "--pfa", "0.1"],
        ["pd-snr", "--q", "1", "--seed", "1", "--pfa-grid", "0.1"],
        ["pd-snr", "--q", "1", "--seed", "1", "--eta-grid", "4"],
        # pd-eta is folded into roc --eta-grid: the old command is a usage error
        ["pd-eta", "--q", "1", "--seed", "1", "--snr-grid=-3"],
        ["pd-eta", "--q", "1", "--seed", "1", "--pfa-grid", "0.1"],
        ["pd-snr", "--q", "1", "--seed", "1", "--snr-db=-3"],
        ["thresholds", "--q", "1", "--seed", "1", "--snr-db=-3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_subcommand_rejects_flags_it_does_not_read(argv, tmp_path, monkeypatch):
    # each subcommand registers only the flags it reads, so a flag meant
    # for another one is a usage error before anything runs
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert list(tmp_path.iterdir()) == []


def test_negative_grid_needs_equals_syntax(tmp_path):
    # "--snr-grid -10,-2" is eaten by argparse as a missing argument;
    # the documented form is --snr-grid=-10,-2 (covered above)
    assert run(["pd-snr", "--q", "1", "--trials", "50", "--seed", "1",
                "--snr-grid", "-10,-2", "--out", str(tmp_path / "s.csv")]) == 1

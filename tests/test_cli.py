"""End-to-end command-line behaviour: exit codes, files, determinism."""

import numpy as np
import pytest

from quantdet import cli
from quantdet.optimizer import read_checkpoint
from quantdet.selftest import CheckResult


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
    assert f"thresholds file {ts_file}" in capsys.readouterr().out


def test_roc_degenerate_threshold_file_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2; 40.0,41.0,42.0\n")  # outer bins carry no mass
    out = tmp_path / "roc.csv"
    code = run(["roc", "--q", "2", "--trials", "100", "--seed", "1",
                "--thresholds", str(bad), "--out", str(out)])
    assert code == 2


def test_roc_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("trials = 300\nseed = 8\nq = 1\neta_grid = 4.0\n")
    out = tmp_path / "roc.csv"
    assert run(["roc", "--config", str(cfg), "--trials", "150",
                "--out", str(out)]) == 0
    rows = _read(out).strip().split("\n")
    assert rows[1].split(",")[7] == "150"  # flag beat the file


def test_roc_missing_seed_fails(tmp_path):
    assert run(["roc", "--q", "1", "--trials", "100",
                "--out", str(tmp_path / "r.csv")]) == 1


def test_roc_bad_detector_token(tmp_path):
    assert run(["roc", "--detectors", "fast", "--trials", "50", "--seed", "1",
                "--out", str(tmp_path / "r.csv")]) == 1


# --------------------------------------------------------------- pd-eta / pd-snr

def test_pd_eta_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["pd-eta", "--q", "1", "--trials", "200", "--seed", "3",
                "--eta-grid", "1,5,9"])
    assert code == 0
    assert (tmp_path / "pd_eta.csv").exists()


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


def test_pd_snr_multiple_detectors(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["pd-snr", "--detectors", "1,inf", "--trials", "400", "--seed", "17",
                "--pfa", "0.25", "--snr-grid=-6", "--out", str(out)])
    assert code == 0
    lines = _read(out).strip().split("\n")[1:]
    assert [l.split(",")[1] for l in lines] == ["1", "inf"]


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
    from quantdet.perf_theory import noncentrality
    from quantdet.signal_model import SceneConfig, effective_signal

    scene = SceneConfig(n_tx=2, n_rx=16, snapshots=8).with_snr_db(-14.0)
    ts, _ = read_checkpoint(ts_file)
    want = noncentrality(scene.beta_complex, effective_signal(scene), ts, 2.0)
    assert lam_col == pytest.approx(want, rel=1e-12)


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
        ["pd-eta", "--q", "1", "--seed", "1", "--snr-grid=-3"],
        ["pd-snr", "--q", "1", "--seed", "1", "--pfa-grid", "0.1"],
        ["pd-snr", "--q", "1", "--seed", "1", "--eta-grid", "4"],
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

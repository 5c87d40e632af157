import dataclasses

import pytest

from quantdet.experiment import (
    ConfigError,
    ExperimentSpec,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)


def test_defaults():
    spec = ExperimentSpec()
    assert spec.n_rx == 16 and spec.snapshots == 8 and spec.noise_power == 2.0
    assert spec.detectors == ("1", "2", "3", "inf")
    assert spec.seed is None and spec.trials is None


def test_round_trip_is_exact():
    # every key set away from its default, so each annotation's parser runs
    spec = ExperimentSpec(
        command="roc",
        n_tx=3,
        n_rx=5,
        snapshots=4,
        wavelength=0.3,
        spacing=0.1,
        angle=-0.25,
        noise_power=1.5,
        beta_r=0.7,
        beta_i=-0.2,
        snr_db=-14.0,
        q=2,
        detectors=("2", "inf"),
        thresholds_path="q2.txt",
        pfa=0.012345678901234567,
        pfa_grid=(1e-4, 0.1),
        eta_grid=(0.0, 13.815510557964274),
        snr_grid_db=(-16.0, -12.5),
        trials=12345,
        seed=99,
        workers=2,
        swarm_size=20,
        max_iters=300,
        inertia=0.6,
        cognitive=1.2,
        social=1.7,
        stall_tol=1.0000000000000002e-09,
        stall_iters=25,
        search_radius=4.5,
        out="roc.csv",
    )
    fields = dataclasses.fields(spec)
    assert len(fields) == 30
    assert all(getattr(spec, f.name) != f.default for f in fields)
    assert parse_config(serialize_config(spec)) == spec


def test_parse_comments_and_blanks():
    spec = parse_config(
        """
        # full-width comment
        command = theory
        pfa = 0.05   # trailing comment
        n_rx = 4
        """
    )
    assert spec.command == "theory"
    assert spec.pfa == 0.05
    assert spec.n_rx == 4


def test_parse_tuple_values():
    spec = parse_config("snr_grid_db = -16,-12,-8\ndetectors = 1, inf\n")
    assert spec.snr_grid_db == (-16.0, -12.0, -8.0)
    assert spec.detectors == ("1", "inf")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*swarm_sz"):
        parse_config("command = roc\nswarm_sz = 50\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate.*seed"):
        parse_config("command = roc\nseed = 1\nseed = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1.*trials"):
        parse_config("trials = soon\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(command="explode")
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        ExperimentSpec(seed=-1)
    with pytest.raises(ConfigError):
        ExperimentSpec(trials=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(pfa=0.0)
    with pytest.raises(ConfigError):
        ExperimentSpec(pfa=1.0)
    with pytest.raises(ConfigError):
        ExperimentSpec(q=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(workers=0)
    # bit depths: q and every detector token in 1..8 (or 'inf'), a non-empty list
    for fields in (dict(q=9), dict(detectors=("1", "9")), dict(detectors=("0",)),
                   dict(detectors=("2", "x")), dict(detectors=())):
        with pytest.raises(ConfigError):
            ExperimentSpec(**fields)
    assert ExperimentSpec(q=8, detectors=("1", "8", "inf")).q == 8
    # grids and SNRs: p_fa values in (0, 1), every eta finite and >= 0, every SNR finite
    nan, inf = float("nan"), float("inf")
    for fields in (dict(pfa_grid=(0.1, nan)), dict(pfa_grid=(0.0,)), dict(pfa_grid=(1.0,)),
                   dict(eta_grid=(1.0, nan)), dict(eta_grid=(inf,)), dict(eta_grid=(-5.0, 1.0)),
                   dict(snr_grid_db=(-6.0, nan)), dict(snr_grid_db=(-inf,)),
                   dict(snr_db=nan), dict(snr_db=inf)):
        with pytest.raises(ConfigError):
            ExperimentSpec(**fields)
    assert ExperimentSpec(pfa_grid=(1e-4, 0.5), eta_grid=(0.0, 30.0), snr_db=-14.0).snr_db == -14.0


def test_file_round_trip(tmp_path):
    spec = ExperimentSpec(command="pd-snr", snr_grid_db=(-20.0, -14.5), seed=7)
    path = tmp_path / "exp.cfg"
    save_config(spec, path)
    assert load_config(path) == spec


def test_none_fields_omitted():
    text = serialize_config(ExperimentSpec())
    assert "seed" not in text
    assert "command" not in text
    assert "n_rx = 16" in text

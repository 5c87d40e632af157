import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quantdet.experiment import ConfigError, ExperimentSpec, load_config, parse_config


def test_defaults():
    spec = ExperimentSpec()
    assert spec.n_rx == 16 and spec.snapshots == 8 and spec.noise_power == 2.0
    assert spec.detectors == ("1", "2", "3", "inf")
    assert spec.seed is None and spec.trials is None


def test_round_trip_is_exact():
    # every key set away from its default, so each annotation's parser runs
    spec = parse_config(
        """
        n_tx = 3
        n_rx = 5
        snapshots = 4
        spacing = 0.1
        angle = -0.25
        noise_power = 1.5
        beta_r = 0.7
        beta_i = -0.2
        snr_db = -14.0
        q = 2
        detectors = 2, inf
        thresholds_path = q2.txt
        pfa = 0.012345678901234567
        pfa_grid = 0.0001,0.1
        eta_grid = 0.0,13.815510557964274
        snr_grid_db = -16.0,-12.5
        trials = 12345
        seed = 99
        workers = 2
        max_iters = 300
        stall_iters = 25
        out = roc.csv
        """
    )
    assert spec == ExperimentSpec(
        n_tx=3,
        n_rx=5,
        snapshots=4,
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
        max_iters=300,
        stall_iters=25,
        out="roc.csv",
    )
    fields = dataclasses.fields(spec)
    assert len(fields) == 22
    assert all(getattr(spec, f.name) != f.default for f in fields)


def test_parse_comments_and_blanks():
    # a comment starts only at a '#' that begins the line or follows whitespace
    spec = parse_config(
        """
        # full-width comment
        pfa = 0.05   # trailing comment
        n_rx = 4
        out = runs/a#1.csv   # note
        thresholds_path = q#2.txt
        #seed = 3
        """
    )
    assert spec.pfa == 0.05
    assert spec.n_rx == 4
    assert spec.out == "runs/a#1.csv"
    assert spec.thresholds_path == "q#2.txt"
    assert spec.seed is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_COUNT = st.integers(1, 10 ** 6)


def _grid(values):
    return st.lists(values, min_size=1, max_size=4).map(tuple)


def _reads_back(text):
    # one line, no surrounding whitespace, no '#' that would start a comment
    return text.splitlines() == [text] and text.strip() == text and not re.search(r"(^|\s)#", text)


_PATHS = st.text(min_size=1).filter(_reads_back)

# a valid value for every key; a key left out of a drawn dict is left unset
_VALUES = dict(
    n_tx=_COUNT, n_rx=_COUNT, snapshots=_COUNT,
    spacing=st.floats(allow_nan=False), angle=_FINITE, noise_power=st.floats(allow_nan=False),
    beta_r=_FINITE, beta_i=_FINITE, snr_db=_FINITE,
    q=st.integers(1, 8),
    detectors=st.lists(st.sampled_from(["1", "2", "3", "8", "inf"]), min_size=1,
                       unique=True).map(tuple),
    thresholds_path=_PATHS,
    pfa=_OPEN_UNIT, pfa_grid=_grid(_OPEN_UNIT),
    eta_grid=_grid(st.floats(0.0, allow_infinity=False)), snr_grid_db=_grid(_FINITE),
    trials=st.integers(1, 10 ** 12), seed=st.integers(0, 2 ** 64), workers=st.integers(1, 64),
    max_iters=_COUNT, stall_iters=_COUNT,
    out=_PATHS,
)


def _text(value):
    # floats as round-trip repr, tuples as comma lists
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


@given(st.fixed_dictionaries({}, optional=_VALUES))
def test_every_written_spec_reads_back(values):
    text = "".join(f"{key} = {_text(value)}\n" for key, value in values.items())
    assert parse_config(text) == ExperimentSpec(**values)


def test_parse_tuple_values():
    spec = parse_config("snr_grid_db = -16,-12,-8\ndetectors = 1, inf\n")
    assert spec.snr_grid_db == (-16.0, -12.0, -8.0)
    assert spec.detectors == ("1", "inf")


def test_detector_tokens_are_canonical_and_listed_once():
    # each token is kept as str(int(tok)) or 'inf', from flags and files alike
    assert ExperimentSpec(detectors=("01", "+2", " 3", "inf")).detectors == ("1", "2", "3", "inf")
    assert parse_config("detectors = 08, inf\n").detectors == ("8", "inf")
    for tokens in (("1", "1"), ("1", "01", "+1"), ("inf", "2", "inf")):
        with pytest.raises(ConfigError, match="listed twice"):
            ExperimentSpec(detectors=tokens)
    with pytest.raises(ConfigError, match="listed twice"):
        parse_config("detectors = 3,inf,003\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2.*swarm_sz"):
        parse_config("seed = 1\nswarm_sz = 50\n")
    # the subcommand names the command; a config cannot
    with pytest.raises(ConfigError, match="line 1: unknown key 'command'"):
        parse_config("command = roc\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate.*seed"):
        parse_config("q = 2\nseed = 1\nseed = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigError, match="line 1.*trials"):
        parse_config("trials = soon\n")


def test_missing_equals_sign():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")


def test_spec_validation():
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
    # bit depths: q and every detector token in 1..8 (or 'inf')
    for fields in (dict(q=9), dict(detectors=("1", "9")), dict(detectors=("0",)),
                   dict(detectors=("2", "x"))):
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
    # an empty value is an error naming its key, never a request for the default
    for key in ("pfa_grid", "eta_grid", "snr_grid_db", "detectors", "out", "thresholds_path"):
        empty = "" if key in ("out", "thresholds_path") else ()
        with pytest.raises(ConfigError, match=f"^{key} is empty"):
            ExperimentSpec(**{key: empty})
        with pytest.raises(ConfigError, match=f"^{key} is empty"):
            parse_config(f"{key} =\n")


def test_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("snr_grid_db = -20.0,-14.5\nseed = 7\n", encoding="utf-8")
    assert load_config(path) == ExperimentSpec(snr_grid_db=(-20.0, -14.5), seed=7)

"""Command-line front end: the ``quantdet`` command, whose subcommands ``_SUBCOMMANDS`` lists.

Every experiment parameter lives in a flat ``key = value`` config file
(``--config``); the command-line flags override file values.  Each
subcommand accepts only the flags it reads; any other is a usage error.
All Monte Carlo commands require an explicit ``seed``.

Exit codes: 0 success, 1 invalid configuration or arguments, a run too
large for memory or a pool worker that died, 2 numerical degeneracy
(including an optimizer that failed to converge), 3 selftest failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from .detectors import GlrtDetector, RaoDetector
from .experiment import ConfigError, ExperimentSpec, load_config, parse_value
from .montecarlo import (
    TrialConfig, _engine_pool, empirical_threshold, estimate_roc, exceedance, run_trials, subseed,
)
from .optimizer import PsoConfig, optimize_thresholds, read_checkpoint, write_checkpoint
from .perf_theory import asymptotic_pd
from .quantizer import ThresholdSet
from .selftest import DEFAULT_SEED, run_selftest
from .signal_model import SceneConfig
from .special import chi2_2_quantile

_ROC_HEADER = (
    "detector", "q", "eta", "p_fa_hat", "p_d_hat", "p_fa_theory", "p_d_theory", "n0", "n1",
)
_SWEEP_HEADER = (
    "detector", "q", "snr_db", "p_fa_target", "eta_asymptotic",
    "p_d_at_asymptotic_eta", "p_d_at_empirical_eta", "trials",
)
_THEORY_HEADER = ("p_fa", "eta", "lambda_f", "p_d_theory")

# sub-seed namespace for per-q threshold design inside simulation commands
_PSO_SEED_PATH = 101

_DEFAULT_TRIALS = 10000


# every flag any subcommand reads, as (config key, help); each subcommand
# registers only its own, and a flag's text is read as its key's would be
_FLAGS = {
    "--config": ("config", "flat key = value experiment file"),
    "--q": ("q", "quantizer bit depth"),
    "--snr-db": ("snr_db", "per-sample SNR in dB"),
    "--pfa": ("pfa", "false-alarm budget"),
    "--trials": ("trials", "Monte Carlo trials per hypothesis"),
    "--seed": ("seed", "master seed (required for simulation)"),
    "--out": ("out", "output file path"),
    "--thresholds": ("thresholds_path", "threshold checkpoint file to reuse"),
    "--workers": ("workers", "worker processes for trials"),
    "--detectors": ("detectors", "comma list of bit depths and/or 'inf' (default 1,2,3,inf); "
                                 "ignored when --q is set"),
    "--pfa-grid": ("pfa_grid", "comma list of false-alarm rates"),
    "--eta-grid": ("eta_grid", "comma list of statistic thresholds, in place of --pfa-grid"),
    "--snr-grid": ("snr_grid_db", "comma list of SNR points in dB"),
}
_DESIGN = ("--config", "--q", "--seed", "--out")
_SIMULATE = _DESIGN + ("--trials", "--thresholds", "--workers", "--detectors")


def build_parser() -> argparse.ArgumentParser:
    """The ``quantdet`` parser: one subcommand per ``_SUBCOMMANDS`` entry, with only its flags."""
    parser = argparse.ArgumentParser(
        prog="quantdet",
        description="Quantized weak-target detection: design, simulate, compare to theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (_, help_text, flags) in _SUBCOMMANDS.items():
        # no prefix matching: "roc --pfa" must not quietly become --pfa-grid
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            key, flag_help = _FLAGS[flag]
            p.add_argument(flag, dest=key, help=flag_help,
                           type=None if key == "config" else _flag_reader(key))
    return parser


def _flag_reader(key: str):
    def read(text: str):
        try:
            return parse_value(key, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value: {text!r}") from exc
    return read


def _merged_spec(args: argparse.Namespace) -> ExperimentSpec:
    if args.config == "":
        raise ConfigError("config is empty: give it a value or leave it unset")
    spec = load_config(args.config) if args.config is not None else ExperimentSpec()
    overrides = {k: v for k, v in vars(args).items()
                 if v is not None and k not in ("config", "command")}
    return dataclasses.replace(spec, **overrides)


def _same_named(spec: ExperimentSpec, cls, skip: str) -> dict:
    """The spec's values of the fields of dataclass ``cls``, all but ``skip``."""
    return {f.name: getattr(spec, f.name) for f in dataclasses.fields(cls) if f.name != skip}


def _scene_from_spec(spec: ExperimentSpec) -> SceneConfig:
    beta = complex(spec.beta_r, spec.beta_i)
    scene = SceneConfig(beta=beta, **_same_named(spec, SceneConfig, "beta"))
    if spec.snr_db is not None:
        scene = scene.with_snr_db(spec.snr_db)
    return scene


def _require_seed(spec: ExperimentSpec) -> int:
    if spec.seed is None:
        raise ConfigError("this command simulates or optimizes; pass --seed (or set it in the config)")
    return spec.seed


def _out_path(spec: ExperimentSpec, default: str) -> str:
    """The file a command writes, checked before it designs or simulates anything."""
    out = spec.out or default
    if os.path.isdir(out):
        raise ConfigError(f"out {out!r} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"out {out!r} is in a directory that does not exist")
    return out


def _check_memory(trials: int, hypotheses: int) -> None:
    """Refuse a run whose largest engine call's statistics cannot fit in physical memory.

    ``run_trials`` holds its chunk arrays and their concatenation
    together, so each float64 statistic counts twice: 16 B per trial and
    hypothesis.  Where ``os.sysconf`` lacks or cannot give the page counts,
    nothing is checked.
    """
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 16 * hypotheses * trials
    if page > 0 and pages > 0 and need > page * pages:
        raise ConfigError(f"{trials} trials need {need / 2**30:.4g} GiB of statistics, more "
                          f"than the {page * pages / 2**30:.4g} GiB of physical memory")


def _design(spec: ExperimentSpec, scene: SceneConfig, bits: int, seed: int):
    """The swarm's ``bits``-bit design for ``scene``, on the spec's swarm budget."""
    pso = PsoConfig(seed=seed, **_same_named(spec, PsoConfig, "seed"))
    return optimize_thresholds(bits, scene.signal, scene.noise_power, pso)


def _resolve_detectors(spec, scene, tokens=None, simulated=()) -> list:
    """(detector, threshold origin, lambda_F on ``scene``) for each of the command's detectors.

    This is the one reader of ``q`` and ``thresholds_path`` in roc,
    pd-snr and theory.  The detectors are ``(q,)`` if ``q`` is set, else
    ``tokens`` (bit depths and/or 'inf', checked and made canonical by
    :class:`ExperimentSpec`); theory passes none and gets the file's bit
    depth, else 'inf'.  A given file is read, and so checked, once and
    first.  Before any design, this checks that a GLRT's |z^H x|^2, about
    (|beta| E)^2, and its statistic stay finite in each scene of
    ``simulated``.  A q-bit detector reuses the file when it holds a q-bit
    design, else the swarm designs one.  lambda_F is computed here, so a
    design with an empty bin raises ``DegenerateBinError`` before any
    trial.
    """
    path = spec.thresholds_path
    saved = read_checkpoint(path)[0] if path is not None else None
    if spec.q is not None:  # --q wins over --detectors
        tokens = (str(spec.q),)
    elif tokens is None:
        tokens = (str(saved.bits) if saved is not None else "inf",)
    for s in simulated if "inf" in tokens else ():
        peak = abs(s.beta) * s.signal.energy  # |z^H x| without noise
        if not math.isfinite(peak * peak / (s.signal.energy * s.noise_power / 2.0)):
            raise ConfigError(f"the GLRT statistic overflows at |beta| = {abs(s.beta):.6g}; "
                              "lower the SNR or drop the 'inf' detector")
    out = []
    for tok in tokens:
        if tok == "inf":
            detector, origin = GlrtDetector(), "exact"
        elif saved is not None and saved.bits == int(tok):
            detector, origin = RaoDetector(saved), f"file {path}"
        else:
            if saved is not None:
                print(f"warning: {path} holds a {saved.bits}-bit design; "
                      f"designing q={tok} by swarm", file=sys.stderr)
            seed = subseed(_require_seed(spec), _PSO_SEED_PATH, int(tok))
            design = _design(spec, scene, int(tok), seed)
            detector = RaoDetector(design.thresholds)
            origin = "swarm" if design.converged else "swarm (NOT converged)"
        out.append((detector, origin, detector.noncentrality(scene)))
    return out


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _codeword_lines(thresholds: ThresholdSet) -> list:
    edges = thresholds.edges()
    lines = []
    for i in range(thresholds.n_bins):
        code = format(i, f"0{thresholds.bits}b")
        lines.append(f"  {code}  ({edges[i]:.6g}, {edges[i + 1]:.6g}]")
    return lines


def cmd_thresholds(spec: ExperimentSpec) -> int:
    """Design a ``q``-bit quantizer by swarm and save it; 2 if the swarm did not converge."""
    if spec.q is None:
        raise ConfigError("thresholds: --q is required")
    seed = _require_seed(spec)
    out = _out_path(spec, f"thresholds_q{spec.q}.txt")
    scene = _scene_from_spec(spec)
    result = _design(spec, scene, spec.q, seed)
    write_checkpoint(out, result, seed=seed)
    print(
        f"designed q={spec.q} quantizer: objective={result.achieved_objective!r} "
        f"iterations={result.iterations} converged={result.converged}"
    )
    print(f"thresholds written to {out}")
    print("codeword -> bin:")
    for line in _codeword_lines(result.thresholds):
        print(line)
    if not result.converged:
        print("warning: swarm did not meet the stall criterion; design saved anyway",
              file=sys.stderr)
        return 2
    return 0


def cmd_roc(spec: ExperimentSpec) -> int:
    """Each detector's rates at a set of statistic thresholds (eta), to CSV.

    The thresholds are ``eta_grid`` sorted ascending when it is set, else
    the empirical thresholds of ``pfa_grid`` on each detector's H0 sample;
    setting both is a ``ConfigError``.
    """
    if spec.pfa_grid is not None and spec.eta_grid is not None:
        raise ConfigError("roc: set pfa_grid or eta_grid, not both")
    seed = _require_seed(spec)
    out = _out_path(spec, "roc.csv")
    scene = _scene_from_spec(spec)
    trials = spec.trials or _DEFAULT_TRIALS
    _check_memory(trials, 2)
    pfa_grid = spec.pfa_grid or np.logspace(-4.0, np.log10(0.5), 16)
    eta = None if spec.eta_grid is None else np.sort(spec.eta_grid)
    resolved = _resolve_detectors(spec, scene, spec.detectors, (scene,))
    rows = []
    with _engine_pool(spec.workers):  # one pool for every detector's run
        for d_idx, (detector, origin, lam) in enumerate(resolved):
            print(f"detector {detector.label} q={detector.q_label}: thresholds {origin}, "
                  f"lambda_f={lam:.6g}, trials={trials} per hypothesis")
            h0, h1 = run_trials(TrialConfig(scene, detector, trials, trials,
                                            subseed(seed, d_idx, 0), spec.workers))
            at = empirical_threshold(h0, pfa_grid) if eta is None else eta
            curve = estimate_roc(h0, h1, lam, at)
            columns = (curve.eta, curve.p_fa_hat, curve.p_d_hat, curve.p_fa_theory,
                       curve.p_d_theory)
            rows += [(detector.label, detector.q_label, *point, curve.n_h0, curve.n_h1)
                     for point in zip(*columns)]
    _write_csv(out, _ROC_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_pd_snr(spec: ExperimentSpec) -> int:
    """Detection probability against SNR at the false-alarm budget ``pfa``, to CSV.

    Per detector, one H0 run sets the empirical threshold and each SNR
    point gets its own H1 run; the asymptotic threshold -2 ln pfa and the
    empirical one are applied to the same H1 sample, giving the two
    detection-rate columns.  Sub-seeds are keyed by position: detector d
    of the list runs H0 at sub-seed path (d, 0), where roc runs both
    hypotheses, and SNR point i of the grid runs H1 at (d, 1 + i).
    So appending a detector or an SNR point leaves every earlier row
    unchanged, while inserting one can move the rows after it.
    """
    seed = _require_seed(spec)
    out = _out_path(spec, "pd_snr.csv")
    scene = _scene_from_spec(dataclasses.replace(spec, snr_db=None))  # SNRs: the grid's alone
    trials = spec.trials or _DEFAULT_TRIALS
    _check_memory(trials, 1)
    snr_grid = spec.snr_grid_db or tuple(np.arange(-20.0, 0.5, 2.0))
    if len(set(snr_grid)) < len(snr_grid):  # a row is named by (detector, q, snr_db)
        raise ConfigError(f"an SNR point is listed twice in {snr_grid}")
    scenes = [scene.with_snr_db(snr_db) for snr_db in snr_grid]
    resolved = _resolve_detectors(spec, scene, spec.detectors, scenes)
    if spec.pfa * trials < 100:
        print(f"warning: p_fa * trials = {spec.pfa * trials:.0f} < 100: false-alarm tail is "
              "thinly sampled and the empirical threshold will be noisy", file=sys.stderr)
    eta_asym = chi2_2_quantile(spec.pfa)
    rows = []
    with _engine_pool(spec.workers):  # one pool for every H0 and H1 run
        for d_idx, (detector, origin, _) in enumerate(resolved):
            print(f"detector {detector.label} q={detector.q_label}: thresholds {origin}")
            h0, _ = run_trials(TrialConfig(scene, detector, trials, 0, subseed(seed, d_idx, 0),
                                           spec.workers))
            eta_emp = empirical_threshold(h0, spec.pfa)
            for s_idx, (snr_db, snr_scene) in enumerate(zip(snr_grid, scenes)):
                _, h1 = run_trials(TrialConfig(snr_scene, detector, 0, trials,
                                               subseed(seed, d_idx, 1 + s_idx), spec.workers))
                p_d_asym, p_d_emp = exceedance(h1, [eta_asym, eta_emp])  # one sort
                rows.append((detector.label, detector.q_label, snr_db, spec.pfa, eta_asym,
                             p_d_asym, p_d_emp, trials))
    _write_csv(out, _SWEEP_HEADER, rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_theory(spec: ExperimentSpec) -> int:
    """One detector's asymptotic curve on a false-alarm grid, to CSV, with no simulation."""
    out = _out_path(spec, "theory.csv")
    scene = _scene_from_spec(spec)
    [(detector, origin, lam)] = _resolve_detectors(spec, scene)
    pfa_grid = spec.pfa_grid or tuple(np.logspace(-4.0, np.log10(0.5), 25))
    eta = np.array([chi2_2_quantile(p) for p in pfa_grid])
    rows = [(p, e, lam, p_d) for p, e, p_d in zip(pfa_grid, eta, asymptotic_pd(lam, eta))]
    _write_csv(out, _THEORY_HEADER, rows)
    print(f"theory curve for {detector.label} q={detector.q_label} (thresholds {origin}), "
          f"lambda_f={lam:.6g}")
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_selftest(spec: ExperimentSpec) -> int:
    """Run the sanity battery, one line per check; 3 if any check fails."""
    seed = spec.seed if spec.seed is not None else DEFAULT_SEED
    kwargs = {}
    if spec.trials is not None:
        _check_memory(spec.trials, 1)
        kwargs["trials"] = spec.trials
    results = run_selftest(seed=seed, **kwargs)
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        print("selftest: all checks passed")
        return 0
    print("selftest: FAILURES detected", file=sys.stderr)
    return 3


# name -> (handler, help, flags)
_SUBCOMMANDS = {
    "thresholds": (cmd_thresholds, "design quantizer thresholds by swarm search", _DESIGN),
    "roc": (cmd_roc, "simulate rates on a false-alarm or threshold grid and write CSV",
            _SIMULATE + ("--snr-db", "--pfa-grid", "--eta-grid")),
    "pd-snr": (cmd_pd_snr, "simulate detection probability vs SNR and write CSV",
               _SIMULATE + ("--pfa", "--snr-grid")),
    "theory": (cmd_theory, "write the asymptotic operating curve (no simulation)",
               _DESIGN + ("--snr-db", "--thresholds", "--pfa-grid")),
    "selftest": (cmd_selftest, "run the built-in sanity battery",
                 ("--config", "--seed", "--trials")),
}


def main(argv=None) -> int:
    """Run the ``quantdet`` command on ``argv`` (default ``sys.argv[1:]``); return its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; remap usage errors to 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        spec = _merged_spec(args)
        return _SUBCOMMANDS[args.command][0](spec)
    except (ValueError, OSError, MemoryError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands
-----------
thresholds  design a q-bit quantizer for the configured scene and save it
roc         Monte Carlo ROC (+ asymptotic theory columns) to CSV
pd-eta      detection/false-alarm rates on a threshold grid to CSV
pd-snr      detection probability vs SNR at fixed false-alarm rate to CSV
theory      asymptotic-only operating curve to CSV (no simulation)
selftest    built-in sanity battery

Every experiment parameter lives in a flat ``key = value`` config file
(``--config``); the command-line flags override file values.  Each
subcommand accepts only the flags it reads; any other is a usage error.  All
Monte Carlo commands require an explicit ``seed`` -- reproducibility is
not optional here.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 numerical
degeneracy (including an optimizer that failed to converge), 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

import numpy as np

from .experiment import COMMANDS, ConfigError, ExperimentSpec, load_config
from .montecarlo import (
    GlrtDetector,
    RaoDetector,
    TrialConfig,
    estimate_roc,
    pd_vs_snr,
    run_trials,
    subseed,
)
from .optimizer import PsoConfig, optimize_thresholds, read_checkpoint, write_checkpoint
from .perf_theory import noncentrality, noncentrality_unquantized, theoretical_pd
from .quantizer import ThresholdSet
from .selftest import DEFAULT_SEED, run_selftest
from .signal_model import SceneConfig, effective_signal
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


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _str_list(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


# every flag any subcommand reads; each subcommand registers only its own
_FLAGS = {
    "--config": dict(help="flat key = value experiment file"),
    "--q": dict(type=int, help="quantizer bit depth"),
    "--snr-db": dict(type=float, dest="snr_db", help="per-sample SNR in dB"),
    "--pfa": dict(type=float, help="false-alarm budget"),
    "--trials": dict(type=int, help="Monte Carlo trials per hypothesis"),
    "--seed": dict(type=int, help="master seed (required for simulation)"),
    "--out": dict(help="output file path"),
    "--thresholds": dict(dest="thresholds_path", help="threshold checkpoint file to reuse"),
    "--workers": dict(type=int, help="worker processes for trials"),
    "--detectors": dict(type=_str_list,
                        help="comma list of bit depths and/or 'inf' (default 1,2,3,inf)"),
    "--pfa-grid": dict(type=_float_list, dest="pfa_grid",
                       help="comma list of false-alarm rates"),
    "--eta-grid": dict(type=_float_list, dest="eta_grid",
                       help="comma list of statistic thresholds"),
    "--snr-grid": dict(type=_float_list, dest="snr_grid_db",
                       help="comma list of SNR points in dB"),
}
_DESIGN = ("--config", "--q", "--snr-db", "--seed", "--out")
_SIMULATE = _DESIGN + ("--trials", "--thresholds", "--workers", "--detectors")
_SUBCOMMANDS = {
    "thresholds": ("design quantizer thresholds by swarm search", _DESIGN),
    "roc": ("simulate ROC curves and write CSV", _SIMULATE + ("--pfa-grid", "--eta-grid")),
    "pd-eta": ("simulate rates on a threshold grid and write CSV",
               _SIMULATE + ("--pfa-grid", "--eta-grid")),
    "pd-snr": ("simulate detection probability vs SNR and write CSV",
               _SIMULATE + ("--pfa", "--snr-grid")),
    "theory": ("write the asymptotic operating curve (no simulation)",
               _DESIGN + ("--thresholds", "--pfa-grid")),
    "selftest": ("run the built-in sanity battery", ("--config", "--seed", "--trials")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantdet",
        description="Quantized weak-target detection: design, simulate, compare to theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        # no prefix matching: "roc --pfa" must not quietly become --pfa-grid
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _merged_spec(args: argparse.Namespace) -> ExperimentSpec:
    spec = load_config(args.config) if args.config else ExperimentSpec()
    overrides = {"command": args.command}
    for field in ("q", "snr_db", "pfa", "trials", "seed", "out", "thresholds_path",
                  "workers", "detectors", "pfa_grid", "eta_grid", "snr_grid_db"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return dataclasses.replace(spec, **overrides)


def _scene_from_spec(spec: ExperimentSpec) -> SceneConfig:
    scene = SceneConfig(
        n_tx=spec.n_tx,
        n_rx=spec.n_rx,
        snapshots=spec.snapshots,
        wavelength=spec.wavelength,
        spacing=spec.spacing,
        angle=spec.angle,
        noise_power=spec.noise_power,
        beta=(spec.beta_r, spec.beta_i),
    )
    if spec.snr_db is not None:
        scene = scene.with_snr_db(spec.snr_db)
    return scene


def _pso_config(spec: ExperimentSpec, seed: int) -> PsoConfig:
    return PsoConfig(
        seed=seed,
        swarm_size=spec.swarm_size,
        max_iters=spec.max_iters,
        inertia=spec.inertia,
        cognitive=spec.cognitive,
        social=spec.social,
        stall_tol=spec.stall_tol,
        stall_iters=spec.stall_iters,
        search_radius=spec.search_radius,
    )


def _require_seed(spec: ExperimentSpec) -> int:
    if spec.seed is None:
        raise ConfigError("this command simulates or optimizes; pass --seed (or set it in the config)")
    return spec.seed


def _resolve_thresholds(spec, scene, signal, bits: int):
    """Threshold set for a q-bit detector: checkpoint file if it matches, else swarm design."""
    if spec.thresholds_path is not None:
        ts, _meta = read_checkpoint(spec.thresholds_path)
        if ts.bits == bits:
            return ts, f"file {spec.thresholds_path}"
    seed = _require_seed(spec)
    result = optimize_thresholds(
        bits, signal, scene.noise_power,
        _pso_config(spec, subseed(seed, _PSO_SEED_PATH, bits)),
    )
    tag = "swarm" if result.converged else "swarm (NOT converged)"
    return result.thresholds, tag


def _resolve_detectors(spec, scene, signal) -> list:
    """(detector, threshold origin) for ``--q``, else for each ``--detectors`` token.

    Every token is checked before any threshold is designed.
    """
    tokens = (str(spec.q),) if spec.q is not None else spec.detectors
    if not tokens:
        raise ConfigError("detector list is empty")
    depths = []
    for tok in tokens:
        try:
            bits = None if tok == "inf" else int(tok)
        except ValueError:
            raise ConfigError(f"bad detector token {tok!r}: expected a bit depth or 'inf'")
        if bits is not None and bits < 1:
            raise ConfigError(f"bit depth must be >= 1, got {bits}")
        depths.append(bits)
    out = []
    for bits in depths:
        if bits is None:
            out.append((GlrtDetector(), "exact"))
            continue
        ts, origin = _resolve_thresholds(spec, scene, signal, bits)
        out.append((RaoDetector(ts), origin))
    return out


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header, rows) -> int:
    count = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
            count += 1
    return count


def _codeword_lines(thresholds: ThresholdSet) -> list:
    edges = thresholds.edges()
    lines = []
    for i in range(thresholds.n_bins):
        code = format(i, f"0{thresholds.bits}b")
        lines.append(f"  {code}  ({edges[i]:.6g}, {edges[i + 1]:.6g}]")
    return lines


def cmd_thresholds(spec: ExperimentSpec) -> int:
    if spec.q is None:
        raise ConfigError("thresholds: --q is required")
    if not 1 <= spec.q <= 8:
        raise ConfigError(f"thresholds: q must be in 1..8, got {spec.q}")
    seed = _require_seed(spec)
    scene = _scene_from_spec(spec)
    signal = effective_signal(scene)
    result = optimize_thresholds(
        spec.q, signal, scene.noise_power, _pso_config(spec, seed)
    )
    out = spec.out or f"thresholds_q{spec.q}.txt"
    # the design itself is SNR-independent; record any requested SNR as
    # context metadata only
    extra = {"snr_db": spec.snr_db} if spec.snr_db is not None else None
    write_checkpoint(out, result, seed=seed, extra=extra)
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


def _roc_like(spec: ExperimentSpec, default_grid: str) -> int:
    seed = _require_seed(spec)
    scene = _scene_from_spec(spec)
    signal = effective_signal(scene)
    trials = spec.trials if spec.trials is not None else _DEFAULT_TRIALS
    eta_grid = spec.eta_grid
    pfa_grid = spec.pfa_grid
    if eta_grid is None and pfa_grid is None:
        if default_grid == "pfa":
            pfa_grid = tuple(np.logspace(-4.0, np.log10(0.5), 16))
        else:
            eta_grid = tuple(np.linspace(0.0, 30.0, 31))
    rows = []
    for d_idx, (detector, origin) in enumerate(_resolve_detectors(spec, scene, signal)):
        if isinstance(detector, GlrtDetector):
            lam = noncentrality_unquantized(scene.beta_complex, signal, scene.noise_power)
        else:
            lam = noncentrality(
                scene.beta_complex, signal, detector.thresholds, scene.noise_power
            )
        print(f"detector {detector.label} q={detector.q_label}: thresholds {origin}, "
              f"lambda_f={lam:.6g}, trials={trials} per hypothesis")
        cfg = TrialConfig(
            scene=scene,
            detector=detector,
            n_trials_h0=trials,
            n_trials_h1=trials,
            seed=subseed(seed, d_idx, 0),
            workers=spec.workers,
        )
        h0, h1 = run_trials(cfg)
        curve = estimate_roc(h0, h1, lam, eta_grid=eta_grid, pfa_grid=pfa_grid)
        for j in range(curve.eta.shape[0]):
            rows.append(
                (
                    detector.label, detector.q_label,
                    float(curve.eta[j]),
                    float(curve.p_fa_hat[j]), float(curve.p_d_hat[j]),
                    float(curve.p_fa_theory[j]), float(curve.p_d_theory[j]),
                    curve.n_h0, curve.n_h1,
                )
            )
    out = spec.out or ("roc.csv" if default_grid == "pfa" else "pd_eta.csv")
    count = _write_csv(out, _ROC_HEADER, rows)
    print(f"wrote {count} rows to {out}")
    return 0


def cmd_roc(spec: ExperimentSpec) -> int:
    return _roc_like(spec, default_grid="pfa")


def cmd_pd_eta(spec: ExperimentSpec) -> int:
    return _roc_like(spec, default_grid="eta")


def cmd_pd_snr(spec: ExperimentSpec) -> int:
    seed = _require_seed(spec)
    scene = _scene_from_spec(spec)
    signal = effective_signal(scene)
    trials = spec.trials if spec.trials is not None else _DEFAULT_TRIALS
    snr_grid = spec.snr_grid_db or tuple(np.arange(-20.0, 0.5, 2.0))
    detectors = []
    for detector, origin in _resolve_detectors(spec, scene, signal):
        if isinstance(detector, RaoDetector):
            print(f"detector rao q={detector.q_label}: thresholds {origin}")
        detectors.append(detector)
    points = pd_vs_snr(
        scene, detectors, snr_grid, spec.pfa, trials, seed, workers=spec.workers
    )
    rows = [
        (
            p.detector, p.q, p.snr_db, p.p_fa_target, p.eta_asymptotic,
            p.p_d_at_asymptotic_eta, p.p_d_at_empirical_eta, p.trials,
        )
        for p in points
    ]
    out = spec.out or "pd_snr.csv"
    count = _write_csv(out, _SWEEP_HEADER, rows)
    print(f"wrote {count} rows to {out}")
    return 0


def cmd_theory(spec: ExperimentSpec) -> int:
    scene = _scene_from_spec(spec)
    signal = effective_signal(scene)
    if spec.thresholds_path is not None:
        ts, _meta = read_checkpoint(spec.thresholds_path)
        lam = noncentrality(scene.beta_complex, signal, ts, scene.noise_power)
        what = f"rao q={ts.bits}"
    elif spec.q is not None:
        ts, origin = _resolve_thresholds(spec, scene, signal, spec.q)
        lam = noncentrality(scene.beta_complex, signal, ts, scene.noise_power)
        what = f"rao q={spec.q} (thresholds {origin})"
    else:
        lam = noncentrality_unquantized(scene.beta_complex, signal, scene.noise_power)
        what = "glrt q=inf"
    pfa_grid = spec.pfa_grid or tuple(np.logspace(-4.0, np.log10(0.5), 25))
    rows = []
    for p in pfa_grid:
        eta = chi2_2_quantile(p)
        rows.append((float(p), eta, lam, theoretical_pd(lam, p)))
    out = spec.out or "theory.csv"
    count = _write_csv(out, _THEORY_HEADER, rows)
    print(f"theory curve for {what}, lambda_f={lam:.6g}")
    print(f"wrote {count} rows to {out}")
    return 0


def cmd_selftest(spec: ExperimentSpec) -> int:
    seed = spec.seed if spec.seed is not None else DEFAULT_SEED
    kwargs = {}
    if spec.trials is not None:
        kwargs["trials"] = spec.trials
    results = run_selftest(seed=seed, **kwargs)
    for res in results:
        print(res.line())
    if all(r.passed for r in results):
        print("selftest: all checks passed")
        return 0
    print("selftest: FAILURES detected", file=sys.stderr)
    return 3


_DISPATCH = {
    "thresholds": cmd_thresholds,
    "roc": cmd_roc,
    "pd-eta": cmd_pd_eta,
    "pd-snr": cmd_pd_snr,
    "theory": cmd_theory,
    "selftest": cmd_selftest,
}

assert set(_DISPATCH) == set(COMMANDS)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; remap usage errors to 1
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        spec = _merged_spec(args)
        return _DISPATCH[args.command](spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

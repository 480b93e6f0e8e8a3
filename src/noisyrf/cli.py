"""Command-line front end.

Subcommands: spectrum (inspect a spectrum), risk (one decomposition cell),
bounds (bound curve only), sweep (full grid, writes artifacts), conc
(concentration experiments).  Exit codes: 0 success, 1 bad usage or config,
2 completed with per-row or per-experiment failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import conclab
from .config import (PRESETS, SPECTRUM_KINDS, ExperimentConfig, ValidationError,
                     load_raw_config, parse_config)
from .features import NOISE_FAMILIES
from .risk import TARGET_MODES, TARGET_NOISE_MODES
from .seeding import seed_stream
from .spectral import KINDS, MODES, make_spectrum, suggest_truncation, trace_and_rank
from .sweep import (_write_atomic, artifact_paths, bound_curve, compute_row, curve_csv,
                    emit_outputs, run_sweep)


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; our contract reserves 2 for
    # partial failures, so route usage errors through exit code 1 instead
    def error(self, message):
        raise CliError(message)


def _int_at_least(least: int):
    """An argparse type for a count flag: an integer >= least, else a usage
    error that names the flag."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return parse


def _finite_float(text: str) -> float:
    """An argparse type for a real flag with no infinite setting: a finite
    float, else a usage error that names the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (or an emitted manifest.json)")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named built-in config")
    p.add_argument("--seed", type=int, help="master seed (mandatory for sweep)")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s-grid", dest="s_grid", help="comma-separated feature counts")
    p.add_argument("--kind", dest="spectrum_kind", choices=SPECTRUM_KINDS)
    p.add_argument("--gamma", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--omega1", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--noise-family", dest="noise_family", choices=NOISE_FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma-sq", dest="sigma_sq", type=float)
    p.add_argument("--target-mode", dest="target_mode", choices=TARGET_MODES)
    p.add_argument("--target-norm", dest="target_norm", type=float)
    p.add_argument("--tail-energy", dest="tail_energy", type=float)
    p.add_argument("--replicates", dest="ensemble_replicates", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--clean-test", dest="clean_test", action="store_true", default=None)
    p.add_argument("--target-noise", dest="target_noise", choices=TARGET_NOISE_MODES)
    p.add_argument("--workers", type=int)
    p.add_argument("--out-dir", dest="out_dir")


def _build_config(args, require_seed: bool, cell: int | None = None) -> ExperimentConfig:
    """The validated config of the flags, the preset and the config file;
    where the grid does not hold cell, the s of one `risk` cell, the grid
    [cell] in its place, and each problem found says so."""
    base: dict = {}
    if args.preset:
        base.update(PRESETS[args.preset])
    if args.config:
        base.update(load_raw_config(args.config))
    overrides = {}
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name, None)  # every field but master_seed has a flag
        if value is not None:
            overrides[f.name] = value
    if isinstance(overrides.get("s_grid"), str):
        try:
            overrides["s_grid"] = [int(tok) for tok in overrides["s_grid"].split(",") if tok]
        except ValueError:
            raise ValidationError(["--s-grid must be comma-separated integers"])
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    prefix = ""
    grid = overrides.get("s_grid", base.get("s_grid"))
    if cell is not None and not (isinstance(grid, list) and cell in grid):
        overrides["s_grid"] = [cell]
        prefix = f"--s {cell} (run as the grid [{cell}]): "
    try:
        cfg = parse_config(base, overrides)
    except ValidationError as exc:
        raise ValidationError([prefix + err for err in exc.errors]) from None
    if cfg.master_seed is None:
        if require_seed:
            raise ValidationError(["sweep needs --seed (or master_seed in the config): "
                                   "artifacts must be replayable"])
        cfg = dataclasses.replace(cfg, master_seed=0)
    return cfg


def _cmd_spectrum(args) -> int:
    eigenvalues = None
    if args.eigenvalues:
        try:
            eigenvalues = [float(tok) for tok in args.eigenvalues.split(",") if tok]
        except ValueError:
            raise CliError("--eigenvalues must be comma-separated numbers")
    spectrum = make_spectrum(args.spectrum_kind or "polynomial", args.p,
                             gamma=args.gamma if args.gamma is not None else 2.0,
                             d=args.d,
                             omega1=args.omega1 if args.omega1 is not None else 1.0,
                             eigenvalues=eigenvalues)
    trace, rank = trace_and_rank(spectrum)
    head = spectrum.eigenvalues[:args.head].tolist()
    if spectrum.kind == "custom":
        suggestion = None
    else:
        suggestion = suggest_truncation(spectrum.kind, gamma=spectrum.params.get("gamma"),
                                        d=spectrum.params.get("d"))
    print(json.dumps({
        "kind": spectrum.kind, "p": spectrum.p, "params": spectrum.params,
        "trace": trace, "effective_rank": rank,
        "suggested_truncation": suggestion,
        "head_eigenvalues": head,
    }, indent=2))
    return 0


def _cmd_risk(args) -> int:
    cfg = _build_config(args, require_seed=False, cell=args.s)
    # the grid index seeds the cell's streams, so an s on the grid is the
    # sweep's cell
    s_index = 0 if args.s is None else cfg.s_grid.index(args.s)
    record = compute_row(cfg, s_index, args.replicate)
    print(json.dumps(conclab._jsonable(dataclasses.asdict(record)), indent=2))
    return 0


def _cmd_bounds(args) -> int:
    cfg = _build_config(args, require_seed=False)
    text = curve_csv(bound_curve(cfg))
    if args.stdout:
        sys.stdout.write(text)
    else:
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = artifact_paths(cfg.out_dir)["curve"]
        _write_atomic(path, text)
        print(path)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args, require_seed=True)
    # a manifest stores its run's out_dir, so replaying it would overwrite it
    if args.config and any(os.path.exists(path) and os.path.samefile(args.config, path)
                           for path in artifact_paths(cfg.out_dir).values()):
        raise CliError(f"this sweep would overwrite its own config {args.config}; "
                       "pass --out-dir with another directory")
    result = run_sweep(cfg)
    paths = emit_outputs(result, cfg, cfg.out_dir)
    for name in ("sweep", "aggregate", "curve", "manifest"):
        print(paths[name])
    if result.errors:
        n_bad = len(result.errors)
        print(f"{n_bad} row(s) failed; see manifest row_errors", file=sys.stderr)
        return 2
    return 0


def _cmd_conc(args) -> int:
    rng = seed_stream(args.seed, "conc", args.experiment)
    trials = args.trials
    if args.experiment == "mgf":
        reports = [conclab.mgf_product_check(args.t, trials, rng)]
    elif args.experiment == "norm":
        reports = [conclab.norm_concentration_check(args.n, args.family, trials, rng)]
    elif args.experiment == "subexp":
        lam = _decay_vector(args.n)
        reports = [conclab.weighted_subexp_sum_check(lam, trials, rng)]
    elif args.experiment == "gram":
        lam = _decay_vector(args.n)
        reports = [conclab.gram_eigen_experiment(lam, args.n, args.s, trials, rng)]
    elif args.experiment == "cross":
        lam = _decay_vector(args.dim)
        reports = [conclab.cross_outer_norm_check(lam, args.n, trials, rng)]
    elif args.experiment == "noisy-spectrum":
        lam = _decay_vector(args.n)
        reports = [conclab.noisy_spectrum_identity_check(lam, args.sigma0_sq, args.n,
                                                         args.s, trials, rng)]
    else:
        reports = conclab.run_default_suite(args.seed)
    print(json.dumps([r.to_dict() for r in reports], indent=2))
    return 2 if any(not r.passed for r in reports) else 0


def _decay_vector(m: int):
    import numpy as np
    return 1.0 / np.arange(1, m + 1, dtype=float) ** 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noisyrf",
                     description="random-feature regression lab: spectra, risk, bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print a spectrum summary")
    sp.add_argument("--kind", dest="spectrum_kind", default="polynomial", choices=KINDS)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--gamma", type=_finite_float)
    sp.add_argument("--d", type=int)
    sp.add_argument("--omega1", type=_finite_float)
    sp.add_argument("--eigenvalues", help="comma-separated values for --kind custom")
    sp.add_argument("--head", type=_int_at_least(0), default=10)
    sp.set_defaults(func=_cmd_spectrum)

    rk = sub.add_parser("risk", help="decompose risk for one feature count")
    _add_config_args(rk)
    rk.add_argument("--s", type=int,
                    help="feature count (defaults to the first grid entry); on the grid it "
                         "reproduces the sweep's cell, off it runs as a one-cell grid")
    rk.add_argument("--replicate", type=_int_at_least(0), default=0)
    rk.set_defaults(func=_cmd_risk)

    bd = sub.add_parser("bounds", help="bound curve over the feature grid")
    _add_config_args(bd)
    bd.add_argument("--stdout", action="store_true", help="print CSV instead of writing")
    bd.set_defaults(func=_cmd_bounds)

    sw = sub.add_parser("sweep", help="run the full grid and write artifacts")
    _add_config_args(sw)
    sw.set_defaults(func=_cmd_sweep)

    cc = sub.add_parser("conc", help="concentration experiments")
    cc.add_argument("--experiment", default="all",
                    choices=["mgf", "norm", "subexp", "gram", "cross",
                             "noisy-spectrum", "all"])
    cc.add_argument("--seed", type=_int_at_least(0), default=0)
    cc.add_argument("--trials", type=int)
    cc.add_argument("--t", type=_finite_float, default=0.5)
    cc.add_argument("--n", type=_int_at_least(1), default=64)
    cc.add_argument("--s", type=_int_at_least(1), default=256)
    cc.add_argument("--dim", type=_int_at_least(1), default=20)
    cc.add_argument("--family", default="gaussian", choices=NOISE_FAMILIES)
    cc.add_argument("--sigma0-sq", dest="sigma0_sq", type=_finite_float, default=0.5)
    cc.set_defaults(func=_cmd_conc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

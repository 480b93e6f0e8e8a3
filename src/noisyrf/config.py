"""Experiment configuration: schema, validation, presets.

A config arrives as a JSON file, a plain dict, or a previously emitted
manifest (whose resolved config block is reused verbatim, which is what makes
replays exact).  Validation collects every problem before raising so a bad
file reports all its mistakes at once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

from .features import NOISE_FAMILIES
from .risk import TARGET_MODES, TARGET_NOISE_MODES
from .spectral import KINDS, MODES, make_spectrum, numerical_support

# a config cannot carry eigenvalues, so it cannot name a custom spectrum
SPECTRUM_KINDS = tuple(k for k in KINDS if k != "custom")

# The version stamped on emitted manifests.  Bumped whenever a change moves
# the random stream or the config schema, so a manifest only replays on the
# code that wrote it.
ARTIFACT_VERSION = "13"


class ValidationError(ValueError):
    """Carries the full list of config problems in .errors."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid config:\n" + "\n".join("  - " + e for e in self.errors))


@dataclass
class ExperimentConfig:
    n: int
    p: int
    s_grid: list
    spectrum_kind: str = "polynomial"
    gamma: float | None = 2.0
    d: int | None = None
    omega1: float = 1.0
    mode: str = "eigencoordinate"
    noise_family: str = "gaussian"
    alpha: float = 0.5
    sigma_sq: float = 0.5
    target_mode: str = "realizable-clean"
    target_norm: float = 1.0
    tail_energy: float = 1.0
    ensemble_replicates: int = 20
    master_seed: int | None = None
    a: float = 2.0
    delta: float = 0.05
    clean_test: bool = False
    target_noise: str = "fresh"
    workers: int = 1
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}
_SPECTRUM_KEYS = {"kind", "gamma", "d", "omega1"}
# Count keys of older configs that no field holds, with the least value each
# accepted: checked as before, then dropped.  The risk is exact over the test
# population, label noise included, so neither a test-point count nor a
# label-redraw count sizes anything.
_RETIRED_COUNTS = {"test_points": 1, "label_redraws": 2}

# 25 log-spaced feature counts from 10 to 10^4; hits s = n = 100 exactly,
# which is where the risk peak should sit
_DEFAULT_S_GRID = [10, 13, 18, 24, 32, 42, 56, 75, 100, 133, 178, 237, 316,
                   422, 562, 750, 1000, 1334, 1778, 2371, 3162, 4217, 5623,
                   7499, 10000]

PRESETS = {
    "double-descent-default": {
        "n": 100,
        "p": 2000,
        "s_grid": list(_DEFAULT_S_GRID),
        "spectrum": {"kind": "polynomial", "gamma": 2.0, "omega1": 1.0},
        "mode": "eigencoordinate",
        "noise_family": "gaussian",
        "alpha": 0.5,
        "sigma_sq": 0.5,
        "target_mode": "realizable-clean",
        "target_norm": 1.0,
        "ensemble_replicates": 20,
    },
}


def _flatten(raw: dict) -> tuple[dict, list]:
    """Lift a nested spectrum block into flat fields; check and drop retired
    keys; report unknown keys."""
    errors = []
    flat = {}
    for key, value in raw.items():
        if key == "spectrum":
            if not isinstance(value, dict):
                errors.append("spectrum must be an object")
                continue
            for sk, sv in value.items():
                if sk not in _SPECTRUM_KEYS:
                    errors.append(f"unknown spectrum key: {sk!r}")
                elif sk == "kind":
                    flat["spectrum_kind"] = sv
                else:
                    flat[sk] = sv
        elif key in _FIELDS:
            flat[key] = value
        elif key in _RETIRED_COUNTS:
            least = _RETIRED_COUNTS[key]
            if not _is_int(value) or value < least:
                errors.append(f"{key} must be an integer >= {least}")
        else:
            errors.append(f"unknown config key: {key!r}")
    return flat, errors


def _is_int(value) -> bool:
    # bool subclasses int, but True is not a count
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # likewise, True is not a magnitude
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_REAL_FIELDS = ("gamma", "omega1", "alpha", "sigma_sq", "target_norm", "tail_energy",
                "a", "delta")
_NULLABLE_REALS = ("gamma",)
# alpha = inf is the noiseless limit; these have no infinite setting
_FINITE_REALS = ("gamma", "omega1", "sigma_sq", "target_norm", "tail_energy", "a")


def _support(cfg: ExperimentConfig) -> int | None:
    """The spectrum's `numerical_support`, or None when its fields are
    malformed (validate reports those on their own)."""
    if not _is_int(cfg.p) or (cfg.d is not None and not _is_int(cfg.d)):
        return None
    try:
        spectrum = make_spectrum(cfg.spectrum_kind, cfg.p, gamma=cfg.gamma, d=cfg.d,
                                 omega1=cfg.omega1)
    except (TypeError, ValueError):
        return None
    return numerical_support(spectrum)


def validate(cfg: ExperimentConfig) -> list:
    """Return every constraint violation; empty list means the config is usable.

    A float field holding a non-real value, or a non-finite one where the
    field needs a finite value, gets one error and no range check, so a
    malformed value is reported rather than raised on.
    """
    e = []
    malformed = set()
    for name in _REAL_FIELDS:
        value = getattr(cfg, name)
        if value is None and name in _NULLABLE_REALS:
            continue
        if not _is_real(value):
            problem = "must be a real number"
        elif name in _FINITE_REALS and not math.isfinite(value):
            problem = "must be finite"
        else:
            continue
        e.append(f"{name} {problem}, not {value!r}")
        malformed.add(name)

    if not isinstance(cfg.clean_test, bool):
        e.append(f"clean_test must be true or false, not {cfg.clean_test!r}")
    if not _is_int(cfg.n) or cfg.n < 2:
        e.append("n must be an integer >= 2")
    if not _is_int(cfg.p) or cfg.p < 1:
        e.append("p must be an integer >= 1")
    grid = cfg.s_grid
    if (not isinstance(grid, (list, tuple)) or len(grid) == 0
            or any(not _is_int(s) or s < 1 for s in grid)):
        e.append("s_grid must be a nonempty list of integers >= 1")
    elif any(b <= a for a, b in zip(grid, grid[1:])):
        e.append("s_grid must be strictly increasing")
    if cfg.spectrum_kind not in SPECTRUM_KINDS:
        e.append(f"spectrum kind must be one of {SPECTRUM_KINDS}")
    elif cfg.spectrum_kind == "polynomial":
        if cfg.gamma is None or ("gamma" not in malformed and not cfg.gamma > 1):
            e.append("polynomial spectra need gamma > 1; slower decay has a divergent trace")
    elif cfg.spectrum_kind == "finite-rank":
        if cfg.d is None or not _is_int(cfg.d) or not (1 <= cfg.d):
            e.append("finite-rank spectra need an integer rank d >= 1")
        elif _is_int(cfg.p) and cfg.d > cfg.p:
            e.append("finite-rank d cannot exceed p")
    # an unrealizable target needs a direction outside the feature span, so
    # every s must lie below the count of eigenvalues above rounding
    support = _support(cfg) if cfg.target_mode == "unrealizable" else None
    if support is not None and isinstance(grid, (list, tuple)):
        too_wide = [s for s in grid if _is_int(s) and s >= support]
        if too_wide:
            e.append(f"unrealizable targets need every s below the spectrum's {support} "
                     f"eigenvalues above p * eps times the top one; s_grid has {too_wide}")
    if "omega1" not in malformed and not cfg.omega1 > 0:
        e.append("omega1 must be > 0")
    if cfg.mode not in MODES:
        e.append(f"mode must be one of {MODES}")
    if cfg.noise_family not in NOISE_FAMILIES:
        e.append(f"noise_family must be one of {NOISE_FAMILIES}")
    if "alpha" not in malformed and not cfg.alpha >= 0:
        e.append("alpha must be >= 0: the noise energy s**(-alpha) may not grow with s")
    if "sigma_sq" not in malformed and not cfg.sigma_sq >= 0:
        e.append("sigma_sq must be >= 0")
    if cfg.target_mode not in TARGET_MODES:
        e.append(f"target_mode must be one of {TARGET_MODES}")
    if "target_norm" not in malformed and not cfg.target_norm > 0:
        e.append("target_norm must be > 0")
    if (cfg.target_mode == "unrealizable" and "tail_energy" not in malformed
            and not cfg.tail_energy > 0):
        e.append("tail_energy must be > 0 for unrealizable targets")
    if not _is_int(cfg.ensemble_replicates) or cfg.ensemble_replicates < 1:
        e.append("ensemble_replicates must be an integer >= 1")
    if cfg.master_seed is not None and (not _is_int(cfg.master_seed) or cfg.master_seed < 0):
        e.append("master_seed must be a nonnegative integer")
    if "a" not in malformed and not cfg.a > 0:
        e.append("a must be > 0")
    if "delta" not in malformed and not (0 < cfg.delta < 1):
        e.append("delta must lie in (0, 1)")
    if cfg.target_noise not in TARGET_NOISE_MODES:
        e.append(f"target_noise must be one of {TARGET_NOISE_MODES}")
    if not _is_int(cfg.workers) or cfg.workers < 1:
        e.append("workers must be an integer >= 1")
    return e


def load_raw_config(source) -> dict:
    """The unvalidated config object in a path or a dict.

    An emitted manifest yields its resolved config block, which is what
    makes replays exact; a manifest of another artifact version is refused.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    elif isinstance(source, dict):
        raw = dict(source)
    else:
        raise TypeError("source must be a path or a dict")
    if not isinstance(raw, dict):
        raise ValidationError(["top level must be a JSON object"])
    if "artifact_version" in raw and isinstance(raw.get("config"), dict):
        version = raw["artifact_version"]
        if version != ARTIFACT_VERSION:
            raise ValidationError([f"manifest artifact_version {version!r} does not match "
                                   f"this code's {ARTIFACT_VERSION!r}; its draws would differ"])
        raw = dict(raw["config"])
    return raw


def parse_config(source, overrides: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a path, a dict, or an emitted manifest.

    overrides (flat field: value) win over the source.  Raises
    ValidationError listing every problem found.
    """
    flat, errors = _flatten(load_raw_config(source))
    if overrides:
        extra, more = _flatten(overrides)
        errors.extend(more)
        flat.update(extra)
    missing = [k for k in ("n", "p", "s_grid") if k not in flat]
    errors.extend(f"missing required key: {k!r}" for k in missing)
    if errors and missing:
        raise ValidationError(errors)
    try:
        cfg = ExperimentConfig(**flat)
    except TypeError:
        raise ValidationError(errors or ["could not construct config"])
    errors.extend(validate(cfg))
    if errors:
        raise ValidationError(errors)
    return cfg


def preset_config(name: str, overrides: dict | None = None) -> ExperimentConfig:
    if name not in PRESETS:
        raise ValidationError([f"unknown preset: {name!r}; have {sorted(PRESETS)}"])
    return parse_config(PRESETS[name], overrides)

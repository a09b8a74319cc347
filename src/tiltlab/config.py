"""Plain-text experiment configuration: key = value lines, '#' comments."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .ada import builtin_analysts
from .attack import _REGIONS
from .mechanisms import RECONSTRUCT_CAP, ClampedMean, EmpiricalMean, \
    GaussianMechanism
from .structure import column_sum_cap

KINDS = (
    "attack-hypercube",
    "attack-random",
    "ada-run",
    "mech-bench",
    "verify-structure",
    "divergence-check",
)


class ConfigError(ValueError):
    """Malformed configuration text; the message names the offending line."""


@dataclass
class ExperimentConfig:
    """Every knob for one experiment run.

    A run is fully determined by (config, master seed).  Fields that default
    to None are derived from the others at run time (documented per kind in
    the experiments module).
    """

    kind: str
    trials: int = 1
    # family shape
    d: int = 64
    m: int = 6
    k: int = 64
    n_columns: int = 2048
    # sampling
    n: int = 4
    fresh: int = 1000
    region: str = "l2-sphere"
    radius: Optional[float] = None
    theta_mode: str = "sampled"
    # privacy parameters
    epsilon: float = 1.0
    delta: float = 1e-6
    alpha: float = 0.125
    # mechanism / analyst selection
    mechanism: str = "exact-mean"
    bound: float = 0.5
    analyst: str = "exact-mean"
    sigma: float = 0.0
    folds: int = 2
    # staged protocol
    tau: Optional[float] = None
    C: float = 2.0
    W: Optional[int] = None
    mc_accuracy: int = 2048
    mc_gap: int = 8192
    # structure checks
    k_subset: int = 1
    n_subsets: int = 10_000
    n_theta: int = 200
    cap_scale: float = 0.1
    eta_probe: Optional[float] = None
    # mech-bench histograms
    support: int = 32
    mass: float = 1000.0
    universe: Optional[int] = None
    # output
    out: str = ""


def _to_int(text: str) -> int:
    return int(text, 0)


_CONVERTERS = {int: _to_int, float: float, str: str}

# Optional fields parse with the converter of their inner type
_OPTIONAL_TYPES = {
    "radius": float,
    "tau": float,
    "W": int,
    "eta_probe": float,
    "universe": int,
}


_ANNOTATIONS = {"int": int, "float": float, "str": str}


def _field_converter(name: str, annotation: str):
    if name in _OPTIONAL_TYPES:
        return _CONVERTERS[_OPTIONAL_TYPES[name]]
    return _CONVERTERS[_ANNOTATIONS[annotation]]


_SCHEMA = {f.name: _field_converter(f.name, f.type)
           for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines into a typed config.

    '#' starts a comment (whole-line or trailing); blank lines are skipped.
    Unknown keys and bad values are rejected with their line number; kind is
    the one required key.
    """
    values: dict = {}
    lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _SCHEMA[key](val)
        except ValueError:
            want = _SCHEMA[key].__name__.replace("_to_", "")
            raise ConfigError(
                f"line {lineno}: invalid {want} for {key!r}: {val!r}"
            ) from None
        lines[key] = lineno
    if "kind" not in values:
        raise ConfigError("kind is required")
    if values["kind"] not in KINDS:
        raise ConfigError(
            f"unknown kind {values['kind']!r}; expected one of {', '.join(KINDS)}"
        )
    cfg = ExperimentConfig(**values)
    check_ranges(cfg, lines)
    return cfg


# the config key whose value each built-in analyst's constructor takes
ANALYST_SETTINGS = {"gaussian-noised": "sigma", "sample-split": "folds",
                    "clamped-mean": "bound"}


def analyst_from_config(cfg: ExperimentConfig):
    """Build cfg.analyst from the one setting it reads; ValueError when the
    name is unknown or the analyst rejects the setting."""
    registry = builtin_analysts()
    if cfg.analyst not in registry:
        raise ValueError(f"analyst must be one of {', '.join(registry)}")
    key = ANALYST_SETTINGS.get(cfg.analyst)
    return registry[cfg.analyst](*([getattr(cfg, key)] if key else []))


MECHANISMS = ("exact-mean", "clamped-mean", "gaussian")


def mechanism_from_config(cfg: ExperimentConfig):
    """Build cfg.mechanism with the settings it reads; ValueError when the
    name is unknown."""
    if cfg.mechanism == "exact-mean":
        return EmpiricalMean()
    if cfg.mechanism == "clamped-mean":
        return ClampedMean(bound=cfg.bound)
    if cfg.mechanism == "gaussian":
        return GaussianMechanism(epsilon=cfg.epsilon, delta=cfg.delta)
    raise ValueError(f"unknown mechanism {cfg.mechanism!r}")


def check_ranges(cfg: ExperimentConfig, lines: Optional[dict] = None) -> None:
    """Reject values a run of cfg.kind cannot use, so a bad config exits 2
    before anything is written instead of producing error rows.

    ``lines`` maps keys to their config line numbers for the message;
    replayed manifest configs have none.
    """
    lines = lines or {}

    def fail(key, msg):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ConfigError(f"{where}{msg}")

    def at_least(*pairs):
        for key, low in pairs:
            if getattr(cfg, key) < low:
                fail(key, f"{key} must be >= {low}, got {getattr(cfg, key)}")

    def privacy_budget():
        if not 0 < cfg.epsilon < math.inf:
            fail("epsilon",
                 f"epsilon must be finite and > 0, got {cfg.epsilon}")
        if not 0 < cfg.delta < 1:
            fail("delta", f"delta must be in (0, 1), got {cfg.delta}")

    if cfg.trials < 0:
        fail("trials", "trials must be nonnegative")
    if cfg.kind in ("attack-hypercube", "attack-random"):
        at_least(("d", 1), ("n", 1), ("fresh", 2))
        if cfg.kind == "attack-random":
            at_least(("n_columns", 2))
        if cfg.region not in _REGIONS:
            fail("region", f"region must be one of {', '.join(_REGIONS)}, "
                           f"got {cfg.region!r}")
        if cfg.radius is not None and not 0 < cfg.radius < math.inf:
            fail("radius",
                 f"radius must be unset or finite and > 0, got {cfg.radius}")
        if cfg.mechanism not in MECHANISMS:
            fail("mechanism", f"mechanism must be one of "
                              f"{', '.join(MECHANISMS)}, got {cfg.mechanism!r}")
        if cfg.mechanism == "gaussian":
            privacy_budget()
        if cfg.mechanism == "clamped-mean" and not cfg.bound > 0:
            fail("bound", f"bound must be > 0, got {cfg.bound}")
    elif cfg.kind == "verify-structure":
        at_least(("d", 1), ("n_columns", 2), ("n_subsets", 1), ("n_theta", 1))
        cap = column_sum_cap(cfg.d, cfg.n_columns, cfg.cap_scale)
        if not 1 <= cfg.k_subset <= cap:
            fail("k_subset",
                 f"k_subset must be in [1, {cap:.3f}] at d={cfg.d}, "
                 f"n_columns={cfg.n_columns}, cap_scale={cfg.cap_scale}; "
                 f"got {cfg.k_subset}")
    elif cfg.kind == "ada-run":
        at_least(("d", 1), ("n", 1), ("mc_accuracy", 2), ("mc_gap", 2))
        if not 1 <= cfg.m <= RECONSTRUCT_CAP:
            fail("m", f"m must be in [1, {RECONSTRUCT_CAP}], got {cfg.m}")
        if cfg.k < 1 or cfg.k & (cfg.k - 1):
            fail("k", f"k must be a power of two, got {cfg.k}")
        if not 0 < cfg.alpha < 1:
            fail("alpha", f"alpha must be in (0, 1), got {cfg.alpha}")
        if cfg.W is not None and cfg.W < cfg.n ** 2:
            fail("W", f"W must be >= n^2 = {cfg.n ** 2}, got {cfg.W}")
        if cfg.tau is not None and not 0 < cfg.tau < math.inf:
            fail("tau", f"tau must be unset or finite and > 0, got {cfg.tau}")
        if not 0 < cfg.C < math.inf:
            fail("C", f"C must be finite and > 0, got {cfg.C}")
        if cfg.theta_mode not in ("sampled", "frozen"):
            fail("theta_mode", f"theta_mode must be sampled or frozen, "
                               f"got {cfg.theta_mode!r}")
        try:
            analyst_from_config(cfg)
        except ValueError as err:
            key = ANALYST_SETTINGS.get(cfg.analyst, "analyst")
            fail(key, f"{err}, got {getattr(cfg, key)!r}")
    elif cfg.kind == "mech-bench":
        at_least(("support", 1))
        privacy_budget()
        if not 0 <= cfg.mass < math.inf:
            fail("mass", f"mass must be finite and >= 0, got {cfg.mass}")
        if cfg.universe is not None and cfg.universe < cfg.support:
            fail("universe", f"universe must be unset or >= support = "
                             f"{cfg.support}, got {cfg.universe}")

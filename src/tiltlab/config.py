"""Plain-text experiment configuration: key = value lines, '#' comments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

from .ada import ClampedMeanAnalyst, ExactMeanAnalyst, \
    GaussianNoisedAnalyst, SampleSplitAnalyst
from .attack import REGIONS
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
    to None are derived from the others at run time; "Derived defaults" in
    the README's config section lists each one.
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


def _field_type(hint):
    """(type, optional) of a field; an Optional field holds its inner type
    or None."""
    inner = [t for t in get_args(hint) if t is not type(None)]
    return (inner[0], True) if inner else (hint, False)


_FIELDS = {name: _field_type(hint) for name, hint
           in get_type_hints(ExperimentConfig).items()}
_SCHEMA = {name: _CONVERTERS[typ] for name, (typ, _) in _FIELDS.items()}


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
    cfg = config_from_values(values)
    check_ranges(cfg, lines)
    return cfg


def config_from_values(values) -> ExperimentConfig:
    """Build a config from typed values, such as a manifest's JSON config.

    Unknown keys, a value whose type is not its field's (a bool is no
    number, an int is a float, None fits only an Optional field), and a
    missing or unknown kind raise ConfigError; ranges are not checked.
    """
    if not isinstance(values, dict):
        raise ConfigError(f"expected a mapping of keys, got {values!r}")
    for key, value in values.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}")
        typ, optional = _FIELDS[key]
        allowed = (int, float) if typ is float else typ
        if not ((value is None and optional) or (
                isinstance(value, allowed) and not isinstance(value, bool))):
            want = typ.__name__ + (" or None" if optional else "")
            raise ConfigError(f"{key} must be {want}, got {value!r}")
    if "kind" not in values:
        raise ConfigError("kind is required")
    if values["kind"] not in KINDS:
        raise ConfigError(
            f"unknown kind {values['kind']!r}; expected one of {', '.join(KINDS)}"
        )
    return ExperimentConfig(**values)


# the column softmax's logits <a_c, theta> are at most sqrt(d) * radius in
# size, and its shift to the largest doubles that: radius * d at most this
# keeps every one of them finite, with room to spare
RADIUS_DIM_CAP = 1e300

# a Gaussian-noised answer coordinate is a mean in [-1, 1] plus sigma times
# a normal draw, which numpy's ziggurat keeps below 14 in size (its tail is
# r - ln(1 - U) / r with 1 - U >= 2^-53); a score sums d products of such a
# coordinate with a difference of two points of [-1, 1]^d, so sigma * d at
# most this keeps every score below about 3e101 and every sum of their
# squares over any fresh count, like the moment bound, far from overflow
NOISE_DIM_CAP = 1e100

# each analyst name: its class and the one config key whose value its
# constructor takes (None for none)
ANALYSTS = {
    "exact-mean": (ExactMeanAnalyst, None),
    "gaussian-noised": (GaussianNoisedAnalyst, "sigma"),
    "sample-split": (SampleSplitAnalyst, "folds"),
    "clamped-mean": (ClampedMeanAnalyst, "bound"),
}


def analyst_from_config(cfg: ExperimentConfig):
    """Build cfg.analyst from the one setting it reads; ValueError when the
    name is unknown or the analyst rejects the setting."""
    if cfg.analyst not in ANALYSTS:
        raise ValueError(f"analyst must be one of {', '.join(ANALYSTS)}")
    cls, key = ANALYSTS[cfg.analyst]
    return cls(*([getattr(cfg, key)] if key else []))


# each mechanism name: its constructor from the settings it reads
MECHANISMS = {
    "exact-mean": lambda cfg: EmpiricalMean(),
    "clamped-mean": lambda cfg: ClampedMean(bound=cfg.bound),
    "gaussian": lambda cfg: GaussianMechanism(epsilon=cfg.epsilon,
                                              delta=cfg.delta),
}


def mechanism_from_config(cfg: ExperimentConfig):
    """Build cfg.mechanism with the settings it reads; ValueError when the
    name is unknown."""
    if cfg.mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {cfg.mechanism!r}")
    return MECHANISMS[cfg.mechanism](cfg)


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

    def unset_or_positive(key):
        value = getattr(cfg, key)
        if value is not None and not 0 < value < math.inf:
            fail(key, f"{key} must be unset or finite and > 0, got {value}")

    def column_softmax_radius():
        if cfg.radius is not None and cfg.radius * cfg.d > RADIUS_DIM_CAP:
            fail("radius", f"radius * d must be <= {RADIUS_DIM_CAP:g} for "
                           f"the column softmax, got radius = {cfg.radius} "
                           f"at d = {cfg.d}")

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
        if cfg.region not in REGIONS:
            fail("region", f"region must be one of {', '.join(REGIONS)}, "
                           f"got {cfg.region!r}")
        unset_or_positive("radius")
        if cfg.kind == "attack-random":
            column_softmax_radius()
        if cfg.mechanism not in MECHANISMS:
            fail("mechanism", f"mechanism must be one of "
                              f"{', '.join(MECHANISMS)}, got {cfg.mechanism!r}")
        if cfg.mechanism == "gaussian":
            privacy_budget()
            sigma = mechanism_from_config(cfg).sigma(cfg.n, cfg.d)
            if not sigma * cfg.d <= NOISE_DIM_CAP:
                fail("epsilon", f"the gaussian noise scale sigma * d must be "
                                f"<= {NOISE_DIM_CAP:g}, got sigma = {sigma:g} "
                                f"at epsilon = {cfg.epsilon}, n = {cfg.n}, "
                                f"d = {cfg.d}")
        if cfg.mechanism == "clamped-mean" and not cfg.bound > 0:
            fail("bound", f"bound must be > 0, got {cfg.bound}")
    elif cfg.kind == "verify-structure":
        at_least(("d", 1), ("n_columns", 2), ("n_subsets", 1), ("n_theta", 1))
        if not 0 < cfg.cap_scale < math.inf:
            fail("cap_scale",
                 f"cap_scale must be finite and > 0, got {cfg.cap_scale}")
        cap = column_sum_cap(cfg.d, cfg.n_columns, cfg.cap_scale)
        if not 1 <= cfg.k_subset <= cap:
            fail("k_subset",
                 f"k_subset must be in [1, {cap:.3f}] at d={cfg.d}, "
                 f"n_columns={cfg.n_columns}, cap_scale={cfg.cap_scale}; "
                 f"got {cfg.k_subset}")
        unset_or_positive("radius")
        column_softmax_radius()
        if cfg.eta_probe is not None and not math.isfinite(cfg.eta_probe):
            fail("eta_probe",
                 f"eta_probe must be unset or finite, got {cfg.eta_probe}")
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
        unset_or_positive("radius")
        unset_or_positive("tau")
        if not 0 < cfg.C < math.inf:
            fail("C", f"C must be finite and > 0, got {cfg.C}")
        if cfg.theta_mode not in ("sampled", "frozen"):
            fail("theta_mode", f"theta_mode must be sampled or frozen, "
                               f"got {cfg.theta_mode!r}")
        if cfg.analyst == "sample-split" and cfg.folds > cfg.n:
            # a fold with no points has no mean to answer a stage from
            fail("folds", f"folds must be <= n = {cfg.n} for sample-split, "
                          f"got {cfg.folds}")
        try:
            analyst_from_config(cfg)
        except ValueError as err:
            key = ANALYSTS.get(cfg.analyst, (None, None))[1] or "analyst"
            fail(key, f"{err}, got {getattr(cfg, key)!r}")
    elif cfg.kind == "mech-bench":
        at_least(("support", 1))
        privacy_budget()
        if not 0 <= cfg.mass < math.inf:
            fail("mass", f"mass must be finite and >= 0, got {cfg.mass}")
        if cfg.universe is not None and cfg.universe < cfg.support:
            fail("universe", f"universe must be unset or >= support = "
                             f"{cfg.support}, got {cfg.universe}")

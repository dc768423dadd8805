"""Synthetic forecasting benchmarks with known temporal/feature saliency.

Eight built-in recipes (SYN1..SYN8) define which features drive the
target, at which lags, and under how much Gaussian noise. Features are
independent AR(1) processes (coefficient 0.8) mixed with a random-period
sinusoid and z-scored; the target is a fixed linear combination of the
important features' current and lagged values plus noise, also z-scored.
Because the generating equation is known, every dataset carries an exact
binary saliency mask over (lookback position, feature).

The AR(1) recursion is sequential, so it runs as a Python loop, but over
Python floats rather than numpy scalars: each step makes the same two
IEEE-754 roundings (one multiply, one add), so the series is exactly the
one an element-by-element numpy loop produces, at about a quarter of the
cost. The CSV writer formats whole rows from one template for the same
reason. Both convert a block of values to Python objects at a time, so
the objects alive at once stay few.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

AR_COEF = 0.8
SINE_PERIOD_RANGE = (20.0, 60.0)
# The sinusoid dominates the AR noise so targets stay forecastable across
# a long horizon; identifiability of the lag structure is unaffected.
SINE_AMPLITUDE = 6.0
COEF_RANGE = (0.5, 1.0)
DEFAULT_N_FEATURES = 6
DEFAULT_N_SAMPLES = 10_000
DEFAULT_SEED = 42
# values (AR steps) or rows (CSV lines) turned into Python objects at a time
_BLOCK = 256


def _span(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(range(lo, hi + 1))


_SYN5_LAGS = _span(71, 77)
_SYN6_LAGS = _span(48, 57)

# name -> (important lags, important features, target noise sigma)
_BUILTIN_TABLE: dict[str, tuple[tuple[int, ...], tuple[int, ...], float]] = {
    "SYN1": (_span(1, 15), (0, 1), 0.01),
    "SYN2": (
        _span(1, 5) + (9, 10, 15, 16, 18, 20, 25, 26, 35, 36) + _span(50, 52) + _span(91, 95),
        (0, 2),
        0.05,
    ),
    "SYN3": ((9, 10, 15, 16, 18) + _span(20, 25) + (31, 34) + _span(60, 65), (1, 2), 0.08),
    "SYN4": ((9, 10, 15, 16) + _span(18, 21) + (41, 42, 45, 46), (1, 2), 0.10),
    "SYN5": (_SYN5_LAGS, (1, 2), 0.06),
    "SYN6": (_SYN6_LAGS, (0, 2), 0.05),
    "SYN7": ((60,) + _span(62, 69), (0, 1), 0.02),
    # blend of the SYN5 and SYN6 dependency structures
    "SYN8": (tuple(sorted(set(_SYN5_LAGS) | set(_SYN6_LAGS))), (0, 1, 2), 0.11),
}

BUILTIN_NAMES = tuple(_BUILTIN_TABLE)


@dataclass(frozen=True)
class SynthSpec:
    """Declarative recipe for one synthetic dataset."""

    name: str
    important_lags: tuple[int, ...]
    important_features: tuple[int, ...]
    noise_sigma: float
    n_features: int = DEFAULT_N_FEATURES
    n_samples: int = DEFAULT_N_SAMPLES
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "important_lags", tuple(sorted(set(int(v) for v in self.important_lags))))
        object.__setattr__(self, "important_features", tuple(sorted(set(int(v) for v in self.important_features))))
        if any(lag < 1 for lag in self.important_lags):
            raise ValueError("lags must be >= 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if any(not 0 <= j < self.n_features for j in self.important_features):
            raise ValueError("important_features must index into 0..n_features-1")
        if self.n_features < 1 or self.n_samples < 1:
            raise ValueError("n_features and n_samples must be >= 1")

    @property
    def max_lag(self) -> int:
        return max(self.important_lags, default=0)

    @classmethod
    def from_dict(cls, d: dict, source: str = "") -> "SynthSpec":
        """Inverse of ``asdict`` on a dict read from JSON; a missing or unknown
        key, or a value not of its field's JSON type, raises ``ValueError``
        naming ``source`` and the key. A bool is neither a number nor an integer."""
        for key in d:
            if key not in _SPEC_TYPES:
                raise ValueError(f"{source}unknown key {key!r}")
        for key, (accepts, what) in _SPEC_TYPES.items():
            if key not in d:
                raise ValueError(f"{source}missing key {key!r}")
            if not accepts(d[key]):
                raise ValueError(f"{source}key {key!r}: expected {what}, got {json.dumps(d[key])}")
        return cls(**{**d, "noise_sigma": float(d["noise_sigma"])})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


# SynthSpec field -> (accepts its JSON value, what the value must be)
_SPEC_TYPES = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "important_lags": (_is_int_list, "a list of integers"),
    "important_features": (_is_int_list, "a list of integers"),
    # NaN and Infinity, which Python's json reads, are not JSON numbers
    "noise_sigma": (lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v), "a finite number"),
    "n_features": (_is_int, "an integer"),
    "n_samples": (_is_int, "an integer"),
    "seed": (_is_int, "an integer"),
}


@dataclass
class SaliencyTruth:
    """Binary ground-truth saliency over (lookback position, feature).

    mask[T - lag, j] is 1 exactly when `lag` is an important lag and j an
    important feature; `temporal` is the feature-wise any.
    """

    mask: np.ndarray
    temporal: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.int8)
        self.temporal = self.mask.any(axis=1).astype(np.int8)


def builtin_spec(name: str, n_samples: int = DEFAULT_N_SAMPLES, seed: int = DEFAULT_SEED) -> SynthSpec:
    """One of the eight built-in recipes, with optional size/seed overrides."""
    try:
        lags, features, noise = _BUILTIN_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown dataset {name!r}; expected one of {BUILTIN_NAMES}") from None
    return SynthSpec(
        name=name,
        important_lags=lags,
        important_features=features,
        noise_sigma=noise,
        n_samples=n_samples,
        seed=seed,
    )


def _rngs(spec: SynthSpec) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    feat_ss, coef_ss, noise_ss = np.random.SeedSequence(spec.seed).spawn(3)
    return (
        np.random.default_rng(feat_ss),
        np.random.default_rng(coef_ss),
        np.random.default_rng(noise_ss),
    )


def ar1_series(innovations: np.ndarray) -> np.ndarray:
    """series[0] = innovations[0], series[i] = AR_COEF * series[i - 1] + innovations[i]."""
    series = np.empty(len(innovations))
    # -0.0 is the identity of float addition, so series[0] is innovations[0] exactly
    level = -0.0
    for lo in range(0, len(innovations), _BLOCK):
        steps = innovations[lo : lo + _BLOCK].tolist()
        for i, step in enumerate(steps):
            level = steps[i] = AR_COEF * level + step
        series[lo : lo + len(steps)] = steps
    return series


def generate_features(spec: SynthSpec) -> np.ndarray:
    """(n_samples, n_features) matrix of z-scored AR(1)+sinusoid features."""
    rng, _, _ = _rngs(spec)
    n, f = spec.n_samples, spec.n_features
    out = np.empty((n, f))
    t = np.arange(n)
    for j in range(f):
        series = ar1_series(rng.normal(0.0, 1.0, size=n))
        period = rng.uniform(*SINE_PERIOD_RANGE)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        series = series + SINE_AMPLITUDE * np.sin(2.0 * np.pi * t / period + phase)
        out[:, j] = (series - series.mean()) / series.std()
    return out


def draw_coefficients(spec: SynthSpec):
    """Per-dataset target coefficients: current-value weights plus lagged
    weights of magnitude U[0.5, 1] with signs alternating by lag order."""
    _, rng, _ = _rngs(spec)
    current = {j: rng.uniform(*COEF_RANGE) for j in spec.important_features}
    lagged = {}
    for j in spec.important_features:
        for order, lag in enumerate(spec.important_lags):
            magnitude = rng.uniform(*COEF_RANGE)
            lagged[(j, lag)] = magnitude if order % 2 == 0 else -magnitude
    return current, lagged


def compose_target(
    features: np.ndarray,
    spec: SynthSpec,
    current: dict[int, float],
    lagged: dict[tuple[int, int], float],
) -> np.ndarray:
    """Assemble the target from explicit coefficients; rows before max_lag
    are dropped and the result is z-scored."""
    n = features.shape[0]
    start = spec.max_lag
    if n <= start:
        raise ValueError(f"n_samples {n} <= max lag {start}: no valid rows")
    _, _, rng = _rngs(spec)
    y = np.zeros(n - start)
    for j, coef in current.items():
        y += coef * features[start:, j]
    for (j, lag), coef in lagged.items():
        y += coef * features[start - lag : n - lag, j]
    if spec.noise_sigma > 0:
        y = y + rng.normal(0.0, spec.noise_sigma, size=n - start)
    std = y.std()
    if std == 0.0:
        raise ValueError("degenerate target: zero variance")
    return (y - y.mean()) / std


def generate_target(features: np.ndarray, spec: SynthSpec) -> np.ndarray:
    """Target series of length n_samples - max_lag, aligned with
    features[max_lag:]."""
    current, lagged = draw_coefficients(spec)
    return compose_target(features, spec, current, lagged)


def generate_dataset(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """(features, target) with the warmup rows already dropped from both."""
    features = generate_features(spec)
    target = generate_target(features, spec)
    return features[spec.max_lag :], target


def ground_truth_mask(spec: SynthSpec, lookback: int) -> SaliencyTruth:
    """Binary (lookback, n_features) mask implied by the generating equation."""
    if lookback <= spec.max_lag:
        raise ValueError(f"lookback {lookback} must exceed the largest lag {spec.max_lag}")
    mask = np.zeros((lookback, spec.n_features), dtype=np.int8)
    for lag in spec.important_lags:
        for j in spec.important_features:
            mask[lookback - lag, j] = 1
    return SaliencyTruth(mask)


# ---------------------------------------------------------------------------
# file formats: CSV data + JSON sidecar, CSV masks


def feature_names(spec: SynthSpec) -> list[str]:
    return [f"feat_{j}" for j in range(spec.n_features)]


def export_dataset(features: np.ndarray, target: np.ndarray, spec: SynthSpec, path) -> Path:
    """Write `<path>` as CSV (features..., target) and `<path stem>.json`
    carrying the spec; 17 significant digits so values round-trip exactly."""
    path = Path(path)
    if features.shape[0] != target.shape[0]:
        raise ValueError("features and target row counts differ")
    # csv.writer's excel dialect: no field here needs quoting, lines end in \r\n
    line = ",".join(["%.17g"] * (features.shape[1] + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(feature_names(spec) + ["target"]) + "\r\n")
        for lo in range(0, len(target), _BLOCK):
            rows = zip(features[lo : lo + _BLOCK].tolist(), target[lo : lo + _BLOCK].tolist())
            fh.writelines(line % (*row, value) for row, value in rows)
    sidecar = path.with_suffix(".json")
    sidecar.write_text(json.dumps(asdict(spec), indent=1, sort_keys=True))
    return path


def export_mask(truth: SaliencyTruth, path) -> Path:
    path = Path(path)
    np.savetxt(path, truth.mask, fmt="%d", delimiter=",")
    return path


def load_mask(path) -> SaliencyTruth:
    """Read a mask as ``export_mask`` writes it: one row of 0/1 cells per
    lookback position. A bad cell, a ragged row or a file with no rows
    raises ValueError naming the file (rows and columns count from 1)."""
    rows: list[list[int]] = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if rows and len(cells) != len(rows[0]):
                raise ValueError(f"{path}: row {number} has {len(cells)} columns, "
                                 f"the rows before it {len(rows[0])}")
            for column, cell in enumerate(cells, 1):
                if cell not in ("0", "1"):
                    raise ValueError(f"{path}: row {number}, column {column}: expected 0 or 1, got {cell!r}")
            rows.append([int(cell) for cell in cells])
    if not rows:
        raise ValueError(f"{path}: mask file has no rows")
    return SaliencyTruth(np.array(rows))

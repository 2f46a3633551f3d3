"""Strict key-value experiment configuration.

Grammar (one entry per line):

    # comment
    key = value

Keys are dotted lowercase identifiers ``[a-z0-9_.-]``.  Values are a single
token (string, int, float, true/false) or a space-separated list of floats.
Unknown keys are fatal, as are duplicate keys; parse errors report line and
column.  Assertions take the form

    check.<metric> = le <value>
    check.<metric> = ge <value>
    check.<metric> = eq <value> <tolerance>

where <metric> must be one of the metrics published by the configured
experiment kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .spaces import DEFAULT_SEED

KINDS = (
    "solve",
    "response",
    "spectrum",
    "hoelder-scan",
    "taylor-check",
    "pressure-check",
    "example-composition",
    "example-affine",
)

_KEY_RE = re.compile(r"[a-z0-9_.\-]+\Z")

_MAP_KEYS = {"map.degree", "map.sin", "map.cos", "map.kink_exponent"}
_WEIGHT_KEYS = {"weight.kind", "weight.value", "weight.rate", "weight.const",
                "weight.sin", "weight.cos"}
_COMMON_KEYS = {"kind", "seed", "resolution", "param_box"}

ALLOWED_KEYS = {
    "spectrum": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS | {"u0"},
    "solve": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS | {"u0", "tolerance"},
    "response": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS | {"u0", "direction", "fd_delta"},
    "taylor-check": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS
    | {"u0", "direction", "deltas", "alpha", "beta"},
    "hoelder-scan": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS
    | {"u0", "direction", "deltas", "alpha", "beta", "enforce_gamma"},
    "pressure-check": _COMMON_KEYS | _MAP_KEYS | _WEIGHT_KEYS
    | {"u0", "observable.count", "observable.const", "observable.sin", "observable.cos"},
    "example-composition": {"kind", "seed", "radius", "param_radius",
                            "interval_resolution", "samples", "fd_delta"},
    "example-affine": {"kind", "seed", "regularity", "exponent", "epsilon",
                       "interval_resolution", "deltas"},
}

METRICS = {
    "spectrum": ("lambda", "sigma", "sigma_power", "eigen_residual", "phi_min",
                 "phi_const_dev", "ell_lebesgue_dev"),
    "solve": ("residual", "iterations", "contraction_estimate"),
    "response": ("lambda", "max_abs_diff", "rel_c0_error", "route_equiv_dev",
                 "ell_pairing_dev"),
    "taylor-check": ("fitted_order", "n_points", "max_normalized_residual"),
    "hoelder-scan": ("op_slope", "fp_slope", "gamma"),
    "pressure-check": ("max_rel_diff", "n_observables"),
    "example-composition": ("ball_max", "ball_violations", "contraction_max",
                            "contraction_violations", "q_norm_max", "q_norm_violations",
                            "second_abs_constant", "second_rel_linear"),
    "example-affine": ("slope", "n_points"),
}

_CHECK_OPS = ("le", "ge", "eq")


@dataclass(frozen=True)
class CheckSpec:
    metric: str
    op: str
    value: float
    tol: float = 0.0

    def evaluate(self, actual: float) -> bool:
        if self.op == "le":
            return actual <= self.value
        if self.op == "ge":
            return actual >= self.value
        return abs(actual - self.value) <= self.tol

    def describe(self) -> str:
        if self.op == "eq":
            return f"{self.metric} == {self.value:g} (tol {self.tol:g})"
        symbol = "<=" if self.op == "le" else ">="
        return f"{self.metric} {symbol} {self.value:g}"


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    path: str
    checks: list[CheckSpec] = field(default_factory=list)
    values: dict = field(default_factory=dict)  # key -> (raw string, line)

    # -- typed accessors ----------------------------------------------------

    def _raw(self, key: str):
        return self.values.get(key)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        entry = self._raw(key)
        return entry[0] if entry else default

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        entry = self._raw(key)
        if entry is None:
            return default
        raw, line = entry
        try:
            return int(raw, 0)
        except ValueError:
            raise ConfigError(f"key '{key}': expected an integer, got {raw!r}", line=line)

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        entry = self._raw(key)
        if entry is None:
            return default
        raw, line = entry
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': expected a number, got {raw!r}", line=line)

    def get_bool(self, key: str, default: bool) -> bool:
        entry = self._raw(key)
        if entry is None:
            return default
        raw, line = entry
        if raw in ("true", "false"):
            return raw == "true"
        raise ConfigError(f"key '{key}': expected true/false, got {raw!r}", line=line)

    def get_float_list(self, key: str, default=()) -> list[float]:
        entry = self._raw(key)
        if entry is None:
            return list(default)
        raw, line = entry
        try:
            return [float(tok) for tok in raw.split()]
        except ValueError:
            raise ConfigError(f"key '{key}': expected numbers, got {raw!r}", line=line)


def _parse_lines(text: str, source: str) -> dict:
    values: dict = {}
    for lineno, full_line in enumerate(text.splitlines(), start=1):
        line = full_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}: expected 'key = value'", line=lineno, column=len(line) + 1
            )
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        value = value_part.strip()
        if not key or not _KEY_RE.match(key):
            bad = next(
                (i + 1 for i, ch in enumerate(key_part) if not ch.isspace()
                 and not re.match(r"[a-z0-9_.\-]", ch)),
                1,
            )
            raise ConfigError(f"{source}: malformed key {key!r}", line=lineno, column=bad)
        if key in values:
            raise ConfigError(f"{source}: duplicate key {key!r}", line=lineno)
        if not value:
            raise ConfigError(f"{source}: key {key!r} has an empty value", line=lineno)
        values[key] = (value, lineno)
    return values


def _parse_check(key: str, raw: str, line: int) -> CheckSpec:
    metric = key[len("check."):]
    tokens = raw.split()
    if not tokens or tokens[0] not in _CHECK_OPS:
        raise ConfigError(
            f"check '{metric}': expected one of {_CHECK_OPS}, got {raw!r}", line=line
        )
    op = tokens[0]
    expected_args = 3 if op == "eq" else 2
    if len(tokens) != expected_args:
        raise ConfigError(
            f"check '{metric}': '{op}' takes {expected_args - 1} numeric argument(s)",
            line=line,
        )
    try:
        value = float(tokens[1])
        tol = float(tokens[2]) if op == "eq" else 0.0
    except ValueError:
        raise ConfigError(f"check '{metric}': non-numeric argument in {raw!r}", line=line)
    return CheckSpec(metric, op, value, tol)


def load_config(path, seed_override: Optional[int] = None,
                resolution_override: Optional[int] = None) -> ExperimentConfig:
    """Parse and validate a config file; every key must be known for its kind."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = _parse_lines(path.read_text(encoding="utf-8"), str(path))

    if "kind" not in values:
        raise ConfigError(f"{path}: missing required key 'kind'")
    kind, kind_line = values["kind"]
    if kind not in KINDS:
        raise ConfigError(
            f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}", line=kind_line
        )

    checks = []
    plain: dict = {}
    for key, (raw, line) in values.items():
        if key.startswith("check."):
            spec = _parse_check(key, raw, line)
            if spec.metric not in METRICS[kind]:
                raise ConfigError(
                    f"check references unknown metric '{spec.metric}' for kind '{kind}' "
                    f"(known: {', '.join(METRICS[kind])})",
                    line=line,
                )
            checks.append(spec)
        else:
            if key not in ALLOWED_KEYS[kind]:
                raise ConfigError(f"unknown key {key!r} for kind '{kind}'", line=line)
            plain[key] = (raw, line)

    cfg = ExperimentConfig(kind=kind, seed=0, path=str(path), checks=checks, values=plain)
    cfg.seed = seed_override if seed_override is not None else cfg.get_int("seed", DEFAULT_SEED)
    if resolution_override is not None:
        cfg.values["resolution"] = (str(resolution_override), 0)

    n = cfg.get_int("resolution", 64)
    if n < 8 or n % 2 != 0:
        raise ConfigError(f"resolution must be an even integer >= 8, got {n}")
    for key in ("tolerance", "fd_delta"):
        tol = cfg.get_float(key, None)
        if tol is not None and tol <= 0.0:
            raise ConfigError(f"key '{key}' must be positive, got {tol:g}")
    return cfg

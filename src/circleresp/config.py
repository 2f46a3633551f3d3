"""Strict key-value experiment configuration: the grammar, not the kinds.

Grammar (one entry per line):

    # comment
    key = value

Keys are dotted lowercase identifiers ``[a-z0-9_.-]``.  Values are a single
token (string, int, float, true/false) or a space-separated list of floats.
Duplicate keys are fatal; parse errors report line and column.  Assertions
take the form

    check.<metric> = le <value>
    check.<metric> = ge <value>
    check.<metric> = eq <value> <tolerance>

Which kinds exist, which keys each kind accepts and which metrics it
publishes is declared once, in ``cli.EXPERIMENTS``; ``cli.run_experiment``
validates a config against that declaration before it runs.  This module
does not import the CLI, so parsing a config stays cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .spaces import DEFAULT_SEED

_KEY_RE = re.compile(r"[a-z0-9_.\-]+\Z")

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
    # every entry, checks included: key -> (raw string, line); line is None
    # for a value set by an override
    values: dict = field(default_factory=dict)

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
    """Parse a config file and check the grammar and the kind-independent values."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = _parse_lines(path.read_text(encoding="utf-8"), str(path))
    if "kind" not in values:
        raise ConfigError(f"{path}: missing required key 'kind'")
    checks = [_parse_check(key, raw, line) for key, (raw, line) in values.items()
              if key.startswith("check.")]

    cfg = ExperimentConfig(kind=values["kind"][0], seed=0, path=str(path), checks=checks,
                           values=values)
    cfg.seed = seed_override if seed_override is not None else cfg.get_int("seed", DEFAULT_SEED)
    if resolution_override is not None:
        cfg.values["resolution"] = (str(resolution_override), None)

    if "resolution" in cfg.values:
        n = cfg.get_int("resolution")
        if n < 8 or n % 2 != 0:
            raise ConfigError(f"resolution must be an even integer >= 8, got {n}")
    for key in ("tolerance", "fd_delta"):
        tol = cfg.get_float(key, None)
        if tol is not None and tol <= 0.0:
            raise ConfigError(f"key '{key}' must be positive, got {tol:g}")
    return cfg

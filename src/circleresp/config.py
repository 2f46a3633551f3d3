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

with finite numbers and a non-negative tolerance.

A key is valid iff its kind reads it.  :func:`load_config` reads ``kind``,
``seed`` and the checks; the kind's runner, in ``cli.EXPERIMENTS``, reads
the rest through the typed accessors, then refuses the unread ones with
:meth:`ExperimentConfig.refuse_unread`.  Only this module knows where a key
was set: every config error about a key's value is placed by
:meth:`ExperimentConfig.refuse`, at the line of the first of its keys that
the config sets and the kind has read.  This module does not import the
CLI, so parsing a config stays cheap.
"""

from __future__ import annotations

import math
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
        """Whether ``actual`` meets the check; a non-finite value meets none."""
        if not math.isfinite(actual):
            return False
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
    # for a value set by an override.  Only this module reads it: refuse
    # places an error about a key's value at that key's line.
    values: dict = field(default_factory=dict)
    # the keys asked for, set or not: kind, read by picking the runner, the
    # checks, which load_config parses, and each key a runner reads
    read: set = field(default_factory=lambda: {"kind"})

    # -- typed accessors ----------------------------------------------------

    def _raw(self, key: str):
        self.read.add(key)
        return self.values.get(key)

    def refuse(self, message: str, *keys: str) -> ConfigError:
        """The ConfigError ``message`` at the line of the first of ``keys`` set and read.

        The keys are taken in the caller's order, so the caller names the
        likeliest culprit first; a key the config sets but the kind has not
        read is skipped.  The error has no line when no key qualifies, or
        when the first that does was set by an override.
        """
        line = next((self.values[key][1] for key in keys
                     if key in self.values and key in self.read), None)
        return ConfigError(message, line=line)

    def refuse_unread(self) -> None:
        """ConfigError at the first line that sets a key not yet read.

        Checks are read when the config is loaded, so only a kind's own keys
        can be unread.  A key set by an override has no line, so its error
        names the option.
        """
        for key, (_, line) in self.values.items():
            if key not in self.read:
                setting = f"key {key!r}" if line is not None else f"option --{key}"
                raise ConfigError(f"{setting} is not read by kind {self.kind!r}", line=line)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        entry = self._raw(key)
        return entry[0] if entry else default

    def _parsed(self, key: str, default, parse, expected: str):
        """``parse`` of the value of ``key``, ``default`` if unset; ConfigError unless finite."""
        raw = self.get_str(key)
        if raw is None:
            return default
        try:
            value = parse(raw)
        except ValueError:
            raise self.refuse(f"key '{key}': expected {expected}, got {raw!r}", key)
        if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
            raise self.refuse(f"key '{key}' must be finite, got {raw!r}", key)
        return value

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        return self._parsed(key, default, lambda raw: int(raw, 0), "an integer")

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        return self._parsed(key, default, float, "a number")

    def get_bool(self, key: str, default: bool) -> bool:
        return self._parsed(key, default, _parse_bool, "true/false")

    def get_float_list(self, key: str, default=()) -> list[float]:
        return self._parsed(key, list(default),
                            lambda raw: [float(tok) for tok in raw.split()], "numbers")


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


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
    if not (math.isfinite(value) and math.isfinite(tol)):
        raise ConfigError(f"check '{metric}': arguments must be finite, got {raw!r}", line=line)
    if tol < 0.0:  # no value is within a negative tolerance
        raise ConfigError(f"check '{metric}': tolerance must be non-negative, got {raw!r}",
                          line=line)
    return CheckSpec(metric, op, value, tol)


def load_config(path, seed_override: Optional[int] = None,
                resolution_override: Optional[int] = None) -> ExperimentConfig:
    """Parse a config file, its checks and its seed; the kind's runner reads every other key.

    The checks and the seed count as read, so
    :meth:`ExperimentConfig.refuse_unread` never reports them.  The seed, of
    the key or of ``seed_override``, must be non-negative, as NumPy's
    generators ask.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8 text
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = _parse_lines(text, str(path))
    if "kind" not in values:
        raise ConfigError(f"{path}: missing required key 'kind'")
    checks = {key: _parse_check(key, raw, line) for key, (raw, line) in values.items()
              if key.startswith("check.")}

    cfg = ExperimentConfig(kind=values["kind"][0], seed=0, path=str(path),
                           checks=list(checks.values()), values=values, read={"kind", *checks})
    seed = cfg.get_int("seed", DEFAULT_SEED)  # read even when overridden, so it stays valid
    if seed < 0:
        raise cfg.refuse(f"key 'seed' must be non-negative, got {seed}", "seed")
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"option --seed must be non-negative, got {seed_override}")
    cfg.seed = seed if seed_override is None else seed_override
    if resolution_override is not None:
        cfg.values["resolution"] = (str(resolution_override), None)
    return cfg

"""Plain-text configuration files and physical presets.

Config files are flat ``key = value`` lines.  ``#`` starts a comment, blank
lines are ignored, list values are comma-separated, and a single number is
broadcast for the per-node fields.  Keys match the NetworkConfig fields::

    M = 10
    r = 0.1
    j = 0.5
    gamma = 0.8
    gamma_out = 0.002
    omega = 1.0
    nbar_local = 0.0
    nbar_common = 0.0
    direction = forward

Parse errors carry ``path:line:`` anchors so they can be quoted directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


from .errors import ConfigError
from .network import Direction, NetworkConfig

# Operating point used throughout the reference figures: a 10-node chain,
# strong cascade (gamma/omega = 0.8), weak local leakage, zero-temperature
# baths, source at the chain head.
DEFAULT_CONFIG = NetworkConfig(
    M=10,
    r=0.0,
    j=0.0,
    gamma=0.8,
    gamma_out=0.002,
    direction=Direction.FORWARD,
)


@dataclass(frozen=True)
class PhysicalPreset:
    """A hardware platform's cavity frequency, used only to convert
    dimensionless occupations into effective temperatures."""

    name: str
    omega_cavity: float  # rad/s


MICROWAVE = PhysicalPreset(
    name="microwave",
    omega_cavity=2.0 * math.pi * 5.0e9,
)

PRESETS = {MICROWAVE.name: MICROWAVE}


def _parse_float_list(text: str):
    tokens = [tok.strip() for tok in text.split(",")]
    values = tuple(float(tok) for tok in tokens if tok)
    if not values:
        raise ValueError("expected at least one number")
    if len(values) == 1:
        return values[0]  # scalar, broadcast by validation
    return values


def _parse_direction(text: str) -> Direction:
    try:
        return Direction(text.strip().lower())
    except ValueError:
        raise ValueError(
            f"expected 'forward' or 'backward', got {text!r}"
        ) from None


_PARSERS = {
    # M is read as a number too: whether it is whole is config_violations' call
    "M": float,
    "r": float,
    "j": float,
    "gamma": float,
    "gamma_out": float,
    "omega": _parse_float_list,
    "nbar_local": _parse_float_list,
    "nbar_common": _parse_float_list,
    "direction": _parse_direction,
}


def load_config_file(path) -> NetworkConfig:
    """Parse a config file on top of DEFAULT_CONFIG.

    Raises ConfigError with a ``path:line:`` anchor for unreadable files,
    malformed lines, unknown or duplicate keys, and unparseable values.
    The result is not yet validated; pass it to validate_config.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc}") from exc

    overrides: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _PARSERS:
            known = ", ".join(sorted(_PARSERS))
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} (known keys: {known})")
        if key in overrides:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            overrides[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None

    return replace(DEFAULT_CONFIG, **overrides)


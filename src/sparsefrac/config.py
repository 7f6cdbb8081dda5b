"""Experiment configuration: a strict YAML schema with line-anchored errors.

Unknown sections or keys are rejected, required keys are reported by their
dotted path, and YAML syntax errors surface with the parser's line/column
mark.
"""

from __future__ import annotations

import yaml

__all__ = ["ConfigError", "load_config", "require"]


class ConfigError(ValueError):
    pass


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser, when built
_SCHEMA: dict[str, dict[str, type | tuple]] = {
    "run": {
        "seed": int,
        "depth": int,
        "battery_depth": int,
        "format": str,
        "jobs": int,  # kept so existing configs load; cases run one at a time
        "out": str,
    },
    "domain": {
        "dimension": int,
        "origin": list,
        "side": (int, float),
    },
    "exponents": {
        "alpha": (int, float),
        "p": (int, float),
    },
    "weight": {
        "kind": str,
        "gamma": (int, float),
        "x0": (str, list),
        "low": (int, float),
        "high": (int, float),
    },
    "function": {
        "kind": str,
        "box": list,
        "value": (int, float),
    },
    "commutator": {
        "b": str,
        "x0": (str, list),
    },
    "op": {
        "name": str,
        "grid": int,
        "phi": str,
    },
    "verify": {
        "theorems": list,
        "gammas": int,
        "threshold_factor": (int, float),
    },
    "sweep": {
        "theorems": list,
        "gammas": int,
    },
}

_DEFAULTS = {
    "run": {"seed": 0, "depth": 8, "battery_depth": 5, "format": "csv",
            "jobs": 1, "out": "out"},
    "domain": {"dimension": 1, "origin": [0.0], "side": 1.0},
    "weight": {"kind": "constant", "gamma": 0.0, "x0": "third",
               "low": 1.0, "high": 3.0},
    "function": {"kind": "constant", "value": 1.0},
    "commutator": {"b": "step", "x0": "third"},
    "op": {"grid": 0, "phi": "llog"},
    "verify": {"gammas": 8, "threshold_factor": 4.0},
    "sweep": {"gammas": 8},
}


def load_config(path) -> dict:
    """Parse and validate; returns the config with defaults filled in."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"cannot parse {path}{where}: {getattr(exc, 'problem', exc)}")
    except OSError as exc:
        raise ConfigError(str(exc))
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping of sections")
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r}")
        if body is None:
            raw[section] = body = {}
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            expected = _SCHEMA[section][key]
            if not isinstance(value, expected):
                name = getattr(expected, "__name__", None) or \
                    "/".join(t.__name__ for t in expected)
                raise ConfigError(
                    f"key {section}.{key} must be {name}, got {type(value).__name__}"
                )
    merged = {}
    for section, defaults in _DEFAULTS.items():
        merged[section] = dict(defaults)
        merged[section].update(raw.get(section, {}))
    for section in raw:
        merged.setdefault(section, dict(raw[section]))
    if merged["run"]["jobs"] != 1:
        raise ConfigError("key run.jobs must be 1: cases run one at a time")
    return merged


def require(config: dict, *paths: str) -> None:
    """Fail with the dotted path of the first missing key."""
    for path in paths:
        section, _, key = path.partition(".")
        if section not in config or key not in config[section]:
            raise ConfigError(f"missing required key {path!r}")

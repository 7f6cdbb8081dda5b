"""Experiment configuration: a strict YAML schema with line-anchored errors.

Unknown sections or keys are rejected, and so is a name that the table of
its key does not hold; required keys are reported by their dotted path, and
YAML syntax errors surface with the parser's line/column mark.
"""

from __future__ import annotations

import math

import yaml

from .verify import BUMP_KINDS, FUNCTION_KINDS, THEOREM_TABLE, WEIGHT_KINDS, YOUNG_FUNCTIONS
from .weights import CENTERS

__all__ = ["ConfigError", "FORMATS", "load_config", "require"]


class ConfigError(ValueError):
    pass


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)  # libyaml's parser, when built
_NUMBER = (int, float)
FORMATS = ("csv", "json")  # of the char and verify reports
# section -> key -> (accepted type(s), default[, table]); None marks a key with no
# default, and a choice key's str value, or each entry of its list, must be a key
# of its table
_KEYS: dict[str, dict[str, tuple]] = {
    "run": {"seed": (int, 0), "depth": (int, 8), "battery_depth": (int, 5),
            "format": (str, "csv", FORMATS),
            "jobs": (int, 1),  # kept so existing configs load; cases run one at a time
            "out": (str, "out")},
    "domain": {"dimension": (int, 1), "origin": (list, [0.0]), "side": (_NUMBER, 1.0)},
    "exponents": {"alpha": (_NUMBER, None), "p": (_NUMBER, None)},
    "weight": {"kind": (str, "constant", WEIGHT_KINDS), "x0": ((str, list), "third", CENTERS),
               "gamma": (_NUMBER, 0.0), "low": (_NUMBER, 1.0), "high": (_NUMBER, 3.0)},
    "function": {"kind": (str, "constant", FUNCTION_KINDS), "box": (list, None),
                 "value": (_NUMBER, 1.0)},
    "commutator": {"b": (str, "step", BUMP_KINDS), "x0": ((str, list), "third", CENTERS)},
    "op": {"name": (str, None), "grid": (int, 0), "phi": (str, "llog", YOUNG_FUNCTIONS)},
    "verify": {"theorems": (list, None, THEOREM_TABLE), "gammas": (int, 8),
               "threshold_factor": (_NUMBER, 4.0)},
    "sweep": {"theorems": (list, None, THEOREM_TABLE), "gammas": (int, 8)},
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
        if section not in _KEYS:
            raise ConfigError(f"unknown section {section!r}")
        if body is None:
            raw[section] = body = {}
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in body.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key '{section}.{key}'")
            expected, _, *tables = _KEYS[section][key]
            if not isinstance(value, expected):
                name = getattr(expected, "__name__", None) or \
                    "/".join(t.__name__ for t in expected)
                raise ConfigError(
                    f"key {section}.{key} must be {name}, got {type(value).__name__}"
                )
            entries = value if expected is list else [value] if isinstance(value, str) else []
            for table in tables:  # a list x0 holds coordinates, not names
                for entry in entries:
                    if not (isinstance(entry, str) and entry in table):
                        raise ConfigError(f"key {section}.{key}: {entry!r} is not one of "
                                          f"{', '.join(table)}")
    merged = {}
    for section, keys in _KEYS.items():
        # a section with no defaults appears only when the file names it
        defaults = {key: spec[1] for key, spec in keys.items() if spec[1] is not None}
        if defaults or section in raw:
            merged[section] = defaults | raw.get(section, {})
    if merged["run"]["jobs"] != 1:
        raise ConfigError("key run.jobs must be 1: cases run one at a time")
    n = merged["domain"]["dimension"]
    if not 0 <= merged["op"]["grid"] < 2 ** n:
        raise ConfigError(f"key op.grid must be in [0, {2 ** n}) in dimension {n}")
    if merged["run"]["battery_depth"] < 0:
        raise ConfigError(f"key run.battery_depth must be >= 0, "
                          f"got {merged['run']['battery_depth']}")

    def point(v):
        return isinstance(v, list) and len(v) == n and all(isinstance(x, _NUMBER) for x in v)

    for section in ("weight", "commutator"):
        x0 = merged[section]["x0"]
        if isinstance(x0, list) and not point(x0):
            raise ConfigError(f"key {section}.x0 must be a point of dimension {n}, got {x0!r}")
    box = merged["function"].get("box")
    if box is not None and not (len(box) == 2 and all(map(point, box))):
        raise ConfigError(f"key function.box must be two corners of dimension {n}, got {box!r}")
    for key in ("low", "high"):  # the cell values of the constant and step weights
        if not 0 < merged["weight"][key] < math.inf:
            raise ConfigError(f"key weight.{key} must be positive and finite, "
                              f"got {merged['weight'][key]!r}")
    return merged


def require(config: dict, *paths: str) -> None:
    """Fail with the dotted path of the first missing key."""
    for path in paths:
        section, _, key = path.partition(".")
        if section not in config or key not in config[section]:
            raise ConfigError(f"missing required key {path!r}")

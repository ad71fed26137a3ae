"""Scenario config files: flat ``key = value`` lines with dotted keys.

``#`` starts a comment, blank lines are ignored, and keys are dotted paths
mirroring ``ScenarioConfig`` fields (``controller.capacity_mu = 10``,
``topology.link_probability = 0.05``, or bare root fields such as
``seed = 7``). Unknown keys, malformed or non-finite values, and invariant
violations are rejected with the offending key and line number, as
``path:LINE: dotted.key must be ...`` for a value out of range. Absent keys
keep the calibrated defaults, so an empty file is the reference scenario.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any

from ._checks import _FieldError
from .simulator import ScenarioConfig


class ConfigError(ValueError):
    """A scenario config file could not be parsed or validated."""


#: Fields that are not keys, because the scenario derives them, mapped to
#: the key they come from: the controller's queue horizon is the root
#: ``sim_duration_s``.
_DERIVED = {"controller.sim_duration_s": "sim_duration_s"}


def _field_registry() -> dict[str, tuple[str | None, str, type]]:
    """Map config key -> (group field or None, field name, value type)."""
    registry: dict[str, tuple[str | None, str, type]] = {}
    for group_field in dataclasses.fields(ScenarioConfig):
        default = group_field.default_factory() if group_field.default_factory is not dataclasses.MISSING else None
        if default is not None and dataclasses.is_dataclass(default):
            for sub in dataclasses.fields(default):
                key = f"{group_field.name}.{sub.name}"
                if key not in _DERIVED:
                    registry[key] = (group_field.name, sub.name, type(getattr(default, sub.name)))
        else:
            registry[group_field.name] = (None, group_field.name, type(group_field.default))
    return registry


_REGISTRY = _field_registry()


def _parse_value(raw: str, target: type, key: str, line_no: int, path: str) -> Any:
    try:
        value = target(raw)
    except ValueError:
        raise ConfigError(
            f"{path}:{line_no}: value {raw!r} for key '{key}' is not a valid {target.__name__}"
        ) from None
    if target is float and not math.isfinite(value):
        raise ConfigError(f"{path}:{line_no}: value {raw!r} for key '{key}' is not finite")
    return value


def parse_config(path: str) -> ScenarioConfig:
    """Read, type-check, and validate a scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    given: dict[str | None, dict[str, Any]] = {}
    key_lines: dict[str, int] = {}
    for line_no, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _REGISTRY:
            raise ConfigError(f"{path}:{line_no}: unknown key '{key}'")
        if key in key_lines:
            raise ConfigError(f"{path}:{line_no}: duplicate key '{key}' (first set on line {key_lines[key]})")
        key_lines[key] = line_no
        group, name, target = _REGISTRY[key]
        given.setdefault(group, {})[name] = _parse_value(raw, target, key, line_no, path)

    cfg = ScenarioConfig(**given.pop(None, {}))
    # The controller queue runs over the scenario's horizon.
    given.setdefault("controller", {})["sim_duration_s"] = cfg.sim_duration_s
    prefix = ""
    try:
        # Each group is built once from all of its keys, so a check between
        # two fields sees both, whatever their order in the file.
        for group, kwargs in given.items():
            prefix = f"{group}."
            setattr(cfg, group, type(getattr(cfg, group))(**kwargs))
        prefix = ""
        cfg.validate()
    except _FieldError as exc:
        keys = [_DERIVED.get(prefix + name, prefix + name) for name in exc.fields]
        # The defaults pass every check, so the file set a field at fault; a
        # check between two fields blames the later of their lines.
        line_no = max(key_lines[key] for key in keys if key in key_lines)
        raise ConfigError(f"{path}:{line_no}: {exc.render(keys)}") from exc
    return cfg

"""The field checks every settings group runs on itself, and the one mode check."""

from __future__ import annotations

import dataclasses
import math

MODES = ("traditional", "sdn")


class _FieldError(ValueError):
    """``<field> <rule>``, or ``<field> <rule> <other field>`` for a check
    between two fields. ``fields`` lets the config parser name the keys and
    their lines."""

    def __init__(self, fields: tuple[str, ...], rule: str) -> None:
        self.fields, self.rule = fields, rule
        super().__init__(self.render(fields))

    def render(self, names) -> str:
        return " ".join([names[0], self.rule, *names[1:]])


def _check_fields(obj, positive=(), non_negative=(), unit_interval=()) -> None:
    """Reject a non-finite float or a non-``int`` value in an ``int`` field of
    the dataclass ``obj``, then a named field outside its range."""
    ints = set()
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise _FieldError((f.name,), "must be finite")
        if f.type in (int, "int"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise _FieldError((f.name,), f"must be an integer, got {value!r}")
            ints.add(f.name)
    for name in positive:
        if not getattr(obj, name) > 0:
            raise _FieldError((name,), "must be at least 1" if name in ints else "must be positive")
    for name in non_negative:
        if not getattr(obj, name) >= 0:
            raise _FieldError((name,), "must be non-negative")
    for name in unit_interval:
        if not 0.0 <= getattr(obj, name) <= 1.0:
            raise _FieldError((name,), "must be within [0, 1]")


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")

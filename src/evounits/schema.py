"""One check of every field of a frozen config dataclass, read off its
annotation and bounds."""

from __future__ import annotations

import enum
import functools
import math
import numbers
import typing
from dataclasses import MISSING, asdict, field, fields

from .errors import ConfigError


def is_int(v):
    """An integer that is not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def integer(name, value):
    """``value`` as an int; ConfigError names ``name`` unless it is a non-bool integer."""
    if not is_int(value):
        raise ConfigError(f"{name}: must be an integer, got {value!r}")
    return int(value)


# annotation: (accepts, stored as, what a value must be)
_KINDS = {
    int: (is_int, int, "an integer"),
    float: (lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v), float, "a finite number"),
    tuple[int, ...]: (lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
                      lambda v: tuple(map(int, v)), "a list of integers"),
}


def at_least(low, default=MISSING):
    """A field whose value must be >= ``low``."""
    return field(default=default, metadata={"at_least": low})


def positive(default=MISSING):
    """A field whose value must be > 0."""
    return field(default=default, metadata={"positive": True})


def _class_rule(kind):
    if issubclass(kind, enum.Enum):
        values = [m.value for m in kind]
        return (lambda v: isinstance(v, kind) or v in values, kind, f"one of {values}")
    return (lambda v: isinstance(v, kind), lambda v: v, f"a {kind.__name__}")


@functools.cache
def _fields(cls):
    """(name, rule, bounds) per field of ``cls``; a rule is as in _KINDS."""
    kinds = typing.get_type_hints(cls)
    return [(f.name, _KINDS.get(kinds[f.name]) or _class_rule(kinds[f.name]), f.metadata)
            for f in fields(cls)]


def check_fields(obj):
    """Check every field of the frozen dataclass ``obj`` against its
    annotation and bounds, and store it as that type; ConfigError names the
    field.

    An int is an integer that is not a bool; a float is a finite real number,
    an int included; a tuple[int, ...] is a list or tuple of such ints; an
    enum is given by its value or as a member.
    """
    for name, (accepts, convert, what), bounds in _fields(type(obj)):
        value = getattr(obj, name)
        if not accepts(value):
            raise ConfigError(f"{name}: must be {what}, got {value!r}")
        stored = convert(value)
        if "at_least" in bounds and stored < bounds["at_least"]:
            raise ConfigError(f"{name}: must be at least {bounds['at_least']}, got {value}")
        if bounds.get("positive") and not stored > 0:
            raise ConfigError(f"{name}: must be positive, got {value}")
        object.__setattr__(obj, name, stored)


def to_plain(obj) -> dict:
    """A dataclass as nested YAML/JSON values: enums by value, tuples as lists."""
    return asdict(obj, dict_factory=lambda items: {
        k: v.value if isinstance(v, enum.Enum) else list(v) if isinstance(v, tuple) else v
        for k, v in items
    })

"""One check of every value: a field of a frozen dataclass, a config section
or a record of a file, read off its annotation and bounds, or an argument,
given its kind and bounds."""

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


def is_real(v):
    """A real number that is not a bool; NaN and +-inf included."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v):
    """A finite real number that is not a bool."""
    return is_real(v) and math.isfinite(v)


# A float field that may be NaN or +-inf, as a fitness before any is scored.
Real = typing.Annotated[float, "NaN and +-inf allowed"]

# annotation: (accepts, stored as, what a value must be)
_KINDS = {
    int: (is_int, int, "an integer"),
    float: (is_finite, float, "a finite number"),
    Real: (is_real, float, "a number"),
    tuple[int, ...]: (lambda v: isinstance(v, (list, tuple)) and all(map(is_int, v)),
                      lambda v: tuple(map(int, v)), "a list of integers"),
}


def at_least(low, default=MISSING):
    """A field whose value must be >= ``low``."""
    return field(default=default, metadata={"at_least": low})


def positive(default=MISSING):
    """A field whose value must be > 0."""
    return field(default=default, metadata={"positive": True})


@functools.cache
def _rule(kind):
    """(accepts, stored as, what a value must be) of the annotation ``kind``."""
    if kind in _KINDS:
        return _KINDS[kind]
    if issubclass(kind, enum.Enum):
        values = [m.value for m in kind]
        return (lambda v: isinstance(v, kind) or v in values, kind, f"one of {values}")
    return (lambda v: isinstance(v, kind), lambda v: v, f"a {kind.__name__}")


_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


def check_value(name, value, kind, at_least=None, positive=False):
    """``value`` stored as the annotation ``kind``, at least ``at_least`` and,
    with ``positive``, above 0, as :func:`check_fields` checks a field;
    ConfigError names ``name``."""
    accepts, convert, what = _rule(kind)
    if not accepts(value):
        raise ConfigError(f"{name}: must be {what}, got {value!r}")
    stored = convert(value)
    if at_least is not None and stored < at_least:
        raise ConfigError(f"{name}: must be at least {at_least}, got {value}")
    if positive and not stored > 0:
        raise ConfigError(f"{name}: must be positive, got {value}")
    return stored


def check_fields(obj):
    """Check every field of the frozen dataclass ``obj`` against its
    annotation and bounds by :func:`check_value`, and store it as that type;
    ConfigError names the field.

    An int is an integer that is not a bool; a float is a finite real number,
    an int included, and a Real is any real number, NaN and +-inf included; a
    tuple[int, ...] is a list or tuple of such ints; an enum is given by its
    value or as a member.
    """
    kinds = _hints(type(obj))
    for f in fields(obj):
        stored = check_value(f.name, getattr(obj, f.name), kinds[f.name], **f.metadata)
        object.__setattr__(obj, f.name, stored)


def to_plain(obj) -> dict:
    """A dataclass as nested YAML/JSON values: enums by value, tuples as lists."""
    return asdict(obj, dict_factory=lambda items: {
        k: v.value if isinstance(v, enum.Enum) else list(v) if isinstance(v, tuple) else v
        for k, v in items
    })

"""The config schema, one typing rule for both ways in: each config dataclass
calls `read_back` first in its `__post_init__`, and `_build` builds one from a
JSON object.  A numeric field declares its bounds beside its type, as
`Annotated[int, Range(1)]`.  This module imports no other jamsense module."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from collections.abc import Mapping
from enum import Enum
from numbers import Integral, Real


class ConfigError(ValueError):
    """Raised for malformed or invalid scenario configs."""


# Leaf type -> (what the value must be, test).  bool is a subclass of int, so the
# number tests exclude it; numpy scalars count, tried after the cheaper built-ins.
_LEAVES = {
    bool: ("true or false", lambda v: type(v) is bool),
    int: ("an integer", lambda v: isinstance(v, (int, Integral)) and type(v) is not bool),
    float: (
        "a finite number",
        lambda v: isinstance(v, (float, Real)) and type(v) is not bool and math.isfinite(v),
    ),
}


@dataclasses.dataclass(frozen=True)
class Range:
    """Bounds of a numeric config leaf; a bound left None is unbounded."""

    lo: typing.Optional[float] = None
    hi: typing.Optional[float] = None
    open_lo: bool = False
    open_hi: bool = False

    def holds(self, v) -> bool:
        lo, hi = self.lo, self.hi
        return (lo is None or (lo < v if self.open_lo else lo <= v)) and (
            hi is None or (v < hi if self.open_hi else v <= hi)
        )

    def __str__(self) -> str:
        lo = "(-inf" if self.lo is None else f"{'(' if self.open_lo else '['}{self.lo}"
        hi = "inf)" if self.hi is None else f"{self.hi}{')' if self.open_hi else ']'}"
        return f"in {lo}, {hi}"


@functools.lru_cache(maxsize=None)
def _hints(cls) -> dict:
    """Field name -> type of a config dataclass, its Range kept; resolved on
    the class's first use."""
    return typing.get_type_hints(cls, include_extras=True)


def _brief(value) -> str:
    """`repr(value)` cut to 40 characters; the error's path names the field."""
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _object(value, where: str, keys=None) -> dict:
    """`value` as a JSON object whose keys all lie in `keys` (if given)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {_brief(value)}")
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"{where}: unknown key {_brief(key)}")
    return value


def _cast(tp, value, where: str):
    """Convert the JSON `value` to the field type `tp`; errors name `where`.
    A leaf with a Range is typed first and bounded after."""
    leaf, bounds = _LEAVES.get(tp), None  # most calls are leaves, so tested first
    if leaf is None and typing.get_origin(tp) is typing.Annotated:
        tp, (bounds,) = tp.__origin__, tp.__metadata__
        leaf = _LEAVES[tp]
    if leaf is not None:
        expected, ok = leaf
        try:
            if ok(value):
                typed = tp(value)
                if bounds is None or bounds.holds(typed):
                    return typed
                expected = f"{expected} {bounds}"
        except OverflowError:  # an integer beyond the float range
            pass
        raise ConfigError(f"{where}: expected {expected}, got {_brief(value)}")
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:  # Optional[X]: null selects the None default
        return None if value is None else _cast(args[0], value, where)
    if origin is tuple:  # Tuple[X, ...] or fixed-length Tuple[X, Y]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {_brief(value)}")
        types = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(types) != len(value):
            raise ConfigError(f"{where}: expected {len(types)} entries, got {_brief(value)}")
        return tuple(
            _cast(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(types, value))
        )
    if origin is dict:  # Dict[int, float]: JSON object keys are strings
        out = {}
        for key, v in _object(value, where).items():
            try:
                order = int(key)
            except (TypeError, ValueError):
                order = None
            if str(order) != str(key):  # "01", "1_0", " 1" would alias "1"
                raise ConfigError(f"{where}: key {_brief(key)} is not an integer")
            out[order] = _cast(args[1], v, f"{where}.{key}")
        return dict(sorted(out.items()))
    try:  # the one kind left, an Enum
        return tp(value)
    except ValueError:
        raise ConfigError(f"{where}: {_brief(value)} is not one of {[k.value for k in tp]}")


def _build(cls, data, where: str):
    """Instantiate the config dataclass `cls` from a JSON object.  A part's
    refusal starts with its leaf path; this is the one place `where` goes in
    front."""
    hints = _hints(cls)
    kwargs = {
        key: _cast(hints[key], value, f"{where}.{key}")
        for key, value in _object(data, where, hints).items()
    }
    for f in dataclasses.fields(cls):
        if f.name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where}.{f.name}: is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}")


def _echo(value):
    """JSON form of a config value; `_cast` reads it back unchanged."""
    if type(value) in _LEAVES:  # most calls, so tested first
        return value
    if dataclasses.is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _echo(v) for k, v in value.items()}
    return value


def read_back(part) -> None:
    """Store each field of the config dataclass `part` as its JSON echo read
    back, or raise a ConfigError naming the field.  An instance of exactly
    the field's part is kept: that part typed itself when it was built."""
    for name, tp in _hints(type(part)).items():
        value = getattr(part, name)
        if dataclasses.is_dataclass(value) and type(value) in (tp, *typing.get_args(tp)):
            continue
        back = _cast(tp, _echo(value), name)
        if back != value:
            while type(value) is tuple:  # name the first entry that differs
                i = next(i for i, (b, v) in enumerate(zip(back, value)) if b != v)
                name, back, value = f"{name}[{i}]", back[i], value[i]
            raise ConfigError(f"{name}: expected {_brief(back)}, got {_brief(value)}")
        object.__setattr__(part, name, back)  # numpy scalars become Python ones

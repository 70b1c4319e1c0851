"""Frozen records that are cheap to build, and the range check of settings records.

A control step builds a handful of frozen records (drone, platform,
reward, outcome). ``dataclass(frozen=True)`` stores each field through
``object.__setattr__``, which costs about twice a plain assignment per
field. ``frozen_record`` makes the same frozen dataclass, then gives it an
``__init__`` that writes the fields straight into the instance dict.
Assignment still raises ``FrozenInstanceError``, and ``dataclasses.fields``,
``replace``, ``==``, ``hash`` and ``repr`` are the dataclass's own.

``check_settings`` is the one range check of the settings records (drone,
scenario, env, reward, PID, pursuit, TD3); each calls it from its
``__post_init__``, so a value is checked whether it came from a config file
or was passed in code.
"""

import dataclasses
import math
import numbers

# Interval name -> (test, wording). A value v fails when `not test(v)`,
# written so that NaN fails every interval.
_INTERVALS = {
    "positive": (lambda v: v > 0, "positive"),
    "non_negative": (lambda v: v >= 0, "non-negative"),
    "at_least_one": (lambda v: v >= 1, ">= 1"),
    "unit": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "positive_unit": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


def check_settings(record, **intervals):
    """Raise ValueError unless each named field lies in its interval and every float and int field is sound.

    A float field must be finite, and an int field must hold an integer that
    is not a bool. ``intervals`` maps an interval name of ``_INTERVALS`` to
    the field names that must lie in it, e.g.
    ``check_settings(self, positive=("mass",))``.
    The interval checks run first, so a NaN in a positive field reads
    "must be positive". Checks that relate two fields stay in the record.
    """
    for interval, names in intervals.items():
        ok, wording = _INTERVALS[interval]
        for name in names:
            value = getattr(record, name)
            if not ok(value):
                raise ValueError(f"{name} must be {wording}, got {value}")
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.type is float and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
        if f.type is int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ValueError(f"{f.name} must be an integer, got {value}")


def frozen_record(cls):
    """``dataclass(frozen=True)`` with a faster ``__init__``.

    Defaults, ``default_factory`` and ``__post_init__`` are not supported,
    because the records that use this have none of them.
    """
    cls = dataclasses.dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__") or any(
            f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING for f in fields):
        raise TypeError(f"{cls.__name__}: frozen_record supports no default, default_factory or __post_init__")
    params = ", ".join(f.name for f in fields)
    stores = "".join(f"\n    d[{f.name!r}] = {f.name}" for f in fields)
    namespace = {}
    exec(f"def __init__(self, {params}):\n    d = self.__dict__{stores}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls

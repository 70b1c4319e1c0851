"""The range check of settings records.

``check_settings`` is the one range check of the settings records (drone,
scenario, env, reward, PID, pursuit, TD3); each calls it from its
``__post_init__``, so a value is checked whether it came from a config file
or was passed in code.

The records a control step builds (``DroneState``, ``PlatformState``,
``RewardBreakdown``, ``StepOutcome``) are not settings: they are
``typing.NamedTuple`` subclasses, each defined beside the code that builds
it. They are immutable, read their fields through C getters and hold no
per-instance ``__dict__``. Being tuples, they index and unpack, and compare
equal to any tuple with the same values. ``dataclasses.fields`` and
``replace`` do not apply to them; ``_fields`` and ``_replace`` do.
Assigning a field raises ``AttributeError``. ``StepOutcome.observation`` is
not a field and not a C getter but a Python property: each read builds a
fresh array from the outcome's drone and pad.
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


def is_int(value) -> bool:
    """The int rule of every settings field: an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if f.type is int and not is_int(value):
            raise ValueError(f"{f.name} must be an integer, got {value}")


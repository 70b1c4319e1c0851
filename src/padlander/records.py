"""Frozen records that are cheap to build.

A control step builds a handful of frozen records (drone, platform, wind,
reward, outcome). ``dataclass(frozen=True)`` stores each field through
``object.__setattr__``, which costs about twice a plain assignment per
field. ``frozen_record`` makes the same frozen dataclass, then gives it an
``__init__`` that writes the fields straight into the instance dict.
Assignment still raises ``FrozenInstanceError``, and ``dataclasses.fields``,
``replace``, ``==``, ``hash`` and ``repr`` are the dataclass's own.
"""

import dataclasses


def frozen_record(cls):
    """``dataclass(frozen=True)`` with a faster ``__init__``.

    Plain defaults are supported; ``default_factory`` and ``__post_init__``
    are not, because the records that use this have neither.
    """
    cls = dataclasses.dataclass(frozen=True)(cls)
    fields = dataclasses.fields(cls)
    if hasattr(cls, "__post_init__") or any(f.default_factory is not dataclasses.MISSING for f in fields):
        raise TypeError(f"{cls.__name__}: frozen_record supports neither __post_init__ nor default_factory")
    params = ", ".join(f.name if f.default is dataclasses.MISSING else f"{f.name}=_defaults[{f.name!r}]"
                       for f in fields)
    stores = "".join(f"\n    d[{f.name!r}] = {f.name}" for f in fields)
    namespace = {"_defaults": {f.name: f.default for f in fields}}
    exec(f"def __init__(self, {params}):\n    d = self.__dict__{stores}\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls

"""Flat-text run configuration.

Format: one `key = value` per line, `#` comments, blank lines ignored. A key
is a top-level field (`seed`, `outdir`) or `section.field`. Every key is
parsed, checked and dumped by one rule, driven by the field's declared type:
bools read true/false (also 1/0, yes/no, on/off), enums read a member name in
any case, and a float is written as `%.9g` when that reads back to the same
float and as `repr` otherwise, so `resolved.cfg` parses back to the exact run.
A str value (`outdir`) must be one line without `#` or edge whitespace,
the only strings a config line gives back unchanged.
The scenario is `scenario_params.kind` (`train --scenario` sets it). The
actuation bound is the constant `dynamics.SETPOINT_DELTA_BOUND`, not a key:
there is no `env.action_scale`. Every field is settable except those
_NOT_SETTABLE lists with a reason (`scenario_params.seed`, `pid.kp`,
`td3.hidden_dims`); unknown keys are rejected with the offending key named.
Sections are frozen: an override builds a new RunConfig. Each run writes
its fully resolved configuration next to its outputs so results are
reproducible from artifacts alone.
"""

import dataclasses
import enum
import os
from dataclasses import dataclass, field, replace
from typing import Dict

from padlander.baseline import PidController, PursuitConfig
from padlander.dynamics import DroneParams
from padlander.environment import EnvConfig
from padlander.records import check_settings
from padlander.reward import RewardConfig
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Hyperparams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    outdir: str = "runs"
    drone: DroneParams = field(default_factory=DroneParams)
    scenario_params: ScenarioSpec = field(default_factory=lambda: ScenarioSpec(ScenarioKind.SPL))
    reward: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    td3: Td3Hyperparams = field(default_factory=Td3Hyperparams)
    baseline: PursuitConfig = field(default_factory=PursuitConfig)
    pid: PidController = field(default_factory=PidController)

    def __post_init__(self):
        check_settings(self, non_negative=("seed",))
        # dump_config writes `outdir = <value>` and the parser cuts a line at
        # `#` and strips it, so only such a value reads back as itself.
        if "#" in self.outdir or self.outdir != self.outdir.strip() or len(self.outdir.splitlines()) > 1:
            raise ValueError(f"outdir must be one line without '#' or edge whitespace, got {self.outdir!r}")


# Fields a user cannot set, each with the reason.
_NOT_SETTABLE = {
    "scenario_params.seed": "reset() draws every episode's seed from the run seed; "
    "set the top-level 'seed' key instead",
    "pid.kp": "a per-axis gain vector, and the format has no list syntax yet",
    "td3.hidden_dims": "a tuple of layer widths, and the format has no list syntax yet",
}


def _configurable_fields() -> Dict[str, type]:
    """Every settable key with its declared type, in dump order: top-level fields, then each section's, sorted."""
    keys = {}
    for f in dataclasses.fields(RunConfig):
        if dataclasses.is_dataclass(f.type):
            for g in sorted(dataclasses.fields(f.type), key=lambda g: g.name):
                keys[f"{f.name}.{g.name}"] = g.type
        else:
            keys[f.name] = f.type
    return {key: t for key, t in keys.items() if key not in _NOT_SETTABLE}


KEYS = _configurable_fields()


def _parse_value(text: str, target_type: type):
    text = text.strip()
    if target_type is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected boolean, got {text!r}")
    if issubclass(target_type, enum.Enum):
        for member in target_type:
            if member.name.lower() == text.lower():
                return member
        raise ConfigError(f"expected one of {list(target_type.__members__)}, got {text!r}")
    return target_type(text)  # int, float or str


def _format_value(value) -> str:
    """The text _parse_value reads back to exactly this value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        short = f"{value:.9g}"
        return short if float(short) == value else repr(value)
    return str(value)


def apply_item(cfg: RunConfig, key: str, value: str) -> RunConfig:
    """Apply one `key = value` item; unknown keys are errors."""
    key = key.strip()
    if key in _NOT_SETTABLE:
        raise ConfigError(f"{key} cannot be set: {_NOT_SETTABLE[key]}")
    if key not in KEYS:
        section = key.partition(".")[0]
        valid = [k for k in KEYS if k.startswith(section + ".")]
        raise ConfigError(f"unknown configuration key {key!r}" + (f"; valid {section} keys: {valid}" if valid else ""))
    section, _, name = key.rpartition(".")
    try:
        parsed = _parse_value(value, KEYS[key])
        if section:
            name, parsed = section, replace(getattr(cfg, section), **{name: parsed})
        return replace(cfg, **{name: parsed})
    except ValueError as e:  # a malformed value, or the record's own range check
        raise ConfigError(f"bad value for {key}: {e}") from None


def parse_config_text(text: str, base: RunConfig = None) -> RunConfig:
    cfg = base or RunConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            cfg = apply_item(cfg, key, value)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: {e}") from None
    return cfg


def read_text(path: str, what: str) -> str:
    """The text of the regular file at path; ConfigError naming the path if there is none or it is not text."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: {what} is not text: {e}") from None


def load_config(path: str, base: RunConfig = None) -> RunConfig:
    return parse_config_text(read_text(path, "config file"), base)


def dump_config(cfg: RunConfig) -> str:
    """Fully resolved flat-text form; parse_config_text reads it back to an equal RunConfig."""
    lines = []
    for key in KEYS:
        section, _, name = key.rpartition(".")
        value = getattr(getattr(cfg, section) if section else cfg, name)
        lines.append(f"{key} = {_format_value(value)}")
    return "\n".join(lines) + "\n"

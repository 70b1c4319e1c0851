"""Flat-text run configuration.

Format: one `section.key = value` per line, `#` comments, blank lines
ignored. Every scalar default in the stack is overridable, except the
fields _NOT_SETTABLE lists with a reason (array and tuple fields are not
either); unknown keys are rejected with the offending key named.
Sections are frozen: an override builds a new RunConfig. Each run writes
its fully resolved configuration next to its outputs so results are
reproducible from artifacts alone.
"""

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Dict

from padlander.baseline import PidController, PursuitConfig
from padlander.dynamics import DroneParams
from padlander.environment import EnvConfig
from padlander.reward import RewardConfig
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import Td3Hyperparams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class EvalSettings:
    wind: bool = False


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    outdir: str = "runs"
    scenario: str = "SPL"
    drone: DroneParams = field(default_factory=DroneParams)
    scenario_params: ScenarioSpec = field(default_factory=lambda: ScenarioSpec(ScenarioKind.SPL))
    reward: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    td3: Td3Hyperparams = field(default_factory=Td3Hyperparams)
    baseline: PursuitConfig = field(default_factory=PursuitConfig)
    pid: PidController = field(default_factory=PidController)
    evaluation: EvalSettings = field(default_factory=EvalSettings)

    def scenario_spec(self) -> ScenarioSpec:
        return replace(self.scenario_params, kind=ScenarioKind[self.scenario])


_SECTIONS = ("drone", "scenario_params", "reward", "env", "td3", "baseline", "pid", "evaluation")
_SCALARS = (int, float, bool, str)


# Fields a user cannot set, each with the reason.
_NO_OBSTACLES = ("the environment has no obstacles: LandingEnv.step and reward_surface_grid pass "
                 "obstacle_distance=None, so the repulsive term is always 0")
_NOT_SETTABLE = {
    "scenario_params.kind": "set the top-level 'scenario' key instead",
    "scenario_params.seed": "reset() draws every episode's seed from the run seed; "
    "set the top-level 'seed' key instead",
    "reward.repulsive_enabled": _NO_OBSTACLES,
    "reward.eta": _NO_OBSTACLES,
    "reward.q_max": _NO_OBSTACLES,
}


def _configurable_fields(section: str, obj) -> Dict[str, type]:
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {
        name: type(v)
        for name, v in values.items()
        if isinstance(v, _SCALARS) and f"{section}.{name}" not in _NOT_SETTABLE
    }


def _parse_value(text: str, target_type: type):
    text = text.strip()
    if target_type is bool:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"expected boolean, got {text!r}")
    if target_type is int:
        return int(text)
    if target_type is float:
        return float(text)
    return text


def apply_item(cfg: RunConfig, key: str, value: str) -> RunConfig:
    """Apply one `section.key = value` item; unknown keys are errors."""
    key = key.strip()
    if key == "seed":
        try:
            seed = _parse_value(value, int)
        except ValueError as e:
            raise ConfigError(f"bad value for seed: {e}") from None
        if seed < 0:
            raise ConfigError(f"bad value for seed: must be non-negative, got {seed}")
        return replace(cfg, seed=seed)
    if key == "outdir":
        return replace(cfg, outdir=value.strip())
    if key == "scenario":
        name = value.strip().upper()
        if name not in ScenarioKind.__members__:
            raise ConfigError(f"scenario must be one of {list(ScenarioKind.__members__)}, got {value!r}")
        return replace(cfg, scenario=name)
    if key in _NOT_SETTABLE:
        raise ConfigError(f"{key} cannot be set: {_NOT_SETTABLE[key]}")
    section, _, attr = key.partition(".")
    if section not in _SECTIONS or not attr:
        raise ConfigError(f"unknown configuration key {key!r}")
    target = getattr(cfg, section)
    fields = _configurable_fields(section, target)
    if attr not in fields:
        raise ConfigError(f"unknown key {key!r}; valid {section} keys: {sorted(fields)}")
    try:
        parsed = _parse_value(value, fields[attr])
    except (ValueError, ConfigError) as e:
        raise ConfigError(f"bad value for {key}: {e}") from None
    try:
        return replace(cfg, **{section: replace(target, **{attr: parsed})})
    except ValueError as e:  # the section's own range check
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


def load_config(path: str, base: RunConfig = None) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read(), base)


def dump_config(cfg: RunConfig) -> str:
    """Fully resolved flat-text form, round-trippable through parse_config_text."""
    lines = [f"seed = {cfg.seed}", f"outdir = {cfg.outdir}", f"scenario = {cfg.scenario}"]
    for section in _SECTIONS:
        target = getattr(cfg, section)
        for name in sorted(_configurable_fields(section, target)):
            value = getattr(target, name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, float):
                value = f"{value:.9g}"
            lines.append(f"{section}.{name} = {value}")
    return "\n".join(lines) + "\n"

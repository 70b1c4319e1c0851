import csv
import dataclasses
import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padlander.cli import main
from padlander.config import (
    _NOT_SETTABLE,
    ConfigError,
    RunConfig,
    apply_item,
    dump_config,
    load_config,
    parse_config_text,
)
from padlander.environment import EnvConfig
from padlander.evaluation import TRACE_COLUMNS
from padlander.scenario import ScenarioKind, ScenarioSpec
from padlander.td3 import ACTION_DIM, OBS_DIM, Td3Hyperparams, Td3Learner, save_checkpoint

DEFAULT_DUMP = """\
seed = 0
outdir = runs
drone.a_max = 10
drone.gravity = 9.81
drone.kp_pos = 4
drone.mass = 0.027
drone.tau_v = 0.25
scenario_params.curve_radius = 0.5
scenario_params.direction_change_period = 3
scenario_params.initial_heading = 0
scenario_params.kind = SPL
scenario_params.speed = 0.3
scenario_params.vertical_amplitude = 0.2
reward.alpha = 5
reward.beta_below = 0.5
reward.beta_edge = 0.25
reward.far_radius = 2
reward.gamma = -1
reward.k_delta = 0.3
reward.near_radius = 0.1
reward.zeta = 0.5
env.control_hz = 30
env.crash_descent_speed = 1
env.episode_cap = 20
env.out_of_bounds_radius = 3
env.physics_hz = 240
env.spawn_alt_max = 1.5
env.spawn_alt_min = 0.5
env.spawn_radius = 1.5
env.touchdown_speed = 0.5
env.touchdown_vertical = 0.05
env.wind_bound = 0.005
env.wind_enabled = true
env.wind_p_episode = 0.2
env.wind_p_step = 0.2
td3.batch_size = 100
td3.buffer_capacity = 1000000
td3.checkpoint_interval = 50000
td3.discount = 0.99
td3.eval_episodes = 10
td3.eval_interval = 10000
td3.exploration_noise_sigma = 0.1
td3.learning_rate = 0.0001
td3.learning_starts = 100
td3.policy_delay = 2
td3.polyak_tau = 0.005
td3.target_noise_clip = 0.5
td3.target_noise_sigma = 0.2
td3.total_steps = 300000
baseline.align_radius = 0.05
baseline.approach_height = 0.5
baseline.descent_rate = 0.3
baseline.lookahead = 0.5
baseline.measurement_sigma = 0.001
pid.integral_clamp = 0.5
pid.kd = 0.3
pid.ki = 0.05
pid.output_clamp = 0.1
"""

DEFAULT_DUMP_KEYS = [line.partition(" = ")[0] for line in DEFAULT_DUMP.splitlines()]


def _get(cfg, key):
    section, _, name = key.rpartition(".")
    return getattr(getattr(cfg, section) if section else cfg, name)


def _with(cfg, key, value):
    """cfg with one key set to a typed value, through the records' own checks."""
    section, _, name = key.rpartition(".")
    if section:
        name, value = section, replace(getattr(cfg, section), **{name: value})
    return replace(cfg, **{name: value})


def _value_strategy(default):
    """Values of the default's type: any finite float (%.9g rounds most of them), ints, bools, scenario kinds."""
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, ScenarioKind):
        return st.sampled_from(ScenarioKind)
    if isinstance(default, int):
        return st.one_of(st.integers(0, 1000), st.integers(0, 2**40))
    if isinstance(default, float):
        return st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(0.0, 1.0), st.floats(-1.0, 0.0))
    # str: also '#', edge whitespace and line breaks, which no config line can hold.
    return st.one_of(st.from_regex(r"[A-Za-z0-9_./-]{1,16}", fullmatch=True),
                     st.text(alphabet="ab/_ #\t\n\r\x0b\x85\u2028", max_size=8))


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.scenario_params.kind is ScenarioKind.SPL
        assert cfg.reward.alpha == 5.0

    def test_apply_section_item(self):
        cfg = apply_item(RunConfig(), "reward.alpha", "7.5")
        assert cfg.reward.alpha == 7.5

    def test_apply_top_level(self):
        cfg = apply_item(RunConfig(), "seed", "11")
        assert cfg.seed == 11
        cfg = apply_item(cfg, "outdir", " out/here ")
        assert cfg.outdir == "out/here"

    @pytest.mark.parametrize("text", ["LMPL", "lmpl", "Lmpl"])
    def test_scenario_kind_parses_by_member_name_in_any_case(self, text):
        assert apply_item(RunConfig(), "scenario_params.kind", text).scenario_params.kind is ScenarioKind.LMPL

    def test_bad_scenario_kind_names_key_and_members(self):
        with pytest.raises(ConfigError, match=r"scenario_params.kind: expected one of \['SPL', 'LMPL', 'CMPL', 'CTL'\]"):
            apply_item(RunConfig(), "scenario_params.kind", "XPL")

    def test_equal_configs_compare_and_hash_equal(self):
        assert RunConfig() == RunConfig()
        assert hash(RunConfig()) == hash(RunConfig())
        assert apply_item(RunConfig(), "pid.kd", "0.7") != RunConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            apply_item(RunConfig(), "reward.does_not_exist", "1")
        with pytest.raises(ConfigError):
            apply_item(RunConfig(), "nosuchsection.alpha", "1")
        # deleted: touchdown uses the pad's half extent, the substep is 1 / env.physics_hz
        for key in ("env.touchdown_lateral", "drone.physics_dt"):
            with pytest.raises(ConfigError, match="unknown"):
                apply_item(RunConfig(), key, "0.5")

    def test_scenario_seed_blocked_in_section(self):
        with pytest.raises(ConfigError, match="seed"):
            apply_item(RunConfig(), "scenario_params.seed", "3")

    @pytest.mark.parametrize("key", sorted(_NOT_SETTABLE))
    def test_not_settable_key_is_real_undumped_and_rejected_with_reason(self, key, capsys):
        section, _, attr = key.partition(".")
        assert attr in {f.name for f in dataclasses.fields(getattr(RunConfig(), section))}
        assert f"\n{key} = " not in dump_config(RunConfig())
        assert main(["config-dump", "-o", f"{key}=1"]) == 2
        err = capsys.readouterr().err
        assert key in err and _NOT_SETTABLE[key] in err

    def test_every_field_is_dumped_or_not_settable(self, capsys):
        assert main(["config-dump"]) == 0
        dumped = {line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()}
        cfg = RunConfig()
        for section in dataclasses.fields(cfg):
            value = getattr(cfg, section.name)
            if not dataclasses.is_dataclass(value):
                assert section.name in dumped
                continue
            for f in dataclasses.fields(value):
                key = f"{section.name}.{f.name}"
                assert (key in dumped) != (key in _NOT_SETTABLE), key

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="td3.batch_size"):
            apply_item(RunConfig(), "td3.batch_size", "many")

    def test_parse_text_with_comments(self):
        cfg = parse_config_text(
            """
            # a comment
            seed = 3
            reward.gamma = -2.0   # inline comment
            env.wind_enabled = false
            """
        )
        assert cfg.seed == 3
        assert cfg.reward.gamma == -2.0
        assert cfg.env.wind_enabled is False

    def test_parse_error_names_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\nnot a config line\n")

    def test_bool_spellings(self):
        for text, value in (("true", True), ("0", False), ("Yes", True), ("off", False)):
            cfg = apply_item(RunConfig(), "env.wind_enabled", text)
            assert cfg.env.wind_enabled is value

    def test_dump_round_trip(self):
        cfg = apply_item(RunConfig(), "reward.alpha", "3.25")
        cfg = apply_item(cfg, "td3.total_steps", "5000")
        cfg = apply_item(cfg, "scenario_params.kind", "CTL")
        dumped = dump_config(cfg)
        reparsed = parse_config_text(dumped)
        assert dump_config(reparsed) == dumped
        assert reparsed.reward.alpha == 3.25
        assert reparsed.td3.total_steps == 5000
        assert reparsed.scenario_params.kind is ScenarioKind.CTL

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dump_parses_back_to_the_same_config_property(self, data):
        cfg = RunConfig()
        for key in DEFAULT_DUMP_KEYS:
            value = data.draw(_value_strategy(_get(cfg, key)), label=key)
            try:
                cfg = _with(cfg, key, value)
            except ValueError as e:  # outside the record's range: the key keeps its value
                if isinstance(value, str):  # only a value dump_config cannot write is refused
                    assert str(e).startswith(f"{key} must be one line without '#' or edge whitespace")
                    assert "#" in value or value != value.strip() or len(value.splitlines()) > 1
        again = parse_config_text(dump_config(cfg))
        assert again == cfg
        assert hash(again) == hash(cfg)

    @pytest.mark.parametrize("value", ["runs#1", "a\nb", "a\rb", "a\u2028b"])
    def test_str_a_config_line_cannot_hold_names_key(self, value):
        with pytest.raises(ConfigError, match=r"^bad value for outdir: outdir must be one line"):
            apply_item(RunConfig(), "outdir", value)

    @pytest.mark.parametrize("value", [7.1234567891234, 0.00012345678912, 0.1 + 0.2, 1e-310, 5e-324, -0.0, 1e300])
    def test_float_that_9g_rounds_parses_back_exactly(self, value):
        again = parse_config_text(dump_config(_with(RunConfig(), "scenario_params.initial_heading", value)))
        assert again.scenario_params.initial_heading == value
        assert math.copysign(1.0, again.scenario_params.initial_heading) == math.copysign(1.0, value)

    def test_every_section_is_frozen(self):
        cfg = RunConfig()
        sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)]
        sections = [v for v in sections if dataclasses.is_dataclass(v)]
        assert len(sections) == 7
        for value in [cfg] + sections:
            assert type(value).__dataclass_params__.frozen, type(value).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pid.kd = 1.0

    def test_override_leaves_base_config_alone(self):
        base = RunConfig()
        cfg = apply_item(base, "pid.kd", "0.7")
        assert cfg.pid.kd == 0.7
        assert base.pid.kd == 0.3

    @pytest.mark.parametrize("section, record", [
        ("env", EnvConfig(control_hz=7, physics_hz=14)),
        ("env", EnvConfig(spawn_alt_min=2.0, spawn_alt_max=3.0, spawn_radius=4.0)),
        ("scenario_params", ScenarioSpec(ScenarioKind.CTL, direction_change_period=0.5, vertical_amplitude=0.05)),
    ], ids=["hz", "spawn-band", "ctl-short-period"])
    def test_fields_that_are_checked_together_parse_back_in_any_order(self, section, record):
        # One field at a time, in dump order, each of these passes through a record its check refuses.
        cfg = replace(RunConfig(), **{section: record})
        assert parse_config_text(dump_config(cfg)) == cfg
        lines = [line for line in dump_config(cfg).splitlines() if line.startswith(section + ".")]
        assert parse_config_text("\n".join(reversed(lines))) == cfg

    def test_a_record_whose_final_fields_fail_names_the_first_item_they_failed_at(self):
        text = "env.control_hz = 60\nenv.physics_hz = 250\nseed = 2\nenv.episode_cap = 5\n"
        with pytest.raises(ConfigError, match=r"^line 2: bad value for env\.physics_hz: physics_hz must be an integer "
                                              r"multiple of control_hz$"):
            parse_config_text(text)
        # A later item that mends the record clears the error.
        assert parse_config_text(text + "env.physics_hz = 240\n").env.physics_hz == 240
        assert parse_config_text("drone.mass = nan\ndrone.mass = 1\n").drone.mass == 1.0

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\nbaseline.lookahead = 0.25\n")
        cfg = load_config(str(path))
        assert cfg.seed == 9
        assert cfg.baseline.lookahead == 0.25


class TestCliExitCodes:
    def test_missing_config_is_usage_error(self, capsys):
        rc = main(["config-dump", "--config", "/nonexistent/run.cfg"])
        assert rc == 2
        assert "/nonexistent/run.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["config-dump", "--config"], ["replay"]], ids=["config-dump", "replay"])
    @pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"seed = 1\n\xff\n"), lambda p: p.mkdir()],
                             ids=["binary", "directory"])
    def test_unreadable_input_is_usage_error_naming_the_file(self, tmp_path, capsys, command, make):
        path = tmp_path / "input"
        make(path)
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert str(path) in captured.err
        assert captured.out == ""

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc = main(["benchmark", "--baseline", "--scenario", "XPL", "--trials", "1"])
        assert rc == 2
        assert "XPL" in capsys.readouterr().err

    @pytest.mark.parametrize("names, error", [
        (["SPL", "spl"], "scenario SPL given twice"),
        (["LMPL", "CTL", "lmpl"], "scenario LMPL given twice"),
        (["SPL", "ALL"], "scenario ALL must stand alone in --scenario, got SPL, ALL"),
        (["ALL", "spl", "SPL"], "scenario ALL must stand alone in --scenario, got ALL, spl, SPL"),
    ], ids=["SPL-spl", "LMPL-CTL-lmpl", "SPL-ALL", "ALL-spl-SPL"])
    def test_repeated_scenario_is_usage_error_before_any_output(self, tmp_path, capsys, names, error):
        # A repeated scenario would run twice: two identical report groups and trials.csv rows.
        argv = ["benchmark", "--baseline", "--trials", "1", "-o", f"outdir={tmp_path}"]
        rc = main(argv + [arg for name in names for arg in ("--scenario", name)])
        assert rc == 2
        assert error in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario", [["--scenario", "ALL"], []], ids=["ALL", "default"])
    def test_scenario_all_runs_every_kind_once(self, tmp_path, scenario):
        assert main(["benchmark", "--baseline", "--trials", "1", "-o", f"outdir={tmp_path}"] + scenario) == 0
        rows = (tmp_path / "benchmark_s0" / "trials.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [kind.value for kind in ScenarioKind]

    def test_benchmark_requires_controller(self):
        assert main(["benchmark", "--scenario", "SPL"]) == 2

    def test_benchmark_without_a_controller_is_usage_error_before_any_output(self, tmp_path, capsys):
        rc = main(["benchmark", "--scenario", "SPL", "-o", f"outdir={tmp_path}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--baseline" in err and "--checkpoint" in err
        assert list(tmp_path.iterdir()) == []

    # Removed spellings: wind is env.wind_enabled, and --checkpoint with --baseline is the paired run.
    @pytest.mark.parametrize("argv", [
        ["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1", "--wind"],
        ["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1", "--both"],
        ["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1", "--timestamp-dir"],
        ["train", "--scenario", "SPL", "--total-steps", "1", "--timestamp-dir"],
    ], ids=["benchmark-wind", "benchmark-both", "benchmark-timestamp-dir", "train-timestamp-dir"])
    def test_removed_flag_is_usage_error_before_any_output(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", f"outdir={tmp_path}"])
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_evaluation_section_is_usage_error_before_any_output(self, tmp_path, capsys):
        rc = main(["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1",
                   "-o", f"outdir={tmp_path}", "-o", "evaluation.wind=true"])
        assert rc == 2
        assert "evaluation.wind" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_removed_scenario_key_is_usage_error_naming_it(self, tmp_path, capsys):
        # the scenario is scenario_params.kind
        assert main(["config-dump", "-o", "scenario=LMPL"]) == 2
        assert "'scenario'" in capsys.readouterr().err
        old = tmp_path / "old.cfg"
        old.write_text("seed = 1\nscenario = SPL\n")
        assert main(["config-dump", "--config", str(old)]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "'scenario'" in err

    def test_removed_action_scale_is_unknown_key(self, capsys):
        # the env scales an action by dynamics.SETPOINT_DELTA_BOUND
        assert main(["config-dump", "-o", "env.action_scale=0.1"]) == 2
        assert "unknown configuration key 'env.action_scale'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["benchmark", "--scenario", "SPL", "--checkpoint"],
                                         ["train", "--total-steps", "1", "--resume"]], ids=["benchmark", "train"])
    def test_checkpoint_with_wrong_dims_is_usage_error_before_any_output(self, tmp_path, capsys, command):
        ckpt = tmp_path / "obs4.bin"
        save_checkpoint(ckpt, Td3Learner(Td3Hyperparams(hidden_dims=(8, 8)), seed=2, obs_dim=4))
        runs = tmp_path / "runs"
        assert main(command + [str(ckpt), "-o", f"outdir={runs}"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and f"4 -> {ACTION_DIM}" in err and f"{OBS_DIM} -> {ACTION_DIM}" in err
        assert not runs.exists()

    def test_corrupt_checkpoint_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        rc = main(["benchmark", "--checkpoint", str(bad), "--scenario", "SPL"])
        assert rc == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_bad_override_is_usage_error(self):
        assert main(["config-dump", "-o", "reward.alpha=sideways"]) == 2
        assert main(["config-dump", "-o", "no_equals_sign"]) == 2
        assert main(["config-dump", "-o", "pid.output_clamp=0"]) == 2

    # Each of these used to hang, fail only at runtime, or run quietly wrong.
    @pytest.mark.parametrize("item", [
        "env.spawn_alt_min=5",
        "env.spawn_alt_max=0.5",
        "env.spawn_alt_min=-0.1",
        "env.spawn_radius=0.4",
        "env.control_hz=0",
        "env.physics_hz=0",
        "env.wind_p_episode=2",
        "env.wind_enabled=maybe",
        "env.wind_p_step=nan",
        "env.wind_bound=-1",
        "drone.a_max=-1",
        "env.episode_cap=-5",
        "env.out_of_bounds_radius=-1",
        "env.touchdown_vertical=0",
        "env.touchdown_speed=nan",
        "env.crash_descent_speed=-1",
        "td3.discount=1.5",
        "td3.discount=nan",
        "td3.polyak_tau=0",
        "td3.polyak_tau=1.5",
        "td3.buffer_capacity=50",
        "td3.target_noise_sigma=-0.1",
        "td3.target_noise_clip=-1",
        "td3.exploration_noise_sigma=nan",
        "td3.total_steps=0",
        "td3.total_steps=-3",
        "td3.learning_starts=-1",
        "td3.eval_interval=-1",
        "td3.eval_episodes=0",
        "td3.checkpoint_interval=-5",
        "reward.gamma=0",
        "reward.gamma=2",
        "reward.gamma=nan",
        "reward.alpha=0",
        "reward.alpha=nan",
        "reward.zeta=-1",
        "reward.beta_below=-0.5",
        "reward.beta_edge=nan",
        "reward.k_delta=-3",
        "baseline.lookahead=nan",
        "baseline.lookahead=-0.1",
        "baseline.descent_rate=-1",
        "baseline.descent_rate=0",
        "baseline.approach_height=-0.5",
        "baseline.align_radius=0",
        "baseline.measurement_sigma=-0.1",
        "pid.output_clamp=0.2",
        "seed=-4",
        "seed=four",
        "outdir=runs#1",
    ])
    def test_unusable_value_is_usage_error_naming_key(self, item, capsys):
        assert main(["config-dump", "-o", item]) == 2
        assert item.partition("=")[0] in capsys.readouterr().err

    def test_non_finite_float_value_is_usage_error_naming_key(self, capsys):
        assert main(["config-dump"]) == 0
        keys = [line.partition(" = ")[0] for line in capsys.readouterr().out.splitlines()]
        sections = [key.partition(".") for key in keys if "." in key]
        float_keys = [f"{s}.{a}" for s, _, a in sections if isinstance(getattr(getattr(RunConfig(), s), a), float)]
        # The keys whose own range checks let nan through.
        assert {"drone.gravity", "drone.kp_pos", "drone.mass", "drone.tau_v", "scenario_params.curve_radius",
                "scenario_params.direction_change_period", "scenario_params.initial_heading",
                "scenario_params.vertical_amplitude", "td3.learning_rate", "pid.kd", "pid.ki"} <= set(float_keys)
        for key in float_keys:
            for value in ("nan", "inf", "-inf"):
                assert main(["config-dump", "-o", f"{key}={value}"]) == 2, f"{key}={value}"
                assert f"bad value for {key}:" in capsys.readouterr().err

    # Each of these used to fail only at runtime (exit 1), some after making a run directory.
    @pytest.mark.parametrize("argv, named", [
        (["train", "--seed", "-1", "--total-steps", "1"], "seed"),
        (["benchmark", "--baseline", "--trials", "0", "--scenario", "SPL"], "--trials"),
        (["reward-surface", "--range", "nan"], "--range"),
        (["reward-surface", "--range", "inf"], "--range"),
        (["reward-surface", "--range", "0"], "--range"),
        (["reward-surface", "--z", "nan"], "--z"),
        (["train", "--total-steps", "-3", "-o", "td3.eval_interval=0"], "td3.total_steps"),
        (["train", "--total-steps", "5", "-o", "td3.eval_interval=2", "-o", "td3.eval_episodes=0"],
         "td3.eval_episodes"),
    ], ids=["train-seed", "benchmark-trials", "range-nan", "range-inf", "range-zero", "z-nan",
            "train-total-steps", "train-eval-episodes"])
    def test_unusable_flag_is_usage_error_before_any_output(self, tmp_path, monkeypatch, argv, named, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["-o", f"outdir={tmp_path / 'runs'}"]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # Each of these used to run and report a plausible-looking result.
    @pytest.mark.parametrize("scenario, item, message", [
        ("SPL", "drone.kp_pos=-1", "kp_pos must be positive, got -1.0"),
        ("SPL", "drone.gravity=0", "gravity must be positive, got 0.0"),
        ("SPL", "pid.ki=-1", "ki must be non-negative, got -1.0"),
        ("SPL", "pid.kd=-5", "kd must be non-negative, got -5.0"),
        ("CTL", "scenario_params.vertical_amplitude=0.5", "CTL's peak vertical speed |vertical_amplitude| * pi / "
         "direction_change_period must be at most 0.46 m/s, got 0.5235987755982988"),
        ("ALL", "scenario_params.vertical_amplitude=0.5", "CTL's peak vertical speed |vertical_amplitude| * pi / "
         "direction_change_period must be at most 0.46 m/s, got 0.5235987755982988"),
    ], ids=["kp_pos", "gravity", "ki", "kd", "CTL-amplitude", "ALL-amplitude"])
    def test_setting_outside_its_range_is_usage_error_before_any_output(self, tmp_path, capsys, scenario, item,
                                                                        message):
        rc = main(["benchmark", "--baseline", "--scenario", scenario, "--trials", "3",
                   "-o", f"outdir={tmp_path / 'runs'}", "-o", item])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: bad value for {item.partition('=')[0]}: {message}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_ctl_amplitude_is_checked_only_where_a_ctl_pad_runs(self, tmp_path, capsys):
        assert main(["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1",
                     "-o", f"outdir={tmp_path}", "-o", "scenario_params.vertical_amplitude=0.5"]) == 0
        assert main(["config-dump", "-o", "scenario_params.vertical_amplitude=5"]) == 0
        capsys.readouterr()
        assert main(["config-dump", "-o", "scenario_params.kind=CTL", "-o", "scenario_params.vertical_amplitude=5"]) == 2
        assert "bad value for scenario_params.vertical_amplitude: CTL's peak vertical speed" in capsys.readouterr().err

    def test_rerun_into_a_used_run_directory_is_usage_error_before_any_output(self, tmp_path, capsys):
        # A second run would leave the first one's traces beside its own trials.csv.
        run = tmp_path / "benchmark_s2"
        run.mkdir()  # an empty run directory is used
        base = ["benchmark", "--baseline", "--seed", "2", "-o", f"outdir={tmp_path}"]
        assert main(base + ["--scenario", "LMPL", "--trials", "3"]) == 0
        files = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
        assert run / "traces" / "LMPL_EkfPid_02.csv" in files
        capsys.readouterr()
        assert main(base + ["--scenario", "SPL", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert f"run directory {run} exists and is not empty" in captured.err
        assert captured.out == ""
        assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == files

    @pytest.mark.parametrize("blocker", ["runs/benchmark_s0", "runs"], ids=["run-directory-is-a-file", "outdir-is-a-file"])
    def test_file_in_the_run_directorys_place_is_usage_error_before_any_output(self, tmp_path, capsys, blocker):
        (tmp_path / blocker).parent.mkdir(exist_ok=True)
        (tmp_path / blocker).write_text("kept\n")
        rc = main(["benchmark", "--baseline", "--scenario", "SPL", "--trials", "1", "-o", f"outdir={tmp_path / 'runs'}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"cannot make run directory {tmp_path / 'runs' / 'benchmark_s0'}" in captured.err
        assert captured.out == ""
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted({"runs", blocker})
        assert (tmp_path / blocker).read_text() == "kept\n"

    def test_reward_surface_takes_no_seed(self, tmp_path, monkeypatch, capsys):
        # The grid draws no random numbers, so a seed would change nothing.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["reward-surface", "--res", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SystemExit) as exc:
            main(["reward-surface", "--help"])
        assert exc.value.code == 0
        assert "draws no random numbers" in " ".join(capsys.readouterr().out.split())


class TestCliCommands:
    # train's --seed, --scenario and --total-steps are other spellings of their keys, applied after every -o.
    @pytest.mark.parametrize("flags, resolved", [
        (["--seed", "7", "--scenario", "cmpl", "--total-steps", "3"],
         {"seed": "7", "scenario_params.kind": "CMPL", "td3.total_steps": "3"}),
        (["--seed", "7", "--scenario", "lmpl", "--total-steps", "3",
          "-o", "seed=4", "-o", "scenario_params.kind=CTL", "-o", "td3.total_steps=9"],
         {"seed": "7", "scenario_params.kind": "LMPL", "td3.total_steps": "3"}),
        (["--scenario", "", "--total-steps", "3"], None),
    ], ids=["each-flag", "flag-beats-override", "empty-scenario"])
    def test_train_key_flags_set_their_keys(self, tmp_path, monkeypatch, capsys, flags, resolved):
        monkeypatch.chdir(tmp_path)
        rc = main(["train", *flags, "-o", f"outdir={tmp_path / 'runs'}"])
        if resolved is None:
            assert rc == 2
            assert "bad value for scenario_params.kind" in capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []
            return
        assert rc == 0
        text = (tmp_path / "runs" / f"train_s{resolved['seed']}" / "resolved.cfg").read_text()
        values = dict(line.split(" = ") for line in text.splitlines())
        assert {key: values[key] for key in resolved} == resolved

    def test_config_dump_applies_overrides(self, capsys):
        rc = main(["config-dump", "-o", "reward.alpha=9.5", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reward.alpha = 9.5" in out
        assert "seed = 4" in out

    def test_config_dump_prints_floats_exactly(self, capsys):
        assert main(["config-dump", "-o", "reward.alpha=7.1234567891234",
                     "-o", "td3.learning_rate=0.00012345678912"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "reward.alpha = 7.1234567891234" in out
        assert "td3.learning_rate = 0.00012345678912" in out

    def test_train_rerun_from_resolved_cfg_is_identical(self, tmp_path):
        # Both floats are ones that %.9g rounds; --scenario sets scenario_params.kind.
        assert main(["train", "--seed", "3", "--scenario", "LMPL", "--total-steps", "300",
                     "-o", "reward.alpha=7.1234567891234", "-o", "td3.learning_rate=0.00012345678912",
                     "-o", "td3.eval_interval=150", "-o", "td3.eval_episodes=2", "-o", "td3.batch_size=16",
                     "-o", "td3.learning_starts=50", "-o", f"outdir={tmp_path / 'a'}"]) == 0
        resolved = tmp_path / "a" / "train_s3" / "resolved.cfg"
        assert "scenario_params.kind = LMPL" in resolved.read_text().splitlines()
        assert main(["train", "--config", str(resolved), "-o", f"outdir={tmp_path / 'b'}"]) == 0
        for name in ("checkpoint.bin", "curve.csv"):
            assert (tmp_path / "a" / "train_s3" / name).read_bytes() == (tmp_path / "b" / "train_s3" / name).read_bytes()

    def test_config_dump_defaults(self, capsys):
        assert main(["config-dump"]) == 0
        assert capsys.readouterr().out == DEFAULT_DUMP

    def test_reward_surface_row_count(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        rc = main(["reward-surface", "--z", "0.05", "--range", "3", "--res", "101",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,z,total,case,u_att,u_rep,beta,delta"
        assert len(lines) == 1 + 101 * 101

    def test_reward_surface_res_too_small(self):
        assert main(["reward-surface", "--res", "1"]) == 2

    def test_train_smoke_writes_artifacts(self, tmp_path):
        rc = main([
            "train", "--seed", "3", "--scenario", "SPL",
            "-o", f"outdir={tmp_path}",
            "-o", "td3.hidden_dims=", "--total-steps", "300",
        ])
        # hidden_dims is a tuple, not scalar-configurable: expect usage error
        assert rc == 2
        rc = main([
            "train", "--seed", "3", "--scenario", "SPL",
            "-o", f"outdir={tmp_path}",
            "-o", "td3.eval_interval=150",
            "-o", "td3.batch_size=16",
            "-o", "td3.learning_starts=50",
            "-o", "td3.checkpoint_interval=150",
            "--total-steps", "300",
        ])
        assert rc == 0
        run_dir = tmp_path / "train_s3"
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["checkpoint.bin", "checkpoint_00000150.bin", "checkpoint_00000300.bin",
                         "curve.csv", "resolved.cfg"]
        assert (run_dir / "checkpoint_00000300.bin").read_bytes() == (run_dir / "checkpoint.bin").read_bytes()
        curve = (run_dir / "curve.csv").read_text().splitlines()
        assert curve[0] == "step,mean_reward,mean_ep_len,success_rate"
        assert len(curve) == 3  # evals at 150 and 300

    def test_benchmark_baseline_writes_report(self, tmp_path):
        rc = main([
            "benchmark", "--baseline", "--scenario", "SPL", "--trials", "2",
            "--seed", "1", "-o", f"outdir={tmp_path}",
        ])
        assert rc == 0
        run_dir = tmp_path / "benchmark_s1"
        names = sorted(p.name for p in run_dir.iterdir())
        assert {"report.txt", "report.csv", "report.json", "trials.csv",
                "resolved.cfg", "traces"} <= set(names)

    def test_benchmark_deterministic_outputs(self, tmp_path):
        for d in ("a", "b"):
            rc = main([
                "benchmark", "--baseline", "--scenario", "LMPL", "--trials", "2",
                "--seed", "6", "-o", f"outdir={tmp_path / d}",
            ])
            assert rc == 0
        a = (tmp_path / "a" / "benchmark_s6" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "benchmark_s6" / "trials.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("wind", [False, True])
    def test_benchmark_rerun_from_resolved_cfg_is_identical(self, tmp_path, wind):
        value = str(wind).lower()
        base = ["benchmark", "--baseline", "--scenario", "LMPL", "--trials", "3", "--seed", "5"]
        assert main(base + ["-o", f"env.wind_enabled={value}", "-o", f"outdir={tmp_path / 'a'}"]) == 0
        resolved = tmp_path / "a" / "benchmark_s5" / "resolved.cfg"
        assert f"env.wind_enabled = {value}" in resolved.read_text().splitlines()
        assert main(base + ["--config", str(resolved), "-o", f"outdir={tmp_path / 'b'}"]) == 0
        a = (tmp_path / "a" / "benchmark_s5" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "benchmark_s5" / "trials.csv").read_bytes()
        assert a == b

    def test_benchmark_reads_wind_from_env_wind_enabled(self, tmp_path):
        assert main(["benchmark", "--baseline", "--scenario", "SPL", "--trials", "2", "--seed", "1",
                     "-o", "env.wind_enabled=true", "-o", f"outdir={tmp_path}"]) == 0
        run_dir = tmp_path / "benchmark_s1"
        rows = (run_dir / "trials.csv").read_text().splitlines()
        assert rows[0].endswith(",wind") and len(rows) == 3
        assert all(row.endswith(",1") for row in rows[1:])
        assert "env.wind_enabled = true" in (run_dir / "resolved.cfg").read_text().splitlines()

    def test_benchmark_checkpoint_and_baseline_run_paired(self, tmp_path):
        ckpt = tmp_path / "agent.bin"
        save_checkpoint(ckpt, Td3Learner(Td3Hyperparams(hidden_dims=(8, 8)), seed=2))
        assert main(["benchmark", "--checkpoint", str(ckpt), "--baseline", "--scenario", "SPL",
                     "--scenario", "LMPL", "--trials", "2", "--seed", "4", "-o", f"outdir={tmp_path}"]) == 0
        rows = [row.split(",")[:3] for row in
                (tmp_path / "benchmark_s4" / "trials.csv").read_text().splitlines()[1:]]
        assert [(s, c) for s, c, _ in rows] == [(s, c) for s in ("SPL", "LMPL")
                                                 for c in ("Agent", "EkfPid") for _ in range(2)]
        for i in (0, 4):  # each scenario's agent seeds are its baseline seeds
            assert [seed for _, _, seed in rows[i:i + 2]] == [seed for _, _, seed in rows[i + 2:i + 4]]

    def test_benchmark_applies_pid_overrides(self, tmp_path):
        trials = {}
        for name, extra in (("default", []), ("kd", ["-o", "pid.kd=50"])):
            rc = main([
                "benchmark", "--baseline", "--scenario", "SPL", "--trials", "1",
                "--seed", "3", "-o", f"outdir={tmp_path / name}", *extra,
            ])
            assert rc == 0
            trials[name] = (tmp_path / name / "benchmark_s3" / "trials.csv").read_text()
        assert trials["default"] != trials["kd"]

    def test_benchmark_applies_drone_and_scenario_overrides(self, tmp_path):
        trials, traces = {}, {}
        for name, extra in (("default", []), ("kp", ["-o", "drone.kp_pos=1.0"]),
                            ("speed", ["-o", "scenario_params.speed=0.1"]),
                            ("lookahead", ["-o", "baseline.lookahead=0.2"]), ("alpha", ["-o", "reward.alpha=2.0"])):
            rc = main([
                "benchmark", "--baseline", "--scenario", "LMPL", "--trials", "2",
                "--seed", "3", "-o", f"outdir={tmp_path / name}", *extra,
            ])
            assert rc == 0
            run = tmp_path / name / "benchmark_s3"
            trials[name] = (run / "trials.csv").read_text()
            with open(run / "traces" / "LMPL_EkfPid_00.csv") as f:
                traces[name] = list(csv.DictReader(f))
        flown = [trials[name] for name in ("default", "kp", "speed", "lookahead")]
        assert len(set(flown)) == len(flown)
        # The baseline never reads the reward, so alpha moves the trace's reward column and nothing else.
        assert trials["alpha"] == trials["default"]
        assert len(traces["alpha"]) == len(traces["default"])
        for a, b in zip(traces["alpha"], traces["default"]):
            assert {k: v for k, v in a.items() if k != "reward"} == {k: v for k, v in b.items() if k != "reward"}
        assert [r["reward"] for r in traces["alpha"]] != [r["reward"] for r in traces["default"]]

    def test_replay_summary_and_downsample(self, tmp_path, capsys):
        bench_dir = tmp_path / "bench"
        rc = main([
            "benchmark", "--baseline", "--scenario", "SPL", "--trials", "1",
            "--seed", "2", "-o", f"outdir={bench_dir}",
        ])
        assert rc == 0
        trace = bench_dir / "benchmark_s2" / "traces" / "SPL_EkfPid_00.csv"
        out = tmp_path / "down.csv"
        rc = main(["replay", str(trace), "--downsample", "10", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "terminal:" in text and "min drone-pad distance" in text
        n_rows = len(trace.read_text().strip().splitlines()) - 1
        n_down = len(out.read_text().strip().splitlines()) - 1
        assert n_down <= n_rows // 10 + 2
        # endpoints preserved
        assert out.read_text().strip().splitlines()[-1] == trace.read_text().strip().splitlines()[-1]

    def test_replay_output_pinned(self, tmp_path, capsys):
        # Recorded before replay read its columns by name, on this trace.
        assert main([
            "benchmark", "--baseline", "--scenario", "LMPL", "--trials", "1",
            "--seed", "2", "-o", f"outdir={tmp_path}",
        ]) == 0
        trace = tmp_path / "benchmark_s2" / "traces" / "LMPL_EkfPid_00.csv"
        out = tmp_path / "down.csv"
        capsys.readouterr()
        assert main(["replay", str(trace), "--downsample", "10", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "steps: 600  duration: 20.000 s  terminal: Timeout\n"
            "min drone-pad distance: 0.4089 m  final lateral error: 0.0898 m\n"
            "drone x range: [-0.765, 1.149] m\n"
            "drone y range: [-0.948, 1.053] m\n"
            "drone z range: [0.407, 0.581] m\n"
            f"downsampled 600 -> 61 rows -> {out}\n"
        )
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ed58cfdcfb40de60c210c008af9cf844803af2dd68b2e878ec2f5ad70ecf194e"
        )

    def test_replay_schema_error_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,px,WRONG,pz\n0,0,0,0\n")
        rc = main(["replay", str(bad)])
        assert rc == 2
        assert "WRONG" in capsys.readouterr().err

    def test_replay_short_row_names_line_and_column(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        row = ["0"] * 23 + ["None"]
        trace.write_text(f"{TRACE_COLUMNS}\n" + "".join(",".join(r) + "\n" for r in (row, row[:19], row)))
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err
        assert str(trace) in err and "line 3" in err and "'fx'" in err

    def test_replay_non_numeric_cell_names_line_and_column(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        row = ["0"] * 23 + ["None"]
        bad = row[:14] + ["abc"] + row[15:]
        trace.write_text(f"{TRACE_COLUMNS}\n" + "".join(",".join(r) + "\n" for r in (row, row, bad)))
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err
        assert str(trace) in err and "line 4" in err and "'pad_y'" in err and "'abc'" in err

    @pytest.mark.parametrize("downsample", ["0", "-5"])
    def test_replay_downsample_below_one_is_usage_error(self, tmp_path, downsample, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_COLUMNS}\n" + ",".join(["0"] * 23 + ["None"]) + "\n")
        out = tmp_path / "down.csv"
        assert main(["replay", str(trace), "--downsample", downsample, "--out", str(out)]) == 2
        assert "--downsample" in capsys.readouterr().err
        assert not out.exists()
        assert main(["replay", str(trace), "--downsample", "1", "--out", str(out)]) == 0

    @pytest.mark.parametrize("text, error", [
        (None, "trace file not found: {}"),
        ("", "{}: empty file, expected header " + TRACE_COLUMNS),
        (TRACE_COLUMNS + "\n", "{}: no data rows"),
    ], ids=["missing", "empty", "header-only"])
    def test_replay_without_rows_is_usage_error_naming_the_file(self, tmp_path, capsys, text, error):
        trace = tmp_path / "trace.csv"
        if text is not None:
            trace.write_text(text)
        assert main(["replay", str(trace)]) == 2
        assert error.format(trace) in capsys.readouterr().err

import dataclasses

import numpy as np
import pytest

from padlander.cli import main
from padlander.config import (
    ConfigError,
    RunConfig,
    apply_item,
    dump_config,
    load_config,
    parse_config_text,
)
from padlander.environment import TRACE_COLUMNS
from padlander.scenario import ScenarioKind

DEFAULT_DUMP = """\
seed = 0
outdir = runs
scenario = SPL
drone.a_max = 10
drone.gravity = 9.81
drone.kp_pos = 4
drone.mass = 0.027
drone.tau_v = 0.25
scenario_params.curve_radius = 0.5
scenario_params.direction_change_period = 3
scenario_params.initial_heading = 0
scenario_params.speed = 0.3
scenario_params.vertical_amplitude = 0.2
reward.alpha = 5
reward.beta_below = 0.5
reward.beta_edge = 0.25
reward.eta = 0.1
reward.far_radius = 2
reward.gamma = -1
reward.k_delta = 0.3
reward.near_radius = 0.1
reward.q_max = 0.4
reward.repulsive_enabled = false
reward.zeta = 0.5
env.action_scale = 0.1
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
evaluation.wind = false
"""


class TestConfigParsing:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 0
        assert cfg.scenario == "SPL"
        assert cfg.reward.alpha == 5.0

    def test_apply_section_item(self):
        cfg = apply_item(RunConfig(), "reward.alpha", "7.5")
        assert cfg.reward.alpha == 7.5

    def test_apply_top_level(self):
        cfg = apply_item(RunConfig(), "seed", "11")
        assert cfg.seed == 11
        cfg = apply_item(cfg, "scenario", "lmpl")
        assert cfg.scenario == "LMPL"
        assert cfg.scenario_spec().kind is ScenarioKind.LMPL

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            apply_item(RunConfig(), "reward.does_not_exist", "1")
        with pytest.raises(ConfigError):
            apply_item(RunConfig(), "nosuchsection.alpha", "1")
        # deleted: touchdown uses the pad's half extent, the substep is 1 / env.physics_hz
        for key in ("env.touchdown_lateral", "drone.physics_dt"):
            with pytest.raises(ConfigError, match="unknown"):
                apply_item(RunConfig(), key, "0.5")

    def test_scenario_kind_blocked_in_section(self):
        with pytest.raises(ConfigError, match="scenario"):
            apply_item(RunConfig(), "scenario_params.kind", "LMPL")

    def test_scenario_seed_blocked_in_section(self):
        with pytest.raises(ConfigError, match="seed"):
            apply_item(RunConfig(), "scenario_params.seed", "3")

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
        cfg = apply_item(cfg, "scenario", "CTL")
        dumped = dump_config(cfg)
        reparsed = parse_config_text(dumped)
        assert dump_config(reparsed) == dumped
        assert reparsed.reward.alpha == 3.25
        assert reparsed.td3.total_steps == 5000
        assert reparsed.scenario == "CTL"

    def test_every_section_is_frozen(self):
        cfg = RunConfig()
        sections = [getattr(cfg, f.name) for f in dataclasses.fields(cfg)]
        sections = [v for v in sections if dataclasses.is_dataclass(v)]
        assert len(sections) == 8
        for value in [cfg] + sections:
            assert type(value).__dataclass_params__.frozen, type(value).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.pid.kd = 1.0

    def test_override_leaves_base_config_alone(self):
        base = RunConfig()
        cfg = apply_item(base, "pid.kd", "0.7")
        assert cfg.pid.kd == 0.7
        assert base.pid.kd == 0.3

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

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc = main(["benchmark", "--baseline", "--scenario", "XPL", "--trials", "1"])
        assert rc == 2
        assert "XPL" in capsys.readouterr().err

    def test_benchmark_requires_controller(self):
        assert main(["benchmark", "--scenario", "SPL"]) == 2

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


class TestCliCommands:
    def test_config_dump_applies_overrides(self, capsys):
        rc = main(["config-dump", "-o", "reward.alpha=9.5", "--seed", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reward.alpha = 9.5" in out
        assert "seed = 4" in out

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
            "--total-steps", "300",
        ])
        assert rc == 0
        run_dir = tmp_path / "train_s3"
        names = sorted(p.name for p in run_dir.iterdir())
        assert "checkpoint.bin" in names
        assert "curve.csv" in names
        assert "resolved.cfg" in names
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
                "--wind", "--seed", "6", "-o", f"outdir={tmp_path / d}",
            ])
            assert rc == 0
        a = (tmp_path / "a" / "benchmark_s6" / "trials.csv").read_bytes()
        b = (tmp_path / "b" / "benchmark_s6" / "trials.csv").read_bytes()
        assert a == b

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
        trials = {}
        for name, extra in (("default", []), ("kp", ["-o", "drone.kp_pos=1.0"]),
                            ("speed", ["-o", "scenario_params.speed=0.1"])):
            rc = main([
                "benchmark", "--baseline", "--scenario", "LMPL", "--trials", "2",
                "--seed", "3", "-o", f"outdir={tmp_path / name}", *extra,
            ])
            assert rc == 0
            trials[name] = (tmp_path / name / "benchmark_s3" / "trials.csv").read_text()
        assert trials["kp"] != trials["default"]
        assert trials["speed"] != trials["default"]
        assert trials["speed"] != trials["kp"]

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

    def test_replay_schema_error_names_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,px,WRONG,pz\n0,0,0,0\n")
        rc = main(["replay", str(bad)])
        assert rc == 2
        assert "WRONG" in capsys.readouterr().err

    def test_replay_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["replay", str(empty)]) == 2

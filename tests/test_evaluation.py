import numpy as np
import pytest

from padlander import baseline, evaluation
from padlander.baseline import FilterDivergenceError
from padlander.environment import EnvConfig, Terminal
from padlander.evaluation import (
    BenchmarkReport,
    Controller,
    TrialResult,
    _group_stats,
    report_csv,
    report_json,
    report_text,
    run_benchmark,
    trials_csv,
    velocity_correlation,
    write_report,
)
from padlander.scenario import ScenarioKind


def make_trial(terminal=Terminal.TOUCHDOWN, lateral=0.05, corr=None):
    return TrialResult(
        scenario=ScenarioKind.SPL,
        controller=Controller.EKF_PID,
        seed=1,
        terminal=terminal,
        touchdown_lateral_error=lateral if terminal is Terminal.TOUCHDOWN else None,
        duration=5.0,
        velocity_correlation=corr,
        wind_enabled=False,
    )


class TestVelocityCorrelation:
    def test_static_pad_undefined(self):
        assert velocity_correlation([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]) is None

    def test_affine_relation_is_perfect(self):
        pad = [0.1, 0.2, 0.3, 0.25, 0.15]
        drone = [2 * v + 1 for v in pad]
        assert velocity_correlation(drone, pad) == pytest.approx(1.0, abs=1e-9)

    def test_anticorrelated(self):
        pad = [0.1, 0.2, 0.3]
        drone = [-v for v in pad]
        assert velocity_correlation(drone, pad) == pytest.approx(-1.0, abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = velocity_correlation(rng.normal(size=20), rng.normal(size=20))
            assert -1.0 <= c <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            velocity_correlation([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            velocity_correlation([1.0], [1.0])


class TestAggregation:
    def test_success_rate_counting(self):
        trials = [make_trial() for _ in range(8)] + [
            make_trial(Terminal.TIMEOUT) for _ in range(2)
        ]
        g = _group_stats(ScenarioKind.SPL, Controller.EKF_PID, trials)
        assert g.trials == 10
        assert g.successes == 8
        assert g.success_rate == 0.8

    def test_precision_mean_and_population_std(self):
        trials = [make_trial(lateral=v) for v in (0.05, 0.06, 0.07)]
        g = _group_stats(ScenarioKind.SPL, Controller.EKF_PID, trials)
        assert g.precision_mean == pytest.approx(0.06)
        assert g.precision_std == pytest.approx(0.00816, abs=1e-5)

    def test_failed_trials_excluded_from_precision(self):
        trials = [make_trial(lateral=0.1), make_trial(Terminal.CRASH)]
        g = _group_stats(ScenarioKind.SPL, Controller.EKF_PID, trials)
        assert g.precision_mean == pytest.approx(0.1)

    def test_undefined_correlations_excluded(self):
        trials = [make_trial(corr=None), make_trial(corr=0.5), make_trial(corr=0.7)]
        g = _group_stats(ScenarioKind.SPL, Controller.EKF_PID, trials)
        assert g.corr_mean == pytest.approx(0.6)
        assert g.corr_min == pytest.approx(0.5)
        assert g.corr_max == pytest.approx(0.7)

    def test_all_undefined_reported_as_none(self):
        g = _group_stats(ScenarioKind.SPL, Controller.EKF_PID, [make_trial()])
        assert g.corr_mean is None
        assert g.precision_std == 0.0


class TestRunBenchmark:
    def test_baseline_spl_shape(self):
        r = run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=3, seed=0)
        assert len(r.groups) == 1
        assert len(r.trials) == 3
        assert 0.0 <= r.groups[0].success_rate <= 1.0

    def test_spl_correlation_undefined(self):
        r = run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=3, seed=0)
        assert all(t.velocity_correlation is None for t in r.trials)

    def test_paired_seeds_across_controllers(self):
        # without a learner only the baseline runs, so pair baseline with itself
        # across two invocations and check trial seeds are identical
        a = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=4, seed=5)
        b = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=4, seed=5)
        assert [t.seed for t in a.trials] == [t.seed for t in b.trials]

    def test_reproducible_report(self):
        a = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=3, wind=True, seed=9)
        b = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=3, wind=True, seed=9)
        assert report_csv(a) == report_csv(b)
        assert trials_csv(a) == trials_csv(b)

    @pytest.mark.parametrize("wind, env_cfg, windy", [
        (None, None, True),  # EnvConfig's default
        (False, None, False),
        (None, EnvConfig(wind_enabled=True), True),
        (None, EnvConfig(wind_enabled=False), False),
        (True, EnvConfig(wind_enabled=True), True),
    ])
    def test_wind_defaults_to_env_cfg(self, wind, env_cfg, windy):
        r = run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=2, wind=wind, seed=0,
                          env_cfg=env_cfg)
        assert [t.wind_enabled for t in r.trials] == [windy, windy]

    @pytest.mark.parametrize("wind", [True, False])
    def test_wind_contradicting_env_cfg_rejected(self, wind):
        with pytest.raises(ValueError, match=f"^wind={wind} contradicts env_cfg.wind_enabled={not wind}$"):
            run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=1, wind=wind,
                          env_cfg=EnvConfig(wind_enabled=not wind))

    def test_agent_without_learner_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([ScenarioKind.SPL], [Controller.AGENT], trials_per_scenario=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=0)

    def test_lateral_error_present_iff_touchdown(self):
        r = run_benchmark(
            [ScenarioKind.SPL, ScenarioKind.CMPL], [Controller.EKF_PID],
            trials_per_scenario=5, seed=1,
        )
        for t in r.trials:
            assert (t.touchdown_lateral_error is not None) == (t.terminal is Terminal.TOUCHDOWN)

    def test_code_defect_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("defect in the controller code")

        monkeypatch.setattr(evaluation, "run_baseline_episode", broken)
        with pytest.raises(TypeError, match="defect"):
            run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=1)

    def test_filter_divergence_is_a_crash_trial(self, monkeypatch, tmp_path):
        def diverge(state, z):
            raise FilterDivergenceError("innovation covariance numerically singular")

        monkeypatch.setattr(baseline, "ekf_update", diverge)
        r = run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=2,
                          seed=0, trace_dir=str(tmp_path))
        assert [t.terminal for t in r.trials] == [Terminal.CRASH, Terminal.CRASH]
        assert r.groups[0].successes == 0
        assert list(tmp_path.iterdir()) == []  # no outcomes, no trace

    def test_non_finite_covariance_is_a_crash_trial(self, monkeypatch):
        predict = baseline.ekf_predict

        def poisoned(state):
            out = predict(state)
            out.P[4, 4] = np.nan
            return out

        monkeypatch.setattr(baseline, "ekf_predict", poisoned)
        r = run_benchmark([ScenarioKind.LMPL], [Controller.EKF_PID], trials_per_scenario=2, seed=0)
        assert [t.terminal for t in r.trials] == [Terminal.CRASH, Terminal.CRASH]

    def test_traces_persisted(self, tmp_path):
        trace_dir = tmp_path / "traces"
        run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=2,
                      seed=0, trace_dir=str(trace_dir))
        files = sorted(p.name for p in trace_dir.iterdir())
        assert files == ["SPL_EkfPid_00.csv", "SPL_EkfPid_01.csv"]
        header = (trace_dir / files[0]).read_text().splitlines()[0]
        assert header.startswith("t,px,py,pz") and header.endswith("est_vz")


class TestReportFormats:
    def make_report(self):
        return run_benchmark([ScenarioKind.SPL], [Controller.EKF_PID], trials_per_scenario=3, seed=0)

    def test_text_sections(self):
        text = report_text(self.make_report())
        assert "Landing success rate" in text
        assert "Landing precision" in text
        assert "velocity correlation" in text

    def test_csv_recomputable(self):
        r = self.make_report()
        lines = report_csv(r).strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert int(row["successes"]) / int(row["trials"]) == float(row["success_rate"])

    def test_json_parses(self):
        import json

        data = json.loads(report_json(self.make_report()))
        assert data["groups"][0]["scenario"] == "SPL"

    def test_write_report_files(self, tmp_path):
        write_report(str(tmp_path), self.make_report())
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["report.csv", "report.json", "report.txt", "trials.csv"]

    def test_empty_report_renders(self):
        assert report_csv(BenchmarkReport()).strip().count("\n") == 0

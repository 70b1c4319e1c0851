import math
import struct

import numpy as np
import pytest

from padlander.reward import (
    REPULSIVE_Q_MAX,
    ObstacleContactError,
    RewardCase,
    RewardConfig,
    compute_reward,
    repulsive_potential,
    reward_surface_grid,
)

CFG = RewardConfig()
ZERO = np.zeros(3)


def reward_at(rel_pos, rel_vel=ZERO, prev=None, obstacle=None, below=False, edge=False, cfg=CFG):
    rel_pos = np.asarray(rel_pos, dtype=float)
    if prev is None:
        prev = float(np.linalg.norm(rel_pos))
    return compute_reward(rel_pos, rel_vel, prev, obstacle, below, edge, cfg)


class TestCases:
    def test_far_field_constant(self):
        out = reward_at([3.0, 0.0, 0.0])
        assert out.case_id is RewardCase.FAR
        assert out.total == pytest.approx(math.tanh(-1.0), abs=1e-15)
        # regardless of velocity
        fast = reward_at([0.0, 2.5, 0.0], rel_vel=np.array([3.0, 3.0, 2.0]))
        assert fast.total == out.total

    def test_pad_center_at_rest_is_neutral(self):
        out = reward_at([0.0, 0.0, 0.0])
        assert out.case_id is RewardCase.NEAR
        assert out.total == 0.0
        assert out.u_attractive == 0.0 and out.beta_term == 0.0 and out.delta_term == 0.0

    def test_mid_band_progress(self):
        out = reward_at([1.0, 0.0, 0.0], prev=1.2)
        assert out.case_id is RewardCase.MID
        assert out.total == pytest.approx(math.tanh(5.0 * 0.2), rel=1e-12)
        # closing 0.2 m at alpha=5 saturates to tanh(1)
        assert out.total == pytest.approx(0.7615941559557649, rel=1e-12)

    def test_mid_band_zero_progress_neutral(self):
        for d in (0.1, 0.5, 1.0, 1.999):
            out = reward_at([d, 0.0, 0.0])
            assert out.case_id is RewardCase.MID
            assert out.total == 0.0

    def test_boundaries_fold_into_mid(self):
        assert reward_at([2.0, 0.0, 0.0]).case_id is RewardCase.FAR
        assert reward_at([0.1, 0.0, 0.0]).case_id is RewardCase.MID

    def test_repulsive_hand_case(self):
        # 0.5 * 0.1 * (1/0.2 - 1/0.4)^2 = 0.3125, evaluated by hand
        assert repulsive_potential(0.2) == pytest.approx(0.3125, abs=1e-12)

    def test_repulsion_continuous_at_cutoff(self):
        assert repulsive_potential(REPULSIVE_Q_MAX) == 0.0
        assert repulsive_potential(REPULSIVE_Q_MAX - 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_repulsion_only_near_an_obstacle(self):
        assert reward_at([0.05, 0.0, 0.0]).u_repulsive == 0.0
        assert reward_at([0.05, 0.0, 0.0], obstacle=0.2).u_repulsive == pytest.approx(0.3125, abs=1e-12)

    def test_contact_rejected_with_repulsion(self):
        with pytest.raises(ObstacleContactError):
            reward_at([0.05, 0.0, 0.0], obstacle=0.0)

    @pytest.mark.parametrize("rel_pos, prev, cfg, total", [
        ([3.0, 0.0, 0.0], None, RewardConfig(gamma=-30.0), math.nextafter(-1.0, 0.0)),  # far: tanh(-30) is -1.0
        ([0.5, 0.0, 0.0], 10.0, CFG, math.nextafter(1.0, 0.0)),  # mid: tanh(5 * 9.5) is 1.0
    ], ids=["far-low-clamp", "mid-high-clamp"])
    def test_saturated_tanh_stays_inside_the_open_interval(self, rel_pos, prev, cfg, total):
        assert reward_at(rel_pos, prev=prev, cfg=cfg).total == total


class TestSafetyAndSpeed:
    def test_below_pad_strictly_worse(self):
        kw = dict(rel_vel=np.array([0.1, 0.0, 0.0]))
        above = reward_at([0.0, 0.0, 0.05], **kw)
        below = reward_at([0.0, 0.0, 0.05], below=True, **kw)
        assert below.total < above.total

    def test_edge_penalty(self):
        plain = reward_at([0.05, 0.0, 0.0])
        edge = reward_at([0.05, 0.0, 0.0], edge=True)
        assert edge.total < plain.total

    def test_descent_is_free_climb_is_not(self):
        descending = reward_at([0.0, 0.0, 0.05], rel_vel=np.array([0.0, 0.0, -0.4]))
        climbing = reward_at([0.0, 0.0, 0.05], rel_vel=np.array([0.0, 0.0, 0.4]))
        neutral = reward_at([0.0, 0.0, 0.05])
        assert descending.total == neutral.total
        assert climbing.total < neutral.total

    def test_lateral_speed_penalized(self):
        moving = reward_at([0.0, 0.0, 0.05], rel_vel=np.array([0.5, 0.0, 0.0]))
        still = reward_at([0.0, 0.0, 0.05])
        assert moving.total < still.total


class TestProperties:
    def test_bounded_on_fuzzed_inputs(self):
        rng = np.random.default_rng(17)
        for _ in range(20_000):
            rel = rng.uniform(-4, 4, 3)
            vel = rng.uniform(-4, 4, 3)
            prev = rng.uniform(0, 4)
            out = compute_reward(rel, vel, prev, None, rng.uniform() < 0.5, rng.uniform() < 0.5, CFG)
            assert -1.0 < out.total < 1.0

    def test_near_band_monotone_along_ray(self):
        # scanning outward from the pad center, reward never increases
        prev_total = None
        for d in np.linspace(0.0, 0.099, 50):
            out = reward_at([d, 0.0, 0.0])
            if prev_total is not None:
                assert out.total <= prev_total + 1e-15
            prev_total = out.total

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(ZERO, ZERO, -1.0, None, False, False, CFG)
        with pytest.raises(ValueError):
            compute_reward(np.array([np.nan, 0, 0]), ZERO, 1.0, None, False, False, CFG)
        with pytest.raises(ValueError):
            RewardConfig(near_radius=3.0)


def generator_unpack(v):
    """compute_reward's unpack of rel_pos/rel_vel before it used tolist()."""
    x, y, z = (float(c) for c in v)
    return x, y, z


class TestUnpack:
    def vectors(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            yield rng.normal(size=3) * 10.0 ** rng.uniform(-310, 300, 3)
        yield np.array([-0.0, 0.0, -0.0])
        yield np.array([5e-324, -5e-324, np.finfo(float).max])
        for bad in (np.nan, np.inf, -np.inf):
            yield np.array([1.0, bad, -0.0])

    def test_tolist_unpack_is_bit_identical(self):
        for v in self.vectors():
            got = tuple(v.tolist())
            assert all(type(c) is float for c in got)
            assert struct.pack("<3d", *got) == struct.pack("<3d", *generator_unpack(v))

    def test_non_finite_relative_state_still_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            for rel, vel in ((np.array([0.0, bad, 0.0]), ZERO), (ZERO, np.array([0.0, 0.0, bad]))):
                with pytest.raises(ValueError, match="non-finite relative state"):
                    compute_reward(rel, vel, 1.0, None, False, False, CFG)


class TestSurfaceGrid:
    def test_grid_shape_and_range(self):
        xs, ys, grid = reward_surface_grid(0.5, 3.0, 21, CFG)
        assert len(xs) == len(ys) == 21
        for row in grid:
            for b in row:
                assert -1.0 < b.total < 1.0

    def test_grid_symmetric_in_x(self):
        xs, ys, grid = reward_surface_grid(0.2, 2.5, 11, CFG)
        for i in range(11):
            for j in range(11):
                assert grid[i][j].total == pytest.approx(grid[i][10 - j].total, abs=1e-15)

    def test_far_cells_constant(self):
        xs, ys, grid = reward_surface_grid(0.0, 3.0, 13, CFG)
        far = math.tanh(CFG.gamma)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                if math.hypot(x, y) >= CFG.far_radius:
                    assert grid[i][j].total == far

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            reward_surface_grid(0.0, 1.0, 1, CFG)

import numpy as np
import pytest

from handover_sim.geometry import Pose, quat_angle, quat_from_axis_angle
from handover_sim.motion import (
    DEFAULT_CLEARANCE,
    TABLE_Z,
    point_segment_distances,
    rrt_connect,
    segment_collision_free,
    servo_step,
)
from reference import IDENTITY

NO_PTS = np.zeros((0, 3))


class TestPointSegmentDistances:
    def test_projection_interior(self):
        d = point_segment_distances([[0.5, 1.0, 0.0]], [0, 0, 0], [1, 0, 0])
        assert d[0] == pytest.approx(1.0, abs=1e-12)

    def test_clamped_to_endpoints(self):
        d = point_segment_distances([[-3.0, 4.0, 0.0]], [0, 0, 0], [1, 0, 0])
        assert d[0] == pytest.approx(5.0, abs=1e-12)
        d = point_segment_distances([[4.0, 4.0, 0.0]], [0, 0, 0], [1, 0, 0])
        assert d[0] == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_segment(self):
        d = point_segment_distances([[0.0, 0.0, 2.0]], [1, 1, 1], [1, 1, 1])
        assert d[0] == pytest.approx(np.sqrt(1 + 1 + 1), abs=1e-12)

    def test_matches_dense_sampling_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        pts = rng.uniform(-1, 1, size=(50, 3))
        ts = np.linspace(0, 1, 20001)
        seg = a + ts[:, None] * (b - a)
        brute = np.array([np.linalg.norm(seg - p, axis=1).min() for p in pts])
        got = point_segment_distances(pts, a, b)
        assert np.allclose(got, brute, atol=1e-6)


class TestPathQueryValidation:
    """The start and goal of a path query are each 3 finite numbers."""

    @pytest.mark.parametrize(
        "start,goal",
        [
            ([np.nan, 0, 0.5], [1, 0, 0.5]),
            ([0, 0, 0.5], [1, np.inf, 0.5]),
            ([0, 0], [1, 0, 0.5]),
            ([0, 0, 0.5], [1, 0, 0.5, 0]),
        ],
    )
    def test_rejects_endpoint_not_three_finite_numbers(self, start, goal):
        with pytest.raises(ValueError):
            segment_collision_free(start, goal, NO_PTS)
        with pytest.raises(ValueError):
            rrt_connect(start, goal, NO_PTS, np.random.default_rng(0))


class TestSegmentCollisionFree:
    def test_far_point_free(self):
        assert segment_collision_free([0, 0, 0.5], [1, 0, 0.5], np.array([[0.5, 1.0, 0.5]]))

    def test_clearance_boundary(self):
        def free_at(y):
            return segment_collision_free([0, 0, 0.5], [1, 0, 0.5], np.array([[0.5, y, 0.5]]))

        assert not free_at(DEFAULT_CLEARANCE - 1e-4)
        assert free_at(DEFAULT_CLEARANCE)  # >=: exactly at the clearance is free
        assert free_at(DEFAULT_CLEARANCE + 1e-4)

    def test_table_halfspace(self):
        floor = TABLE_Z + DEFAULT_CLEARANCE
        assert not segment_collision_free([0, 0, 0.5], [1, 0, floor - 0.01], NO_PTS)
        assert segment_collision_free([0, 0, 0.5], [1, 0, floor + 0.01], NO_PTS)


class TestRrtConnect:
    def wall(self, x=0.5, gap=None, half=0.18, z0=0.2, z1=1.0, spacing=0.02):
        ys = np.arange(-half, half + 1e-9, spacing)
        zs = np.arange(z0, z1 + 1e-9, spacing)
        yy, zz = np.meshgrid(ys, zs)
        pts = np.column_stack([np.full(yy.size, x), yy.ravel(), zz.ravel()])
        if gap is not None:
            cy, cz, r = gap
            keep = (pts[:, 1] - cy) ** 2 + (pts[:, 2] - cz) ** 2 > r**2
            pts = pts[keep]
        return pts

    def path_is_valid(self, path, start, goal, pts):
        assert np.allclose(path[0], start)
        assert np.allclose(path[-1], goal)
        for a, b in zip(path, path[1:]):
            assert segment_collision_free(a, b, pts)

    def test_free_space_returns_straight_segment(self):
        path = rrt_connect([0, 0, 0.5], [1, 0, 0.5], NO_PTS, np.random.default_rng(1))
        assert len(path) == 2
        self.path_is_valid(path, [0, 0, 0.5], [1, 0, 0.5], NO_PTS)

    def test_routes_around_solid_wall(self):
        start, goal, pts = [0.2, 0, 0.6], [0.8, 0, 0.6], self.wall()
        path = rrt_connect(start, goal, pts, np.random.default_rng(2))
        assert path is not None
        assert len(path) > 2
        self.path_is_valid(path, start, goal, pts)

    def test_finds_gap_in_wall(self):
        start, goal, pts = [0.2, 0, 0.6], [0.8, 0, 0.6], self.wall(gap=(0.0, 0.6, 0.12))
        path = rrt_connect(start, goal, pts, np.random.default_rng(3))
        assert path is not None
        self.path_is_valid(path, start, goal, pts)

    def test_deterministic_for_fixed_seed(self):
        start, goal, pts = [0.2, 0, 0.6], [0.8, 0, 0.6], self.wall()
        p1 = rrt_connect(start, goal, pts, np.random.default_rng(4))
        p2 = rrt_connect(start, goal, pts, np.random.default_rng(4))
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_enclosed_goal_fails(self):
        # goal boxed in by six walls of points: the search spends every iteration
        c = np.array([0.5, 0.0, 0.5])
        faces = []
        grid = np.linspace(-0.06, 0.06, 13)
        gg, hh = np.meshgrid(grid, grid)
        for axis in range(3):
            for sign in (-1, 1):
                face = np.zeros((gg.size, 3))
                face[:, axis] = sign * 0.06
                face[:, (axis + 1) % 3] = gg.ravel()
                face[:, (axis + 2) % 3] = hh.ravel()
                faces.append(face + c)
        pts = np.vstack(faces)
        assert rrt_connect([0.0, 0.0, 0.5], c, pts, np.random.default_rng(5)) is None

    @pytest.mark.parametrize(
        "start,goal,pts",
        [
            ([0, 0, 0.5], [1, 0, 0.5], [[0, 0.02, 0.5]]),  # start near a point
            ([0, 0, 0.5], [1, 0, 0.5], [[1, 0.02, 0.5]]),  # goal near a point
            ([0, 0, 0.02], [1, 0, 0.5], NO_PTS),  # start below TABLE_Z + clearance
        ],
    )
    def test_blocked_endpoint_fails_without_drawing(self, start, goal, pts):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert rrt_connect(start, goal, np.array(pts), rng) is None
        assert rng.bit_generator.state == before

    def test_endpoint_at_exact_clearance_is_free(self):
        # exactly DEFAULT_CLEARANCE from the start (sqrt(c * c) == c): free, as
        # >= makes it for segments, so the search runs and draws (the point at
        # x = 1 blocks the straight segment)
        pts = np.array([[0.0, DEFAULT_CLEARANCE, 0.5], [1.0, 0.0, 0.5]])
        assert point_segment_distances(pts[:1], [0, 0, 0.5], [0, 0, 0.5])[0] == DEFAULT_CLEARANCE
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        rrt_connect([0, 0, 0.5], [2, 0, 0.5], pts, rng)
        assert rng.bit_generator.state != before


class TestServoStep:
    def state(self, p=(0, 0, 0), q=(1, 0, 0, 0)):
        return Pose(p, q)

    def test_exact_linear_clip(self):
        dt = 1.0 / 90.0
        out = servo_step(self.state(), Pose([1, 0, 0], [1, 0, 0, 0]), dt)
        assert np.linalg.norm(out.p) == pytest.approx(0.25 * dt, abs=1e-12)

    def test_reaches_nearby_target_exactly(self):
        out = servo_step(self.state(), Pose([0.001, 0, 0], [1, 0, 0, 0]), 1.0 / 90.0)
        assert np.allclose(out.p, [0.001, 0, 0])

    def test_angular_clip(self):
        dt = 0.1
        target = Pose([0, 0, 0], quat_from_axis_angle([0, 0, 1], 2.0))
        out = servo_step(self.state(), target, dt)
        assert quat_angle(self.state().q, out.q) == pytest.approx(1.0 * dt, abs=1e-9)

    def test_tick_count_to_cover_distance(self):
        # 0.5 m at 0.25 m/s and 90 Hz: ceil(0.5 / (0.25/90)) = 180 ticks
        dt = 1.0 / 90.0
        st = self.state()
        target = Pose([0.5, 0, 0], [1, 0, 0, 0])
        n = 0
        while not np.allclose(st.p, target.p):
            st = servo_step(st, target, dt)
            n += 1
            assert n < 1000
        assert n == 180

    def test_velocity_bound_random_targets(self):
        rng = np.random.default_rng(6)
        st = self.state()
        dt = 1.0 / 90.0
        for _ in range(200):
            target = Pose(rng.uniform(-1, 1, 3), rng.normal(size=4))
            new = servo_step(st, target, dt)
            assert np.linalg.norm(new.p - st.p) <= 0.25 * dt + 1e-12
            assert quat_angle(st.q, new.q) <= 1.0 * dt + 1e-9
            st = new

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            servo_step(self.state(), IDENTITY, 0.0)

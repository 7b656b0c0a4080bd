import numpy as np
import pytest

from handover_sim.geometry import Pose, quat_angle, quat_from_axis_angle
from handover_sim.motion import (
    PathQuery,
    point_segment_distances,
    rrt_connect,
    segment_collision_free,
    servo_step,
)

NO_PTS = np.zeros((0, 3))


def query(start, goal, pts=NO_PTS, table_z=-10.0, clearance=0.03):
    return PathQuery(start, goal, pts, table_z, clearance)


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
    @pytest.mark.parametrize("clearance", [0.0, -0.03, np.nan, np.inf])
    def test_rejects_clearance_not_finite_and_positive(self, clearance):
        with pytest.raises(ValueError):
            query([0, 0, 0.5], [1, 0, 0.5], clearance=clearance)

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
            query(start, goal)

    def test_rejects_nan_table_height(self):
        with pytest.raises(ValueError):
            query([0, 0, 0.5], [1, 0, 0.5], table_z=np.nan)


class TestSegmentCollisionFree:
    def test_far_point_free(self):
        q = query([0, 0, 0.5], [1, 0, 0.5], np.array([[0.5, 1.0, 0.5]]))
        assert segment_collision_free(q)

    def test_clearance_boundary(self):
        near = query([0, 0, 0.5], [1, 0, 0.5], np.array([[0.5, 0.0299, 0.5]]))
        assert not segment_collision_free(near)
        at = query([0, 0, 0.5], [1, 0, 0.5], np.array([[0.5, 0.0301, 0.5]]))
        assert segment_collision_free(at)

    def test_table_halfspace(self):
        assert not segment_collision_free(query([0, 0, 0.5], [1, 0, 0.02], table_z=0.0))
        assert segment_collision_free(query([0, 0, 0.5], [1, 0, 0.04], table_z=0.0))


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

    def path_is_valid(self, path, q):
        assert np.allclose(path[0], q.start)
        assert np.allclose(path[-1], q.goal)
        for a, b in zip(path, path[1:]):
            assert segment_collision_free(PathQuery(a, b, q.collider_points, q.table_z, q.clearance))

    def test_free_space_returns_straight_segment(self):
        q = query([0, 0, 0.5], [1, 0, 0.5])
        path = rrt_connect(q, np.random.default_rng(1))
        assert len(path) == 2
        self.path_is_valid(path, q)

    def test_routes_around_solid_wall(self):
        q = query([0.2, 0, 0.6], [0.8, 0, 0.6], self.wall(), table_z=0.0)
        path = rrt_connect(q, np.random.default_rng(2))
        assert path is not None
        assert len(path) > 2
        self.path_is_valid(path, q)

    def test_finds_gap_in_wall(self):
        q = query([0.2, 0, 0.6], [0.8, 0, 0.6], self.wall(gap=(0.0, 0.6, 0.12)), table_z=0.0)
        path = rrt_connect(q, np.random.default_rng(3))
        assert path is not None
        self.path_is_valid(path, q)

    def test_deterministic_for_fixed_seed(self):
        q = query([0.2, 0, 0.6], [0.8, 0, 0.6], self.wall(), table_z=0.0)
        p1 = rrt_connect(q, np.random.default_rng(4))
        p2 = rrt_connect(q, np.random.default_rng(4))
        assert len(p1) == len(p2)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_enclosed_goal_fails(self):
        # goal boxed in by six walls of points
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
        q = query([0.0, 0.0, 0.5], c, pts)
        assert rrt_connect(q, np.random.default_rng(5), max_iters=300) is None

    @pytest.mark.parametrize(
        "start,goal,pts,table_z",
        [
            ([0, 0, 0.5], [1, 0, 0.5], [[0, 0.02, 0.5]], -10.0),  # start near a point
            ([0, 0, 0.5], [1, 0, 0.5], [[1, 0.02, 0.5]], -10.0),  # goal near a point
            ([0, 0, 0.02], [1, 0, 0.5], NO_PTS, 0.0),  # start below table_z + clearance
        ],
    )
    def test_blocked_endpoint_fails_without_drawing(self, start, goal, pts, table_z):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert rrt_connect(query(start, goal, np.array(pts), table_z), rng) is None
        assert rng.bit_generator.state == before

    def test_endpoint_at_exact_clearance_is_free(self):
        # 0.25 m from the start, exactly representable: free, as >= makes it
        # for segments, so the search runs and draws (the point at x = 1
        # blocks the straight segment)
        pts = np.array([[0.0, 0.25, 0.5], [1.0, 0.0, 0.5]])
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        rrt_connect(query([0, 0, 0.5], [2, 0, 0.5], pts, clearance=0.25), rng, max_iters=5)
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
            servo_step(self.state(), Pose.identity(), 0.0)

import numpy as np
import pytest

from dimix.objective import (
    Problem,
    apportion_counts,
    build_problem,
    local_quadratics,
    partition_indices,
    synthesize_regression,
)
from dimix.rng import philox

from helpers import model


def at_each_agent(p, x):
    """Gradients (n, d) and values (n,) of every local objective at x."""
    X = np.tile(x, (p.n, 1))
    HX = np.matmul(p.H, X[..., None])[..., 0]
    return HX - p.b, p.local_values(X, HX)


class TestSynthesize:
    def test_shapes_and_model(self):
        U, v, x_tilde, theta = synthesize_regression(40, 7, philox(1, 0))
        assert U.shape == (40, 7) and v.shape == (40,)
        np.testing.assert_allclose(v, U @ x_tilde + theta)
        assert 0 < x_tilde.max() <= 0.8
        assert 0 < theta.max() <= 0.1

    def test_reproducible(self):
        a = synthesize_regression(10, 3, philox(5, 0))
        b = synthesize_regression(10, 3, philox(5, 0))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            synthesize_regression(0, 3, philox(0))


class TestApportion:
    def test_largest_remainder_tie_prefers_lower_index(self):
        np.testing.assert_array_equal(apportion_counts([0.25, 0.75], 10), [3, 7])

    def test_exact_quotas(self):
        np.testing.assert_array_equal(apportion_counts([0.25] * 4, 100), [25] * 4)
        np.testing.assert_array_equal(apportion_counts([3 / 7, 2 / 7, 2 / 7], 7), [3, 2, 2])

    def test_remainder_ranking(self):
        np.testing.assert_array_equal(apportion_counts([0.55, 0.45], 5), [3, 2])

    def test_empty_shard_steals_from_largest(self):
        np.testing.assert_array_equal(apportion_counts([0.01, 0.99], 10), [1, 9])

    def test_steal_cascade(self):
        counts = apportion_counts([0.001, 0.001, 0.998], 10)
        assert counts.sum() == 10 and counts.min() >= 1
        np.testing.assert_array_equal(counts, [1, 1, 8])

    def test_totals_and_nonemptiness_random(self):
        rng = philox(2)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            N = int(rng.integers(n, 60))
            p = rng.uniform(0.01, 1.0, n)
            counts = apportion_counts(p / p.sum(), N)
            assert counts.sum() == N
            assert counts.min() >= 1

    def test_rejects_more_shards_than_points(self):
        with pytest.raises(ValueError):
            apportion_counts([0.5, 0.5], 1)


class TestPartition:
    def test_disjoint_cover(self):
        shards = partition_indices(np.full(5, 0.2), 37, philox(3))
        joined = np.concatenate(shards)
        assert joined.size == 37
        np.testing.assert_array_equal(np.sort(joined), np.arange(37))

    def test_shards_sorted_and_sized(self):
        r = np.array([0.25, 0.75])
        shards = partition_indices(r, 10, philox(4))
        assert [s.size for s in shards] == [3, 7]
        for s in shards:
            np.testing.assert_array_equal(s, np.sort(s))

    def test_seed_dependence(self):
        r = np.full(4, 0.25)
        a = partition_indices(r, 20, philox(5))
        b = partition_indices(r, 20, philox(6))
        assert any(not np.array_equal(x, y) for x, y in zip(a, b))


class TestLocalObjective:
    def test_single_point_gradient_at_zero(self):
        # f(x) = 0.5 (v - u'x)^2 gives grad f(0) = -v u.  Agent 1's full-rank
        # shard makes the pooled objective strongly convex.
        u = np.array([0.3, -1.2, 0.5])
        v = np.array([2.0])
        p = model([u[None, :], philox(1).random((3, 3))], [v, np.ones(3)], [0.5, 0.5])
        np.testing.assert_allclose(at_each_agent(p, np.zeros(3))[0][0], -v[0] * u)

    def test_quadratic_identity(self):
        rng = philox(7)
        U = rng.random((12, 5))
        v = rng.random(12)
        p = model([U], [v], [1.0])
        for _ in range(20):
            x = rng.normal(size=5)
            resid = v - U @ x
            direct = float(resid @ resid) / (2 * 12)
            assert at_each_agent(p, x)[1][0] == pytest.approx(direct, abs=1e-9, rel=1e-9)

    def test_finite_difference_gradient(self, default_problem):
        rng = philox(8)
        h = 1e-6
        checked = 0
        while checked < 100:
            i = int(rng.integers(20))
            x = rng.normal(size=25)
            grad = at_each_agent(default_problem, x)[0][i]
            fd = np.empty(25)
            for j in range(25):
                e = np.zeros(25)
                e[j] = h
                up = at_each_agent(default_problem, x + e)[1][i]
                down = at_each_agent(default_problem, x - e)[1][i]
                fd[j] = (up - down) / (2 * h)
            assert np.linalg.norm(fd - grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))
            checked += 1

    def test_empty_shard_rejected(self):
        with pytest.raises(ValueError):
            local_quadratics(np.zeros((3, 2)), np.zeros(3), [np.array([], dtype=int)])


class TestProblem:
    def test_deterministic_construction(self):
        a = build_problem(seed=42)
        b = build_problem(seed=42)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.x_star, b.x_star)
        assert [idx.tolist() for idx in a.shards] == [idx.tolist() for idx in b.shards]

    def test_frozen_seed42_instance(self, default_problem):
        """Regression pin for the default instance; a change here means the
        generator stream or the dealing rule moved."""
        p = default_problem
        assert [idx.size for idx in p.shards] == [
            7, 8, 9, 1, 5, 9, 5, 4, 2, 3, 3, 3, 5, 4, 9, 6, 7, 4, 2, 4,
        ]
        assert p.strong_convexity == pytest.approx(0.0293194690638, rel=1e-9)
        assert p.smoothness == pytest.approx(6.228998585, rel=1e-9)
        np.testing.assert_allclose(
            p.r[:3], [0.072216002868, 0.081301363102, 0.092069494685], atol=1e-12
        )

    def test_constructor_computes_the_rest_from_the_data(self, default_problem):
        p = default_problem
        q = Problem(p.U, p.v, p.r, p.shards)
        for name in ("H", "b", "c", "x_star", "strong_convexity", "smoothness"):
            assert np.asarray(getattr(q, name)).tobytes() == np.asarray(getattr(p, name)).tobytes(), name
        assert (q.n, q.d, q.N) == (20, 25, 100)
        with pytest.raises(TypeError, match="'n'"):
            Problem(p.U, p.v, p.r, p.shards, n=20)
        with pytest.raises(TypeError, match="'x_star'"):
            Problem(p.U, p.v, p.r, p.shards, x_star=p.x_star)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_refuses_an_objective_that_is_not_strongly_convex(self, seed):
        # Four points in five dimensions: the pooled Hessian has rank 4 at
        # most.  Unrefused, seed 0 solves a numerically singular system for
        # an arbitrary x_star, and seed 2's solve raises "Singular matrix".
        message = (
            r"^the pooled objective is not strongly convex: N = 4 points in d = 5 dimensions, "
            r"smallest Hessian eigenvalue \S+ <= d\*eps\*lambda_max = \S+$"
        )
        with pytest.raises(ValueError, match=message):
            build_problem(n=4, d=5, N=4, seed=seed)

    def test_refuses_zero_curvature(self):
        # All-zero data: H = 0, so the threshold d * eps * lambda_max is 0.
        with pytest.raises(ValueError, match="N = 4 points in d = 3 dimensions, smallest Hessian eigenvalue 0 <= "):
            Problem(np.zeros((4, 3)), np.zeros(4), np.ones(1), (np.arange(4),))

    def test_refusal_threshold_is_relative_to_the_largest_eigenvalue(self):
        # Scaling the data scales every eigenvalue alike, so the verdict and
        # x_star do not change with the units of the data.
        p = build_problem(n=3, d=5, N=6, seed=1)
        for scale in (1e-6, 1e6):
            q = Problem(scale * p.U, scale * p.v, p.r, p.shards)
            np.testing.assert_allclose(q.x_star, p.x_star, rtol=1e-8)
            assert q.strong_convexity == pytest.approx(scale**2 * p.strong_convexity, rel=1e-8)

    def test_optimum_is_stationary(self, default_problem):
        p = default_problem
        g = sum(ri * g_i for ri, g_i in zip(p.r, at_each_agent(p, p.x_star)[0]))
        assert np.linalg.norm(g) <= 1e-9

    def test_noiseless_labels_recover_planted_vector(self):
        # Labels U x_tilde without theta make the regression exactly
        # solvable: the weighted optimum is the planted x_tilde no matter
        # the weights.
        rng = philox(11, 0)
        U, _, x_tilde, _ = synthesize_regression(100, 25, rng)
        r = np.array([0.3, 0.2, 0.4, 0.1])
        x_star = Problem(U, U @ x_tilde, r, partition_indices(r, 100, rng)).x_star
        assert np.max(np.abs(x_star - x_tilde)) <= 1e-8

    def test_pooled_loss_form(self, default_problem):
        p = default_problem
        x = philox(12).normal(size=25)
        resid = p.v - p.U @ x
        assert p.pooled_loss(x) == pytest.approx(resid @ resid / 200, rel=1e-12)

    def test_weighted_value_and_gradients_consistent(self, default_problem):
        p = default_problem
        X = philox(13).normal(size=(20, 25))
        direct = sum(
            ri * (0.5 * x_i @ H_i @ x_i - b_i @ x_i + c_i)
            for ri, H_i, b_i, c_i, x_i in zip(p.r, p.H, p.b, p.c, X)
        )
        HX = np.matmul(p.H, X[..., None])[..., 0]
        G, values = HX - p.b, p.local_values(X, HX)
        assert float(values @ p.r) == pytest.approx(direct, rel=1e-12)
        for i in (0, 7, 19):
            np.testing.assert_allclose(G[i], p.H[i] @ X[i] - p.b[i], atol=1e-12)

    def test_value_weighted_at_optimum_is_minimal(self, default_problem):
        p = default_problem
        base = float(at_each_agent(p, p.x_star)[1] @ p.r)
        rng = philox(14)
        for _ in range(10):
            x = p.x_star + 0.1 * rng.normal(size=25)
            assert float(at_each_agent(p, x)[1] @ p.r) >= base

    def test_explicit_weights_skip_score_draw(self):
        r = np.array([0.1, 0.2, 0.3, 0.4])
        p = build_problem(n=4, seed=3, r=r)
        q = build_problem(n=4, seed=3)
        np.testing.assert_array_equal(p.r, r)
        # Same seed, same pool; only the weights and dealing differ.
        np.testing.assert_array_equal(p.U, q.U)
        np.testing.assert_array_equal(p.v, q.v)
        assert not np.array_equal(p.r, q.r)

    def test_explicit_weights_shape_checked(self):
        with pytest.raises(ValueError):
            build_problem(n=4, r=np.full(5, 0.2))

    def test_smoothness_bounds_local_curvature(self, default_problem):
        p = default_problem
        H_bar = sum(ri * H_i for ri, H_i in zip(p.r, p.H))
        eigs = np.linalg.eigvalsh(H_bar)
        assert p.strong_convexity == pytest.approx(eigs[0], abs=1e-12)
        assert p.smoothness == pytest.approx(eigs[-1], abs=1e-12)
        assert p.strong_convexity > 0

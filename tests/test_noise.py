import numpy as np
import pytest
from hypothesis import given, strategies as st

from dimix.noise import (
    NoiseModel,
    noise_variance_bound,
    quantizer_variance_coeff,
    quantizer_workspace,
    stochastic_quantize,
)
from dimix.rng import philox

from helpers import gaussian_channel, noiseless, stochastic_quantizer
from oracles import neighbor_estimate, quantize, quantize_formula, zeta


class TestModelValidation:
    def test_constructors(self):
        assert noiseless().kind == "noiseless"
        assert gaussian_channel(0.1).sigma == 0.1
        assert stochastic_quantizer(4).levels == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseModel("uniform")

    def test_gaussian_needs_positive_sigma(self):
        for sigma in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                gaussian_channel(sigma)

    def test_cross_field_rejections(self):
        with pytest.raises(ValueError):
            NoiseModel("gaussian_channel", sigma=0.1, levels=4)
        with pytest.raises(ValueError):
            NoiseModel("stochastic_quantizer", sigma=0.1, levels=4)
        with pytest.raises(ValueError):
            NoiseModel("noiseless", sigma=0.1)

    def test_quantizer_needs_levels(self):
        with pytest.raises(ValueError):
            stochastic_quantizer(0)


class TestZeta:
    def test_zero_is_exact(self):
        assert zeta(0.0, 4, 0.999) == 0.0

    def test_integer_scaled_magnitude_never_randomizes(self):
        # s*tau = 2 exactly: the fractional part is 0, so every draw rounds
        # to the same level.
        for u in (0.0, 0.3, 0.999999):
            assert zeta(0.5, 4, u) == 2.0

    def test_rounding_threshold(self):
        assert zeta(0.6, 4, 0.3) == 3.0  # u = 0.3 < frac(2.4) = 0.4
        assert zeta(0.6, 4, 0.5) == 2.0

    def test_full_magnitude_hits_top_level(self):
        for s in (1, 4, 16):
            assert zeta(1.0, s, 0.5) == s

    def test_tiny_overshoot_clipped(self):
        assert zeta(1.0 + 1e-12, 4, 0.5) == 4.0

    def test_genuine_overshoot_rejected(self):
        with pytest.raises(ValueError):
            zeta(1.1, 4, 0.5)
        with pytest.raises(ValueError):
            zeta(-0.1, 4, 0.5)

    @given(
        tau=st.floats(min_value=0.0, max_value=1.0),
        s=st.integers(min_value=1, max_value=16),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_rounds_to_neighbor_level(self, tau, s, u):
        value = float(zeta(tau, s, u))
        low = np.floor(s * tau)
        assert value in (low, low + 1.0)
        assert 0.0 <= value <= s

    def test_mean_over_uniform_grid_matches_scaled_magnitude(self):
        # E_u[zeta(tau, s, u)] = s*tau; a fine deterministic grid of u values
        # gets within grid resolution.
        u = (np.arange(10_000) + 0.5) / 10_000
        for tau, s in ((0.37, 4), (0.712, 16), (0.09, 1)):
            mean = zeta(np.full_like(u, tau), s, u).mean()
            assert abs(mean - s * tau) < 2e-4 * s


class TestStochasticQuantize:
    def test_zero_vector_passes_through(self):
        # The zero vector comes out zero; the oracle still takes its d
        # uniforms, as the engine does for a zero row.
        rng = philox(3)
        out = quantize(np.zeros(6), 4, rng)
        np.testing.assert_array_equal(out, np.zeros(6))
        fresh = philox(3)
        fresh.random(6)
        assert rng.random() == fresh.random()

    def test_scaled_basis_vector_is_reproduced_exactly(self):
        # tau is exactly 1 on the live coordinate and 0 elsewhere; no
        # randomness survives.
        rng = philox(4)
        for c in (0.7, -2.5, 1e-8):
            x = np.zeros(5)
            x[2] = c
            np.testing.assert_array_equal(quantize(x, 7, rng), x)

    def test_three_four_five_triangle(self):
        # ||(3,4)|| = 5 and s=5 puts both coordinates on exact levels.
        out = quantize(np.array([3.0, 4.0]), 5, philox(5))
        np.testing.assert_allclose(out, [3.0, 4.0], atol=1e-12)

    def test_output_on_level_grid(self):
        rng = philox(6)
        x = rng.normal(size=12)
        s = 4
        q = quantize(x, s, rng)
        levels = q * s / np.linalg.norm(x)
        np.testing.assert_allclose(levels, np.round(levels), atol=1e-9)
        assert np.all(np.sign(q[q != 0]) == np.sign(x[q != 0]))

    def test_unbiased_and_second_moment(self):
        draws = 20_000
        rng = philox(7)
        for d in (2, 25):
            for s in (1, 4, 16):
                x = rng.normal(size=d)
                batch = np.broadcast_to(x, (draws, d))
                err = quantize(batch, s, rng) - x
                se_mean = err.std(axis=0, ddof=1) / np.sqrt(draws)
                assert np.all(np.abs(err.mean(axis=0)) <= 4 * se_mean + 1e-15)

                sq = np.sum(err**2, axis=1)
                se_sq = sq.std(ddof=1) / np.sqrt(draws)
                bound = quantizer_variance_coeff(d, s) * np.sum(x**2)
                assert sq.mean() <= bound + 3 * se_sq

    def test_batch_rows_match_sequential_draws(self):
        # Row k of a batched call sees the same uniforms as a sequential loop
        # over rows with the same generator.
        X = philox(8).normal(size=(5, 7))
        batched = quantize(X, 4, philox(9))
        rng = philox(9)
        rows = np.stack([quantize(row, 4, rng) for row in X])
        np.testing.assert_array_equal(batched, rows)

    def test_zero_row_draws_its_uniforms_in_batch(self):
        X = philox(10).normal(size=(3, 6))
        X[1] = 0.0
        batched = quantize(X, 4, philox(11))
        rng = philox(11)
        first = quantize(X[0], 4, rng)
        rng.random(6)  # the zero row's uniforms
        np.testing.assert_array_equal(batched[[0, 2]], [first, quantize(X[2], 4, rng)])
        np.testing.assert_array_equal(batched[1], np.zeros(6))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_formula_bit_for_bit(self, seed):
        # Random batches with zero rows and sender rows listed twice or never.
        rng = philox(50, seed)
        for R, n, d in ((1, 1, 1), (3, 4, 5), (6, 5, 25), (2, 7, 3)):
            x = rng.normal(size=(R, n, d)) * 10.0 ** rng.integers(-8, 8, size=(R, n, 1))
            x[rng.random((R, n)) < 0.3] = 0.0
            src = rng.integers(0, n, size=2 * n)
            s = int(rng.integers(1, 9))
            u = np.stack([philox(seed, k).random((src.size, d)) for k in range(R)])
            got = stochastic_quantize(x, s, u, src, quantizer_workspace(R, n, src.size, d))
            want = quantize_formula(x, s, [philox(seed, k) for k in range(R)], src)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_workspace_is_reused_across_calls(self):
        # One workspace serves every call of its shape, as the engine's slots
        # do: no term of an earlier call, zero row or not, leaks into a later one.
        pick = philox(53)
        gens, ref = [philox(54, k) for k in range(2)], [philox(54, k) for k in range(2)]
        work = quantizer_workspace(2, 3, 3, 4)
        for call in range(3):
            x = pick.normal(size=(2, 3, 4))
            x[call % 2, call] = 0.0
            u = np.stack([g.random((3, 4)) for g in gens])
            got = stochastic_quantize(x, 3, u, np.arange(3), work)
            assert not got[call % 2, call].any()
            assert got.tobytes() == quantize_formula(x, 3, ref, np.arange(3)).tobytes()

    def test_single_generator_matches_formula(self):
        x = philox(51).normal(size=(6, 4))
        x[2] = 0.0
        got = quantize(x, 3, philox(52))
        want = quantize_formula(x[None], 3, [philox(52)], np.arange(6))[0]
        assert got.tobytes() == want.tobytes()


class TestVarianceBound:
    def test_coeff_crossover(self):
        # sqrt(d)/s wins once s >= sqrt(d).
        assert quantizer_variance_coeff(25, 4) == 1.25
        assert quantizer_variance_coeff(4, 4) == 0.25
        assert quantizer_variance_coeff(16, 4) == 1.0

    @pytest.mark.parametrize("d, s", [(0, 4), (4, 0)])
    def test_coeff_rejects_empty_dimension_or_levels(self, d, s):
        with pytest.raises(ValueError, match="must be >= 1"):
            quantizer_variance_coeff(d, s)

    @pytest.mark.parametrize("d, s", [(25, 4), (4, 4)], ids=["sqrt_d_over_s", "d_over_s_squared"])
    def test_gamma_is_a_python_float(self, d, s):
        # Either branch of the coefficient's min, and every model's gamma.
        assert type(quantizer_variance_coeff(d, s)) is float
        for model in (noiseless(), gaussian_channel(0.1), stochastic_quantizer(s)):
            assert type(noise_variance_bound(model, d, 2.0)) is float

    def test_frozen_values(self):
        assert noise_variance_bound(noiseless(), 25, 1.0) == 0.0
        assert noise_variance_bound(gaussian_channel(0.1), 25, 1.0) == pytest.approx(0.01)
        got = noise_variance_bound(stochastic_quantizer(4), 25, state_norm_bound=1.0)
        assert got == pytest.approx(1.25)

    def test_quantizer_needs_norm_bound(self):
        with pytest.raises(ValueError, match="nonnegative state norm bound"):
            noise_variance_bound(stochastic_quantizer(4), 25, -1.0)

    def test_gaussian_estimate_meets_gamma(self):
        # Measured E||e||^2 for one estimate stays under sigma^2 since the
        # squared row weights sum below 1.
        rng = philox(12)
        states = rng.normal(size=(4, 25))
        w = np.array([0.4, 0.3, 0.2, 0.1])
        model = gaussian_channel(0.3)
        clean = w @ states
        errs = np.array(
            [neighbor_estimate(states, w, model, rng) - clean for _ in range(4000)]
        )
        gamma = noise_variance_bound(model, 25, 1.0)
        assert np.mean(np.sum(errs**2, axis=1)) <= gamma


class TestNeighborEstimate:
    def test_noiseless_is_plain_average(self):
        states = philox(13).normal(size=(5, 3))
        w = np.array([0.0, 0.5, 0.0, 0.25, 0.25])
        np.testing.assert_allclose(
            neighbor_estimate(states, w, noiseless(), philox(0)), w @ states
        )

    def test_rejects_bad_row(self):
        states = np.zeros((3, 2))
        with pytest.raises(ValueError, match="sum to 1"):
            neighbor_estimate(states, np.array([0.5, 0.4, 0.0]), noiseless(), philox(0))
        with pytest.raises(ValueError):
            neighbor_estimate(states, np.array([0.5, 0.5]), noiseless(), philox(0))

    def test_gaussian_draw_order_is_support_ascending(self):
        states = philox(14).normal(size=(4, 6))
        w = np.array([0.5, 0.0, 0.25, 0.25])
        model = gaussian_channel(0.2)
        got = neighbor_estimate(states, w, model, philox(15))
        rng = philox(15)
        z = rng.normal(0.0, 0.2 / np.sqrt(6), size=(3, 6))
        expected = w[[0, 2, 3]] @ (states[[0, 2, 3]] + z)
        np.testing.assert_allclose(got, expected)

    def test_own_state_also_quantized(self):
        # The sender pipeline applies to the diagonal entry too: with full
        # weight on itself, the agent still sees a quantized copy.
        states = np.array([[0.3, 1.1, -0.4]])
        model = stochastic_quantizer(3)
        w = np.array([1.0])
        draws = np.array(
            [neighbor_estimate(states, w, model, philox(100 + k)) for k in range(500)]
        )
        assert np.any(np.abs(draws - states[0]) > 1e-12)
        assert abs(draws.mean(axis=0) - states[0]).max() < 0.05

    def test_vector_norm_preserved_in_expectation(self):
        states = philox(16).normal(size=(3, 8))
        w = np.array([0.2, 0.5, 0.3])
        model = stochastic_quantizer(4)
        rng = philox(17)
        clean = w @ states
        est = np.mean(
            [neighbor_estimate(states, w, model, rng) for _ in range(4000)], axis=0
        )
        np.testing.assert_allclose(est, clean, atol=0.05)

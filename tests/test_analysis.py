import dataclasses
import math
import warnings

import numpy as np
import pytest

from dimix.analysis import (
    A_constant,
    StepSchedule,
    contraction_factor,
    deviation_sq,
    dist_opt_sq,
    fit_rate,
    kappa_factor,
    r_norm_sq,
    theorem_bound,
    theorem_log10_bound,
    thresholds,
    weighted_mean,
    xi_constants,
)
from dimix.rng import philox


class TestWeightedNorm:
    def test_ones_vector_has_unit_norm(self):
        r = np.array([0.2, 0.3, 0.5])
        assert r_norm_sq(np.ones((3, 1)), r) == pytest.approx(1.0)

    def test_scalar_rows(self):
        # Per-agent scalars (5, 0) under weights (0.25, 0.75).
        r = np.array([0.25, 0.75])
        assert r_norm_sq(np.array([[5.0], [0.0]]), r) == pytest.approx(6.25)

    def test_matrix_rows(self):
        A = np.array([[3.0, 4.0], [1.0, 0.0]])
        r = np.array([0.5, 0.5])
        assert r_norm_sq(A, r) == pytest.approx(0.5 * 25 + 0.5 * 1)

    def test_row_count_must_match_weights(self):
        with pytest.raises(ValueError, match="row count must match"):
            r_norm_sq(np.ones((3, 2)), np.array([0.5, 0.5]))
        # A vector is one row of d entries, not one scalar per agent.
        with pytest.raises(ValueError, match="row count must match"):
            r_norm_sq(np.ones(2), np.array([0.5, 0.5]))

    def test_weighted_mean(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        r = np.array([0.25, 0.75])
        np.testing.assert_allclose(weighted_mean(X, r), [0.25, 0.75])

    def test_pythagoras_split(self):
        """The squared distance to a shared point splits exactly into the
        deviation around the weighted mean plus the mean's own error."""
        rng = philox(1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 6))
            p = rng.uniform(0.1, 1.0, n)
            r = p / p.sum()
            X = rng.normal(size=(n, d))
            x_star = rng.normal(size=d)
            xbar = weighted_mean(X, r)
            total = dist_opt_sq(X, r, x_star)
            split = deviation_sq(X, r) + float(np.sum((xbar - x_star) ** 2))
            assert total == pytest.approx(split, rel=1e-12, abs=1e-12)


class TestStepSchedule:
    def test_values(self):
        s = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        assert s.alpha(1) == pytest.approx(0.1)
        assert s.beta(16) == pytest.approx(0.7 / 8.0)
        np.testing.assert_allclose(s.alpha(np.array([1.0, 16.0])), [0.1, 0.05])

    def test_validation(self):
        good = dict(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        for bad in (
            dict(good, beta0=0.0),
            dict(good, beta0=1.5),
            dict(good, nu=0.0),
            dict(good, nu=1.0),
            dict(good, mu=1.0),
            dict(good, alpha0=0.0),
            dict(good, alpha0=float("inf")),
        ):
            with pytest.raises(ValueError):
                StepSchedule(**bad)
        StepSchedule(**dict(good, beta0=1.0))  # the closed end is allowed


class TestContractionFactors:
    def test_lambda_frozen(self):
        got = contraction_factor(0.25, 0.05, 20, 20)
        assert got == pytest.approx(0.25 * 0.05 / (2 * 20 * 400), rel=1e-15)
        assert got == pytest.approx(7.8125e-07)

    def test_lambda_rejections(self):
        with pytest.raises(ValueError):
            contraction_factor(0.0, 0.05, 1, 3)
        with pytest.raises(ValueError):
            contraction_factor(1.5, 0.05, 1, 3)
        with pytest.raises(ValueError):
            contraction_factor(0.5, 0.0, 1, 3)
        with pytest.raises(ValueError):
            contraction_factor(0.5, 0.05, 0, 3)

    def test_kappa(self):
        assert kappa_factor(0.001, 0.5, 10) == pytest.approx(1.0 / 0.995)
        with pytest.raises(ValueError):
            kappa_factor(0.2, 1.0, 5)  # B lam beta0 == 1
        with pytest.raises(ValueError):
            kappa_factor(0.0, 0.5, 10)

    def test_an_array_entry_out_of_range_raises_the_scalar_error(self):
        def message(f, *args):
            with pytest.raises(ValueError) as err:
                f(*args)
            return str(err.value)

        ok = np.array([0.5, 0.25, 0.75])
        for bad in (1.5, 0.0, math.nan):
            entries = np.array([0.5, bad, 0.75])
            assert message(contraction_factor, entries, ok, 1, 3) == message(contraction_factor, bad, 0.5, 1, 3)
            assert message(contraction_factor, ok, entries, 1, 3) == message(contraction_factor, 0.5, bad, 1, 3)
        lam = np.array([1e-3, 0.3, 2e-3, 0.4])
        got = message(kappa_factor, lam, np.full(4, 0.5), 10)
        assert got == message(kappa_factor, 0.3, 0.5, 10) == "B*lambda*beta0 = 1.5 must lie in (0, 1)"


class TestAConstant:
    def test_frozen_sigma_above_one(self):
        # a=1, sigma=2, delta=0: 4 * max(3, 1 + (2*2/1)^2) = 68.
        assert A_constant(1.0, 2.0, 0.0) == pytest.approx(68.0)

    def test_frozen_sigma_below_one(self):
        # a=0.5, sigma=0.5, delta=0: sqrt(2) * max(5, 1 + 2*0.5/(0.5*0.5)).
        assert A_constant(0.5, 0.5, 0.0) == pytest.approx(5.0 * math.sqrt(2.0))

    def test_frozen_sigma_equal_one(self):
        # a=0.5, sigma=1, delta=0: 2 * max(5, 1 + 4 ln 4) = 2 + 8 ln 4.
        assert A_constant(0.5, 1.0, 0.0) == pytest.approx(2.0 + 8.0 * math.log(4.0))

    def test_frozen_delta_one(self):
        # 2^1.5 * (1 + 1/|2 - 1.5 + 1|)
        assert A_constant(2.0, 1.5, 1.0) == pytest.approx(2.0**1.5 * (1 + 1 / 1.5))

    def test_base_branch_can_win(self):
        # Tiny a makes 1 + 2/a dominate the sigma-specific alternative.
        a = 1e-3
        assert A_constant(a, 1.5, 0.5) == pytest.approx(
            2.0**1.5 * max(1 + 2 / a, 1 + 2 * (2 * 1.0 / a) ** 2)
        )

    def test_rejections(self):
        with pytest.raises(ValueError):
            A_constant(1.5, 2.0, 0.0)  # a > 1 with delta < 1
        with pytest.raises(ValueError):
            A_constant(0.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            A_constant(0.5, 0.3, 0.5)  # sigma <= delta
        with pytest.raises(ValueError):
            A_constant(0.5, 2.0, 1.5)  # delta out of range
        with pytest.raises(ValueError, match="a must be positive"):
            A_constant(0.0, 2.0, 1.0)  # delta == 1 needs a > 0
        with pytest.raises(ValueError):
            A_constant(2.0, 0.9, 1.0)  # delta == 1 needs sigma > 1
        with pytest.raises(ValueError):
            A_constant(0.5, 1.5, 1.0)  # a == sigma - 1 degenerates
        with pytest.raises(ValueError):
            A_constant(float("nan"), 1.5, 0.0)

    def test_envelope_is_conservative_delta_zero(self):
        # Direct check of the sum it bounds: sum_{s=1}^{t-1} s^-sigma
        # prod_{k=s+1}^{t-1} (1 - a) <= A * t^-sigma for delta = 0.
        a, sigma = 0.5, 2.0
        A = A_constant(a, sigma, 0.0)
        for t in (4, 10, 100):
            s = np.arange(1, t)
            tail = (1 - a) ** (t - 1 - s)
            lhs = float(np.sum(s**-sigma * tail))
            assert lhs <= A * t ** -(sigma - 0.0)


class TestThresholds:
    def test_hand_computed_case(self):
        # lam=0.01, beta0=1, mu=0.5: T1 = ceil(100^2), T2 = ceil(200^2);
        # alpha0=0.5 with mu_f+L_f=4 makes T3's base exactly 1; c2=0.75 gives
        # T4 = ceil((4/3)^4) = 4.
        s = StepSchedule(alpha0=0.5, nu=0.25, beta0=1.0, mu=0.5)
        th = thresholds(s, lam=0.01, mu_f=1.0, L_f=3.0)
        assert (th.T1, th.T2, th.T3, th.T4) == (10_000, 40_000, 1, 4)
        assert th.T0 == 40_000
        assert th.T_min == 40_000

    def test_equal_time_scales_drop_t4(self):
        s = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        th = thresholds(s, lam=1e-6, mu_f=0.03, L_f=6.2)
        assert th.T4 is None
        assert th.T_min == th.T0

    def test_regime_rejections(self):
        with pytest.raises(ValueError, match="nu < mu"):
            thresholds(StepSchedule(0.1, 0.75, 0.7, 0.25), 1e-6, 1.0, 2.0)
        with pytest.raises(ValueError, match="mu \\+ nu"):
            thresholds(StepSchedule(0.1, 0.45, 0.7, 0.6), 1e-6, 1.0, 2.0)
        with pytest.raises(ValueError):
            thresholds(StepSchedule(0.1, 0.25, 0.7, 0.75), 1e-6, 0.0, 2.0)
        with pytest.raises(ValueError):
            thresholds(StepSchedule(0.1, 0.25, 0.7, 0.75), 1e-6, 3.0, 2.0)

    def test_out_of_range_threshold_raises_value_error(self):
        # mu = 0.99 raises T1's base to the power 100: about 10^707.7 here.
        s = StepSchedule(alpha0=0.1, nu=0.01, beta0=0.7, mu=0.99)
        with pytest.raises(ValueError, match=r"T1 = .* about 10\^707\.7 iterations"):
            thresholds(s, lam=2.37e-7, mu_f=0.03, L_f=6.2)


class TestXiConstants:
    def small_regime1(self, gamma=0.2, K=3.0, q0=1.5):
        steps = StepSchedule(alpha0=0.5, nu=0.2, beta0=0.8, mu=0.6)
        lam = 0.005
        kappa = kappa_factor(lam, steps.beta0, B=4)
        th = thresholds(steps, lam, 0.8, 2.0)
        return xi_constants(steps, th, lam, kappa, 0.8, 2.0, gamma, K, q0)

    def test_identities(self):
        tc = self.small_regime1()
        assert tc.xi1 == pytest.approx(2.0 * tc.eps3, rel=1e-12)
        assert tc.xi4 == pytest.approx(2.0 * tc.eps4 * tc.eps5, rel=1e-12)

    def test_regime1_fields(self):
        tc = self.small_regime1()
        assert tc.regime == 1
        assert tc.xi5 is None
        assert tc.xi2 is not None and tc.xi3 is not None
        # xi3 = c2 a0 b0 / (1 - mu - nu) with c2 = 1.6/2.8
        c2 = 0.8 * 2.0 / 2.8
        assert tc.c2 == pytest.approx(c2)
        assert tc.xi3 == pytest.approx(c2 * 0.4 / 0.2, rel=1e-12)
        assert tc.xi2 == pytest.approx(
            2.0 * math.exp(tc.xi3 * tc.thresholds.T0**0.2) * 1.5, rel=1e-12
        )

    def test_xi3_frozen(self):
        # Balanced curvature mu_f = L_f = 1 gives c2 = 1/2, and
        # alpha0*beta0 = 0.07 over 1 - mu - nu = 0.1 lands at 0.35.
        steps = StepSchedule(alpha0=0.1, nu=0.2, beta0=0.7, mu=0.7)
        tc = xi_constants(steps, thresholds(steps, 1e-4, 1.0, 1.0), 1e-4, 1.001, 1.0, 1.0, 0.1, 1.0, 1.0)
        assert tc.xi3 == pytest.approx(0.35, rel=1e-12)

    def test_regime2_fields_and_side_condition(self):
        steps = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        lam = 1e-6
        th = thresholds(steps, lam, 0.0293, 6.229)
        tc = xi_constants(steps, th, lam, 1.00001, 0.0293, 6.229, 1.25, 200.0, 1.0)
        assert tc.regime == 2
        assert tc.xi3 is None and tc.xi2 is None
        assert tc.xi5 is not None
        # c2 is about 0.029, so the certification needs alpha0*beta0 >= 17.
        assert not tc.side_condition_ok
        assert tc.xi5 == pytest.approx(
            2.0 * tc.thresholds.T0 ** (tc.c2 * 0.07) * 1.0 + tc.xi4, rel=1e-12
        )

    def test_zero_noise_zeroes_the_bound(self):
        tc = self.small_regime1(gamma=0.0, K=0.0, q0=0.0)
        assert tc.xi1 == 0.0 and tc.xi4 == 0.0
        T_min = tc.thresholds.T_min
        np.testing.assert_allclose(
            theorem_bound(tc, np.array([T_min, 2 * T_min])), [0.0, 0.0]
        )

    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            self.small_regime1(gamma=-0.1)

    @pytest.mark.parametrize("name", ["gamma", "K", "q0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            self.small_regime1(**{name: value})


CASES = ("regime1", "regime1-overflow", "regime1-zero-q0", "regime2")


def certificate_case(case):
    """mu + nu < 1 (small, with xi2 overflowing, and with q0 = 0) and
    mu + nu == 1 certificates."""
    if case == "regime1":
        return TestXiConstants().small_regime1()
    if case == "regime2":
        steps = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        th = thresholds(steps, 1e-3, 0.0293, 6.229)
        return xi_constants(steps, th, 1e-3, kappa_factor(1e-3, 0.7, B=4), 0.0293, 6.229, 1.25, 200.0, 1.0)
    steps = StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)
    q0 = 0.0 if case == "regime1-zero-q0" else 1.5
    th = thresholds(steps, 1e-5, 2.0, 2.0)
    return xi_constants(steps, th, 1e-5, kappa_factor(1e-5, 0.8, B=20), 2.0, 2.0, 0.5, 3.0, q0)


class TestTheoremBound:
    def test_regime1_formula(self):
        tc = TestXiConstants().small_regime1()
        T = max(tc.thresholds.T_min, 50)
        manual = (
            tc.xi1 * T ** -min(0.6, 0.4)
            + tc.xi2 * math.exp(-tc.xi3 * T**0.2)
            + tc.xi4 * T ** -min(0.4, 0.4)
        )
        assert theorem_bound(tc, T) == pytest.approx(manual, rel=1e-12)

    def test_strict_enforces_burn_in(self):
        # Below burn-in the bound is not certified, but it still evaluates.
        tc = TestXiConstants().small_regime1()
        assert theorem_bound(tc, tc.thresholds.T_min - 1) > 0

    def test_strict_enforces_side_condition(self):
        steps = StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
        th = thresholds(steps, 1e-6, 0.0293, 6.229)
        tc = xi_constants(steps, th, 1e-6, 1.00001, 0.0293, 6.229, 1.25, 200.0, 1.0)
        assert not tc.side_condition_ok
        assert theorem_bound(tc, tc.thresholds.T_min) > 0

    @pytest.mark.parametrize("lam, xi2_overflows", [(1e-3, False), (1e-4, True), (1e-5, True)])
    def test_regime1_burn_in_term_cannot_overflow(self, lam, xi2_overflows):
        # mu + nu < 1 with c2 = 1: from lambda = 1e-4 down, T0 is large enough
        # that xi2 = 2 exp(xi3 T0^(1-mu-nu)) q0 is beyond the float range,
        # while the burn-in term it scales is at most 2 q0 past T0.
        steps = StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)
        th = thresholds(steps, lam, 2.0, 2.0)
        tc = xi_constants(steps, th, lam, kappa_factor(lam, 0.8, B=20), 2.0, 2.0, 0.5, 3.0, 1.5)
        assert math.isinf(tc.xi2) == xi2_overflows
        T0 = tc.thresholds.T_min
        T = np.array([T0, 2 * T0, 10 * T0])
        bound = theorem_bound(tc, T)
        tail = tc.xi1 * T**-0.1 + tc.xi4 * T**-0.05
        assert bound[0] == pytest.approx(tail[0] + 2.0 * 1.5, rel=1e-12)
        assert np.all(np.isfinite(bound)) and np.all(np.diff(bound) < 0)
        assert np.all(bound - tail <= 2.0 * 1.5 * (1 + 1e-12))

    def test_zero_q0_below_burn_in_gives_the_tail(self):
        # Below T0 the burn-in factor exp(xi3 (T0^p - T^p)) overflows at
        # lambda = 1e-5; with q0 = 0 the term is exactly 0, not 0 * inf.
        steps = StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)
        lam = 1e-5
        th = thresholds(steps, lam, 2.0, 2.0)
        tc = xi_constants(steps, th, lam, kappa_factor(lam, 0.8, B=20), 2.0, 2.0, 0.5, 3.0, 0.0)
        assert tc.xi2 == 0.0
        T = np.array([30.0, 60.0, 200.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = theorem_bound(tc, T)
        np.testing.assert_array_equal(bound, tc.xi1 * T**-0.1 + 0.0 + tc.xi4 * T**-0.05)

    @pytest.mark.parametrize("case", CASES)
    def test_log10_bound_matches_where_finite(self, case):
        tc = certificate_case(case)
        T0 = tc.thresholds.T0
        T = np.unique(np.geomspace(1, 100 * T0, 60).round())
        bound = theorem_bound(tc, T)
        got = theorem_log10_bound(tc, T)
        finite = np.isfinite(bound)
        assert np.all(np.isfinite(got))
        assert finite.any() and (case != "regime1-overflow" or not finite.all())
        np.testing.assert_allclose(got[finite], np.log10(bound[finite]), rtol=1e-12, atol=0.0)
        scalar = theorem_bound(tc, T0)
        assert theorem_log10_bound(tc, T0) == pytest.approx(math.log10(scalar), rel=1e-12)

    def test_vectorized_and_scalar(self):
        tc = TestXiConstants().small_regime1()
        T0 = tc.thresholds.T_min
        arr = theorem_bound(tc, np.array([T0, 2 * T0, 4 * T0]))
        assert arr.shape == (3,)
        assert np.all(np.diff(arr) < 0)
        assert isinstance(theorem_bound(tc, T0), float)

    def test_rejects_nonpositive_iterations(self):
        tc = TestXiConstants().small_regime1()
        with pytest.raises(ValueError):
            theorem_bound(tc, 0)


# repr of every TheoryConstants field, then of theorem_bound
# and theorem_log10_bound at T = 1, 7, T_min and 10 T_min: a change in the
# certificate's arithmetic that moves any last bit of what theory prints
# fails here.
PINNED = {
    "regime1": (
        dict(
            steps="StepSchedule(alpha0=0.5, nu=0.2, beta0=0.8, mu=0.6)", c1="0.35714285714285715",
            c2="0.5714285714285715", q0="1.5",
            thresholds="Thresholds(T1=1558846, T2=3200000, T3=1, T4=526)", eps1="7764.606803184339",
            eps2="7249.184783268383", eps3="5861836.088833669", eps4="12896039.523434075",
            eps5="143.01294519713076", xi1="11723672.177667338", xi2="25342664234.888023",
            xi3="1.1428571428571432", xi4="3688601187.2498193", xi5="None", regime="1",
            side_condition_ok="True", side_threshold="None",
        ),
        ("11782266663.992945", "6391180790.634024", "9250815.148568721", "3682814.6497933012"),
        ("10.071228847748989", "9.805581102834772", "6.966180002893369", "6.566179862054046"),
    ),
    "regime1-overflow": (
        dict(
            steps="StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)", c1="0.25", c2="1.0", q0="1.5",
            thresholds="Thresholds(T1=77020, T2=166372, T3=1, T4=1)", eps1="91910.94173391385",
            eps2="86159.44196062001", eps3="34466718039.170586", eps4="27573374431.65647",
            eps5="12.635681904967386", xi1="68933436078.34119", xi2="inf", xi3="0.23529411764705885",
            xi4="696816776729.9442", xi5="None", regime="1", side_condition_ok="True",
            side_threshold="None",
        ),
        ("inf", "inf", "402717839463.9928", "356914727521.35626"),
        ("2801.3779928386143", "2800.945949230803", "11.605000868269387", "11.552564468799854"),
    ),
    "regime1-zero-q0": (
        dict(
            steps="StepSchedule(alpha0=0.25, nu=0.05, beta0=0.8, mu=0.1)", c1="0.25", c2="1.0", q0="0.0",
            thresholds="Thresholds(T1=77020, T2=166372, T3=1, T4=1)", eps1="91910.94173391385",
            eps2="86159.44196062001", eps3="34466718039.170586", eps4="27573374431.65647",
            eps5="12.635681904967386", xi1="68933436078.34119", xi2="0.0", xi3="0.23529411764705885",
            xi4="696816776729.9442", xi5="None", regime="1", side_condition_ok="True",
            side_threshold="None",
        ),
        ("765750212808.2854", "688957422536.4225", "402717839460.9928", "356914727521.35626"),
        ("11.884087126172636", "11.838192383404214", "11.605000868266151", "11.552564468799854"),
    ),
    "regime2": (
        dict(
            steps="StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)", c1="0.15978780179921065",
            c2="0.029162823770033396", q0="1.0",
            thresholds="Thresholds(T1=21084964598085, T2=66638900458143, T3=1, T4=None)",
            eps1="34188375832.70108", eps2="108880049.90913865", eps3="504507963005.84174",
            eps4="7763166714330.601", eps5="8.508471834240217", xi1="1009015926011.6835", xi2="None",
            xi3="None", xi4="132105370666786.14", xi5="132105370666788.28", regime="2",
            side_condition_ok="False", side_threshold="17.145116122595127",
        ),
        ("133114386592799.97", "50312508978494.18", "16306512.357617928", "5156571.974375478"),
        ("14.124224995220885", "13.701675975213757", "7.212361083921437", "6.7123610839214365"),
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_certificate_bits_are_pinned(case):
    fields, bounds, log10_bounds = PINNED[case]
    tc = certificate_case(case)
    assert {f.name: repr(getattr(tc, f.name)) for f in dataclasses.fields(tc)} == fields
    T_min = tc.thresholds.T_min
    Ts = (1, 7, T_min, 10 * T_min)
    assert tuple(repr(theorem_bound(tc, T)) for T in Ts) == bounds
    assert tuple(repr(float(theorem_log10_bound(tc, T))) for T in Ts) == log10_bounds


class TestFitRate:
    def test_exact_power_law(self):
        ts = np.array([500.0, 1000.0, 2000.0, 4000.0, 5000.0])
        fit = fit_rate(ts, 3.7 * ts**-0.5)
        assert fit.slope == pytest.approx(-0.5, abs=1e-10)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-9)
        assert fit.stderr == pytest.approx(0.0, abs=1e-10)
        assert fit.points == 5

    def test_two_points_have_no_residual(self):
        fit = fit_rate([10.0, 100.0], [1.0, 0.1])
        assert fit.slope == pytest.approx(-1.0)
        assert fit.stderr == 0.0

    def test_noisy_fit_reports_spread(self):
        ts = np.arange(1.0, 40.0)
        rng = philox(77)
        values = ts**-0.5 * np.exp(0.1 * rng.normal(size=ts.size))
        fit = fit_rate(ts, values)
        assert fit.stderr > 0
        assert abs(fit.slope + 0.5) < 5 * fit.stderr + 0.1

    def test_rejections(self):
        with pytest.raises(ValueError):
            fit_rate([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_rate([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            fit_rate([2.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_rate([0.0, 2.0], [1.0, 1.0])

import math
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest

import lemma_oracles
from dimix import lemmas
from dimix.analysis import contraction_factor, kappa_factor, r_norm_sq
from dimix.lemmas import (
    ALL_CHECKS,
    Check,
    CheckReport,
    SuiteReport,
    check_curvature_split,
    check_decaying_sum_envelope,
    check_mixing_contraction,
    check_step_sum_telescope,
    run_suite,
)
from dimix.rng import philox
from dimix.topology import family_window, gossip_schedule

EXPECTED_NAMES = [
    "mixing product contraction",
    "weighted operator bound",
    "young split",
    "step product envelope",
    "step sum telescope",
    "decaying sum envelope",
    "curvature split",
]


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(seed=0, instances=150)


class TestSuiteStructure:
    def test_all_checks_present_in_order(self, small_suite):
        assert [rep.name for rep in small_suite.reports] == EXPECTED_NAMES
        assert len(ALL_CHECKS) == 7

    def test_no_violations_at_reduced_budget(self, small_suite):
        for rep in small_suite.reports:
            assert rep.violations == 0, rep.line()
            assert rep.min_slack >= 0.0
            assert rep.instances >= 150

    def test_worst_case_recorded(self, small_suite):
        for rep in small_suite.reports:
            assert rep.worst, rep.name
            assert math.isfinite(rep.min_slack)

    def test_total_instances(self, small_suite):
        assert small_suite.total_instances >= 7 * 150

    def test_summary_lists_every_check(self, small_suite):
        text = small_suite.summary()
        for name in EXPECTED_NAMES:
            assert name in text
        assert "all checks passed" in text


class TestDeterminism:
    def test_same_seed_same_slack(self, small_suite):
        again = run_suite(seed=0, instances=150)
        for a, b in zip(small_suite.reports, again.reports):
            assert a.min_slack == b.min_slack
            assert a.instances == b.instances
            assert a.worst == b.worst

    def test_seed_changes_instances_drawn(self, small_suite):
        other = run_suite(seed=1, instances=150)
        assert any(
            a.min_slack != b.min_slack
            for a, b in zip(small_suite.reports, other.reports)
        )


class TestReportFormatting:
    def test_passing_line(self):
        rep = CheckReport("demo", 100, 0, 0.5, 1e-9)
        assert rep.passed
        assert rep.line().startswith("ok ")
        assert "0 violations" in rep.line()

    def test_failing_line_and_suite_verdict(self):
        rep = CheckReport("demo", 100, 3, -0.01, 1e-9)
        assert not rep.passed
        assert rep.line().startswith("FAIL")
        suite = SuiteReport([rep])
        assert not suite.passed
        assert "VIOLATIONS FOUND" in suite.summary()


class TestIndividualChecks:
    """Spot runs of the checks whose inner machinery has sharp corners."""

    def test_decaying_sum_matches_brute_force(self):
        from dimix.lemmas import _decaying_sum

        def brute(a, sigma, delta, t):
            total = 0.0
            for s in range(1, t):
                prod = 1.0
                for k in range(s + 1, t):
                    prod *= 1.0 - a / k**delta
                total += s**-sigma * prod
            return total

        cases = [
            (2.0, 1.5, 1.0, 4),
            (0.5, 1.0, 0.0, 40),
            (0.3, 1.2, 0.4, 17),
            (0.9, 2.0, 0.7, 3),
            (0.5, 1.5, 0.5, 2),
        ]
        for a, sigma, delta, t in cases:
            assert _decaying_sum(a, sigma, delta, t) == pytest.approx(
                brute(a, sigma, delta, t), rel=1e-12
            )

    def test_telescope_identity_tight(self):
        rep = check_step_sum_telescope(seed=3, instances=400)
        assert rep.violations == 0
        # An exact identity checked against 1e-10: margins stay tiny.
        assert rep.min_slack < 1e-9

    def test_decaying_sum_pinned_cases_run(self):
        rep = check_decaying_sum_envelope(seed=5, instances=60)
        assert rep.violations == 0
        assert rep.instances >= 60

    def test_mixing_contraction_small(self):
        rep = check_mixing_contraction(seed=7, instances=80)
        assert rep.violations == 0

    def test_curvature_split_small(self):
        rep = check_curvature_split(seed=9, instances=80)
        assert rep.violations == 0


class TestPinnedSuite:
    """Frozen output of the seed-0 suite.  TestDeterminism compares two runs
    of the same code, so only pinned values catch a change that reorders a
    check's draws or its slack arithmetic."""

    SUMMARY = """\
ok   mixing product contraction: 150 instances, 0 violations, min slack 6.423e-03
ok   weighted operator bound: 150 instances, 0 violations, min slack 1.000e-09
ok   young split: 150 instances, 0 violations, min slack 3.035e-03
ok   step product envelope: 150 instances, 0 violations, min slack 1.000e-09
ok   step sum telescope: 150 instances, 0 violations, min slack 1.000e-10
ok   decaying sum envelope: 150 instances, 0 violations, min slack 1.802e-04
ok   curvature split: 150 instances, 0 violations, min slack 1.000e-09
all checks passed (1050 instances total)"""

    # Only the checks whose min slack sits well above tolerance: in the
    # others many instances tie at the tolerance floor, and which one wins
    # depends on the machine's last-bit rounding.
    WORST = {
        "mixing product contraction": {
            "kind": "gossip", "n": 4, "s": 25, "t": 26,
            "beta0": 0.4056276237954143, "mu": 0.7164574928882056,
        },
        "young split": {"form": "vector", "d": 2, "theta": 5.700519156468544},
        "decaying sum envelope": {"a": 2.0, "sigma": 2.805646849825822, "delta": 1.0, "t": 908},
    }

    def test_summary(self, small_suite):
        assert small_suite.summary() == self.SUMMARY

    def test_worst_instances(self, small_suite):
        worst = {rep.name: rep.worst for rep in small_suite.reports if rep.name in self.WORST}
        assert worst == self.WORST


def synthetic_check(slacks) -> Check:
    """A check whose instance i has slack slacks[i] (value 0, scale 0, tol 0)
    and params {"i": i}."""

    def evaluate(block):
        n = len(block)
        bound = np.array([x for _, x in block])
        return np.zeros(n), bound, np.zeros(n), lambda i: {"i": block[i][0]}

    return Check("synthetic", 0, 0.0, lambda rng: iter(enumerate(slacks)), evaluate)


class TestWorstCase:
    """The driver reduces the slacks of every instance to one report."""

    def test_first_minimum_wins_ties(self):
        rep = synthetic_check([0.3, 0.1, 0.1, 0.2, 0.1])(instances=5)
        assert (rep.instances, rep.violations, rep.min_slack, rep.worst) == (5, 0, 0.1, {"i": 1})

    def test_nan_slack_is_a_violation_and_the_worst(self):
        rep = synthetic_check([-0.2, 0.5, math.nan, 0.1, math.nan])(instances=5)
        assert rep.violations == 3
        assert math.isnan(rep.min_slack) and rep.worst == {"i": 2}
        assert not rep.passed

    def test_infinite_slack_is_a_violation(self):
        rep = synthetic_check([0.5, math.inf])(instances=2)
        assert rep.violations == 1 and rep.worst == {"i": 1}

    def test_stream_shorter_than_asked(self):
        rep = synthetic_check([0.5, 0.25])(instances=10)
        assert (rep.instances, rep.min_slack) == (2, 0.25)

    def test_empty_stream(self):
        rep = synthetic_check([])(instances=10)
        assert (rep.instances, rep.violations, rep.min_slack, rep.worst) == (0, 0, math.inf, {})


def same_bits(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


class TestBatchedEvaluation:
    """Each check's draw-then-evaluate split reproduces the per-instance
    code of ``lemma_oracles`` bit for bit, whatever the block sizes."""

    @pytest.mark.parametrize("block, block_bytes", [(1000, 1 << 17), (7, 4096)])
    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name.replace(" ", "_"))
    def test_matches_per_instance_code(self, monkeypatch, check, block, block_bytes):
        monkeypatch.setattr(lemmas, "BLOCK_BYTES", block_bytes)
        count = 240
        drawn = check.draw(philox(1, check.stream))
        got = []
        while len(got) < count:
            value, bound, scale, params = check.evaluate(list(islice(drawn, min(block, count - len(got)))))
            got += [(v, b, s, params(i)) for i, (v, b, s) in enumerate(zip(value, bound, scale))]
        for (v, b, s, p), (ov, ob, os_, op) in zip(got, lemma_oracles.instances(check.name, 1, count)):
            assert same_bits([v, b, s], [ov, ob, os_]) and repr(p) == repr(op), (p, op)

    def test_decaying_sum_stops_inside_the_pinned_cases(self):
        rep = check_decaying_sum_envelope(seed=0, instances=3)
        assert rep.instances == 3
        assert rep.worst["sigma"] == 1.5 and rep.worst["t"] in (4, 7, 20)

    def test_decaying_sum_redraws_a_degenerate_delta_one_case(self):
        """a = sigma - 1 on the delta = 1 branch is rejected, and the words
        after it make the first drawn instance.  The stub serves raw words:
        the word of the double x is ``int(x * 2**53) << 11``."""

        def word(x: float) -> int:
            return int(x * 2**53) << 11

        # branch 0.3 takes delta = 1; a = 0.1 + 0.9 * 0.5 = 0.55 and
        # sigma = 1.05 + 1.95 * (0.5 / 1.95) = 1.55, so a - sigma + 1 = 0.
        first = [word(0.3), word(0.5), word(0.5), round(0.5 / 1.95 * 2**53) << 11]
        raw = iter(first + [word(0.5)] * 4 + [7]).__next__
        stub = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=raw))
        drawn = list(islice(check_decaying_sum_envelope.draw(stub), 8))
        assert drawn[7] == (0.525, 1.725, 0.45, 19)
        with pytest.raises(StopIteration):
            raw()

    def test_mixing_empty_product(self):
        """t = s + 1 applies no mixing step: P = I, and the decay is the
        empty product 1, next to a longer chain of the same shape."""
        rng = philox(5, 0)
        p, U = rng.random(4), rng.normal(size=(4, 2))
        block = [("gossip", p, 0.5, 0.7, 12, 13, U), ("gossip", p, 0.5, 0.7, 3, 11, U)]
        lhs, rhs, _, params = check_mixing_contraction.evaluate(block)
        q = 0.05 + p
        r = q / q.sum()
        sched = gossip_schedule(r)
        kap = kappa_factor(contraction_factor(sched.eta, float(r.min()), sched.B, 4), 0.5, sched.B)
        assert same_bits(lhs[0], r_norm_sq((np.eye(4) - np.outer(np.ones(4), r)) @ U, r))
        assert same_bits(rhs[0], kap * 1.0 * r_norm_sq(U, r))
        assert lhs[1] < lhs[0] and rhs[1] < rhs[0]
        assert params(0) == {"kind": "gossip", "n": 4, "s": 12, "t": 13, "beta0": 0.5, "mu": 0.7}

    def test_telescope_single_step(self):
        """t = 2: the one term beta(1) has an empty survival product."""
        block = [
            (2, 0.7, 0.4, 0.3, None),
            (2, -1.3, None, None, np.array([0.6])),
            (9, 0.5, 0.2, 0.6, None),
            (6, 2.0, None, None, np.array([0.1, 0.9, 0.3, 0.5, 0.7])),
        ]
        value, bound, scale, _ = check_step_sum_telescope.evaluate(block)
        for i, beta1 in ((0, 0.4 / 1.0**0.3), (1, (0.0 + 2.0 * 0.6) / -1.3)):
            lam = block[i][1]
            assert same_bits(value[i], abs(beta1 - (1.0 - (1.0 - lam * beta1)) / lam))
        assert same_bits(bound, np.zeros(4))
        assert same_bits(scale[:2], [1.0 / 0.7, 1.0 / 1.3])


class TestScalars:
    """``lemmas._Scalars`` draws what numpy's Generator draws on the same
    stream, in any order with the array draws the checks make."""

    # Every scalar range the checks draw from, (0, 1) among them: a
    # width-1 range draws no word.  (0, 2**31 + 1) rejects about half its
    # samples, so its draws often take a second half-word.
    RANGES = sorted(
        {(3, 9), (1, 40), (1, 5), (1, 8), (-2, 3), (1, 10), (1, 6), (1, 50)}
        | {(0, 2000), (2, 200), (0, 2), (0, 1000), (1, 7), (5, 6), (0, 2**31 + 1)}
        | {(0, d) for d in range(1, 7)}
        | {(0, 3 * family_window(k, n) + 1) for k in ("fixed_cycle", "gossip") for n in range(3, 9)}
    )

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_generator(self, seed):
        ours, ref = philox(seed, 9), philox(seed, 9)
        draw = lemmas._Scalars(ours)
        script = np.random.default_rng(seed)  # picks each next call
        for _ in range(3000):
            op = int(script.integers(0, 4))
            if op == 0:
                lo, hi = self.RANGES[int(script.integers(0, len(self.RANGES)))]
                got = draw.integers(lo, hi)
                assert type(got) is int and got == ref.integers(lo, hi), (lo, hi)
            elif op == 1:
                assert same_bits(draw.uniform(), ref.random())
            elif op == 2:
                assert same_bits(draw.uniform(0.05, 2.5), ref.uniform(0.05, 2.5))
            else:
                n = int(script.integers(1, 4))
                assert same_bits(ours.random(n), ref.random(n))
                assert same_bits(ours.normal(size=n), ref.normal(size=n))

    def test_rejection_threshold_boundary(self):
        """Widths m whose first sample lands exactly on numpy's threshold
        (2**32 - m) % m, which accepts it, or one below, which rejects it.
        Random widths reach either with odds of about 2**-32 per draw.  For
        m in (2**31, 2**32) the threshold is 2**32 - m, and the first
        half-word u leaves u * m mod 2**32 = 2**32 - m when 4 divides u + 1
        and m = 3 * 2**30, or 2**32 - m - 1 when m (u + 1) = -1 mod 2**32."""
        seen = set()
        for seed in range(64):
            u = philox(seed, 9).bit_generator.random_raw() & 0xFFFFFFFF
            below = -pow(u + 1, -1, 1 << 32) % (1 << 32) if u % 2 == 0 else 0
            if (u + 1) % 4 == 0:
                m, case = 3 << 30, "on"
            elif below > 1 << 31:
                m, case = below, "below"
            else:
                continue
            assert u * m % (1 << 32) == (1 << 32) - m - (case == "below")
            ours, ref = philox(seed, 9), philox(seed, 9)
            draw = lemmas._Scalars(ours)
            assert [draw.integers(0, m) for _ in range(3)] == [ref.integers(0, m) for _ in range(3)]
            seen.add(case)
        assert seen == {"on", "below"}

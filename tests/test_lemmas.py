import math

import pytest

from dimix.lemmas import (
    ALL_CHECKS,
    CheckReport,
    SuiteReport,
    check_curvature_split,
    check_decaying_sum_envelope,
    check_mixing_contraction,
    check_step_sum_telescope,
    run_suite,
)

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

import math
import os
import subprocess
import sys
from pathlib import Path
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
    Ragged,
    SuiteReport,
    check_curvature_split,
    check_decaying_sum_envelope,
    check_mixing_contraction,
    check_step_sum_telescope,
    run_suite,
)
from dimix.rng import philox
from dimix.topology import family_window, fixed_cycle_schedule, gossip_schedule

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
        got = _decaying_sum(*(np.array(col) for col in zip(*cases)))
        assert got == pytest.approx([brute(*case) for case in cases], rel=1e-12)

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
    check's draws (or its ``DRAW_BLOCK``) or its slack arithmetic."""

    SUMMARY = """\
ok   mixing product contraction: 150 instances, 0 violations, min slack 1.627e-02
ok   weighted operator bound: 150 instances, 0 violations, min slack 1.000e-09
ok   young split: 150 instances, 0 violations, min slack 6.002e-03
ok   step product envelope: 150 instances, 0 violations, min slack 1.000e-09
ok   step sum telescope: 150 instances, 0 violations, min slack 1.000e-10
ok   decaying sum envelope: 150 instances, 0 violations, min slack 5.208e-04
ok   curvature split: 150 instances, 0 violations, min slack 1.000e-09
all checks passed (1050 instances total)"""

    # Only the checks whose min slack sits well above tolerance: in the
    # others many instances tie at the tolerance floor, and which one wins
    # depends on the machine's last-bit rounding.
    WORST = {
        "mixing product contraction": {
            "kind": "fixed_cycle", "n": 6, "s": 27, "t": 30,
            "beta0": 0.3881034990304517, "mu": 0.7524206484027341,
        },
        "young split": {"form": "vector", "d": 2, "theta": 0.00579322973921487},
        "decaying sum envelope": {
            "a": 0.6417262098445259, "sigma": 2.0109755336537893, "delta": 0.012571444760059202, "t": 564,
        },
    }

    def test_summary(self, small_suite):
        assert small_suite.summary() == self.SUMMARY

    def test_worst_instances(self, small_suite):
        worst = {rep.name: rep.worst for rep in small_suite.reports if rep.name in self.WORST}
        assert worst == self.WORST


class TestPinnedDefaultBudget:
    """Frozen output of ``dimix lemmas`` at its default budget: the seed-0
    suite at 1000 instances per check, with every report's exact min slack
    and worst instance.  Recorded before the checks passed columns; any
    change to the instances, their order or the slack arithmetic shows."""

    SUMMARY = """\
ok   mixing product contraction: 1000 instances, 0 violations, min slack 1.254e-04
ok   weighted operator bound: 1000 instances, 0 violations, min slack 1.000e-09
ok   young split: 1000 instances, 0 violations, min slack 7.440e-05
ok   step product envelope: 1000 instances, 0 violations, min slack 1.000e-09
ok   step sum telescope: 1000 instances, 0 violations, min slack 1.000e-10
ok   decaying sum envelope: 1000 instances, 0 violations, min slack 1.655e-05
ok   curvature split: 1000 instances, 0 violations, min slack 1.000e-09
all checks passed (7000 instances total)"""

    REPORTS = {
        "mixing product contraction": ("0.00012537378887064794", {
            "kind": "fixed_cycle", "n": 7, "s": 1, "t": 2, "beta0": 0.17915035659776235, "mu": 0.8675653539486684,
        }),
        "weighted operator bound": ("9.999998889776976e-10", {"n": 3, "m": 1, "d": 1}),
        "young split": ("7.439958519597666e-05", {"form": "vector", "d": 1, "theta": 0.07776223424676053}),
        "step product envelope": ("1e-09", {"a": 0.5247245805975087, "delta": 0.06680181318906304, "s": 3, "t": 1909}),
        "step sum telescope": ("9.999955591079015e-11", {"t": 114, "lam": 1.073043374889634}),
        "decaying sum envelope": ("1.6550955288010936e-05", {
            "a": 0.9267863747528756, "sigma": 2.5713295042044058, "delta": 0.0998095431923416, "t": 951,
        }),
        "curvature split": ("9.999996669330927e-10", {"d": 6, "mu": 0.16453061343108366, "L": 2.9430511636030854}),
    }

    @pytest.fixture(scope="class")
    def default_suite(self):
        return run_suite(seed=0)

    def test_summary(self, default_suite):
        assert default_suite.summary() == self.SUMMARY

    def test_min_slack_and_worst_instance(self, default_suite):
        assert {rep.name: (repr(rep.min_slack), rep.worst) for rep in default_suite.reports} == self.REPORTS


def synthetic_check(slacks) -> Check:
    """A check whose instance i has slack slacks[i] (value 0, scale 0, tol 0)
    and params {"i": i}, all drawn as one block."""

    def evaluate(columns):
        n = columns["slack"].size
        return np.zeros(n), columns["slack"], np.zeros(n), lambda i: {"i": i}

    return Check("synthetic", 0, 0.0, lambda rng: iter([{"slack": np.array(slacks, dtype=float)}]), evaluate)


class TestWorstCase:
    """The driver reduces the slacks of every instance to one report."""

    def test_first_minimum_wins_ties(self):
        rep = synthetic_check([0.3, 0.1, 0.1, 0.2, 0.1])(seed=0, instances=5)
        assert (rep.instances, rep.violations, rep.min_slack, rep.worst) == (5, 0, 0.1, {"i": 1})

    def test_nan_slack_is_a_violation_and_the_worst(self):
        rep = synthetic_check([-0.2, 0.5, math.nan, 0.1, math.nan])(seed=0, instances=5)
        assert rep.violations == 3
        assert math.isnan(rep.min_slack) and rep.worst == {"i": 2}
        assert not rep.passed

    def test_infinite_slack_is_a_violation(self):
        rep = synthetic_check([0.5, math.inf])(seed=0, instances=2)
        assert rep.violations == 1 and rep.worst == {"i": 1}

    def test_stream_shorter_than_asked(self):
        rep = synthetic_check([0.5, 0.25])(seed=0, instances=10)
        assert (rep.instances, rep.min_slack) == (2, 0.25)

    def test_empty_stream(self):
        rep = synthetic_check([])(seed=0, instances=10)
        assert (rep.instances, rep.violations, rep.min_slack, rep.worst) == (0, 0, math.inf, {})


def same_bits(x, y) -> bool:
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


class TestBatchedEvaluation:
    """Each check's batched evaluate phase reproduces the per-instance code
    of ``lemma_oracles`` bit for bit on the instances the check draws,
    whatever the block sizes."""

    @pytest.mark.parametrize("block, block_bytes", [(1000, 1 << 17), (7, 4096)])
    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name.replace(" ", "_"))
    def test_matches_per_instance_code(self, monkeypatch, check, block, block_bytes):
        monkeypatch.setattr(lemmas, "BLOCK_BYTES", block_bytes)
        columns = check.columns(1, 240)
        oracle = lemma_oracles.ORACLES[check.name]
        for start in range(0, 240, block):
            chunk = lemma_oracles.part(columns, start, min(start + block, 240))
            value, bound, scale, params = check.evaluate(chunk)
            for i, instance in enumerate(lemma_oracles.instances(check.name, chunk)):
                ov, ob, os_, op = oracle(*instance)
                assert same_bits([value[i], bound[i], scale[i]], [ov, ob, os_]) and repr(params(i)) == repr(op), op

    def test_decaying_sum_stops_inside_the_pinned_cases(self):
        """The seven pinned cases come first and draw nothing."""
        untouched = SimpleNamespace()  # any Generator call raises AttributeError
        first = next(check_decaying_sum_envelope.draw(untouched))
        pinned = lemma_oracles.instances(check_decaying_sum_envelope.name, first)
        assert pinned == [(2.0, 1.5, 1.0, t) for t in (4, 7, 20, 200)] + [(0.5, 1.0, 0.0, t) for t in (40, 200, 1000)]
        rep = check_decaying_sum_envelope(seed=0, instances=3)
        assert rep.instances == 3
        assert rep.worst["sigma"] == 1.5 and rep.worst["t"] in (4, 7, 20)

    def test_decaying_sum_redraws_a_degenerate_delta_one_case(self, monkeypatch):
        """a = sigma - 1 on the delta = 1 branch is rejected inside its
        block, and the block's next instance is the first one drawn.  The
        stub answers the ``random`` calls of one two-instance block in order,
        each a pair of uniforms; a second block would find no answers left."""
        monkeypatch.setattr(lemmas, "DRAW_BLOCK", 2)
        answers = iter([
            [0.3, 0.5],  # branch: delta = 1, then the last branch
            [0.5, 0.5],  # a = 0.1 + 0.9 u on the first two branches
            [0.5, 0.5],  # a = 0.05 + 0.95 u on the last branch
            [0.5, 0.5],  # a = 2 where this is >= 0.7
            [0.5, 0.5],  # delta on the sigma = 1 branch
            [0.5, 0.5],  # delta = 0.9 u on the last branch
            [0.5 / 1.95, 0.5],  # sigma = 1.05 + 1.95 u = a + 1 on the delta = 1 branch
            [0.5, 0.5],  # sigma - delta = 0.05 + 2.45 u on the last branch
            [0.5, 0.007],  # t - floor(tau) - 2 = floor(1000 u)
        ])
        stub = SimpleNamespace(random=lambda size: np.array(next(answers)))
        draws = check_decaying_sum_envelope.draw(stub)
        next(draws)  # the pinned cases
        # tau = (2 * 1.275 / 0.525) ** (1 / 0.55) = 17.7, so t = 17 + 2 + 7.
        assert lemma_oracles.instances(check_decaying_sum_envelope.name, next(draws)) == [(0.525, 1.725, 0.45, 26)]
        with pytest.raises(StopIteration):
            next(answers)

    def test_mixing_empty_product(self):
        """t = s + 1 applies no mixing step: P = I, and the decay is the
        empty product 1, next to a longer chain of the same shape."""
        rng = philox(5, 0)
        p, U = rng.random(4), rng.normal(size=(4, 2))
        # ("gossip", p, 0.5, 0.7, 12, 13, U) and ("gossip", p, 0.5, 0.7, 3, 11, U)
        block = {
            "n": np.array([4, 4]), "fixed": np.array([0, 0]), "beta0": np.array([0.5, 0.5]),
            "mu": np.array([0.7, 0.7]), "s": np.array([12, 3]), "t": np.array([13, 11]), "d": np.array([2, 2]),
            "p": Ragged(np.tile(p, 2), np.array([4, 4])), "U": Ragged(np.tile(U.ravel(), 2), np.array([8, 8])),
        }
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
        # (2, 0.7, 0.4, 0.3, None), (2, -1.3, None, None, [0.6]), (9, 0.5, 0.2, 0.6, None)
        # and (6, 2.0, None, None, [0.1, 0.9, 0.3, 0.5, 0.7]); a non-canonical
        # instance's beta0 and mu are not read.
        block = {
            "t": np.array([2, 2, 9, 6]), "lam": np.array([0.7, -1.3, 0.5, 2.0]),
            "beta0": np.array([0.4, 0.0, 0.2, 0.0]), "mu": np.array([0.3, 0.0, 0.6, 0.0]),
            "canonical": np.array([True, False, True, False]),
            "v": Ragged(np.array([0.6, 0.1, 0.9, 0.3, 0.5, 0.7]), np.array([0, 1, 0, 5])),
        }
        value, bound, scale, _ = check_step_sum_telescope.evaluate(block)
        for i, beta1 in ((0, 0.4 / 1.0**0.3), (1, (0.0 + 2.0 * 0.6) / -1.3)):
            lam = block["lam"][i]
            assert same_bits(value[i], abs(beta1 - (1.0 - (1.0 - lam * beta1)) / lam))
        assert same_bits(bound, np.zeros(4))
        assert same_bits(scale[:2], [1.0 / 0.7, 1.0 / 1.3])


@pytest.mark.parametrize("seed, count", [(0, 1000), (3, 777)])
def test_array_lambda_and_kappa_are_the_scalar_bits(seed, count):
    """``contraction_factor`` and ``kappa_factor`` over the arrays of one
    (family, n) group of mixing instances, as the mixing check calls them,
    give every entry the bits of the scalar call on that instance."""
    groups = {}
    for kind, p, beta0, *_ in drawn(check_mixing_contraction, seed, count):
        r = lemma_oracles.weights(p)
        sched = (fixed_cycle_schedule if kind == "fixed_cycle" else gossip_schedule)(r)
        groups.setdefault((kind, len(p), sched.B), []).append((sched.eta, float(r.min()), float(beta0)))
    assert sum(map(len, groups.values())) == count
    for (kind, n, B), rows in groups.items():
        eta, r_min, beta0 = (np.array(x) for x in zip(*rows))
        lam = contraction_factor(eta, r_min, B, n)
        scalar_lam = [contraction_factor(e, x, B, n) for e, x, _ in rows]
        assert same_bits(lam, scalar_lam)
        scalar_kappa = [kappa_factor(x, b, B) for x, (_, _, b) in zip(scalar_lam, rows)]
        assert same_bits(kappa_factor(lam, beta0, B), scalar_kappa)


def drawn(check: Check, seed: int, instances: int) -> list[tuple]:
    """The instances that ``check(seed, instances)`` evaluates, one tuple each."""
    return lemma_oracles.instances(check.name, check.columns(seed, instances))


def as_bytes(instance: tuple) -> bytes:
    """Every field of an instance: its type, shape and bytes."""
    return b"|".join(
        repr(x).encode() if x is None or isinstance(x, str)
        else f"{np.asarray(x).dtype}{np.shape(x)}".encode() + np.asarray(x).tobytes()
        for x in instance
    )


def assert_fills(values, lo, hi):
    """values lie in [lo, hi) and fill it: an integer range of at most 50
    takes each of its values, one of at most 200 both its ends, and any
    range is spanned to 98%."""
    x = np.asarray(values)
    assert lo <= x.min() and x.max() < hi, (x.min(), x.max())
    if x.dtype.kind == "i" and hi - lo <= 50:
        assert np.unique(x).size == hi - lo
    elif x.dtype.kind == "i" and hi - lo <= 200:
        assert (x.min(), x.max()) == (lo, hi - 1)
    else:
        assert x.max() - x.min() > 0.98 * (hi - lo - (x.dtype.kind == "i"))


@pytest.fixture(scope="module")
def samples():
    return {check.name: drawn(check, 2, 2000) for check in ALL_CHECKS}


def fields(samples, name, keep=lambda *x: True):
    """The instances of check ``name`` that ``keep`` accepts, field by field."""
    return list(zip(*(x for x in samples[name] if keep(*x))))


class TestDrawContract:
    """What a check's draw generator promises: instance i does not depend on
    the budget, every field lies in and fills the range the check's
    docstring states, and every branch is taken at its stated odds."""

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name.replace(" ", "_"))
    def test_prefix_property(self, check):
        assert [as_bytes(x) for x in drawn(check, 4, 1000)[:150]] == [as_bytes(x) for x in drawn(check, 4, 150)]

    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.name.replace(" ", "_"))
    def test_prefix_property_at_block_edges(self, check):
        """Budgets around the DRAW_BLOCK = 256 edges cut the concatenated
        blocks; the decaying sum's pinned first block and its in-block
        rejections move its edges off multiples of 256."""
        full = [as_bytes(x) for x in drawn(check, 4, 1000)]
        for budget in (1, 255, 256, 257, 513):
            assert [as_bytes(x) for x in drawn(check, 4, budget)] == full[:budget], budget

    def test_mixing_ranges(self, samples):
        kind, p, beta0, mu, s, t, U = fields(samples, "mixing product contraction")
        n = np.array([x.size for x in p])
        assert_fills(n, 3, 9)
        assert_fills(np.concatenate(p), 0.0, 1.0)
        assert_fills(beta0, 0.1, 1.0)
        assert_fills(mu, 0.55, 0.95)
        assert_fills(s, 1, 40)
        steps = np.array(t) - s - 1
        window = np.array([family_window(*x) for x in zip(kind, n.tolist())])
        assert_fills(steps[window == 1], 0, 4)
        assert steps.min() == 0 and np.all(steps <= 3 * window) and np.any((steps == 3 * window) & (window > 1))
        assert [u.shape[0] for u in U] == n.tolist()
        assert_fills([u.shape[1] for u in U], 1, 5)

    def test_operator_ranges(self, samples):
        p, A, B = fields(samples, "weighted operator bound")
        for dims in ([a.shape[0] for a in A], [a.shape[1] for a in A], [b.shape[1] for b in B]):
            assert_fills(dims, 1, 8)
        assert [x.size for x in p] == [a.shape[0] for a in A]
        assert [a.shape[1] for a in A] == [b.shape[0] for b in B]
        assert_fills(np.concatenate(p), 0.0, 1.0)

    def test_young_ranges(self, samples):
        theta, _, u, v = fields(samples, "young split", lambda theta, p, u, v: p is None)
        assert_fills([x.size for x in u], 1, 10)
        assert all(x.ndim == 1 and x.shape == y.shape for x, y in zip(u, v))
        _, p, U, V = fields(samples, "young split", lambda theta, p, u, v: p is not None)
        assert_fills([x.shape[0] for x in U], 1, 6)
        assert_fills([x.shape[1] for x in U], 1, 6)
        assert [x.size for x in p] == [x.shape[0] for x in U] and [x.shape for x in U] == [x.shape for x in V]
        assert_fills(np.concatenate(p), 0.0, 1.0)
        assert_fills(np.log10(fields(samples, "young split")[0]), -3.0, 3.0)

    def test_step_product_ranges(self, samples):
        a, delta, s, t = fields(samples, "step product envelope")
        assert_fills(a, 1e-3, 0.999)
        assert_fills([x for x in delta if x != 1.0], 0.0, 0.999)
        assert_fills(s, 1, 50)
        assert_fills(np.array(t) - s - 1, 0, 2000)

    def test_telescope_ranges(self, samples):
        assert_fills(fields(samples, "step sum telescope")[0], 2, 200)
        _, lam, beta0, mu, _ = fields(samples, "step sum telescope", lambda t, lam, beta0, mu, v: v is None)
        assert_fills(np.log10(lam), -2.0, 1.0)
        assert np.all(np.multiply(lam, beta0) < 2.0)
        assert_fills(beta0, 0.05, 1.0)
        assert_fills(mu, 0.1, 0.95)
        t, lam, _, _, v = fields(samples, "step sum telescope", lambda t, lam, beta0, mu, v: v is not None)
        assert_fills(np.log10(np.abs(lam)), -2.0, 1.0)
        assert min(lam) < 0.0 < max(lam)
        assert [x.size for x in v] == [x - 1 for x in t]
        assert_fills(np.concatenate(v), 0.0, 1.0)

    def test_decaying_sum_ranges(self, samples):
        samples = {"drawn": samples["decaying sum envelope"][7:]}
        a, _, delta, t = fields(samples, "drawn", lambda a, sigma, delta, t: sigma == 1.0)
        assert_fills(a, 0.1, 1.0)
        assert_fills(delta, 0.0, 0.45)
        a, sigma, _, t = fields(samples, "drawn", lambda a, sigma, delta, t: delta == 1.0)
        assert_fills([x for x in a if x != 2.0], 0.1, 1.0)
        assert 2.0 in a and np.all(np.abs(np.array(a) - sigma + 1.0) >= 1e-6)
        assert_fills(sigma, 1.05, 3.0)
        assert_fills(np.array(t) - 4, 0, 1000)
        last = fields(samples, "drawn", lambda a, sigma, delta, t: 1.0 not in (sigma, delta))
        a, sigma, delta, t = (np.array(x) for x in last)
        assert_fills(delta, 0.0, 0.9)
        assert_fills(sigma - delta, 0.05 - 1e-12, 2.5 + 1e-12)
        assert_fills(a, 0.05, 1.0)
        tau = (2.0 * (sigma - delta) / a) ** (1.0 / (1.0 - delta))
        assert np.all(tau <= 1500.0)
        assert_fills(t - np.floor(tau).astype(int) - 2, 0, 1000)

    def test_curvature_ranges(self, samples):
        eigs, G, x_star, mode, _, _ = fields(samples, "curvature split")
        d = [x.size for x in eigs]
        assert_fills(d, 1, 7)
        assert_fills(np.concatenate(eigs), 0.0, 1.0)
        assert [x.shape for x in G] == [(k, k) for k in d] and [x.size for x in x_star] == d
        assert_fills(mode, 0.0, 1.0)
        _, _, _, mode, step, scale = fields(samples, "curvature split", lambda *x: isinstance(x[4], float))
        assert max(mode) < 0.4 and set(scale) == {None}
        eigs, _, _, _, step, scale = fields(samples, "curvature split", lambda *x: x[3] >= 0.4)
        assert [x.shape for x in step] == [x.shape for x in eigs]
        assert sorted(set(scale)) == [0.01, 0.1, 1.0, 10.0, 100.0]

    @pytest.mark.parametrize("name, branch, odds", [
        ("mixing product contraction", lambda *x: x[0] == "fixed_cycle", 0.5),
        ("step product envelope", lambda a, delta, s, t: delta == 1.0, 0.3),
        ("young split", lambda theta, p, u, v: p is None, 0.5),
        ("step sum telescope", lambda t, lam, beta0, mu, v: v is None, 0.5),
        ("curvature split", lambda eigs, *x: not eigs.all(), 0.3),
        ("curvature split", lambda eigs, G, x_star, mode, step, scale: isinstance(step, float), 0.4),
    ], ids=["kind", "delta_one", "vector", "canonical", "zero_eigenvalue", "line_step"])
    def test_branch_odds(self, samples, name, branch, odds):
        """Each branch's share lies within 4 binomial standard errors of its odds."""
        taken = [branch(*x) for x in samples[name]]
        assert abs(np.mean(taken) - odds) < 4.0 * math.sqrt(odds * (1.0 - odds) / len(taken))


class TestPageIn:
    """The suite pages in no more of numpy than the engine does: about 0.3 MB
    of peak RSS for ``Generator.integers``, ``uniform`` or ``normal``, and
    0.9-1.6 MB for ``numpy.ma`` (``np.unique``, ``np.isin``)."""

    def test_draws_call_only_random_and_standard_normal(self, monkeypatch):
        expected = run_suite(seed=0, instances=300)

        def narrow(seed, stream):
            rng = philox(seed, stream)
            return SimpleNamespace(random=rng.random, standard_normal=rng.standard_normal)

        monkeypatch.setattr(lemmas, "philox", narrow)
        got = run_suite(seed=0, instances=300)
        assert got.summary() == expected.summary()
        assert [rep.worst for rep in got.reports] == [rep.worst for rep in expected.reports]

    def test_lemmas_command_leaves_numpy_ma_unloaded(self):
        # A fresh interpreter, as every CLI call starts.
        code = "import sys\nfrom dimix.cli import main\nmain(['lemmas'])\nprint('numpy.ma' in sys.modules)\n"
        src = str(Path(lemmas.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert "all checks passed (7000 instances total)" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "False"

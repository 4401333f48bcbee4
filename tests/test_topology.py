import re
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from dimix.rng import philox
from dimix.topology import (
    STOCHASTICITY_TOL,
    MixingSchedule,
    entry_floor,
    family_matrices,
    family_window,
    fixed_cycle_schedule,
    gossip_pair,
    gossip_schedule,
    make_weight_vector,
    matrix_list_schedule,
    parse_matrix_file,
    stationary_weights,
    strongly_connected,
    validate_schedule,
)

from conftest import random_weights
from helpers import failing_starts, with_weights
from oracles import strongly_connected_dfs, validate_windows

# A three-agent cycle slot (doubly stochastic, connected on its own).
CYCLE = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])


def cycle_slot(r) -> np.ndarray:
    return family_matrices("fixed_cycle", [r])[0, 0]


def gossip_slot(r, t: int) -> np.ndarray:
    """The gossip matrix at iteration t: slot t - 1 of the period."""
    return family_matrices("gossip", [r])[0, (t - 1) % len(r)]


class TestMakeWeightVector:
    def test_uniform(self):
        np.testing.assert_allclose(make_weight_vector([1, 1, 1, 1]), np.full(4, 0.25))

    def test_normalization(self):
        np.testing.assert_allclose(make_weight_vector([1, 3]), [0.25, 0.75])

    def test_twenty_equal_draws(self):
        r = make_weight_vector([0.05] * 20)
        np.testing.assert_allclose(r, np.full(20, 0.05))

    def test_rejects_nonpositive_with_index(self):
        with pytest.raises(ValueError, match="index 2"):
            make_weight_vector([0.3, 0.1, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_weight_vector([])


class TestFixedCycleMatrix:
    def test_frozen_row(self):
        # r = (0.2, 0.3, 0.5): neighbor weights of agent 0 are
        # 0.3/(2*0.5) = 0.3 and 0.5/(2*0.7) = 5/14; diagonal takes the rest.
        W = cycle_slot([0.2, 0.3, 0.5])
        np.testing.assert_allclose(W[0], [0.2 / 1.0 + 0.2 / 1.4, 0.3, 0.5 / 1.4], atol=1e-15)

    def test_uniform_three(self):
        W = cycle_slot(np.full(3, 1 / 3))
        np.testing.assert_allclose(W, [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])

    def test_stochasticity_random_r(self):
        rng = philox(2024)
        for n in (3, 5, 20):
            for _ in range(50):
                r = random_weights(rng, n)
                W = cycle_slot(r)
                assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= STOCHASTICITY_TOL
                assert np.max(np.abs(r @ W - r)) <= STOCHASTICITY_TOL

    def test_support_is_cycle(self):
        W = cycle_slot(random_weights(philox(7), 6))
        for i in range(6):
            expected = {(i - 1) % 6, i, (i + 1) % 6}
            assert set(np.flatnonzero(W[i] > 0)) == expected

    def test_entry_floor(self):
        r = random_weights(philox(8), 20)
        W = cycle_slot(r)
        floor = r.min() / (2 * (r.min() + r.max()))
        positive = W[W > 0]
        assert positive.min() >= floor - 1e-15

    def test_needs_three_agents(self):
        with pytest.raises(ValueError):
            cycle_slot([0.5, 0.5])


class TestGossipMatrix:
    def test_frozen_pair_t1(self):
        # t=1 activates agents 1 and 2 (0-based); the 2x2 block splits the
        # pair's weights proportionally and everyone else keeps their state.
        W = gossip_slot([0.1, 0.2, 0.3, 0.4], 1)
        assert gossip_pair(4, 1) == (1, 2)
        np.testing.assert_allclose(W[1], [0.0, 0.4, 0.6, 0.0])
        np.testing.assert_allclose(W[2], [0.0, 0.4, 0.6, 0.0])
        np.testing.assert_allclose(W[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(W[3], [0.0, 0.0, 0.0, 1.0])

    def test_frozen_pair_wraparound(self):
        W = gossip_slot([0.1, 0.2, 0.3, 0.4], 4)
        assert gossip_pair(4, 4) == (0, 1)
        np.testing.assert_allclose(W[0], [1 / 3, 2 / 3, 0.0, 0.0])
        np.testing.assert_allclose(W[1], [1 / 3, 2 / 3, 0.0, 0.0])

    def test_uniform_three_block(self):
        W = gossip_slot(np.full(3, 1 / 3), 1)
        np.testing.assert_allclose(W[1, 1:], [0.5, 0.5])
        np.testing.assert_allclose(W[0], [1.0, 0.0, 0.0])

    def test_periodicity_exact(self):
        # Slot t - 1 averages the pair active at t and at t + 7 alike.
        r = random_weights(philox(11), 7)
        for t in range(1, 8):
            W = gossip_slot(r, t)
            a, b = gossip_pair(7, t + 7)
            off_diagonal = set(zip(*np.nonzero(W - np.diag(np.diag(W)))))
            assert off_diagonal == {(a, b), (b, a)}

    def test_stochasticity_random_r(self):
        rng = philox(12)
        r = random_weights(rng, 20)
        for t in range(1, 21):
            W = gossip_slot(r, t)
            assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= STOCHASTICITY_TOL
            assert np.max(np.abs(r @ W - r)) <= STOCHASTICITY_TOL


class TestStronglyConnected:
    def test_agrees_with_dfs_oracle(self):
        rng = philox(31)
        stacks: dict[int, tuple[list, list]] = {}
        for _ in range(1200):
            n = int(rng.integers(2, 7))
            density = rng.uniform(0.05, 0.6)
            links = rng.random((n, n)) < density
            edges = {(j, i) for i in range(n) for j in range(n) if links[i, j]}
            expected = strongly_connected_dfs(n, edges)
            assert strongly_connected(links) == expected
            stacked, verdicts = stacks.setdefault(n, ([], []))
            stacked.append(links)
            verdicts.append(expected)
        # A stack gets one verdict per item.
        for stacked, verdicts in stacks.values():
            assert strongly_connected(np.array(stacked)).tolist() == verdicts

    def test_cycle_is_connected(self):
        n = 9
        links = np.zeros((n, n), dtype=bool)
        links[(np.arange(n) + 1) % n, np.arange(n)] = True
        assert strongly_connected(links)
        links[4, 3] = False
        assert not strongly_connected(links)

    def test_single_vertex(self):
        assert strongly_connected(np.zeros((1, 1), dtype=bool))


class TestSchedules:
    def test_fixed_cycle_declares_b1(self):
        s = fixed_cycle_schedule(random_weights(philox(5), 20))
        assert s.B == 1
        assert validate_schedule(s, horizon=100).passed

    def test_gossip_declares_bn(self):
        s = gossip_schedule(random_weights(philox(5), 20))
        assert s.B == 20
        assert s.eta == min(
            float(W[W > 0].min()) for W in s.matrices
        )

    def test_gossip_windows_pass_at_n(self):
        s = gossip_schedule(random_weights(philox(5), 20))
        report = validate_schedule(s, horizon=200, window=20)
        assert report.passed
        assert report.windows_checked == 180

    def test_gossip_windows_fail_below_n(self):
        s = gossip_schedule(random_weights(philox(5), 20))
        report = validate_schedule(s, horizon=200, window=19)
        assert not report.connectivity_ok
        # One missing link breaks every window, not just an unlucky one.
        assert report.windows_checked == 181
        starts, count = failing_starts(report)
        assert count == len(starts) == 181

    def test_identity_schedule_fails_connectivity(self):
        s = with_weights([np.eye(4)], np.full(4, 0.25))
        report = validate_schedule(s, horizon=50)
        assert not report.passed
        starts, count = failing_starts(report)
        assert count == len(starts) == report.windows_checked

    def test_every_failing_window_reported(self):
        s = with_weights([np.eye(3)], np.full(3, 1 / 3))
        report = validate_schedule(s, horizon=5000, window=1)
        assert report.windows_checked == 4999
        starts, count = failing_starts(report)
        assert count == len(starts) == report.windows_checked
        assert "(+4994 more) of 4999" in report.summary()

    @pytest.mark.parametrize(
        "window, failures",
        [(1, [1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17, 19]), (2, [1, 4, 7, 10, 13, 16])],
    )
    def test_only_some_windows_fail(self, window, failures):
        # [cycle, I, I]: a start fails exactly when its window misses slot 0.
        s = matrix_list_schedule([CYCLE, np.eye(3), np.eye(3)])
        report = validate_schedule(s, horizon=20, window=window)
        assert report.windows_checked == 20 - window
        assert failing_starts(report) == (failures, len(failures))
        want, walked = validate_windows(s, 20, window)
        assert report == want and failing_starts(report)[0] == walked

    def test_long_horizon_costs_one_period(self):
        s = gossip_schedule(np.full(4, 0.25))
        tracemalloc.start()
        try:
            report = validate_schedule(s, horizon=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.windows_checked == 10**7 - 4
        assert peak < 2**20

    def test_failing_long_horizon_keeps_one_period(self):
        # Every start fails, yet only one residue is stored.
        s = with_weights([np.eye(3)], np.full(3, 1 / 3))
        t0 = time.perf_counter()
        report = validate_schedule(s, horizon=10**7)
        elapsed = time.perf_counter() - t0
        assert failing_starts(report, 5) == ([1, 2, 3, 4, 5], 9_999_999)
        assert "FAIL at window starts 1, 2, 3, 4, 5 (+9999994 more) of 9999999" in report.summary()
        assert elapsed < 0.5

    @pytest.mark.parametrize("window", [1, 2])
    def test_failures_repeat_past_the_first_period(self, window):
        # [cycle, I, I] at a horizon that is not a multiple of the period.
        s = matrix_list_schedule([CYCLE, np.eye(3), np.eye(3)])
        report = validate_schedule(s, horizon=1001, window=window)
        starts = failing_starts(report)[0]
        assert starts[-2:] == ([998, 1000] if window == 1 else [994, 997])
        want, walked = validate_windows(s, 1001, window)
        assert report == want and starts == walked

    def test_horizon_shorter_than_period(self):
        # Only the slots used by t = horizon are measured: the third slot
        # breaks r-stationarity but lies beyond horizon 2.
        skewed = np.array([[0.99, 0.01, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        s = with_weights([CYCLE, np.eye(3), skewed], np.full(3, 1 / 3))
        short = validate_schedule(s, horizon=2, window=1)
        assert short.stochasticity_ok and short.min_positive_entry == 0.5
        assert short.windows_checked == 1 and failing_starts(short) == ([1], 1)
        assert not validate_schedule(s, horizon=3, window=1).stochasticity_ok

    @pytest.mark.parametrize("horizon", [1, 3, 4])
    def test_horizon_within_one_window(self, horizon):
        s = gossip_schedule(np.full(4, 0.25))
        report = validate_schedule(s, horizon=horizon, window=4)
        assert report.windows_checked == 0 and failing_starts(report) == ([], 0)
        assert "no complete window inside horizon" in report.summary()
        assert report.passed

    def test_summary_mentions_overall(self):
        s = fixed_cycle_schedule(np.full(3, 1 / 3))
        text = validate_schedule(s, horizon=10).summary()
        assert "overall" in text and "PASS" in text


class TestMatrixListSchedule:
    def test_solves_stationary_weights(self):
        r = random_weights(philox(21), 6)
        s = matrix_list_schedule([cycle_slot(r)])
        np.testing.assert_allclose(s.r, r, atol=1e-9)
        assert s.B == 1

    def test_b_defaults_to_period(self):
        r = random_weights(philox(22), 4)
        mats = [gossip_slot(r, t) for t in range(1, 5)]
        s = matrix_list_schedule(mats)
        assert s.B == 4
        np.testing.assert_allclose(s.r, r, atol=1e-9)

    def test_rejects_nonstochastic_row(self):
        bad = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            matrix_list_schedule([bad])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_list_schedule([np.eye(3), np.eye(4)])

    def test_identity_family_gets_uniform_r(self):
        # Every vector is stationary for the identity; the solver settles on
        # the uniform one rather than guessing.
        s = matrix_list_schedule([np.eye(5)])
        np.testing.assert_allclose(s.r, np.full(5, 0.2))

    def test_stationary_weights_skip_the_unused_singular_vectors(self, monkeypatch):
        # 150 slots on 20 agents stack to 3000 x 20: a full SVD's U alone
        # would take 69 MiB.
        r = random_weights(philox(23), 20)
        mats = np.array([gossip_slot(r, t) for t in range(1, 151)])
        tracemalloc.start()
        try:
            got = stationary_weights(mats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, full_matrices: svd(a))
        assert got.tobytes() == stationary_weights(mats).tobytes()
        np.testing.assert_allclose(got, r, atol=1e-9)

    def test_stationary_weights_rejects_disagreeing_family(self):
        r1 = np.array([0.2, 0.3, 0.5])
        r2 = np.array([0.5, 0.3, 0.2])
        with pytest.raises(ValueError):
            stationary_weights([cycle_slot(r1), cycle_slot(r2)])


class TestMeasuredFacts:
    """A schedule's n, B, eta and links come from its matrices; none is an
    argument."""

    def test_init_takes_only_what_is_not_measured(self):
        assert [f.name for f in fields(MixingSchedule) if f.init] == ["kind", "r", "matrices"]

    @pytest.mark.parametrize("name", ["n", "eta", "B", "links"])
    def test_measured_fact_is_not_an_argument(self, name):
        s = fixed_cycle_schedule(np.full(3, 1 / 3))
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            MixingSchedule(kind=s.kind, r=s.r, matrices=s.matrices, **{name: 1})

    @pytest.mark.parametrize(
        "build, n, B",
        [
            (lambda: fixed_cycle_schedule(random_weights(philox(5), 20)), 20, family_window("fixed_cycle", 20)),
            (lambda: gossip_schedule(random_weights(philox(5), 20)), 20, family_window("gossip", 20)),
            # The slots.txt and gaps.txt files that tools/cli_outputs.py records.
            (lambda: matrix_list_schedule([CYCLE, CYCLE.T]), 3, 2),
            (lambda: matrix_list_schedule([CYCLE, np.eye(3), np.eye(3)]), 3, 3),
        ],
        ids=["fixed_cycle", "gossip", "slots", "gaps"],
    )
    def test_facts_match_the_matrices(self, build, n, B):
        s = build()
        assert type(s.n) is int and s.n == n
        assert type(s.B) is int and s.B == B == len(s.matrices)
        assert type(s.eta) is float and s.eta == entry_floor(s.matrices) == s.matrices[s.matrices > 0].min()

    def test_entry_floor_is_reported_not_checked(self):
        report = validate_schedule(matrix_list_schedule([CYCLE, np.eye(3)]), horizon=1)
        assert not hasattr(report, "eta") and not hasattr(report, "eta_ok")
        assert "  entry floor     min positive 0.5" in report.summary().splitlines()


class TestInputGuards:
    """One ValueError for each kind of bad input the API accepts."""

    @pytest.mark.parametrize("build", [fixed_cycle_schedule, gossip_schedule])
    def test_family_schedule_rejects_a_stack_of_weights(self, build):
        # A stack would otherwise give matrices with four dimensions.
        with pytest.raises(ValueError, match=r"takes one 1-D weight vector, got shape \(1, 3\)"):
            build([[1 / 3, 1 / 3, 1 / 3]])

    @pytest.mark.parametrize(
        "build",
        [lambda: gossip_schedule([0.5, 0.6, -0.1]), lambda: fixed_cycle_schedule([0.5, 0.5, 0.5])],
        ids=["negative entry", "sum above 1"],
    )
    def test_weights_must_be_positive_and_sum_to_one(self, build):
        with pytest.raises(ValueError, match="^weight vector must be positive and sum to 1$"):
            build()

    def test_entry_floor_needs_a_positive_entry(self):
        with pytest.raises(ValueError, match="^schedule has no positive entries$"):
            entry_floor(np.zeros((1, 2, 2)))

    def test_unknown_family_is_one_error(self):
        messages = set()
        for call in (lambda: family_window("ring", 4), lambda: family_matrices("ring", [[0.2, 0.3, 0.5]])):
            with pytest.raises(ValueError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"unknown schedule family 'ring'"}

    @pytest.mark.parametrize(
        "matrices, message", [([], "need at least one matrix")], ids=["no matrices"]
    )
    def test_matrix_list_rejects(self, matrices, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matrix_list_schedule(matrices)


class TestParseMatrixFile:
    def test_blocks_and_comments(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text(
            "# a two-slot schedule\n"
            "0.5, 0.5\n"
            "0.5, 0.5\n"
            "\n"
            "1, 0\n"
            "0, 1\n"
        )
        blocks = parse_matrix_file(path)
        assert len(blocks) == 2
        np.testing.assert_allclose(blocks[0], np.full((2, 2), 0.5))
        np.testing.assert_allclose(blocks[1], np.eye(2))

    def test_bad_token_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5, x\n0.5, 0.5\n")
        with pytest.raises(ValueError, match=":1:"):
            parse_matrix_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no matrix blocks"):
            parse_matrix_file(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("0.5, 0.5\n1\n")
        with pytest.raises(ValueError, match=r"ragged\.txt:2: row has 1 entries, block has 2"):
            parse_matrix_file(path)

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("0.5, 0.5\n")
        with pytest.raises(ValueError, match="not square"):
            parse_matrix_file(path)


def test_matrix_list_links_read_support():
    W = np.array([[0.7, 0.3], [0.0, 1.0]])
    s = with_weights([W], [0.5, 0.5])
    assert s.links.tolist() == [[[True, True], [False, True]]]


def test_gossip_activation_edges_drive_connectivity():
    # The declared certificate is one directed link per iteration; the matrix
    # support would also accept window n-1 because each exchange is mutual.
    s = gossip_schedule(np.full(4, 0.25))
    assert gossip_pair(4, 1) == (1, 2)
    assert np.argwhere(s.links[0]).tolist() == [[2, 1]]  # agent 1 reaches agent 2
    assert s.links.sum() == 4 and not (s.links & ~(s.matrices > 0)).any()
    support_only = with_weights(s.matrices, s.r)
    assert np.array_equal(support_only.links, s.matrices > 0)
    declared = validate_schedule(s, horizon=40, window=3)
    support = validate_schedule(support_only, horizon=40, window=3)
    assert not declared.connectivity_ok and declared.edge_source == "declared activation links"
    assert support.connectivity_ok and support.edge_source == "matrix support"


class TestValidateAgainstOracle:
    """``validate_schedule`` decides one closure per residue mod the period;
    the oracle pools and walks every window start separately."""

    @staticmethod
    def assert_same(schedule, window):
        reach = schedule.B + (schedule.B if window is None else window)
        for horizon in (1, reach - 1, reach, reach + 1, 3 * reach + 2):
            got = validate_schedule(schedule, horizon, window)
            want, walked = validate_windows(schedule, horizon, window)
            assert got == want  # every field, floats exactly
            assert failing_starts(got)[0] == walked
            assert got.summary() == want.summary()

    def test_random_sparse_matrix_lists(self):
        rng = philox(41)
        for _ in range(400):
            n, period = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            mask = rng.random((period, n, n)) < rng.uniform(0.05, 0.5)
            mask[:, np.arange(n), rng.integers(0, n, n)] = True  # no empty row
            W = mask * rng.uniform(0.1, 1.0, mask.shape)
            s = with_weights(W / W.sum(axis=2, keepdims=True), np.full(n, 1 / n))
            for window in (None, 1, 2, period + 1):
                self.assert_same(s, window)

    def test_random_sparse_gossip_kind(self):
        # Built directly, a gossip schedule keeps a slot's declared pair only
        # where the slot's matrix has it.
        rng = philox(43)
        for _ in range(100):
            n, period = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            mask = rng.random((period, n, n)) < rng.uniform(0.3, 0.9)
            mask[:, np.arange(n), np.arange(n)] = True
            W = mask * rng.uniform(0.1, 1.0, mask.shape)
            s = MixingSchedule(kind="gossip", r=np.full(n, 1 / n), matrices=W / W.sum(axis=2, keepdims=True))
            assert s.links.sum() <= period and not (s.links & ~mask).any()
            for window in (None, 1, period + 1, n + 1):
                self.assert_same(s, window)

    @pytest.mark.parametrize("kind", ["fixed_cycle", "gossip"])
    @pytest.mark.parametrize("n", [3, 4, 5, 20])
    def test_families(self, kind, n):
        s = (fixed_cycle_schedule if kind == "fixed_cycle" else gossip_schedule)(
            random_weights(philox(n), n)
        )
        for window in (None, 1, n - 1, n, 2 * n + 1):
            self.assert_same(s, window)

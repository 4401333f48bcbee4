"""The benchmark's own tests: tiny-size smoke runs of every workload and the
output checks catching a corrupted result.

    python3 -m pytest -q perfbench
"""

import json
import sys

import pytest

import run
from tracing import Tracer
from workloads import COLUMNS, WORKLOADS, Outcome, _mean_problems, check_command, compare_reference

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import dimix.analysis  # noqa: E402
import dimix.cli  # noqa: E402
import dimix.dynamics  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric(name, trace):
    result = run.measure(name, seed=3, seconds=0, trace=trace, size=WORKLOADS[name].tiny, reference={})
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        rows = result["metrics"]["noise.quantize.rows_per_iter"]["value"]
        assert (rows == 0) == (name == "sweep_gauss_gossip")
        assert result["metrics"]["trace.absent_wraps"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _tiny_run(tmp_path):
    wl = WORKLOADS["run_quant_cycle"]
    config = tmp_path / "tiny.cfg"
    config.write_text(wl.config_text(5, wl.tiny))
    out = tmp_path / "out"
    code = dimix.cli.main(["run", "--config", str(config), "--out", str(out)])
    return wl.tiny, code, out


def test_perturbed_mean_csv_is_counted_as_failed(tmp_path):
    size, code, out = _tiny_run(tmp_path)
    clean = check_command("run", code, out, "", size)
    assert (clean.attempted, clean.failed) == (size.runs + 1, 0), clean.problems

    path = out / "mean.csv"
    lines = path.read_text().splitlines()
    cells = lines[10].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))  # loss_pooled_mean at t=10
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")

    tally = Outcome()
    tally.add(check_command("run", code, out, "", size))
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    assert any("mean.csv loss_pooled_mean" in p for p in tally.problems)


def test_mean_check_accepts_any_summation_order_on_identical_traces():
    # Rows where every seed has the same value (X(1) = 0 and X(2) on the
    # quantized workloads): the stderr is 0 in one summation order and a
    # few ulps in another; both are a correct mean.csv.
    values = np.array([0.1, 0.7, 1e5, 0.0, 3.3])
    traces = [{c: values.copy() for c in COLUMNS} for _ in range(4)]
    stacked = np.stack([values] * 4)
    pairwise = stacked.mean(axis=0)
    sequential = ((stacked[0] + stacked[1]) + stacked[2] + stacked[3]) / 4
    artifact = np.abs(sequential - pairwise) + np.spacing(values) / 2
    for mean_col, se_col in ((pairwise, np.zeros(5)), (sequential, artifact)):
        mean = {}
        for c in COLUMNS:
            mean[f"{c}_mean"], mean[f"{c}_stderr"] = mean_col, se_col
        assert _mean_problems(mean, traces) == []
    mean[f"{COLUMNS[0]}_stderr"] = se_col + 1e-9 * values
    assert len(_mean_problems(mean, traces)) == 1


def test_aborted_seed_fails_that_seed(tmp_path):
    size, code, out = _tiny_run(tmp_path)
    path = out / "run_01.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-5]) + "\n")
    outcome = check_command("run", code, out, "", size)
    assert outcome.failed >= 1 and any("run_01.csv" in p for p in outcome.problems)


def test_reference_catches_a_changed_stream():
    ref = json.loads(run.REFERENCE.read_text())["workloads"]
    for name, wl in WORKLOADS.items():
        stored = ref[name]
        assert (stored["runs"], stored["T"]) == (wl.size.runs, wl.size.T)
        finals = list(stored["finals"])
        assert compare_reference(finals, stored, wl.size) == []
        reassociated = [v * (1 + 1e-14) for v in finals]
        assert compare_reference(reassociated, stored, wl.size) == []
        finals[-1] *= 1.01
        assert compare_reference(finals, stored, wl.size)


def test_missing_wrap_target_is_absent_not_an_error(monkeypatch):
    import tracing

    original = dimix.dynamics.stochastic_quantize
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("dimix.dynamics", "no_such_phase", "x", {}),)
    )
    tracer = Tracer()
    tracer.install()
    try:
        assert dimix.dynamics.stochastic_quantize is not original
    finally:
        tracer.uninstall()
    assert dimix.dynamics.stochastic_quantize is original
    assert tracer.absent == ["dimix.dynamics.no_such_phase"]


def test_step_spans_count_only_inside_the_engine():
    steps = dimix.analysis.StepSchedule(alpha0=0.1, nu=0.25, beta0=0.7, mu=0.75)
    tracer = Tracer()
    tracer.install()
    try:
        steps.beta(3)  # as the lemma suite or the certificate calls it
        tracer.wrap("dynamics.run", lambda: steps.alpha(3) * steps.beta(3), {})()
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    assert spans["analysis.steps"]["calls"] == 2 and spans["dynamics.run"]["calls"] == 1

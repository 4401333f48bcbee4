import hashlib
import importlib.util
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dimix.analysis
import dimix.cli
from dimix.analysis import thresholds, xi_constants
from dimix.cli import main
from dimix.dynamics import TRACE_COLUMNS, monte_carlo
from dimix.reporting import (
    Config,
    SCHEMA,
    fmt,
    format_config,
    parse_config_text,
    svg_loglog,
    write_csv,
    write_manifest,
)

from helpers import col


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by its path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read one of the package's CSV files back into named float arrays."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    names = lines[0].split(",")
    data = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


SMALL_CONFIG = """
family = fixed_cycle
n = 4
d = 6
N = 24
seed = 3
noise = stochastic_quantizer
quantizer_levels = 4
T = 40
runs = 2
T_grid = 10, 20, 40
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return str(path)


class TestConfigParsing:
    def test_defaults(self):
        cfg = parse_config_text("")
        assert cfg["family"] == "fixed_cycle"
        assert cfg["n"] == 20
        assert cfg["T"] == 5000
        assert cfg["T_grid"] == (500, 1000, 2000, 4000, 5000)
        assert not cfg.was_set("n")

    def test_was_set_tracks_explicit_keys(self):
        cfg = parse_config_text("n = 20\n")
        assert cfg.was_set("n")
        assert not cfg.was_set("d")
        assert cfg["n"] == 20

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# header\n\n  T = 12  # trailing\n")
        assert cfg["T"] == 12

    def test_unknown_key_reports_line(self):
        with pytest.raises(ValueError, match=r"mystery \(line 3\)"):
            parse_config_text("n = 4\n\nmystery = 1\n")

    def test_key_set_twice_names_both_lines(self):
        with pytest.raises(ValueError, match=r"<config>:4: T is set twice, on lines 1 and 4"):
            parse_config_text("T = 20\nn = 4\n# T = 25\nT = 30\n")

    def test_bad_value_reports_location(self):
        with pytest.raises(ValueError, match=r"<config>:1: bad value for n"):
            parse_config_text("n = soon\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="expected 'key = value'"):
            parse_config_text("just words\n")

    def test_bad_choice_rejected(self):
        with pytest.raises(ValueError, match="one of"):
            parse_config_text("family = ring\n")

    def test_derived_namespace_ignored(self):
        cfg = parse_config_text("n = 5\nderived.lambda = 0.25\n")
        assert cfg["n"] == 5

    def test_int_list_parsing(self):
        assert parse_config_text("T_grid = 7\n")["T_grid"] == (7,)
        assert parse_config_text("T_grid = 7,,9,\n")["T_grid"] == (7, 9)
        with pytest.raises(ValueError, match="empty list"):
            parse_config_text("T_grid = ,\n")

    def test_round_trip_through_format(self):
        src = parse_config_text("alpha0 = 0.1\nbeta0 = 0.69999999999999996\nn = 7\n")
        again = parse_config_text(format_config(src.values))
        assert again.values == src.values


class TestFormatting:
    def test_float_tokens_round_trip_exactly(self):
        for x in (0.1, 1 / 3, 2.0 ** -40, 6.228998585, np.pi):
            assert float(fmt(x)) == x

    def test_list_and_int_tokens(self):
        assert fmt((500, 1000)) == "500,1000"
        assert fmt(3) == "3"
        assert fmt("gossip") == "gossip"

    def test_manifest_parses_as_config(self, tmp_path):
        values = {key: default for key, (_, default) in SCHEMA.items()}
        values["alpha0"] = 1 / 3
        path = tmp_path / "manifest.txt"
        write_manifest(path, values, {"lambda": 1e-7, "run_seeds": [3, 4]})
        text = path.read_text()
        assert "derived.lambda = " in text
        cfg = parse_config_text(text)
        assert cfg["alpha0"] == 1 / 3


    def test_plot_with_no_positive_point_rejected(self, tmp_path):
        path = tmp_path / "empty.svg"
        series = {"zero": ([1, 2, 3], [0.0, 0.0, 0.0]), "bad t": ([0, -1], [1.0, 2.0])}
        with pytest.raises(ValueError, match="nothing positive to plot"):
            svg_loglog(path, series, title="none", ylabel="y")
        assert not path.exists()

    @pytest.mark.parametrize(
        "series, title, ylabel, xlabel, digest",
        [
            # One y value: that axis widens to [0.5, 2] around its 1e0 tick.
            (
                {"flat": ([1, 10, 100, 1000], [1.0, 1.0, 1.0, 1.0])},
                "constant", "y", "t",
                "f60a6cbe6b09fabd76cbf07d5d65c7a84ec1aeb517879892dabb5036742f4384",
            ),
            # Five decades on each axis; the 0.0 of "gap" is dropped.
            (
                {
                    "loss": ([1, 3, 10, 30, 100, 300, 1000], [2.0, 0.9, 0.31, 0.07, 0.02, 4e-3, 1e-4]),
                    "gap": ([1, 10, 100, 1000, 10000], [50.0, 0.0, 1.5, 0.03, 6e-5]),
                },
                "two series", "error", "T",
                "604a435e4c732b9050c13cf5a6f0895aa34e41e5bf69524719f9f010d36e9385",
            ),
        ],
        ids=["constant", "decades"],
    )
    def test_plot_bytes_are_pinned(self, tmp_path, series, title, ylabel, xlabel, digest):
        path = tmp_path / "plot.svg"
        svg_loglog(path, series, title=title, ylabel=ylabel, xlabel=xlabel)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestCsvRoundTrip:
    def test_trace_csv_exact(self, tmp_path):
        from dimix.dynamics import run
        from test_dynamics import simple_config

        trace = run(simple_config(T=9), [4])[0]
        path = tmp_path / "trace.csv"
        write_csv(path, ("t", *TRACE_COLUMNS), trace.t, trace.values)
        assert path.read_text().splitlines()[0] == (
            "t,loss_pooled,loss_weighted,deviation_sq,dist_opt_sq"
        )
        cols = read_csv_columns(path)
        np.testing.assert_array_equal(cols["t"], trace.t.astype(float))
        np.testing.assert_array_equal(cols["dist_opt_sq"], col(trace.values, "dist_opt_sq"))
        np.testing.assert_array_equal(cols["loss_weighted"], col(trace.values, "loss_weighted"))


class TestRunCommand:
    def test_writes_traces_mean_manifest(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        rc = main(["run", "--config", config_file, "--out", str(out)])
        assert rc == 0
        for name in ("run_00.csv", "run_01.csv", "mean.csv", "manifest.txt"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "final mean dist_opt_sq" in stdout
        assert "2 completed, 0 aborted" in stdout
        mean = read_csv_columns(out / "mean.csv")
        assert mean["t"].size == 40
        r0 = read_csv_columns(out / "run_00.csv")
        r1 = read_csv_columns(out / "run_01.csv")
        np.testing.assert_allclose(
            mean["dist_opt_sq_mean"],
            (r0["dist_opt_sq"] + r1["dist_opt_sq"]) / 2,
            rtol=1e-12,
        )

    def test_plots_written(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = main(["run", "--config", config_file, "--out", str(out), "--plots"])
        assert rc == 0
        for name in ("loss.svg", "deviation.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg"), name
        assert "loss_pooled" in (out / "loss.svg").read_text()

    def test_one_agent_plots_skip_deviation(self, tmp_path, capsys):
        # One agent has no consensus error: deviation_sq is 0 throughout, so
        # the log-log deviation plot has no point and is skipped with a note.
        (tmp_path / "one.txt").write_text("1\n")
        cfg = tmp_path / "cfg"
        cfg.write_text(
            f"family = matrix_file\nmatrix_file = {tmp_path / 'one.txt'}\nd = 3\nN = 5\n"
            "T = 20\nruns = 2\nT_grid = 10, 20\n"
        )
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--plots"])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert captured.out.startswith("note: deviation_sq is 0 at every iteration; no deviation.svg\n")
        assert (out / "loss.svg").read_text().startswith("<svg")
        assert not (out / "deviation.svg").exists()

    def test_aborted_runs_are_warned_about(self, tmp_path, capsys):
        # A one-level quantizer and large gradient steps: 11 of 12 seeds abort.
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "family = fixed_cycle\nn = 3\nd = 2\nN = 12\nnoise = stochastic_quantizer\n"
            "quantizer_levels = 1\nalpha0 = 25\nnu = 0.05\nbeta0 = 1.0\nmu = 0.5\n"
            "T = 40\nruns = 12\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("runs=1 completed, 11 aborted")
        assert lines[1] == "warning: aborted runs are excluded from mean.csv"

    def test_seed_override_changes_run_seeds(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_file, "--out", str(out1)])
        main(["run", "--config", config_file, "--out", str(out2), "--seed", "77"])
        m1 = (out1 / "manifest.txt").read_text()
        m2 = (out2 / "manifest.txt").read_text()
        assert "derived.run_seeds = 3,4" in m1
        assert "derived.run_seeds = 77,78" in m2

    def test_jobs_flag_gives_identical_output(self, tmp_path, config_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", config_file, "--out", str(out1)])
        main(["run", "--config", config_file, "--out", str(out2), "--jobs", "2"])
        assert (out1 / "mean.csv").read_text() == (out2 / "mean.csv").read_text()


class TestOutDirPrecedence:
    def test_flag_beats_config_and_env(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DIMIX_OUT", str(tmp_path / "env"))
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_CONFIG + f"output_dir = {tmp_path / 'conf'}\n")
        main(["run", "--config", str(cfg), "--out", str(tmp_path / "flag")])
        assert (tmp_path / "flag" / "mean.csv").exists()
        assert not (tmp_path / "conf").exists()
        assert not (tmp_path / "env").exists()

    def test_config_beats_env(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DIMIX_OUT", str(tmp_path / "env"))
        cfg = tmp_path / "cfg"
        cfg.write_text(SMALL_CONFIG + f"output_dir = {tmp_path / 'conf'}\n")
        main(["run", "--config", str(cfg)])
        assert (tmp_path / "conf" / "mean.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_env_beats_default(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DIMIX_OUT", str(tmp_path / "env"))
        main(["run", "--config", config_file])
        assert (tmp_path / "env" / "mean.csv").exists()
        assert not (tmp_path / "dimix-out").exists()

    def test_default_directory(self, tmp_path, config_file, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DIMIX_OUT", raising=False)
        main(["run", "--config", config_file])
        assert (tmp_path / "dimix-out" / "mean.csv").exists()


class TestValidateCommand:
    def test_passing_schedule(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("family = gossip\nn = 5\nhorizon = 100\nwindow = 5\n")
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 0
        assert re.search(r"overall\s+PASS", capsys.readouterr().out)

    def test_disconnected_schedule_fails(self, tmp_path, capsys):
        mat = tmp_path / "identity.txt"
        mat.write_text("1.0, 0.0\n0.0, 1.0\n")
        cfg = tmp_path / "cfg"
        cfg.write_text(
            f"family = matrix_file\nmatrix_file = {mat}\nhorizon = 20\nwindow = 4\n"
        )
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 1
        assert re.search(r"overall\s+FAIL", capsys.readouterr().out)

    def test_matrix_file_agent_conflict(self, tmp_path, capsys):
        mat = tmp_path / "identity.txt"
        mat.write_text("1.0, 0.0\n0.0, 1.0\n")
        cfg = tmp_path / "cfg"
        cfg.write_text(f"family = matrix_file\nmatrix_file = {mat}\nn = 3\n")
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestTheoryCommand:
    THEORY_CONFIG = """
family = gossip
n = 4
seed = 3
noise = stochastic_quantizer
quantizer_levels = 4
alpha0 = 0.25
nu = 0.05
beta0 = 0.8
mu = 0.1
T = 2200
runs = 2
T_grid = 500, 2200
"""

    def test_measured_q0_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG)
        rc = main(["theory", "--config", str(cfg)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "measured over 2 runs" in out
        assert "lambda = " in out
        assert "T0 = " in out
        assert "xi1 = " in out
        assert "regime: mu + nu < 1" in out
        assert "certified bound" in out

    def test_q0_measured_at_burn_in_off_the_grid(self, tmp_path, capsys):
        # T0 is not on T_grid, so theory records it on top of the grid rows.
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG)
        assert main(["theory", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        T0 = int(re.search(r"T0 = (\d+)", out).group(1))
        assert T0 not in (500, 2200)
        _, rc = dimix.cli.build_experiment(dimix.cli.parse_config(str(cfg)))
        full = monte_carlo(rc, 2, seed=3)
        assert f"q0 = {fmt(full.q0_estimate(T0))} (measured over 2 runs)" in out
        for T in (500, 2200):
            assert f", {fmt(float(full.mean[T - 1, TRACE_COLUMNS.index('dist_opt_sq')]))}, " in out

    def test_burn_in_beyond_horizon_needs_assumption(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG.replace("T = 2200", "T = 60"))
        rc = main(["theory", "--config", str(cfg)])
        assert rc == 2
        assert "--assume-q0" in capsys.readouterr().err

    def test_assumed_q0_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG.replace("T = 2200", "T = 60"))
        rc = main(["theory", "--config", str(cfg), "--assume-q0", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "assumed (--assume-q0)" in out
        assert "below burn-in, not covered" in out


    def test_regime1_certificate_at_n20_does_not_overflow(self, tmp_path, capsys):
        # n = 20 gossip puts lambda near 1e-7 and T0 near 1e7, where
        # xi2 = 2 exp(xi3 T0^(1-mu-nu)) q0 is beyond the float range.
        cfg = tmp_path / "cfg"
        cfg.write_text(
            self.THEORY_CONFIG.replace("n = 4", "n = 20")
            .replace("T = 2200", "T = 60")
            .replace("T_grid = 500, 2200", "T_grid = 30, 60")
        )
        rc = main(["theory", "--config", str(cfg), "--assume-q0", "1"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        assert "xi2 = inf" in captured.out
        # The bound overflows on every row; each one gives its log10.
        rows = captured.out.split("bound/empirical\n")[1].splitlines()
        assert len(rows) == 2
        for row in rows:
            assert row.split(", ")[1] == "inf"
            log10 = re.search(r"; log10 bound = (\S+)\)$", row)
            assert log10 and math.isfinite(float(log10.group(1)))


    def test_zero_q0_below_burn_in_prints_no_nan(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(
            self.THEORY_CONFIG.replace("n = 4", "n = 20")
            .replace("T = 2200", "T = 60")
            .replace("T_grid = 500, 2200", "T_grid = 30, 60, 200")
        )
        rc = main(["theory", "--config", str(cfg), "--assume-q0", "0"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = captured.out.split("bound/empirical\n")[1].splitlines()
        assert len(rows) == 3
        assert "nan" not in captured.out

    def test_uncertified_steps_are_warned_about(self, tmp_path, capsys):
        # mu + nu = 1 and alpha0 beta0 = 0.07, far below min(mu - nu, 2 nu)/c2.
        cfg = tmp_path / "cfg"
        cfg.write_text("family = gossip\nn = 4\nalpha0 = 0.1\nT = 20\nruns = 2\nT_grid = 10, 20\n")
        assert main(["theory", "--config", str(cfg), "--assume-q0", "1"]) == 0
        assert (
            f"WARNING: alpha0*beta0 = {fmt(0.1 * 0.7)} is below the certification threshold "
            "24.004013696643955; the bound below is reported but not certified for these steps\n"
        ) in capsys.readouterr().out

    def test_grid_is_read_ascending_once_each(self, tmp_path, capsys):
        # theory and sweep read the same grid: 10 then 30, 10 once.
        cfg = tmp_path / "cfg"
        cfg.write_text("family = fixed_cycle\nn = 3\nd = 2\nN = 12\nT = 30\nruns = 2\nT_grid = 30, 10, 10\n")
        assert main(["theory", "--config", str(cfg), "--assume-q0", "1"]) == 0
        rows = capsys.readouterr().out.split("bound/empirical\n")[1].splitlines()
        assert [row.split(", ")[0] for row in rows] == ["10", "30"]
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "horizon grid: 10, 30\n" in capsys.readouterr().out

    def test_schedule_failing_the_mixing_assumptions_is_not_certified(self, tmp_path, capsys):
        # The 3x3 identity connects no window: validate fails, and every
        # theory row is marked, the one past the horizon too.
        mat = tmp_path / "eye3.txt"
        mat.write_text("1, 0, 0\n0, 1, 0\n0, 0, 1\n")
        cfg = tmp_path / "cfg"
        cfg.write_text(
            f"family = matrix_file\nmatrix_file = {mat}\nd = 2\nN = 6\nT = 2000\nruns = 2\n"
            "T_grid = 2000, 100000000\nalpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n"
        )
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "connectivity    FAIL" in capsys.readouterr().out
        assert main(["theory", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert (
            "WARNING: the schedule fails the mixing assumptions (connectivity) at window B = 1; "
            "no bound below is certified (see dimix validate)\n"
        ) in out
        rows = out.split("bound/empirical\n")[1].splitlines()
        assert [row.split(", ")[0] for row in rows] == ["2000", "100000000"]
        for row in rows:
            assert row.endswith("  (mixing assumptions fail, not covered)")

    def test_schedule_meeting_the_mixing_assumptions_is_not_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG.replace("T = 2200", "T = 60"))
        assert main(["theory", "--config", str(cfg), "--assume-q0", "0.5"]) == 0
        assert "mixing assumptions" not in capsys.readouterr().out

    @pytest.mark.parametrize("q0", ["nan", "inf"])
    def test_non_finite_assumed_q0_rejected(self, tmp_path, capsys, q0):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.THEORY_CONFIG.replace("T = 2200", "T = 60"))
        rc = main(["theory", "--config", str(cfg), "--assume-q0", q0])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: gamma, K, q0 must be finite")
        assert err.count("\n") == 1


def _manifest_note(out: Path) -> str | None:
    """derived.theory_note of the manifest in ``out``, None when absent."""
    for line in (out / "manifest.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        if key == "derived.theory_note":
            return value
    return None


def _row_notes(out: str) -> dict[int, list[str]]:
    """Each theory table row's coverage reasons, its log10 note left out."""
    notes = {}
    for row in out.split("bound/empirical\n")[1].splitlines():
        found = re.search(r"  \((.*)\)$", row)
        parts = found.group(1).split("; ") if found else []
        notes[int(row.split(", ")[0])] = [p for p in parts if not p.startswith("log10 bound")]
    return notes


# The coverage reasons, as theory's rows and the manifests print them.
MIXING_FAILS = "mixing assumptions fail, not covered"
SIDE_FAILS = "mu + nu = 1 side condition fails, not covered"
BELOW_BURN_IN = "below burn-in, not covered"


class TestCoverageVerdict:
    """``certificate`` decides coverage once; theory's rows and the run
    manifest repeat its reasons word for word."""

    EYE3 = (
        "family = matrix_file\nmatrix_file = {mat}\nd = 2\nN = 6\nT = 200\nruns = 2\n"
        "T_grid = 100, 200, 100000000\nalpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n"
    )
    # The Section-3 steps (mu + nu = 1) with alpha0*beta0 = 0.07, below the
    # side threshold.
    SECTION3_CYCLE = (
        "family = fixed_cycle\nn = 5\nd = 4\nN = 20\nT = 40\nruns = 2\nT_grid = 20, 40\n"
        "alpha0 = 0.1\nnu = 0.25\nbeta0 = 0.7\nmu = 0.75\n"
    )
    # The tiny criterion-8 config: T0 = 1025 inside T = 1030, row 500 below burn-in.
    CRITERION8_TINY = (
        "family = gossip\nn = 4\nd = 25\nN = 100\nnoise = stochastic_quantizer\n"
        "quantizer_levels = 4\nalpha0 = 0.25\nnu = 0.05\nbeta0 = 0.8\nmu = 0.1\n"
        "p_low = 0.05\np_high = 0.05\nT = 1030\nruns = 2\nT_grid = 500, 1030\n"
    )

    def write(self, tmp_path, text):
        mat = tmp_path / "eye3.txt"
        mat.write_text("1, 0, 0\n0, 1, 0\n0, 0, 1\n")
        cfg = tmp_path / "cfg"
        cfg.write_text(text.format(mat=mat))
        return cfg

    def test_run_manifest_names_the_connectivity_failure(self, tmp_path, capsys):
        cfg = self.write(tmp_path, self.EYE3)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert _manifest_note(tmp_path / "out") == MIXING_FAILS
        c = dimix.cli.certificate(dimix.cli.build_experiment(dimix.cli.parse_config(str(cfg)))[1])
        assert c.mixing_failed == ("connectivity",)

    def test_side_condition_is_named_on_every_row_and_in_the_manifest(self, tmp_path, capsys):
        cfg = self.write(tmp_path, self.SECTION3_CYCLE)
        assert main(["theory", "--config", str(cfg), "--assume-q0", "1"]) == 0
        out = capsys.readouterr().out
        assert f"WARNING: alpha0*beta0 = {fmt(0.1 * 0.7)} is below the certification threshold" in out
        rows = out.split("bound/empirical\n")[1].splitlines()
        assert len(rows) == 2
        for row in rows:
            assert SIDE_FAILS in row
        for command in ("run", "sweep"):
            dest = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(dest)]) == 0
            assert SIDE_FAILS in _manifest_note(dest).split("; ")

    @pytest.mark.parametrize(
        "text, reason",
        [
            (EYE3, MIXING_FAILS),
            (SECTION3_CYCLE, SIDE_FAILS),
            (CRITERION8_TINY, BELOW_BURN_IN),
        ],
        ids=["eye3", "section3_cycle", "criterion8_tiny"],
    )
    def test_theory_manifest_and_certificate_agree(self, tmp_path, capsys, text, reason):
        cfg = self.write(tmp_path, text)
        _, rc = dimix.cli.build_experiment(dimix.cli.parse_config(str(cfg)))
        c = dimix.cli.certificate(rc)
        assert main(["theory", "--config", str(cfg), "--assume-q0", "1"]) == 0
        rows = _row_notes(capsys.readouterr().out)
        assert rows == {T: c.not_covered(T) for T in rows}
        assert any(reason in notes for notes in rows.values())  # the case's own reason shows
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert _manifest_note(tmp_path / "out") == ("; ".join(c.not_covered(rc.T)) or None)

    def certify(self, tmp_path, text, T_grid, assume_q0=None):
        values, rc = dimix.cli.build_experiment(dimix.cli.parse_config(str(self.write(tmp_path, text))))
        return rc, dimix.cli.certify(rc, values["runs"], values["seed"], 1, T_grid, assume_q0)

    def test_certify_measures_q0_at_T0_and_records_only_what_it_reads(self, tmp_path, capsys):
        rc, c = self.certify(tmp_path, self.CRITERION8_TINY, [500, 1030])
        mc, problem = c.mc, rc.problem
        assert c.th.T0 == 1025 and mc.t.tolist() == [500, 1025, 1030]
        mu_f, L_f = problem.strong_convexity, problem.smoothness
        th = thresholds(rc.steps, c.lam, mu_f, L_f)
        assert c.th == th and c.constants == xi_constants(
            rc.steps, th, c.lam, c.kappa, mu_f, L_f, mc.gamma, mc.K, mc.q0_estimate(1025)
        )
        # A measured q0 wins over an assumed one.
        assert main(["theory", "--config", str(tmp_path / "cfg"), "--assume-q0", "1"]) == 0
        assert f"q0 = {fmt(c.constants.q0)} (measured over 2 runs)" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["theory", "run", "sweep"])
    def test_thresholds_are_computed_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        # The certify_gossip_n4 benchmark config; every constant reuses the
        # certificate's thresholds.
        workload = perfbench_module("workloads").WORKLOADS["certify_gossip_n4"]
        cfg = self.write(tmp_path, workload.config_text(0, workload.size))
        calls, real = [], dimix.analysis.thresholds

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dimix.cli, "thresholds", counted)
        monkeypatch.setattr(dimix.analysis, "thresholds", counted)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    def test_certify_takes_the_assumed_q0_when_T0_is_past_the_horizon(self, tmp_path):
        rc, c = self.certify(tmp_path, self.SECTION3_CYCLE, [20, 40, 80], assume_q0=1.0)
        assert c.th.T0 > rc.T == 40
        assert c.mc.t.tolist() == [20, 40]
        assert c.constants.q0 == 1.0
        assert c.row(80)[1] is None and c.row(40)[1] == c.mc.mean[1, TRACE_COLUMNS.index("dist_opt_sq")]


class TestLemmasCommand:
    def test_passes_and_prints_summary(self, capsys):
        rc = main(["lemmas"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "step sum telescope" in out

    def test_seed_flag_accepted(self, capsys):
        assert main(["lemmas", "--seed", "5"]) == 0

    def test_config_seed_is_the_suite_seed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed = 5\n")
        assert main(["lemmas", "--seed", "5"]) == 0
        by_flag = capsys.readouterr().out
        assert main(["lemmas", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == by_flag
        assert main(["lemmas"]) == 0
        assert capsys.readouterr().out != by_flag


class TestSweepCommand:
    def test_sweep_outputs_and_fit(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        rc = main(["sweep", "--config", config_file, "--out", str(out), "--plots"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "horizon grid: 10, 20, 40" in stdout
        assert "log-log rate: slope" in stdout
        cols = read_csv_columns(out / "sweep.csv")
        assert cols["T"].tolist() == [10.0, 20.0, 40.0]
        assert (out / "sweep.svg").read_text().startswith("<svg")
        assert (out / "manifest.txt").exists()

    def test_sweep_matches_run_at_shared_iterations(self, tmp_path, config_file):
        out_r, out_s = tmp_path / "r", tmp_path / "s"
        main(["run", "--config", config_file, "--out", str(out_r)])
        main(["sweep", "--config", config_file, "--out", str(out_s)])
        mean = read_csv_columns(out_r / "mean.csv")
        sweep = read_csv_columns(out_s / "sweep.csv")
        for T_idx, T in enumerate((10, 20, 40)):
            assert sweep["dist_opt_sq_mean"][T_idx] == mean["dist_opt_sq_mean"][T - 1]


class TestErrorPaths:
    @pytest.mark.parametrize("command, jobs", [("run", "-5"), ("sweep", "0"), ("theory", "0")])
    def test_jobs_below_one_rejected(self, config_file, tmp_path, capsys, command, jobs):
        out = tmp_path / "out"
        rc = main([command, "--config", config_file, "--out", str(out), "--jobs", jobs])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["validate", "lemmas"])
    def test_jobs_rejected_where_no_worker_runs(self, config_file, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", config_file, "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("volume = 11\n")
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_matrix_file_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("family = matrix_file\n")
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 2
        assert "matrix_file" in capsys.readouterr().err

    # mu = 0.99 puts T1 near 10^707.7 on the default n = 20 gossip network.
    OVERFLOW_CONFIG = "family = gossip\nmu = 0.99\nnu = 0.01\nT = 20\nruns = 2\nT_grid = 10, 20\n"
    OVERFLOW_NOTE = "burn-in threshold T1 = 1.193e+07^100, about 10^707.7 iterations"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_of_range_burn_in_is_noted(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.OVERFLOW_CONFIG)
        out = tmp_path / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        manifest = (out / "manifest.txt").read_text()
        assert f"derived.theory_note = {self.OVERFLOW_NOTE}" in manifest

    @pytest.mark.parametrize("case", ["no thresholds", "c2 alpha0 beta0 above 1"])
    def test_a_note_is_not_covered_in_the_manifest(self, tmp_path, capsys, case):
        cfg = tmp_path / "cfg"
        if case == "no thresholds":
            cfg.write_text(self.OVERFLOW_CONFIG)
        else:  # stopped before alpha0 = 100 diverges
            text = TestTheoryCommand.THEORY_CONFIG.replace("T = 2200", "T = 5")
            cfg.write_text(text.replace("alpha0 = 0.25", "alpha0 = 100"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert _manifest_note(tmp_path / "out").endswith(", not covered")

    def test_out_of_range_burn_in_fails_theory(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(self.OVERFLOW_CONFIG)
        rc = main(["theory", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {self.OVERFLOW_NOTE}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "case",
        [
            "no thresholds",
            "burn-in beyond T",
            "T_grid below 1",
            "negative assumed q0",
            "c2 alpha0 beta0 above 1",
            "xi5 overflow",
        ],
    )
    def test_theory_fails_before_simulating(self, tmp_path, capsys, monkeypatch, case):
        def no_simulation(*args, **kwargs):
            raise AssertionError("theory simulated a run it could not use")

        monkeypatch.setattr(dimix.cli, "monte_carlo", no_simulation)
        cfg = tmp_path / "cfg"
        extra = []
        if case == "negative assumed q0":
            cfg.write_text(TestTheoryCommand.THEORY_CONFIG.replace("T = 2200", "T = 60"))
            extra = ["--assume-q0", "-1"]
            expected = "error: gamma, K, q0 must be finite and nonnegative, got --assume-q0 -1.0"
        elif case == "c2 alpha0 beta0 above 1":
            text = TestTheoryCommand.THEORY_CONFIG.replace("T = 2200", "T = 60")
            cfg.write_text(text.replace("alpha0 = 0.25", "alpha0 = 100"))
            extra = ["--assume-q0", "1"]
            expected = "error: c2*alpha0*beta0 must be <= 1 if mu + nu < 1: alpha0*beta0 = 80, c2 = 0.02826"
        elif case == "xi5 overflow":
            cfg.write_text("family = gossip\nn = 20\nalpha0 = 1000\nT = 20\nruns = 2\nT_grid = 10, 20\n")
            extra = ["--assume-q0", "1"]
            expected = "error: xi5's factor T0^(c2*alpha0*beta0) = 2.108e+28^14.61, about 10^413.7, is beyond"
        elif case == "no thresholds":
            cfg.write_text(self.OVERFLOW_CONFIG)
            expected = f"error: {self.OVERFLOW_NOTE}"
        elif case == "burn-in beyond T":
            cfg.write_text(TestTheoryCommand.THEORY_CONFIG.replace("T = 2200", "T = 60"))
            expected = "error: burn-in T0 = "
        else:
            grid = "T_grid = 0, 300, 1200"
            cfg.write_text(TestTheoryCommand.THEORY_CONFIG.replace("T_grid = 500, 2200", grid))
            expected = "error: T_grid entries must be >= 1"
        rc = main(["theory", "--config", str(cfg), *extra])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(expected) and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, matrix, expected",
        [
            ("noise = gaussian_channel\nsigma = inf\n", None, "{cfg}:2: bad value for sigma: must be finite"),
            ("family = matrix_file\nmatrix_file = {mat}\n", "0.5, nan\n0.5, 0.5\n", "matrix entries must be finite and nonnegative"),
            ("family = matrix_file\nmatrix_file = {mat}\n", "1, 0\n0, 1\n\n1, 0, 0\n0, 1, 0\n0, 0, 1\n", "{mat}: block 2 size differs from block 1"),
            ("family = gossip\nn = 4\nhorizon = -1\n", None, "horizon must be >= 1"),
            ("family = gossip\nn = 4\nwindow = -2\n", None, "window must be >= 1"),
            ("n = 0\n", None, "need at least one agent"),
        ],
        ids=["infinite sigma", "nan matrix entry", "ragged matrix blocks", "horizon", "window", "no agents"],
    )
    def test_validate_rejects_bad_input(self, tmp_path, capsys, config, matrix, expected):
        cfg, mat = tmp_path / "cfg", tmp_path / "matrix.txt"
        if matrix is not None:
            mat.write_text(matrix)
        cfg.write_text(config.format(mat=mat))
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {expected.format(cfg=cfg, mat=mat)}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "p_low, p_high, expected",
        [
            # p_high - p_low overflows, so every drawn score is inf.
            ("-1e308", "1e308", "weight scores must be finite"),
            ("1e308", "1e308", "the sum of the weight scores is beyond the float range"),
        ],
        ids=["infinite scores", "sum overflows"],
    )
    def test_run_rejects_bad_weight_scores(self, tmp_path, capsys, p_low, p_high, expected):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"p_low = {p_low}\np_high = {p_high}\nT = 20\nruns = 2\n")
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "args, seed",
        [
            (["validate", "--config", "{cfg}"], -1),
            (["run", "--config", "{cfg}", "--seed", "-5", "--out", "{out}"], -5),
            (["lemmas", "--seed", "-1"], -1),
        ],
        ids=["config seed", "seed flag", "lemmas seed flag"],
    )
    def test_negative_seed_is_one_error(self, tmp_path, capsys, args, seed):
        cfg = tmp_path / "cfg"
        cfg.write_text("family = gossip\nseed = -1\nT = 20\nruns = 2\n")
        rc = main([arg.format(cfg=cfg, out=tmp_path / "out") for arg in args])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: seed must be >= 0, got {seed}\n"

    @pytest.mark.parametrize("family", ["fixed_cycle", "gossip"])
    def test_family_needs_three_agents(self, tmp_path, capsys, family):
        cfg = tmp_path / "cfg"
        cfg.write_text(f"family = {family}\nn = 2\n")
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: the {family} family needs n >= 3 agents, got n = 2\n"

    @pytest.mark.parametrize(
        "matrix, expected",
        [
            # Slot 1 fixes (1/2, 1/2) and slot 2 fixes (5/6, 1/6): nothing is
            # stationary for both.
            ("0.5, 0.5\n0.5, 0.5\n\n0.9, 0.1\n0.5, 0.5\n", "matrix family has no common stationary vector"),
            # Agent 1 moves to agent 0: every stationary vector vanishes on it.
            ("1, 0\n1, 0\n", "no strictly positive common stationary vector found"),
            # The stacked system's singular value 2.8e-9 lies inside the null
            # threshold 3e-9, and the candidate it gives misses the tolerance.
            (
                "0, 0, 1, 0\n1, 0, 0, 0\n0, 1, 0, 0\n4.348884529200771e-09, 0, 0, 0.9999999956511155\n\n"
                "0, 0, 1, 0\n1, 0, 0, 0\n0, 1, 0, 0\n0, 0, 0, 1\n\n"
                "0, 0, 1, 0\n0, 1, 0, 0\n0, 0, 0, 1\n1, 0, 0, 0\n",
                "candidate stationary vector has residual 1.09e-09 (tol 1e-09)",
            ),
        ],
        ids=["slots disagree", "transient agent", "residual past tolerance"],
    )
    def test_matrix_file_without_stationary_weights(self, tmp_path, capsys, matrix, expected):
        cfg, mat = tmp_path / "cfg", tmp_path / "matrix.txt"
        mat.write_text(matrix)
        cfg.write_text(f"family = matrix_file\nmatrix_file = {mat}\n")
        rc = main(["validate", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {expected}\n"

    def test_quantizer_without_levels(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("noise = stochastic_quantizer\n")
        rc = main(["validate", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("command", ["run", "validate", "theory", "sweep"])
    def test_memory_error_is_one_line(self, config_file, capsys, monkeypatch, command):
        # Raised, not provoked: on a host that overcommits memory a real
        # oversized allocation can succeed and then exhaust the machine.
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000, 4)")

        monkeypatch.setattr(dimix.cli, "build_experiment", too_large)
        rc = main([command, "--config", config_file])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000, 4)\n"

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_all_diverged_names_the_earliest_abort(self, tmp_path, capsys, command, jobs):
        # Seeds 1, 2 and 3 abort at t = 8, 7 and 10.
        cfg = tmp_path / "cfg"
        cfg.write_text(
            "family = fixed_cycle\nn = 3\nd = 2\nN = 12\nnoise = gaussian_channel\nsigma = 1.3e12\n"
            "alpha0 = 0.1\nnu = 0.25\nbeta0 = 0.7\nmu = 0.1\nT = 12\nruns = 3\nseed = 1\nT_grid = 6, 12\n"
        )
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--jobs", jobs])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == "error: all 3 runs diverged (first abort at t = 7)\n"


class TestBenchmarkHooks:
    """perfbench/ times dimix from outside by rebinding public names and
    builds an experiment as its setup snippet does; a rename that drops one
    of those names would otherwise leave a per-layer metric silently empty."""

    @staticmethod
    def tracer():
        return perfbench_module("tracing").Tracer()

    def test_every_traced_name_exists(self):
        tracer = self.tracer()
        tracer.install()
        try:
            assert tracer.absent == []
        finally:
            tracer.uninstall()

    def test_traced_lemmas_command_records_the_suite(self, capsys):
        tracer = self.tracer()
        tracer.install()
        try:
            assert main(["lemmas"]) == 0
        finally:
            tracer.uninstall()
        assert [span[0] for span in tracer.spans].count("lemmas.suite") == 1
        assert tracer.counts["lemmas.instances"] == 7000

    def test_setup_snippet_builds_an_experiment(self, config_file):
        import dimix.cli

        _, rc = dimix.cli.build_experiment(dimix.cli.parse_config(config_file))
        assert rc.problem.n == 4

    def test_building_an_experiment_loads_no_pool_or_lemma_suite(self, config_file):
        # A fresh interpreter, as every CLI call and the setup snippet start.
        code = (
            "import sys\n"
            "import dimix.cli\n"
            "dimix.cli.build_experiment(dimix.cli.parse_config(sys.argv[1]))\n"
            "names = ('concurrent.futures', 'multiprocessing', 'dimix.lemmas')\n"
            "print(' '.join(name for name in names if name in sys.modules))\n"
        )
        src = str(Path(dimix.cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code, config_file],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout == "\n"

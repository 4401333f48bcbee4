"""Smoke tests for the scripts under tools/ that run outside the suite."""

import re

import numpy as np

import dimix.cli

from helpers import repo_script


def test_rate_map_prints_one_row_per_point(capsys, monkeypatch):
    rate_map = repo_script("tools", "rate_map")
    monkeypatch.setattr(rate_map, "MUS", (0.75, 0.95))
    monkeypatch.setattr(rate_map, "RUNS", 2)
    rate_map.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "study S along mu + nu = 1, seed 0, 2 runs per point"
    rows = [re.fullmatch(r" *(\S+) +(\S+) +(\S+)  ([+-]\d\.\d{4}) \+- (\d\.\d{4})", line) for line in lines[2:]]
    assert [row.groups()[:3] for row in rows] == [("0.75", "0.25", "0.5"), ("0.95", "0.05", "0.1")]
    assert all(float(row.group(4)) < 0.0 for row in rows)


def test_fuzz_cli_configs_keep_to_the_exit_contract():
    fuzz_cli = repo_script("tools", "fuzz_cli")
    findings = fuzz_cli.fuzz(seed=0, configs=20)
    assert [(k, command, kind, detail) for k, _, command, kind, detail in findings if kind in ("escaped", "exit")] == []


def test_fuzz_cli_reports_escapes_and_library_errors(monkeypatch):
    fuzz_cli = repo_script("tools", "fuzz_cli")
    files = fuzz_cli.draw_config(np.random.default_rng(0))

    def fail(exc):
        def build_experiment(*args, **kwargs):
            raise exc

        monkeypatch.setattr(dimix.cli, "build_experiment", build_experiment)

    fail(KeyError("x"))
    assert [kind for kind, _ in fuzz_cli.check(files, "run")] == ["escaped"]
    fail(np.linalg.LinAlgError("Singular matrix"))
    ((kind, detail),) = fuzz_cli.check(files, "validate")
    assert kind == "library" and detail.startswith("error: Singular matrix (raised in ")

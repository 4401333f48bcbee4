"""Smoke tests for the scripts under tools/ that run outside the suite."""

import re

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

"""Print the reproduction study's rate map along mu + nu = 1.

    PYTHONPATH=<tree>/src python3 tools/rate_map.py

Study config S is a small fixed cycle (n = 4, d = 5, N = 400, alpha0 = 16,
beta0 = 1) run to T = 5000 and read at GRID through the calls ``dimix
sweep`` makes; ``tests/test_reproduction.py`` runs its arms from the
definitions here.  The map runs S with a Gaussian channel of sigma = 0.5
at seed 0, RUNS runs for each mu in MUS and nu = 1 - mu, and prints one
row per point: mu, nu, the certified exponent e(mu, nu) = min(mu - nu,
2 nu), and the log-log slope of the mean final dist_opt_sq over GRID with
its OLS standard error.  The certificate is an upper bound, so it allows
any slope at or below -e; the study's arm C asserts that at mu = 0.55 and
0.95.
"""

import numpy as np

from dimix.analysis import fit_rate
from dimix.cli import build_experiment
from dimix.dynamics import TRACE_COLUMNS, monte_carlo
from dimix.reporting import parse_config_text

GRID = (500, 1000, 2000, 3000, 4000, 5000)
STUDY_S = (
    "family = fixed_cycle\nn = 4\nd = 5\nN = 400\nalpha0 = 16\nbeta0 = 1.0\nT = 5000\n"
    f"T_grid = {', '.join(map(str, GRID))}\n"
)
GAUSSIAN = "noise = gaussian_channel\nsigma = 0.5\n"
MUS = (0.55, 0.6, 0.667, 0.75, 0.85, 0.95)
RUNS = 20


def sweep_slope(text: str):
    """The log-log slope of the mean final dist_opt_sq over GRID, as
    ``dimix sweep`` fits it, for the config ``text`` at its seed."""
    values, rc = build_experiment(parse_config_text(text))
    mc = monte_carlo(rc, values["runs"], seed=values["seed"], at=GRID)
    if mc.completed != values["runs"]:
        raise RuntimeError(f"{values['runs'] - mc.completed} of {values['runs']} runs diverged")
    return fit_rate(np.array(GRID, dtype=float), mc.mean[:, TRACE_COLUMNS.index("dist_opt_sq")])


def rate_row(mu: float, runs: int):
    """(mu, nu, e, fit) of S with the Gaussian channel at one point of the
    line mu + nu = 1."""
    nu = round(1.0 - mu, 3)
    fit = sweep_slope(STUDY_S + GAUSSIAN + f"mu = {mu}\nnu = {nu}\nruns = {runs}\n")
    return mu, nu, min(mu - nu, 2 * nu), fit


def main():
    print(f"study S along mu + nu = 1, seed 0, {RUNS} runs per point")
    print(f"{'mu':>6} {'nu':>6} {'e(mu, nu)':>10}  slope +- SE")
    for mu, nu, e, fit in (rate_row(mu, RUNS) for mu in MUS):
        print(f"{mu:>6.3g} {nu:>6.3g} {e:>10.3g}  {fit.slope:+.4f} +- {fit.stderr:.4f}")


if __name__ == "__main__":
    main()

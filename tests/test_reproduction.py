"""A reproduction study of the paper's two claims, on study config S.

This is a study, not a replacement for acceptance criteria 6 and 7: those
keep their thresholds on the pinned problem, whose mean trajectory decays
too slowly for either window.  S is a small fixed cycle (n = 4, d = 5,
N = 400, alpha0 = 16, beta0 = 1) with a Gaussian channel of sigma = 0.5,
run to T = 5000 and read at the grid below through the calls ``dimix
sweep`` makes: ``build_experiment``, ``monte_carlo`` at the grid and
``fit_rate`` of the mean ``dist_opt_sq``.

* Arm A, the rate: at mu = 0.75, nu = 0.25, where the certified exponent
  min(mu - nu, 2 nu) peaks at 1/2, the mean error falls like T^-1/2.
* Arm B, the second time-scale: at mu = 0.02, nu = 0.98 the mixing step
  barely fades.  With noise the mean error grows, while the noiseless twin
  falls faster than T^-1: the lossy sharing, not the optimization, stalls
  this arm.
"""

import numpy as np

from dimix.analysis import fit_rate
from dimix.cli import build_experiment
from dimix.dynamics import monte_carlo
from dimix.reporting import parse_config_text

from helpers import col

GRID = (500, 1000, 2000, 3000, 4000, 5000)
STUDY_S = (
    "family = fixed_cycle\nn = 4\nd = 5\nN = 400\nalpha0 = 16\nbeta0 = 1.0\nT = 5000\n"
    f"T_grid = {', '.join(map(str, GRID))}\n"
)
GAUSSIAN = "noise = gaussian_channel\nsigma = 0.5\nruns = 10\n"
ARM_A = "mu = 0.75\nnu = 0.25\n"
ARM_B = "mu = 0.02\nnu = 0.98\n"


def sweep_slope(text: str):
    """The log-log slope of the mean final dist_opt_sq over GRID, as
    ``dimix sweep`` fits it, for the config ``text`` at seed 0."""
    values, rc = build_experiment(parse_config_text(text))
    mc = monte_carlo(rc, values["runs"], seed=values["seed"], at=GRID)
    assert mc.completed == values["runs"]
    return fit_rate(np.array(GRID, dtype=float), col(mc.mean, "dist_opt_sq"))


def test_arm_a_rate_is_t_to_the_minus_half():
    fit = sweep_slope(STUDY_S + ARM_A + GAUSSIAN)
    assert -0.85 <= fit.slope <= -0.35, fit
    assert fit.slope <= -0.5 + 2 * fit.stderr, fit


def test_arm_b_noise_stalls_without_a_second_time_scale():
    noisy = sweep_slope(STUDY_S + ARM_B + GAUSSIAN)
    assert noisy.slope > 0.0, noisy
    twin = sweep_slope(STUDY_S + ARM_B + "runs = 1\n")
    assert twin.slope < -1.0, twin

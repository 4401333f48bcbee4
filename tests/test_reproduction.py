"""A reproduction study of the paper's two claims, on study config S.

This is a study, not a replacement for acceptance criteria 6 and 7: those
keep their thresholds on the pinned problem, whose mean trajectory decays
too slowly for either window.  S is a small fixed cycle (n = 4, d = 5,
N = 400, alpha0 = 16, beta0 = 1) with a Gaussian channel of sigma = 0.5,
run to T = 5000 and read at the grid 500, 1000, 2000, ..., 5000 through
the calls ``dimix sweep`` makes: ``build_experiment``, ``monte_carlo`` at
the grid and ``fit_rate`` of the mean ``dist_opt_sq``.  The arms run it
from ``tools/rate_map.py``, which prints the whole rate map.

* Arm A, the rate: at mu = 0.75, nu = 0.25, where the certified exponent
  min(mu - nu, 2 nu) peaks at 1/2, the mean error falls like T^-1/2.
* Arm B, the second time-scale: at mu = 0.02, nu = 0.98 the mixing step
  barely fades.  With noise the mean error grows, while the noiseless twin
  falls faster than T^-1: the lossy sharing, not the optimization, stalls
  this arm.
* Arm C, the rate map: along mu + nu = 1 the certified exponent
  e = min(mu - nu, 2 nu) falls to 0.1 at mu = 0.55 and at mu = 0.95, and
  the mean error falls more slowly there than at arm A's peak, though no
  more slowly than T^-e.
"""

import numpy as np
import pytest

from helpers import repo_script

rate_map = repo_script("tools", "rate_map")
RUNS = 10


@pytest.fixture(scope="module")
def arm_a():
    """Arm A's fit, shared by arms A and C."""
    return rate_map.rate_row(0.75, RUNS)[3]


def test_arm_a_rate_is_t_to_the_minus_half(arm_a):
    assert -0.85 <= arm_a.slope <= -0.35, arm_a
    assert arm_a.slope <= -0.5 + 2 * arm_a.stderr, arm_a


def test_arm_b_noise_stalls_without_a_second_time_scale():
    noisy = rate_map.rate_row(0.02, RUNS)[3]
    assert noisy.slope > 0.0, noisy
    twin = rate_map.sweep_slope(rate_map.STUDY_S + "mu = 0.02\nnu = 0.98\nruns = 1\n")
    assert twin.slope < -1.0, twin


@pytest.mark.parametrize("mu", [0.55, 0.95])
def test_arm_c_rate_follows_the_certified_exponent(arm_a, mu):
    _, _, e, fit = rate_map.rate_row(mu, RUNS)
    assert fit.slope - arm_a.slope > 4 * np.hypot(fit.stderr, arm_a.stderr), (fit, arm_a)
    assert fit.slope <= -e + 2 * fit.stderr, fit

"""Two-time-scale decentralized gradient descent over time-varying graphs
with lossy information sharing, plus the tooling that checks its convergence
certificate: schedule validation, randomized inequality tests, explicit rate
constants, and Monte Carlo drivers."""

from .reporting import VERSION as __version__

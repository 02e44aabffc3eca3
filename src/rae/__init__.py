"""Robust amplitude estimation toolkit.

Simulation of Grover-boosted Pauli-expectation measurements under global
depolarizing noise, plus the statistical machinery (grid MLE, Fisher/CRB
analysis, bootstrap, noise-parameter fits) to turn parity counts into
energy estimates with error bars.
"""

__version__ = "0.1.0"

"""Toolkit for weighted empirical risk minimization under distribution drift.

Provides the three recency-weight families with exact norms and covering
nets, mixing-coefficient machinery for dependent data, nonstationary data
generators with closed-form population optima, weighted ERM fitters for
linear / step-basis / ReLU-network classes, rate-function evaluators with
bound certificates, excess-risk decomposition, and a replicated experiment
harness that verifies the predicted learning-rate exponents empirically.
Callers import from the modules, as ``drifterm.harness``; the package holds only ``__version__``.
"""

__version__ = "0.1.0"

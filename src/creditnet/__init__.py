"""Bipartite bank-firm credit networks: maximum-entropy counterfactuals
and two-stage credit econometrics."""

__version__ = "0.1.0"

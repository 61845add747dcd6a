"""Bipartite bank-firm credit networks: maximum-entropy counterfactuals
and two-stage credit econometrics."""

from .core import BipartiteNetwork, Sample
from .ingest import apply_consistency_filter, parse_sample
from .netstats import ccdf, compare, summarize
from .nullmodel import (Variant, calibrate_z, expected_metrics,
                        fitness_spec_from_sample, random_baseline,
                        sample_ensemble, solve_bicm)
from .synthgen import GenConfig, generate

__version__ = "0.1.0"

"""The benchmark's tracer still finds every layer it wraps and counts.

``perfbench/tracer.py`` replaces public functions by module attribute and
reads counters from the objects they return; a renamed function or field
breaks it only when the benchmark runs. This runs a small pipeline under it.
"""

import dataclasses
import importlib
import os

from creditnet import pipeline
from conftest import small_run_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def test_tracer_wraps_and_counts_a_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer")
    config = dataclasses.replace(
        small_run_config(tmp_path),
        null_variants=("network", "balance", "bicm", "random"),
        n_samples=20, seed=3)
    spans = tracer.Tracer()
    try:
        spans.install()
        spans.span(tracer.ROOT, pipeline.run, config)
    finally:
        spans.restore()
    selfs = spans.self_times()
    for layer in ("nullmodel.sample_ensemble", "nullmodel.expected_metrics",
                  "econometrics.build_design", "econometrics.fit_logit",
                  "econometrics.fit_ols"):
        assert layer in selfs, layer
    assert spans.counts["ensemble_samples"] == 4 * 20
    # the residual checks of the calibrated models also report here
    assert tracer.layer_metrics(spans)["nullmodel.ensemble_pairs_per_s"] > 0
    assert spans.counter_errors == []

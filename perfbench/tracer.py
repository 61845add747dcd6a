"""Outside-in tracing of a creditnet pipeline run.

The tracer replaces the public layer functions at the module attributes the
pipeline calls through (``creditnet.pipeline.sample_ensemble``,
``creditnet.econometrics.build_design``, ...) with wrappers that record a
span per call: name, parent span, start and end, and updates counters from
the returned object right after the call. Spans stay in memory. After the
run, ``layer_metrics`` turns them into per-layer self times (a span's
duration minus the part its child spans cover). No creditnet source file is
touched; ``restore`` puts the original functions back.
"""

from __future__ import annotations

import importlib
import logging
import os
import time
from dataclasses import dataclass

from check import bicm_residual, expected_links

# (module, attribute, layer): the layer names the per-layer metric prefix
TARGETS = (
    ("creditnet.pipeline", "parse_sample", "ingest.parse_sample"),
    ("creditnet.pipeline", "apply_consistency_filter",
     "ingest.apply_consistency_filter"),
    ("creditnet.pipeline", "summarize", "netstats.summarize"),
    ("creditnet.pipeline", "ccdf", "netstats.ccdf"),
    ("creditnet.pipeline", "compare", "netstats.compare"),
    ("creditnet.pipeline", "sample_ensemble", "nullmodel.sample_ensemble"),
    ("creditnet.nullmodel", "calibrate_z", "nullmodel.calibrate_z"),
    ("creditnet.nullmodel", "solve_bicm", "nullmodel.solve_bicm"),
    ("creditnet.nullmodel", "expected_metrics", "nullmodel.expected_metrics"),
    ("creditnet.econometrics", "expected_metrics",
     "nullmodel.expected_metrics"),
    ("creditnet.econometrics", "build_design", "econometrics.build_design"),
    ("creditnet.econometrics", "fit_logit", "econometrics.fit_logit"),
    ("creditnet.econometrics", "fit_ols", "econometrics.fit_ols"),
    ("creditnet.econometrics", "fit_ols_fixed_effects",
     "econometrics.fit_ols"),
    ("creditnet.econometrics", "vif", "econometrics.vif"),
    ("creditnet.report", "write_json", "report.write"),
    ("creditnet.report", "write_csv", "report.write"),
    ("creditnet.report", "write_text", "report.write"),
    ("creditnet.report", "svg_scatter", "report.svg"),
    ("creditnet.report", "svg_histogram", "report.svg"),
    ("creditnet.report", "sha256_file", "report.sha256"),
    ("creditnet.report", "sha256_text", "report.sha256"),
)

ROOT = "pipeline"

# the self-time metrics: they add up to the traced run_s
SELF_TIMES = tuple(sorted({f"{layer}_s" for _, _, layer in TARGETS})) + \
    (f"{ROOT}.self_s",)

CLAMP_MESSAGE = "corrected balance strengths were negative"


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ClampCounter(logging.Handler):
    """Counts the repeated negative-balance clamp warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if CLAMP_MESSAGE in record.getMessage():
            self.count += 1


class Tracer:
    """Span recorder plus the counters gathered from returned objects."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.solutions: list[tuple[str, tuple, object]] = []
        self.clamps = _ClampCounter()
        self.counter_errors: list[str] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer))
        logging.getLogger("creditnet").addHandler(self.clamps)

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()
        logging.getLogger("creditnet").removeHandler(self.clamps)

    def _wrap(self, fn, layer):
        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            try:
                _count(self.counts, layer, args, result)
            except (AttributeError, TypeError, ValueError, IndexError) as exc:
                # a layer's interface changed: say so, keep the other counters
                self.counter_errors.append(f"{layer}: {exc!r}")
            if layer in ("nullmodel.calibrate_z", "nullmodel.solve_bicm"):
                # small arrays; their residuals are computed after the run
                self.solutions.append((layer, args, result))
            return result
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, covered in zip(self.spans, child_time):
            out[s.name] = out.get(s.name, 0.0) + s.duration - covered
        return out

    def root_duration(self) -> float:
        return sum(s.duration for s in self.spans if s.name == ROOT)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    selfs = tracer.self_times()
    out = dict.fromkeys(SELF_TIMES, 0.0)
    for name, value in selfs.items():
        out[f"{name}.self_s" if name == ROOT else f"{name}_s"] = value
    out["traced_run_s"] = tracer.root_duration()

    counts = dict(tracer.counts)
    samples = counts.pop("ensemble_samples")
    pairs = counts.pop("ensemble_pairs")
    out.update(counts)
    ens_s = out["nullmodel.sample_ensemble_s"]
    out["nullmodel.ensemble_per_sample_ms"] = (
        1e3 * ens_s / samples if samples else 0.0)
    out["nullmodel.ensemble_pairs_per_s"] = pairs / ens_s if ens_s > 0 else 0.0
    out["econometrics.clamp_warnings"] = tracer.clamps.count

    out["nullmodel.calibrate_z_rel_residual"] = 0.0
    out["nullmodel.bicm_max_residual"] = 0.0
    for layer, args, result in tracer.solutions:
        try:
            if layer == "nullmodel.calibrate_z":
                s, t, l_target = args[:3]
                rel = abs(expected_links(result, s, t) - l_target) / l_target
                key = "nullmodel.calibrate_z_rel_residual"
            else:
                rel = bicm_residual(result.x, result.y,
                                    result.target_firm_degrees,
                                    result.target_bank_degrees)
                key = "nullmodel.bicm_max_residual"
        except (AttributeError, TypeError, ValueError, IndexError) as exc:
            tracer.counter_errors.append(f"{layer}: {exc!r}")
            continue
        out[key] = max(out[key], rel)
    return out


COUNTERS = (
    "ingest.edge_rows", "ingest.firms_dropped",
    "nullmodel.calibrate_z_calls", "nullmodel.expected_metrics_calls",
    "econometrics.irls_iters", "econometrics.design_rows",
    "econometrics.design_mb", "report.files_written", "report.bytes_written",
    "ensemble_samples", "ensemble_pairs",
)


def _count(counts: dict, layer: str, args: tuple, result) -> None:
    """Update ``counts`` from one recorded call and its return value."""
    if layer == "ingest.parse_sample":
        counts["ingest.edge_rows"] += result.network.n_links
    elif layer == "ingest.apply_consistency_filter":
        counts["ingest.firms_dropped"] += len(result[1].dropped_firms)
    elif layer == "nullmodel.calibrate_z":
        counts["nullmodel.calibrate_z_calls"] += 1
    elif layer == "nullmodel.expected_metrics":
        counts["nullmodel.expected_metrics_calls"] += 1
    elif layer == "nullmodel.sample_ensemble":
        pairs = result.sum_firm_degrees.size * result.sum_bank_degrees.size
        counts["ensemble_samples"] += result.n_samples
        counts["ensemble_pairs"] += pairs * result.n_samples
    elif layer == "econometrics.build_design":
        counts["econometrics.design_rows"] += result.n_obs
        counts["econometrics.design_mb"] = max(
            counts["econometrics.design_mb"],
            (result.X.nbytes + result.y.nbytes) / 2**20)
    elif layer == "econometrics.fit_logit":
        counts["econometrics.irls_iters"] += result.n_iter
    elif layer == "report.write":
        counts["report.files_written"] += 1
        counts["report.bytes_written"] += os.path.getsize(args[0])


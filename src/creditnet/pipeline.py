"""End-to-end orchestration: ingest, null models, regressions, reports.

A run is fully described by a :class:`RunConfig`; identical configurations
produce byte-identical output trees. :func:`run` is a plain sequence of
stage functions. Each stage writes its files through a :class:`ReportBundle`
and records a failing null variant or grid cell there instead of raising;
the CLI's single-stage subcommands call the same functions.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import econometrics as econ
from . import netstats, nullmodel, report
from .core import BipartiteNetwork, Sample, derived_degrees
from .ingest import apply_consistency_filter, parse_sample
from .netstats import ccdf, compare, summarize
from .nullmodel import (Variant, bicm_from_network, fitness_spec_from_sample,
                        random_baseline, sample_ensemble)
from .synthgen import GenConfig, write_synthetic

__all__ = [
    "RunConfig",
    "ReportBundle",
    "PLACEBO_NULLS",
    "default_grid",
    "placebo_panel",
    "NULL_VARIANTS",
    "write_stats",
    "calibrate_null",
    "write_null_variant",
    "write_cell",
    "run",
    "residual_diagnostics",
    "load_config_file",
    "SYNTH_KEYS",
]

# null variant name -> the function that calibrates it on a sample
NULL_VARIANTS = {
    "network": lambda sample: fitness_spec_from_sample(
        sample, Variant.NETWORK_DRIVEN),
    "balance": lambda sample: fitness_spec_from_sample(
        sample, Variant.BALANCE_DRIVEN),
    "bicm": lambda sample: bicm_from_network(sample.network),
    "random": lambda sample: random_baseline(sample.network),
}

# the null variant whose expected degrees each null placebo uses
PLACEBO_NULLS = {econ.Placebo.NULL_NET: "network",
                 econ.Placebo.NULL_BAL: "balance"}


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run depends on."""

    out_dir: str
    edges_path: str | None = None
    firm_attrs_path: str | None = None
    bank_attrs_path: str | None = None
    synth: GenConfig | None = None
    null_variants: tuple[str, ...] = ("network", "balance")
    n_samples: int = 10_000
    seed: int = 42
    grid: tuple[econ.ModelSpec, ...] | None = None  # None -> default grid

    def __post_init__(self):
        paths = {"edges": self.edges_path, "firms": self.firm_attrs_path,
                 "banks": self.bank_attrs_path}
        given = [name for name, path in paths.items() if path]
        if self.synth is not None and given:
            raise ValueError(f"CSV path ({', '.join(given)}) given together "
                             "with a synthetic generator config")
        if self.synth is None and len(given) < len(paths):
            raise ValueError("provide the three CSV paths (edges, firms, "
                             "banks) or a synthetic generator config")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for v in self.null_variants:
            if v not in NULL_VARIANTS:
                raise ValueError(f"unknown null variant {v!r}")

    def to_json(self) -> dict:
        return {
            "edges_path": self.edges_path,
            "firm_attrs_path": self.firm_attrs_path,
            "bank_attrs_path": self.bank_attrs_path,
            "synth": asdict(self.synth) if self.synth else None,
            "null_variants": list(self.null_variants),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "grid": (None if self.grid is None  # an empty grid is not None
                     else [spec.name() for spec in self.grid]),
        }


@dataclass
class ReportBundle:
    """Paths and statuses of everything a run emitted."""

    out_dir: str
    files: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, relpath: str) -> str:
        """List an output file; return the path to write it to."""
        self.files.append(relpath)
        return os.path.join(self.out_dir, relpath)


def placebo_panel(stage: econ.Stage) -> tuple[econ.ModelSpec, ...]:
    """Placebo columns: empirical, empirical w/o strength, two null sources."""
    return tuple(econ.ModelSpec(stage, econ.Model.M3_FULL, placebo=placebo)
                 for placebo in econ.Placebo)


def default_grid() -> tuple[econ.ModelSpec, ...]:
    """The replication grid: five specs per stage, placebo set, bank FE."""
    specs: list[econ.ModelSpec] = []
    for stage in (econ.Stage.LINK_FORMATION, econ.Stage.LOAN_SIZING):
        specs.append(econ.ModelSpec(stage, econ.Model.M1_GRAVITY))
        for model in (econ.Model.M2_NETWORK, econ.Model.M3_FULL):
            for variant in (econ.DegreeVariant.A_WITH_DEGREE,
                            econ.DegreeVariant.B_WITHOUT_DEGREE):
                specs.append(econ.ModelSpec(stage, model, variant))
        specs += placebo_panel(stage)[1:]  # its first column is m3_a above
    specs.append(econ.ModelSpec(econ.Stage.LOAN_SIZING, econ.Model.M3_FULL,
                                fixed_effects=econ.FixedEffects.BANK_DUMMIES))
    return tuple(specs)


RESIDUAL_BINS = 30
COMPARISON_BINS = 10


def residual_diagnostics(fit: econ.FitResult) -> dict:
    """Residual moments and ``RESIDUAL_BINS``-bin histogram of a fit.

    A run writes the scatters against key predictors to
    ``residual_vs_<column>.csv`` only, not into this summary.
    """
    if fit.residuals is None:
        raise econ.EconError("fit carries no stored residuals")
    resid = np.asarray(fit.residuals, dtype=float)
    m = resid.mean()
    centered = resid - m
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    m4 = float((centered**4).mean())
    skew = m3 / m2**1.5 if m2 > 0 else 0.0
    kurt = m4 / m2**2 - 3.0 if m2 > 0 else 0.0
    counts, edges = np.histogram(resid, bins=RESIDUAL_BINS)
    return {
        "mean": float(m),
        "variance": m2,
        "skewness": float(skew),
        "excess_kurtosis": float(kurt),
        "histogram": {"counts": counts.tolist(), "edges": edges.tolist()},
    }


def _load_sample(config: RunConfig, bundle: ReportBundle):
    if config.synth is not None:
        sample, paths = write_synthetic(
            config.synth, os.path.join(config.out_dir, "input"))
        bundle.files += [os.path.relpath(p, config.out_dir)
                         for p in paths.values()]
        bundle.files.append(os.path.join("input", "ground_truth.json"))
        return sample, paths
    paths = {"edges": config.edges_path, "firms": config.firm_attrs_path,
             "banks": config.bank_attrs_path}
    return parse_sample(*paths.values()), paths


def _cause(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def write_stats(bundle: ReportBundle,
                net: BipartiteNetwork) -> netstats.SummaryStats:
    """Write the summary statistics and the degree CCDFs of a network."""
    stats = summarize(net)
    report.write_json(bundle.add("summary_stats.json"), stats.to_json())
    k, h = derived_degrees(net)
    for label, values in (("firm_degrees", k), ("bank_degrees", h)):
        curve = ccdf(values)
        report.write_csv(bundle.add(f"ccdf_{label}.csv"),
                         ["value", "survival"],
                         (curve.values, curve.survival))
        report.write_text(bundle.add(f"ccdf_{label}.svg"), report.svg_scatter(
            curve.values, curve.survival, title=f"CCDF of {label}",
            xlabel="value", ylabel="P(X >= x)",
            log=bool(np.all(curve.values > 0))))
    return stats


def calibrate_null(bundle: ReportBundle, sample: Sample, name: str):
    """Calibrate null variant ``name`` and compute its closed forms: returns
    ``(spec, expected)``, the model and its ``ExpectedMetrics``, or
    ``(None, None)`` after recording the failure as ``nullmodel_<name>``."""
    try:
        spec = NULL_VARIANTS[name](sample)
        return spec, nullmodel.expected_metrics(spec)
    except Exception as exc:  # recorded, never fatal for other stages
        bundle.failures[f"nullmodel_{name}"] = _cause(exc)
        return None, None


def write_null_variant(bundle: ReportBundle, sample: Sample, name: str,
                       n_samples: int, seed: int):
    """Build one null variant; write its JSON and comparisons.

    The JSON holds each node's closed-form mean and standard deviation. The
    comparisons use the expected degrees, so they depend on neither the seed
    nor the sample count; a side that cannot be compared (the random
    baseline's degrees are constant) is named with its cause under
    ``skipped_comparisons``, not as a failure. The ensemble block records
    the largest |z| of ``n_samples`` draws' means against the closed forms.

    Returns the closed forms, or None after recording the failure, of the
    calibration or of the draw, as ``nullmodel_<name>``.
    """
    spec, expected = calibrate_null(bundle, sample, name)
    if spec is None:
        return None
    try:
        ensemble = sample_ensemble(spec, n_samples, seed)
    except Exception as exc:  # a failed draw fails the variant too
        bundle.failures[f"nullmodel_{name}"] = _cause(exc)
        return None
    k, h = derived_degrees(sample.network)
    skipped = {}
    for side, emp, model_k in (("firms", k, expected.firm_degrees),
                               ("banks", h, expected.bank_degrees)):
        try:
            cs = compare(emp, model_k, n_bins=COMPARISON_BINS)
        except netstats.StatsError as exc:
            skipped[side] = _cause(exc)
            continue
        stem = f"comparison_{name}_{side}"
        report.write_csv(
            bundle.add(f"{stem}.csv"),
            ["bin_lo", "bin_hi", "mean", "std", "p05", "p95"],
            (cs.bin_edges[:-1], cs.bin_edges[1:], cs.binned_means,
             cs.binned_stds, cs.binned_p05, cs.binned_p95))
        report.write_json(bundle.add(f"{stem}.json"),
                          {"pearson": cs.pearson, "spearman": cs.spearman})
        report.write_text(bundle.add(f"{stem}.svg"), report.svg_scatter(
            emp, model_k, title=f"empirical vs {name} model ({side})",
            xlabel="empirical degree", ylabel="expected degree",
            identity=True))
    report.write_json(bundle.add(f"nullmodel_{name}.json"), {
        "spec": spec.to_json(),
        **expected.to_json(),
        "ensemble": {"n_samples": n_samples, "seed": seed,
                     "max_abs_z": ensemble.max_abs_z(expected)},
        "skipped_comparisons": skipped,
    })
    return expected


def write_cell(bundle: ReportBundle, sample: Sample, spec: econ.ModelSpec,
               null: nullmodel.ExpectedMetrics | None, subdir: str = "regress"):
    """Build, fit and write one grid cell into ``subdir`` of the bundle.

    ``null`` is the closed forms a null placebo reads (see
    ``PLACEBO_NULLS``). Returns ``(fit, design)``, or None after recording
    the failure under the cell's name.
    """
    cell = spec.name()
    try:
        design = econ.build_design(sample, spec, null)
        fit = econ.fit_design(design)
    except Exception as exc:  # recorded, never fatal for other cells
        bundle.failures[cell] = _cause(exc)
        return None
    report.write_json(bundle.add(os.path.join(subdir, f"{cell}.json")),
                      dict(fit.to_json(), design=design.provenance()))
    report.write_text(bundle.add(os.path.join(subdir, f"{cell}.txt")),
                      fit.format_table(title=cell))
    return fit, design


def _write_diagnostics(bundle: ReportBundle, fit: econ.FitResult,
                       design: econ.DesignMatrix) -> None:
    """VIFs and residual diagnostics of the full loan-sizing model."""
    try:
        vif_values = econ.vif(design)
        report.write_json(bundle.add("vif.json"), vif_values)
    except econ.EconError as exc:
        bundle.failures["vif"] = _cause(exc)
    diag = residual_diagnostics(fit)
    counts, edges = diag["histogram"]["counts"], diag["histogram"]["edges"]
    report.write_json(bundle.add("residual_diagnostics.json"), diag)
    report.write_csv(bundle.add("residual_hist.csv"),
                     ["bin_lo", "bin_hi", "count"],
                     (edges[:-1], edges[1:], counts))
    report.write_text(bundle.add("residual_hist.svg"), report.svg_histogram(
        counts, edges, title="loan-sizing residuals", xlabel="residual"))
    for col in ("ln_k", "ln_assets_firm"):
        if col in design.column_names:
            report.write_csv(bundle.add(f"residual_vs_{col}.csv"),
                             ["x", "residual"],
                             (design.column(col), fit.residuals))


def _write_manifest(bundle: ReportBundle, config: RunConfig,
                    input_paths: dict) -> None:
    manifest = {
        "config": config.to_json(),
        "config_hash": report.sha256_text(report.canonical_json(config.to_json())),
        "seed": config.seed,
        "inputs": {name: report.sha256_file(path)
                   for name, path in sorted(input_paths.items())},
        "failures": dict(sorted(bundle.failures.items())),
        "outputs": {rel: report.sha256_file(os.path.join(config.out_dir, rel))
                    for rel in sorted(bundle.files)},
    }
    report.write_json(bundle.add("manifest.json"), manifest)


def run(config: RunConfig) -> ReportBundle:
    """Execute the full pipeline; failing variants and cells do not abort it."""
    os.makedirs(config.out_dir, exist_ok=True)
    bundle = ReportBundle(out_dir=config.out_dir)
    sample, input_paths = _load_sample(config, bundle)
    filtered, filter_report = apply_consistency_filter(sample)
    report.write_json(bundle.add("filter_report.json"),
                      filter_report.to_json())
    write_stats(bundle, filtered.network)
    closed = {name: write_null_variant(bundle, filtered, name,
                                       config.n_samples, config.seed)
              for name in config.null_variants}
    grid = config.grid if config.grid is not None else default_grid()
    diagnosed = None  # only this cell's fit and design outlive its write
    for spec in grid:
        null = closed.get(PLACEBO_NULLS.get(spec.placebo))
        cell = write_cell(bundle, filtered, spec, null)
        if spec.name() == "loan_sizing_m3_a":
            diagnosed = cell
    if diagnosed:
        _write_diagnostics(bundle, *diagnosed)
    _write_manifest(bundle, config, input_paths)
    return bundle


# config-file key -> GenConfig field and type
SYNTH_KEYS = {
    "synth_firms": ("n_firms", int),
    "synth_banks": ("n_banks", int),
    "synth_seed": ("seed", int),
    "synth_density": ("target_density", float),
    "synth_attachment_boost": ("attachment_boost", float),
    "synth_fragmentation_penalty": ("fragmentation_penalty", float),
    "synth_noise_sd": ("noise_sd", float),
    "synth_balance_noise": ("balance_noise", float),
}
_CONFIG_KEYS = frozenset(SYNTH_KEYS) | {
    "edges", "firms", "banks", "variants", "samples", "seed"}


def load_config_file(path: str, out_dir: str) -> RunConfig:
    """Parse the flat key=value run configuration format."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = value.strip()

    synth = None
    if "synth_firms" in values:
        synth = GenConfig(**{name: kind(values[key])
                             for key, (name, kind) in SYNTH_KEYS.items()
                             if key in values})
    variants = tuple(v.strip() for v in values.get(
        "variants", ",".join(RunConfig.null_variants)).split(",") if v.strip())
    return RunConfig(
        out_dir=out_dir,
        edges_path=values.get("edges"),
        firm_attrs_path=values.get("firms"),
        bank_attrs_path=values.get("banks"),
        synth=synth,
        null_variants=variants,
        n_samples=int(values.get("samples", RunConfig.n_samples)),
        seed=int(values.get("seed", RunConfig.seed)),
    )

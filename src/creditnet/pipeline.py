"""End-to-end orchestration: ingest, null models, regressions, reports.

A run is fully described by a :class:`RunConfig`; identical configurations
produce byte-identical output trees. :func:`run` is a plain sequence of
stage functions. A command's :class:`ReportBundle` holds its one filtered
sample and the nulls calibrated on it; each stage reads them there, writes
its files through it and records a failing null variant or grid cell there
instead of raising. The CLI's single-stage subcommands call the same ones.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import econometrics as econ
from . import netstats, nullmodel, report
from .core import Sample
from .ingest import apply_consistency_filter, parse_sample
from .netstats import ccdf, compare, summarize
from .nullmodel import (Variant, bicm_from_network, fitness_spec_from_sample,
                        random_baseline, sample_ensemble)
from .synthgen import GenConfig, write_synthetic

# null variant name -> the function that calibrates it on a sample
NULL_VARIANTS = {
    **{v.value: partial(fitness_spec_from_sample, variant=v) for v in Variant},
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
    synth: GenConfig | None = None  # None without paths -> GenConfig(seed)
    null_variants: tuple[str, ...] = ("network", "balance")
    n_samples: int = 10_000
    seed: int = 42
    grid: tuple[econ.ModelSpec, ...] | None = None  # None -> default grid

    @property
    def input_paths(self) -> dict[str, str | None]:
        return {key: getattr(self, name) for key, (name, _) in RUN_KEYS.items()
                if name.endswith("_path")}

    def __post_init__(self):
        paths = self.input_paths
        given = [name for name, path in paths.items() if path]
        if self.synth is None and not given:  # no input: the default sample
            object.__setattr__(self, "synth", GenConfig(seed=self.seed))
        if self.synth is not None and given:
            raise ValueError(f"CSV path ({', '.join(given)}) given together "
                             "with a synthetic generator config")
        if self.synth is None and len(given) < len(paths):
            raise ValueError("provide the three CSV paths (edges, firms, "
                             "banks) or a synthetic generator config")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for i, v in enumerate(self.null_variants):
            if v not in NULL_VARIANTS:
                raise ValueError(f"unknown null variant {v!r}")
            if v in self.null_variants[:i]:
                raise ValueError(f"null variant {v!r} given twice")
        cells = [spec.name() for spec in self.grid or ()]
        for i, cell in enumerate(cells):
            if cell in cells[:i]:
                raise ValueError(f"grid cell {cell!r} given twice")

    def to_json(self) -> dict:
        out = asdict(self)
        del out["out_dir"]
        out["grid"] = (None if self.grid is None  # an empty grid is not None
                       else [spec.name() for spec in self.grid])
        return out


@dataclass
class ReportBundle:
    """A command's one sample, the nulls calibrated on it, and its outputs."""

    out_dir: str
    sample: Sample  # the one sample every stage of the command reads
    files: list[str] = field(default_factory=list)
    failures: dict[str, str] = field(default_factory=dict)
    # null variant name -> (spec, ExpectedMetrics), or (None, None) after
    # its recorded failure; filled on first use by calibrate_null
    nulls: dict[str, tuple] = field(default_factory=dict)

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


def residual_diagnostics(fit: econ.FitResult) -> dict:
    """Residual moments and ``RESIDUAL_BINS``-bin histogram of a fit.

    A run writes the scatters against key predictors to
    ``residual_vs_<column>.csv`` only, not into this summary.
    """
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
        "histogram": {"counts": counts, "edges": edges},
    }


def _load_sample(config: RunConfig):
    paths, written = config.input_paths, []
    if config.synth is not None:  # written under input/, then read back
        _, paths = write_synthetic(config.synth,
                                   os.path.join(config.out_dir, "input"))
        written = [os.path.relpath(p, config.out_dir) for p in paths.values()]
        written.append(os.path.join("input", "ground_truth.json"))
    sample = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    return sample, paths, written


def _cause(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def write_stats(bundle: ReportBundle) -> netstats.SummaryStats:
    """Write the bundle network's summary statistics and degree CCDFs."""
    net = bundle.sample.network
    stats = summarize(net)
    report.write_json(bundle.add("summary_stats.json"), stats.to_json())
    for label, values in zip(("firm_degrees", "bank_degrees"), net.degrees):
        curve = ccdf(values)
        report.write_csv(bundle.add(f"ccdf_{label}.csv"),
                         ["value", "survival"],
                         (curve.values, curve.survival))
        report.write_text(bundle.add(f"ccdf_{label}.svg"), report.svg_scatter(
            curve.values, curve.survival, title=f"CCDF of {label}",
            xlabel="value", ylabel="P(X >= x)",
            log=bool(np.all(curve.values > 0))))
    return stats


def calibrate_null(bundle: ReportBundle, name: str):
    """Null variant ``name`` and its ``ExpectedMetrics`` as ``(spec,
    expected)``, or ``(None, None)`` after recording the failure as
    ``nullmodel_<name>``. The first call calibrates on ``bundle.sample``;
    later calls read ``bundle.nulls``, which hold only that sample's."""
    if name not in bundle.nulls:
        try:
            spec = NULL_VARIANTS[name](bundle.sample)
            bundle.nulls[name] = spec, nullmodel.expected_metrics(spec)
        except Exception as exc:  # recorded, never fatal for other stages
            bundle.failures[f"nullmodel_{name}"] = _cause(exc)
            bundle.nulls[name] = None, None
    return bundle.nulls[name]


def write_null_variant(bundle: ReportBundle, name: str, n_samples: int,
                       seed: int):
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
    spec, expected = calibrate_null(bundle, name)
    if spec is None:
        return None
    try:
        ensemble = sample_ensemble(spec, n_samples, seed)
    except Exception as exc:  # fails the variant, not its closed forms
        bundle.failures[f"nullmodel_{name}"] = _cause(exc)
        return None
    k, h = bundle.sample.network.degrees
    skipped = {}
    for side, emp, model_k in (("firms", k, expected.firm_degrees),
                               ("banks", h, expected.bank_degrees)):
        try:
            cs = compare(emp, model_k)
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


def write_cell(bundle: ReportBundle, spec: econ.ModelSpec,
               subdir: str = "regress"):
    """Build, fit and write one grid cell into ``subdir`` of the bundle.

    A null placebo reads the closed forms of the null ``PLACEBO_NULLS``
    names (:func:`calibrate_null`). Returns ``(fit, design)``, or None after
    recording the failure under the cell's name.
    """
    cell = spec.name()
    null = (calibrate_null(bundle, PLACEBO_NULLS[spec.placebo])[1]
            if spec.placebo in PLACEBO_NULLS else None)
    try:
        design = econ.build_design(bundle.sample, spec, null)
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
        vif_values = econ.vif(design, fit)
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
    # one residual column shared by the scatters: formatted once
    report.write_csvs([
        (bundle.add(f"residual_vs_{col}.csv"), ["x", "residual"],
         (design.column(col), fit.residuals))
        for col in ("ln_k", "ln_assets_firm") if col in design.column_names])


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
    """Execute the full pipeline; failing variants and cells do not abort it.

    The grid holds one cell's design and fit at a time: the loan-sizing
    diagnostics are written from ``loan_sizing_m3_a`` right after its cell,
    and each cell's design is released before the next one is built.
    """
    os.makedirs(config.out_dir, exist_ok=True)
    sample, input_paths, written = _load_sample(config)
    filtered, filter_report = apply_consistency_filter(sample)
    del sample  # the unfiltered weights are not read again
    bundle = ReportBundle(config.out_dir, filtered, written)
    report.write_json(bundle.add("filter_report.json"),
                      filter_report.to_json())
    write_stats(bundle)
    for name in config.null_variants:
        write_null_variant(bundle, name, config.n_samples, config.seed)
    grid = config.grid if config.grid is not None else default_grid()
    for spec in grid:
        cell = write_cell(bundle, spec)
        if cell and spec.name() == "loan_sizing_m3_a":
            _write_diagnostics(bundle, *cell)
        del cell  # the next cell builds its design without this one's
    _write_manifest(bundle, config, input_paths)
    return bundle


# config-file key -> RunConfig field and the type its value converts to;
# `run` takes each key but `variants` as a flag of the same name
RUN_KEYS = {
    "edges": ("edges_path", str),
    "firms": ("firm_attrs_path", str),
    "banks": ("bank_attrs_path", str),
    "variants": ("null_variants", lambda text: tuple(
        v.strip() for v in text.split(",") if v.strip())),
    "samples": ("n_samples", int),
    "seed": ("seed", int),
}
# config-file key -> GenConfig field and type; any of them makes a run
# synthetic, and a key left out keeps its GenConfig default
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


def load_config_file(path: str, out_dir: str, **given) -> RunConfig:
    """Parse the flat key=value run configuration format; the ``given``
    ``RunConfig`` fields override the file's before the config is built."""
    fields, synth, first_line = {}, {}, {}
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is skipped
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            target, keys = ((synth, SYNTH_KEYS) if key.startswith("synth_")
                            else (fields, RUN_KEYS))
            if key not in keys:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            name, kind = keys[key]
            try:
                target[name] = kind(value.strip())
                # each value passes its own rule here, the three paths below
                if keys is SYNTH_KEYS:
                    GenConfig(**{name: target[name]})
                elif not name.endswith("_path"):
                    RunConfig(out_dir=out_dir, **{name: target[name]})
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
            if key in first_line:
                raise ValueError(f"{path}:{line_no}: key {key!r} already "
                                 f"given on line {first_line[key]}")
            first_line[key] = line_no
    if synth:
        fields["synth"] = GenConfig(**synth)
    return RunConfig(out_dir=out_dir, **{**fields, **given})

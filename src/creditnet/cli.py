"""Command-line interface for the credit-network analysis pipeline.

The single-stage subcommands (stats, nullmodel, regress, placebo) call the
stage functions of :mod:`creditnet.pipeline` and write the same files that
``run`` writes for that stage. Exit codes: 0 on success, 2 when a grid cell
or null variant failed (each is named on stderr), 1 on an error, a usage
error included.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import econometrics as econ
from . import pipeline, report
from .ingest import apply_consistency_filter, parse_sample, write_sample_csv
from .pipeline import (SYNTH_KEYS, ReportBundle, RunConfig, load_config_file,
                       run)
from .synthgen import GenConfig, write_synthetic

STAGES = {"1": econ.Stage.LINK_FORMATION, "2": econ.Stage.LOAN_SIZING}
# the RunConfig fields that `run` flags set; a flag left out is None
RUN_FLAGS = ("edges_path", "firm_attrs_path", "bank_attrs_path", "n_samples",
             "seed")


def _add_input_args(parser):
    parser.add_argument("--edges", required=True)
    parser.add_argument("--firms", required=True)
    parser.add_argument("--banks", required=True)


def _parse_filtered(args):
    sample = parse_sample(args.edges, args.firms, args.banks)
    filtered, rep = apply_consistency_filter(sample)
    return filtered, rep


def _finish(bundle: ReportBundle) -> int:
    """Name every recorded failure on stderr; 2 if there was any, else 0."""
    for name, err in sorted(bundle.failures.items()):
        print(f"{name}: FAILED ({err})", file=sys.stderr)
    return 0 if bundle.ok else 2


def _cmd_synth(args) -> int:
    config = GenConfig(**{name: getattr(args, name)
                          for name, _ in SYNTH_KEYS.values()})
    sample, _ = write_synthetic(config, args.out)
    print(f"wrote synthetic sample ({sample.network.n_links} links) to {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    filtered, rep = _parse_filtered(args)
    write_sample_csv(filtered, args.out)
    report.write_json(os.path.join(args.out, "filter_report.json"),
                      rep.to_json())
    print(f"kept {rep.kept_firms} firms, dropped {len(rep.dropped_firms)}; "
          f"{len(rep.isolated_banks)} banks left isolated")
    return 0


def _cmd_stats(args) -> int:
    filtered, _ = _parse_filtered(args)
    stats = pipeline.write_stats(ReportBundle(args.out), filtered.network)
    print(report.canonical_json(stats.to_json()), end="")
    return 0


def _cmd_nullmodel(args) -> int:
    if args.samples < 1:  # an invalid request, not a failing model
        raise ValueError("n_samples must be >= 1")
    filtered, _ = _parse_filtered(args)
    bundle = ReportBundle(args.out)
    if pipeline.write_null_variant(bundle, filtered, args.variant,
                                   args.samples, args.seed):
        print(f"wrote nullmodel_{args.variant}.json to {args.out}")
    return _finish(bundle)


def _cmd_regress(args) -> int:
    filtered, _ = _parse_filtered(args)
    fe = econ.FixedEffects.BANK_DUMMIES if args.fixed_effects \
        else econ.FixedEffects.NONE
    spec = econ.ModelSpec(STAGES[args.stage], econ.Model(args.model),
                          econ.DegreeVariant(args.variant), fixed_effects=fe)
    bundle = ReportBundle(args.out)
    cell = pipeline.write_cell(bundle, filtered, spec, subdir="")
    if cell is not None:
        print(cell[0].format_table(title=spec.name()), end="")
    return _finish(bundle)


def _cmd_placebo(args) -> int:
    filtered, _ = _parse_filtered(args)
    bundle = ReportBundle(args.out)
    for spec in pipeline.placebo_panel(STAGES[args.stage]):
        if pipeline.write_cell(bundle, filtered, spec, subdir=""):
            print(f"{spec.name()}: ok")
    return _finish(bundle)


def _cmd_run(args) -> int:
    given = {name: getattr(args, name) for name in RUN_FLAGS
             if getattr(args, name) is not None}
    bundle = run(load_config_file(args.config, args.out, **given)
                 if args.config else RunConfig(out_dir=args.out, **given))
    if bundle.ok:
        print(f"wrote {len(bundle.files)} files to {bundle.out_dir}")
    return _finish(bundle)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creditnet",
        description="Bipartite credit networks: null models and regressions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic sample")
    p.add_argument("--out", required=True)
    # the config-file keys without their "synth_" prefix, e.g. --noise-sd
    for key, (name, kind) in SYNTH_KEYS.items():
        p.add_argument("--" + key.removeprefix("synth_").replace("_", "-"),
                       dest=name, type=kind, default=getattr(GenConfig, name))
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse, filter and re-emit a sample")
    _add_input_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="summary statistics and CCDFs")
    _add_input_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("nullmodel", help="calibrate a null model and sample")
    _add_input_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", choices=list(pipeline.NULL_VARIANTS),
                   default="network")
    p.add_argument("--samples", type=int, default=RunConfig.n_samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.set_defaults(func=_cmd_nullmodel)

    p = sub.add_parser("regress", help="fit one regression specification")
    _add_input_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=["1", "2"], required=True)
    p.add_argument("--model", choices=["m1", "m2", "m3"], required=True)
    p.add_argument("--variant", choices=["a", "b"], default="a")
    p.add_argument("--fixed-effects", action="store_true")
    p.set_defaults(func=_cmd_regress)

    p = sub.add_parser("placebo", help="the four-column placebo panel")
    _add_input_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--stage", choices=["1", "2"], required=True)
    p.set_defaults(func=_cmd_placebo)

    p = sub.add_parser("run", help="full pipeline")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="flat key=value config file; the other "
                   "flags given override its values")
    p.add_argument("--edges", dest="edges_path")
    p.add_argument("--firms", dest="firm_attrs_path")
    p.add_argument("--banks", dest="bank_attrs_path")
    p.add_argument("--samples", dest="n_samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is an error; --help exits 0
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

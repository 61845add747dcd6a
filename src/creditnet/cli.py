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
from .pipeline import (RUN_KEYS, SYNTH_KEYS, ReportBundle, RunConfig,
                       load_config_file, run)
from .synthgen import GenConfig, write_synthetic

STAGES = {"1": econ.Stage.LINK_FORMATION, "2": econ.Stage.LOAN_SIZING}


def _parse_filtered(args):
    return apply_consistency_filter(parse_sample(args.edges, args.firms,
                                                 args.banks))


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
    # RunConfig's rules refuse an invalid request before any input is read
    config = RunConfig(args.out, args.edges, args.firms, args.banks,
                       n_samples=args.samples, seed=args.seed)
    filtered, _ = _parse_filtered(args)
    bundle = ReportBundle(args.out)
    if pipeline.write_null_variant(bundle, filtered, args.variant,
                                   config.n_samples, config.seed):
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
    # the flags given, under the names of the RunConfig fields they set
    given = {name: getattr(args, name) for name, _ in RUN_KEYS.values()
             if getattr(args, name, None) is not None}
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
    # the options that several subcommands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    for key, (name, _) in RUN_KEYS.items():
        if name.endswith("_path"):
            inputs.add_argument("--" + key, required=True)
    stage = argparse.ArgumentParser(add_help=False)
    stage.add_argument("--stage", choices=list(STAGES), required=True)

    def command(name, func, summary, parents=(inputs, out)):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("synth", _cmd_synth, "generate a synthetic sample", (out,))
    # the config-file keys without their "synth_" prefix, e.g. --noise-sd
    for key, (name, kind) in SYNTH_KEYS.items():
        p.add_argument("--" + key.removeprefix("synth_").replace("_", "-"),
                       dest=name, type=kind, default=getattr(GenConfig, name))
    command("ingest", _cmd_ingest, "parse, filter and re-emit a sample")
    command("stats", _cmd_stats, "summary statistics and CCDFs")

    p = command("nullmodel", _cmd_nullmodel,
                "calibrate a null model and sample")
    p.add_argument("--variant", choices=list(pipeline.NULL_VARIANTS),
                   default="network")
    p.add_argument("--samples", type=int, default=RunConfig.n_samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)

    p = command("regress", _cmd_regress, "fit one regression specification",
                (inputs, out, stage))
    p.add_argument("--model", choices=[m.value for m in econ.Model],
                   required=True)
    p.add_argument("--variant", choices=[v.value for v in econ.DegreeVariant],
                   default=econ.ModelSpec.variant.value)
    p.add_argument("--fixed-effects", action="store_true")
    command("placebo", _cmd_placebo, "the four-column placebo panel",
            (inputs, out, stage))

    p = command("run", _cmd_run, "full pipeline", (out,))
    p.add_argument("--config", help="flat key=value config file; the other "
                   "flags given override its values")
    for key, (name, kind) in RUN_KEYS.items():
        if key != "variants":
            p.add_argument("--" + key, dest=name, type=kind)
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

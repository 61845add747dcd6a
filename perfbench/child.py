"""One timed pipeline run in a fresh process.

Usage (normally started by run.py):

    python3 perfbench/child.py --workload NAME --seed N --work DIR \
        [--trace] [--reference FILE]

The process times its own set-up (``import creditnet``, then generating the
workload's inputs and writing them as CSV) and one ``creditnet.pipeline.run``
on those CSV files, then checks the outputs. Standard output gets two JSON
lines: the number of operations the run attempts, printed before the run so
that a crash still reports it, and the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference")
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload)

    # --- set-up: import, generate, write CSV inputs -----------------------
    # numpy is first imported here (check and tracer import it later), so its
    # import time counts as set-up
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import creditnet
    from creditnet import econometrics, pipeline
    from creditnet.ingest import write_sample_csv
    from creditnet.synthgen import GenConfig, generate
    if not os.path.abspath(creditnet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"creditnet imported from {creditnet.__file__}, "
                         f"not from {SRC}")
    t1 = time.perf_counter()
    sample, _ = generate(GenConfig(n_firms=wl.n_firms, n_banks=wl.n_banks,
                                   seed=args.seed, **workloads.GEN_SHAPE))
    t2 = time.perf_counter()
    input_paths = write_sample_csv(sample, os.path.join(args.work, "input"))
    t3 = time.perf_counter()
    del sample

    import check
    grid = pipeline.default_grid()
    if wl.loan_sizing_only:
        grid = tuple(s for s in grid
                     if s.stage is econometrics.Stage.LOAN_SIZING)
    cells = [s.name() for s in grid]
    config = pipeline.RunConfig(
        out_dir=os.path.join(args.work, "out"),
        edges_path=input_paths["edges"],
        firm_attrs_path=input_paths["firms"],
        bank_attrs_path=input_paths["banks"],
        null_variants=wl.null_variants, n_samples=wl.n_samples,
        seed=args.seed, grid=grid)

    n_ops = check.operations({}, len(wl.null_variants), cells)[0]
    print(json.dumps({"ops_attempted": n_ops}), flush=True)

    spans = None
    if args.trace:
        import tracer
        spans = tracer.Tracer()
        spans.install()

    # --- the timed run -----------------------------------------------------
    error = None
    t4 = time.perf_counter()
    try:
        if spans is not None:
            spans.span(tracer.ROOT, pipeline.run, config)
        else:
            pipeline.run(config)
    except Exception:  # a raising run is a result, not a harness failure
        error = traceback.format_exc()
    t5 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "import_s": t1 - t0,
        "synthgen.generate_s": t2 - t1,
        "ingest.write_sample_csv_s": t3 - t2,
        "setup_s": t3 - t0,
        "run_s": t5 - t4,
        "peak_rss_mb": peak_rss_mb,
        "ops_attempted": n_ops,
        "ops_failed": n_ops,
        "correct": False,
        "problems": [],
        "error": error,
    }
    if error is None:
        reference = None
        if args.reference and os.path.exists(args.reference):
            with open(args.reference, encoding="utf-8") as fh:
                reference = json.load(fh).get(wl.name, {}).get(str(args.seed))
        result["problems"] = check.check_run(config.out_dir, input_paths,
                                             reference)
        result["correct"] = not result["problems"]
        result["failures"] = check.manifest_failures(config.out_dir)
        if result["correct"]:
            result["ops_attempted"], result["ops_failed"] = check.operations(
                result["failures"], len(wl.null_variants), cells)
        result["cells"] = check.cell_estimates(config.out_dir)
    if spans is not None:
        spans.restore()
        layers = tracer.layer_metrics(spans)
        layers["econometrics.cells_attempted"] = len(cells)
        layers["econometrics.cells_failed"] = (
            len(cells) if error is not None
            else sum(c in result["failures"] for c in cells))
        result["layers"] = layers
        result["counter_errors"] = spans.counter_errors
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""creditnet benchmark: time whole pipeline runs and trace their layers.

Run from the repository root:

    python3 perfbench/run.py --workload consolidated_10k --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --all          # every workload, timed + traced

Each measurement is a fresh child process (``child.py``) that imports
creditnet from ``src/``, generates the workload's inputs from the seed, writes
them as CSV and calls ``creditnet.pipeline.run`` on them. Children run one at
a time until ``--seconds`` is used up (at least ``MIN_RUNS`` of them); the
reported figures are medians over the children. With ``--trace 1`` the
children alternate between an untraced and a traced run, and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count child runs; a run fails when it raises, crashes, times out
or fails the correctness check (see ``check.py``). ``correct`` is true when
at least one run completed and no completed run failed the check.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PKG = os.path.join(ROOT, "src", "creditnet")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join(HERE, "reference.json")
WORK = os.path.join(HERE, "_work")

CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # no child starts once it would end past this
MIN_RUNS = 3  # untraced children per run; a traced run needs one pair


def _median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# child runs


def run_child(workload: str, seed: int, trace: bool, work: str) -> dict:
    """Start one child process, wait for it and return its result."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--work", work,
           "--reference", REFERENCE]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s",
                "correct": False, **_lost_ops(exc.stdout)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) > 1:
        return dict(json.loads(lines[-1]), wall_s=time.perf_counter() - t0)
    tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
    return {"error": f"exit {proc.returncode}: {tail}", "correct": False,
            **_lost_ops(proc.stdout)}


def _lost_ops(stdout) -> dict:
    """A child that got through set-up announced its operations; a crash or
    a timeout loses all of them."""
    if isinstance(stdout, bytes):
        stdout = stdout.decode("utf-8", "replace")
    lines = (stdout or "").strip().splitlines()
    if not lines:
        return {}
    n_ops = json.loads(lines[0])["ops_attempted"]
    return {"ops_attempted": n_ops, "ops_failed": n_ops}


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> list[dict]:
    """Run children until ``seconds`` are used; trace mode runs pairs.

    Round ``i`` generates its inputs from ``workloads.input_seed(seed, i)``,
    so one run's median covers several input draws; in trace mode both
    children of a round see the same inputs.
    """
    results: list[dict] = []
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        t0 = time.perf_counter()
        input_seed = workloads.input_seed(seed, len(rounds))
        for traced in ((False, True) if trace else (False,)):
            work = os.path.join(WORK, f"{workload}-{os.getpid()}-{len(results)}")
            results.append(dict(run_child(workload, input_seed, traced, work),
                                traced=traced, input_seed=input_seed))
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        step = statistics.median(rounds)
        if elapsed + step > RUN_BUDGET_S:
            break
        min_rounds = 1 if trace else MIN_RUNS
        if len(rounds) >= min_rounds and elapsed + step > seconds:
            break
    try:
        os.rmdir(WORK)  # leave no empty work directory behind
    except OSError:
        pass  # another run is still using it
    return results


def warm_up() -> None:
    """Compile creditnet's bytecode once so the first child is not slower."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC_PKG))
    subprocess.run([sys.executable, "-c", "import creditnet.pipeline"],
                   cwd=ROOT, env=env, check=True, capture_output=True,
                   timeout=60)


# --------------------------------------------------------------------------
# environment and code size


def count_loc(path: str) -> int:
    """Non-blank lines that are not comments."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.strip().startswith("#"))


def loc_metrics(names) -> dict[str, int]:
    out = {}
    total = 0
    for dirpath, _, files in os.walk(SRC_PKG):
        for fname in files:
            if fname.endswith(".py"):
                n = count_loc(os.path.join(dirpath, fname))
                total += n
                if dirpath == SRC_PKG:
                    out[f"loc.{fname[:-3]}"] = n
    out = {name: out.get(name, 0) for name in names if name != "loc.total"}
    out["loc.total"] = total
    return out


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS library numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": commit,
    }


# --------------------------------------------------------------------------
# summaries


def summarize_timed(results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of untraced children, plus extra detail to print."""
    timed = [r for r in results if not r["traced"]]
    ok = [r for r in timed if r.get("correct")]
    attempted = sum(r.get("ops_attempted", 0) for r in timed)
    failed = sum(r.get("ops_failed", r.get("ops_attempted", 0))
                 for r in timed)
    metrics = {
        "run_s": _median([r["run_s"] for r in ok]),
        "setup_s": _median([r["setup_s"] for r in timed if "setup_s" in r]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "ok_share": (attempted - failed) / attempted if attempted else 0.0,
    }
    detail = {
        "failed_share": failed / attempted if attempted else 1.0,
        "operations": f"{failed} of {attempted} failed",
        "failures": sorted({k for r in timed for k in r.get("failures", {})}),
        "run_s_all": [round(r["run_s"], 4) for r in ok],
        "setup_s_all": [round(r["setup_s"], 4) for r in timed
                        if "setup_s" in r],
        "wall_s_all": [round(r["wall_s"], 2) for r in ok],
    }
    return metrics, detail


def summarize_traced(results: list[dict], layer_names) -> dict:
    traced = [r for r in results if r["traced"] and r.get("correct")]
    untraced = [r for r in results if not r["traced"] and r.get("correct")]
    metrics = {}
    for name in layer_names:
        values = [r["layers"][name] if name in r["layers"] else r.get(name, 0)
                  for r in traced]
        metrics[name] = _median(values)
    metrics["trace_overhead_s"] = (
        _median([r["layers"]["traced_run_s"] for r in traced])
        - _median([r["run_s"] for r in untraced]))
    return metrics


# --------------------------------------------------------------------------


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(bench: dict, workload: str, seed: int, seconds: float,
                 trace: bool, env: dict) -> dict:
    results = measure(workload, seed, seconds, trace)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"# workload {workload}  seed {seed}  trace {int(trace)}  "
          f"children {len(results)}")
    print("# env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for r in results:
        if not r.get("correct"):
            print(f"# FAILED child (traced={r['traced']}): "
                  f"{r.get('error') or r.get('problems')}")
        for msg in r.get("counter_errors", []):
            print(f"# trace counter skipped: {msg}")

    if trace:
        layer_names = [m["name"] for m in bench["per_layer"]]
        metrics = summarize_traced(
            results, [n for n in layer_names
                      if n != "trace_overhead_s" and not n.startswith("loc.")])
        metrics.update(loc_metrics([n for n in layer_names
                                    if n.startswith("loc.")]))
        for name in layer_names:
            print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
        for r in results:
            if r["traced"] and r.get("correct"):
                layers = r["layers"]
                total = sum(layers[k] for k in tracer.SELF_TIMES)
                print(f"# traced self times sum to {total:.6f} s; "
                      f"traced_run_s {layers['traced_run_s']:.6f} s")
    else:
        metrics, detail = summarize_timed(results)
        for name in (m["name"] for m in bench["end_to_end"]):
            print(f"{name:14s} {metrics[name]:.6g} {units[name]}")
        print(f"{'failed_share':14s} {detail['failed_share']:.6g} share "
              f"({detail['operations']}: {', '.join(detail['failures']) or '-'})")
        print(f"# per child: run_s {detail['run_s_all']}  "
              f"setup_s {detail['setup_s_all']}  wall_s {detail['wall_s_all']}")

    # a run that raised has no outputs to check: it counts as failed (and its
    # operations as failed), while "correct" reports the outputs that exist
    return {
        "correct": any(r.get("correct") for r in results)
        and not any(r.get("problems") for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if not r.get("correct")),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def record_reference() -> None:
    """Record every fitted cell's estimates at the default workload seed."""
    reference = {}
    for name in workloads.WORKLOADS:
        work = os.path.join(WORK, f"reference-{name}")
        result = run_child(name, workloads.DEFAULT_SEED, False, work)
        if result.get("error"):
            raise SystemExit(f"{name}: {result['error']}")
        reference[name] = {str(workloads.DEFAULT_SEED): result["cells"]}
        print(f"{name}: {len(result['cells'])} fitted cells recorded")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, timed and traced")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PKG, "__init__.py")):
        print(f"error: no creditnet sources at {SRC_PKG}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    warm_up()
    if args.record_reference:
        record_reference()
        return 0
    env = environment()
    if args.all:
        out = {}
        for name in workloads.WORKLOADS:
            for trace in (False, True):
                out[f"{name}/trace{int(trace)}"] = run_workload(
                    bench, name, args.seed, seconds, trace, env)
        print(json.dumps(out, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    workloads.get(args.workload)  # validate the name before any run
    result = run_workload(bench, args.workload, args.seed, seconds,
                          bool(args.trace), env)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

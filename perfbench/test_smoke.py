"""Smoke test of the benchmark harness on a tiny workload (40x12, 50 samples).

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_benchmark_file_names_are_valid(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in bench["end_to_end"] if m["name"] == "setup_s").items()


def test_timed_and_traced_outputs(bench):
    timed = json.loads(_run("--trace", "0")[-1])
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
    assert set(timed["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    lines = _run("--trace", "1")
    traced = json.loads(lines[-1])
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert values["traced_run_s"] > 0
    assert values["econometrics.cells_attempted"] == 17
    assert values["nullmodel.bicm_max_residual"] < 1e-8
    assert values["loc.total"] > 0

    # the self times account for the whole traced run
    sums = [line for line in lines if line.startswith("# traced self times")]
    assert sums
    for line in sums:
        total, run_s = (float(x) for x in re.findall(r"([0-9.]+) s", line))
        assert total == pytest.approx(run_s, rel=1e-9)


def test_refuses_to_run_without_sources(tmp_path):
    """A directory with only the benchmark files has nothing to measure."""
    for rel in ("BENCHMARK.json",):
        (tmp_path / rel).write_text(open(os.path.join(ROOT, rel)).read())
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for fname in os.listdir(HERE):
        if fname.endswith((".py", ".json")):
            (bench_dir / fname).write_text(open(os.path.join(HERE, fname)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "consolidated_10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

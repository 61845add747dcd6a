import argparse
import csv
import dataclasses
import io
import json
import os
import re
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creditnet import econometrics, nullmodel, pipeline, report
from creditnet.cli import build_parser, main
from creditnet.core import Sample
from creditnet.ingest import write_sample_csv
from creditnet.pipeline import (NULL_VARIANTS, PLACEBO_NULLS, ReportBundle,
                                RunConfig, default_grid, load_config_file,
                                residual_diagnostics, run, write_null_variant)
from creditnet.report import (canonical_json, sha256_file, sha256_text,
                              svg_histogram, svg_scatter, write_csv,
                              write_csvs)
from creditnet.synthgen import GenConfig, generate
from conftest import make_sample, small_run_config
from oracles import canonical_json_dumps, central_moments, csv_rows_text


# --------------------------------------------------------------------------
# report primitives


def test_canonical_json_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [np.float64(2.5), np.int64(3)]})
    b = canonical_json({"a": [2.5, 3], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert canonical_json({"x": float("nan")}) == canonical_json({"x": None})
    non_finite = {"a": float("inf"), "b": np.float64("-inf"),
                  "c": np.array([1.5, np.inf, np.nan])}
    assert json.loads(canonical_json(non_finite)) == {
        "a": None, "b": None, "c": [1.5, None, None]}


# floats at the edges of repr's forms: signed zero, subnormals, the switch
# to exponent notation at 1e16 and below 1e-4, the largest finite values
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e16, 9999999999999998.0, 1.0000000000000002e16,
               1e-05, 9.999999999999999e-06, 0.0001, 9.999999999999999e-05,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5,
               float("inf"), float("-inf"), float("nan")]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_subnormal=True))
float_dtypes = st.sampled_from([np.float64, np.float32, np.float16])


def _array_and_views(arr):
    """An array, or a non-contiguous view of it: a column or a reversed
    strided slice."""
    column = arr.ndim == 2 and arr.shape[1] > 0
    return st.sampled_from([arr, arr[:, 0] if column else arr[::-2]])


float_arrays = hnp.arrays(
    float_dtypes, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    elements=st.floats(width=16)).flatmap(_array_and_views)
other_arrays = hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, max_side=4))
numpy_scalars = st.one_of(
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8))
json_leaves = st.one_of(
    floats, st.integers(), st.booleans(), st.none(), st.text(),
    numpy_scalars, float_arrays, other_arrays,
    st.lists(floats, min_size=1, max_size=8))
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), children,
                        max_size=5)),
    max_leaves=30)


@given(json_values)
@settings(max_examples=300, deadline=None)
@example({"floats": EDGE_FLOATS, "array": np.array(EDGE_FLOATS),
          "column": np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]).T[:, 1],
          "float32": np.float32(0.1), "text": "Zürich ✓", 3: [(), {}, []]})
def test_canonical_json_matches_json_dumps(obj):
    assert canonical_json(obj) == canonical_json_dumps(obj)


@pytest.mark.parametrize("obj", [object(), np.bool_(True), 1j,
                                 {"a": [1.0, {2}]}, np.array([1j])])
def test_canonical_json_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        canonical_json_dumps(obj)
    with pytest.raises(TypeError):
        canonical_json(obj)


csv_columns = st.one_of(
    hnp.arrays(float_dtypes, st.integers(0, 8),
               elements=st.floats(width=16)).flatmap(_array_and_views),
    hnp.arrays(np.float64, st.integers(0, 8), elements=floats),
    hnp.arrays(np.int64, st.integers(0, 8)),
    st.lists(floats, max_size=8),
    st.lists(st.integers(), max_size=8),
    st.lists(st.one_of(floats, st.integers()), max_size=8),
    st.lists(st.text(), max_size=8))


@given(st.lists(csv_columns, max_size=4))
@settings(max_examples=200, deadline=None)
@example([EDGE_FLOATS, np.array(EDGE_FLOATS)[::-1], list(range(19)),
          np.array([EDGE_FLOATS, EDGE_FLOATS]).T[:, 0]])
# equal dict keys with different texts, and text values that repeat
@example([[0.0, -0.0, 1, 1.0], ["f1", 'b"2', "f1", 'b"2']])
def test_write_csv_matches_row_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(path, header, columns)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == csv_rows_text(header, zip(*columns)).encode("utf-8")


CSV_BLOCK = report._CSV_BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                               2 * CSV_BLOCK + 1])
def test_write_csv_streams_the_same_text_across_blocks(tmp_path, n):
    rng = np.random.default_rng(n)
    floats = rng.normal(size=n + 2)
    floats[::7], floats[3::11] = np.nan, -0.0
    ids = ["f,1", 'b"2', "f3"] * (n // 3 + 2)
    # rows stop at the shortest column, the first one
    columns = [floats[:n], list(range(n + 3)), ids[:n + 1],
               floats[::-1].tolist()]
    path = tmp_path / "out.csv"
    write_csv(path, ["x", "k", "id", "y"], columns)
    text = csv_rows_text(["x", "k", "id", "y"], zip(*columns))
    assert text.count("\n") == n + 1
    assert path.read_bytes() == text.encode("utf-8")


def test_write_csvs_equals_each_file_written_alone(tmp_path):
    """Files written in lockstep are the files written one by one: a column
    shared across the block boundary and in different positions, and
    columns of unequal length within a file and across files."""
    n = 2 * CSV_BLOCK + 1
    rng = np.random.default_rng(5)
    shared = rng.normal(size=n)
    shared[::5], shared[3::11] = np.nan, -0.0
    ids = [f"f{i % 97}" for i in range(n)]
    files = [("a.csv", ["x", "shared"], (rng.normal(size=n), shared)),
             ("b.csv", ["shared", "id", "k"], (shared, ids, range(n - 3))),
             ("c.csv", ["id", "shared", "again"],
              (ids[:CSV_BLOCK + 2], shared, shared)),
             ("d.csv", ["shared", "none"], (shared, []))]
    write_csvs([(tmp_path / "together" / name, header, columns)
                for name, header, columns in files])
    for name, header, columns in files:
        write_csv(tmp_path / "alone" / name, header, columns)
        assert ((tmp_path / "together" / name).read_bytes()
                == (tmp_path / "alone" / name).read_bytes())


def test_write_csv_memory_does_not_grow_with_the_rows(tmp_path):
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=100_000), rng.lognormal(size=100_000)
    path = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["x", "y"], (x, y))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(path)


@given(st.lists(st.text(), min_size=2, max_size=4),
       st.lists(st.lists(st.text(), min_size=4, max_size=4), max_size=6))
@settings(max_examples=200, deadline=None)
@example(["a", "b"], [["", 'say "hi"', "x,y", "cr\r\nlf"]])
def test_write_csv_quotes_text_as_csv_writer(header, rows):
    # csv.writer differs only on a row of one empty field, which it quotes
    rows = [row[:len(header)] for row in rows]

    def writer_line(row):
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        return buf.getvalue()[:-2] + "\n"  # its line ends in \r\n

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(path, header, list(zip(*rows)) or [[]] * len(header))
        with open(path, "rb") as fh:
            written = fh.read().decode("utf-8")
    assert written == "".join(map(writer_line, [header] + rows))


def test_svg_outputs_have_no_volatile_content():
    svg = svg_scatter([1.0, 2.0], [3.0, 4.0], title="t", identity=True)
    assert svg.startswith("<svg")
    assert svg == svg_scatter([1.0, 2.0], [3.0, 4.0], title="t", identity=True)
    hist = svg_histogram([2, 5, 1], [0.0, 1.0, 2.0, 3.0], title="h")
    assert "</svg>" in hist
    assert "date" not in hist and "time" not in hist


def test_default_grid_shape():
    grid = default_grid()
    names = [spec.name() for spec in grid]
    assert len(names) == len(set(names))
    assert "link_formation_m1" in names
    assert "loan_sizing_m3_a_null_bal" in names
    assert "loan_sizing_m3_a_fe" in names
    assert sum(n.startswith("link_formation") for n in names) == 8


# --------------------------------------------------------------------------
# the full pipeline


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    bundle = run(small_run_config(out))
    return out, bundle


def test_run_cell_json_records_design_provenance(completed_run):
    out, _ = completed_run
    cell = json.loads((out / "regress" / "loan_sizing_m3_a.json").read_text())
    design = cell["design"]
    assert sorted(design) == ["n_clamped", "n_dropped", "n_floored", "n_obs"]
    assert design["n_obs"] == cell["n_obs"]
    assert design["n_dropped"] == 0  # loan-sizing rows are the links
    assert all(n >= 0 for n in design["n_floored"].values())


def test_run_manifest_hashes_match(completed_run):
    out, bundle = completed_run
    manifest = json.loads((out / "manifest.json").read_text())
    for rel, digest in manifest["outputs"].items():
        assert sha256_file(str(out / rel)) == digest
    assert manifest["failures"] == {name: err for name, err
                                    in bundle.failures.items()}


def test_run_holds_one_design_at_a_time(tmp_path, monkeypatch):
    """Each grid cell's design is released before the next one is built."""
    designs, alive = [], []
    original = econometrics.build_design

    def tracked(*args, **kwargs):
        # recorded, not asserted: write_cell would record the error as a
        # failing cell
        alive.append(sum(ref() is not None for ref in designs))
        design = original(*args, **kwargs)
        designs.append(weakref.ref(design))
        return design

    monkeypatch.setattr(econometrics, "build_design", tracked)
    bundle = run(small_run_config(tmp_path))
    assert len(alive) == len(default_grid())
    assert "residual_diagnostics.json" in bundle.files
    assert alive == [0] * len(alive)


def test_run_seed_changes_ensembles(tmp_path):
    run(small_run_config(tmp_path / "a"))
    run(dataclasses.replace(small_run_config(tmp_path / "c"), seed=99))
    j1 = json.loads((tmp_path / "a" / "nullmodel_network.json").read_text())
    j2 = json.loads((tmp_path / "c" / "nullmodel_network.json").read_text())
    assert j1["ensemble"]["max_abs_z"] != j2["ensemble"]["max_abs_z"]
    # but closed-form moments, and the comparisons built on them, are
    # seed-free
    assert j1["expected_firm_degrees"] == j2["expected_firm_degrees"]
    for name in ("firm_degrees", "bank_degrees", "firm_strengths",
                 "bank_strengths"):
        assert j1[f"sd_{name}"] == j2[f"sd_{name}"]
    for side in ("firms", "banks"):
        for ext in ("csv", "json", "svg"):
            name = f"comparison_network_{side}.{ext}"
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "c" / name).read_bytes()


def test_run_records_cell_failures_without_aborting(tmp_path):
    # a tiny sample cannot support the full grid; failures must be recorded
    config = RunConfig(
        out_dir=str(tmp_path / "tiny"),
        synth=GenConfig(n_firms=6, n_banks=3, seed=1, target_density=0.5),
        n_samples=5, seed=1)
    bundle = run(config)
    assert (tmp_path / "tiny" / "manifest.json").exists()
    assert bundle.failures  # at least some cells cannot be estimated
    for err in bundle.failures.values():
        assert ":" in err  # "ExceptionName: message" format


def test_run_survives_a_failing_null_variant(tmp_path):
    # a bank lending to every firm has no finite BiCM multiplier
    rng = np.random.default_rng(5)
    w = (rng.random((12, 5)) < 0.4) * rng.uniform(1, 5, (12, 5))
    w[:, 0] = rng.uniform(1, 5, 12)
    paths = write_sample_csv(make_sample(w), str(tmp_path / "input"))
    out = tmp_path / "out"
    run(RunConfig(out_dir=str(out), edges_path=paths["edges"],
                  firm_attrs_path=paths["firms"],
                  bank_attrs_path=paths["banks"],
                  null_variants=("network", "balance", "bicm", "random"),
                  n_samples=20, seed=1))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"]["nullmodel_bicm"].startswith(
        "NonGraphicalTargets")
    assert not (out / "nullmodel_bicm.json").exists()
    for name in ("network", "balance", "random"):
        assert (out / f"nullmodel_{name}.json").exists()


@pytest.mark.parametrize("variants", [tuple(NULL_VARIANTS), ("network",), ()],
                         ids=["all", "network", "none"])
def test_run_computes_each_closed_form_once(tmp_path, monkeypatch, variants):
    """A null's closed forms are computed once, by whichever stage first
    asks: one ``expected_metrics`` call per null written or read."""
    calls = []
    original = nullmodel.expected_metrics

    def counted(spec):
        calls.append(spec)
        return original(spec)

    # econometrics imports the name too: count calls made through either
    monkeypatch.setattr(nullmodel, "expected_metrics", counted)
    monkeypatch.setattr(econometrics, "expected_metrics", counted)
    config = dataclasses.replace(small_run_config(tmp_path),
                                 null_variants=variants)
    bundle = run(config)
    assert len(calls) == len(set(variants) | set(PLACEBO_NULLS.values()))
    # every null placebo cell got its closed forms (a stage-1 one may
    # still fail its fit)
    assert not [name for name, err in bundle.failures.items()
                if name.startswith("nullmodel_") or "MissingNullModel" in err]
    assert "regress/loan_sizing_m3_a_null_bal.json" in bundle.files


def _null_placebo_cells(out, bundle):
    """Each null placebo cell's files, or its recorded failure."""
    cells = {}
    for stage in econometrics.Stage:
        for placebo in PLACEBO_NULLS:
            cell = econometrics.ModelSpec(stage, econometrics.Model.M3_FULL,
                                          placebo=placebo).name()
            cells[cell] = bundle.failures.get(cell) or [
                (out / "regress" / f"{cell}.{ext}").read_bytes()
                for ext in ("json", "txt")]
    return cells


def test_run_reads_a_placebo_null_it_does_not_write(tmp_path,
                                                    completed_run):
    """A null left out of ``null_variants`` is calibrated for the placebo
    cells that read it, which come out as in a run that writes it; its
    files are not written."""
    out = tmp_path / "network"
    bundle = run(dataclasses.replace(small_run_config(out),
                                     null_variants=("network",)))
    assert _null_placebo_cells(out, bundle) == \
        _null_placebo_cells(*completed_run)
    assert (out / "nullmodel_network.json").exists()
    assert not (out / "nullmodel_balance.json").exists()
    assert not [f for f in bundle.files if "comparison_balance" in f]


def test_run_failed_draw_fails_only_its_variant(tmp_path, monkeypatch,
                                                completed_run):
    """The placebo cells read the closed forms, which a draw cannot fail."""
    def fail(*args):
        raise nullmodel.NullModelError("no draw")

    monkeypatch.setattr(pipeline, "sample_ensemble", fail)
    out = tmp_path / "out"
    bundle = run(small_run_config(out))
    for name in small_run_config(out).null_variants:
        assert bundle.failures[f"nullmodel_{name}"] == \
            "NullModelError: no draw"
        assert not (out / f"nullmodel_{name}.json").exists()
    assert _null_placebo_cells(out, bundle) == \
        _null_placebo_cells(*completed_run)


def test_null_variant_json_writes_each_number_once(completed_run):
    out, _ = completed_run
    written = json.loads((out / "nullmodel_network.json").read_text())
    assert written["skipped_comparisons"] == {}
    assert "seed" not in written and "n_samples" not in written
    assert (written["ensemble"]["seed"],
            written["ensemble"]["n_samples"]) == (11, 50)


def test_null_variant_names_skipped_comparisons(tmp_path):
    """The random baseline's expected degrees are constant, so neither side
    can be compared: the JSON names each cause, and no failure is recorded
    because the model itself worked."""
    config = small_run_config(tmp_path)
    sample, _ = generate(config.synth)
    bundle = ReportBundle(str(tmp_path), sample)
    assert write_null_variant(bundle, "random", config.n_samples,
                              config.seed) is not None
    assert bundle.failures == {}
    assert bundle.files == ["nullmodel_random.json"]
    written = json.loads((tmp_path / "nullmodel_random.json").read_text())
    cause = "ConstantSequence: correlation undefined for a constant sequence"
    assert written["skipped_comparisons"] == {"firms": cause, "banks": cause}


def test_run_survives_infinite_vifs(tmp_path):
    # s_bal equal to s_net up to 1e-7 puts their VIFs above 1e12
    run(RunConfig(out_dir=str(tmp_path),
                  synth=GenConfig(seed=0, balance_noise=1e-7), n_samples=20))
    assert (tmp_path / "manifest.json").exists()
    vifs = json.loads((tmp_path / "vif.json").read_text())
    for name in ("ln_s_net", "ln_s_bal", "ln_t_net", "ln_t_bal"):
        assert vifs[name] is None
    assert vifs["tang"] > 1.0


def test_residual_diagnostics_content(completed_run):
    out, _ = completed_run
    diag = json.loads((out / "residual_diagnostics.json").read_text())
    assert abs(diag["mean"]) < 1e-8  # OLS residuals sum to zero
    assert diag["variance"] > 0
    assert "scatters" not in diag  # the pairs live in the CSVs only
    x, resid = np.loadtxt(out / "residual_vs_ln_k.csv", delimiter=",",
                          skiprows=1, unpack=True)
    cell = json.loads((out / "regress" / "loan_sizing_m3_a.json").read_text())
    assert x.size == resid.size == cell["n_obs"]
    assert np.all(np.isfinite(x))
    # the histogram summarises the residuals written beside ln_k
    edges = diag["histogram"]["edges"]
    assert np.histogram(resid, bins=edges)[0].tolist() == \
        diag["histogram"]["counts"]
    assert resid.mean() == pytest.approx(diag["mean"], abs=1e-8)


def test_residual_diagnostics_match_central_moments(completed_run):
    """Variance m2, skewness m3 / m2**1.5 and excess kurtosis m4 / m2**2 - 3
    of the loan-sizing residuals, by the oracle's central moments."""
    out, _ = completed_run
    diag = json.loads((out / "residual_diagnostics.json").read_text())
    resid = np.loadtxt(out / "residual_vs_ln_k.csv", delimiter=",",
                       skiprows=1, usecols=1)
    m2, m3, m4 = (central_moments(resid, order) for order in (2, 3, 4))
    assert diag["variance"] == pytest.approx(m2, rel=1e-12)
    assert diag["skewness"] == pytest.approx(m3 / m2**1.5, rel=1e-9)
    assert diag["excess_kurtosis"] == pytest.approx(m4 / m2**2 - 3, rel=1e-9)


def test_residual_diagnostics_of_constant_residuals():
    """A constant residual vector has no spread: both shape moments are 0."""
    resid = np.full(40, -1.25)  # every partial sum is exact
    fit = econometrics.FitResult(method="ols", coefficients={}, fit_stat=0.0,
                    fit_stat_name="r_squared", n_obs=resid.size,
                    objective=0.0, n_iter=1, residuals=resid,
                    bread=np.eye(0))
    diag = residual_diagnostics(fit)
    assert diag["variance"] == central_moments(resid, 2) == 0.0
    assert diag["skewness"] == diag["excess_kurtosis"] == 0.0


def test_config_validation(tmp_path):
    # neither files nor synth: the default sample, drawn with the run's seed
    assert RunConfig(out_dir=str(tmp_path)).synth == GenConfig(seed=42)
    assert RunConfig(out_dir=str(tmp_path), seed=7).synth.seed == 7
    with pytest.raises(ValueError):
        RunConfig(out_dir=str(tmp_path), synth=GenConfig(),
                  edges_path="e", firm_attrs_path="f", bank_attrs_path="b")
    with pytest.raises(ValueError):
        RunConfig(out_dir=str(tmp_path), synth=GenConfig(),
                  null_variants=("bogus",))


def test_config_refuses_a_repeated_null_variant(tmp_path, capsys):
    """A variant given twice would be calibrated, drawn and listed twice."""
    with pytest.raises(ValueError,
                       match=r"^null variant 'network' given twice$"):
        RunConfig(out_dir=str(tmp_path), null_variants=("network", "network"))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("samples = 20\nvariants = network,bicm,network\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert ("cfg:2: variants: null variant 'network' given twice"
            in capsys.readouterr().err)
    assert not out.exists()


def test_config_refuses_a_repeated_grid_cell(tmp_path):
    """A cell given twice would be fitted, written and listed twice."""
    spec = econometrics.ModelSpec(econometrics.Stage.LOAN_SIZING,
                                  econometrics.Model.M1_GRAVITY)
    with pytest.raises(ValueError,
                       match=r"^grid cell 'loan_sizing_m1' given twice$"):
        RunConfig(out_dir=str(tmp_path), null_variants=(), grid=(spec, spec))


def test_config_hash_tells_an_empty_grid_from_the_default(tmp_path):
    # grid=None runs the default grid, grid=() runs no cell
    default = small_run_config(tmp_path)
    empty = dataclasses.replace(default, grid=())
    assert default.to_json()["grid"] is None
    assert empty.to_json()["grid"] == []
    hashes = {sha256_text(canonical_json(config.to_json()))
              for config in (default, empty)}
    assert len(hashes) == 2


def test_config_rejects_csv_paths_beside_synth(tmp_path):
    """A CSV path next to a generator config would be ignored; it is an
    error, and without one all three paths are required."""
    for field in ("edges_path", "firm_attrs_path", "bank_attrs_path"):
        with pytest.raises(ValueError, match="together with a synthetic"):
            RunConfig(out_dir=str(tmp_path), synth=GenConfig(),
                      **{field: "x.csv"})
    with pytest.raises(ValueError, match="three CSV paths"):
        RunConfig(out_dir=str(tmp_path), edges_path="e", firm_attrs_path="f")


def test_config_file_has_no_out_key(tmp_path):
    """The output directory is the caller's, never the file's."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth_firms = 30\nout = elsewhere\n")
    with pytest.raises(ValueError, match=r"cfg:2: unknown key 'out'"):
        load_config_file(str(cfg_path), str(tmp_path / "o"))


def test_config_file_defaults_are_run_config_defaults(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth_firms = 30\n")
    config = load_config_file(str(cfg_path), out_dir=str(tmp_path / "o"))
    assert config == RunConfig(out_dir=str(tmp_path / "o"),
                               synth=GenConfig(n_firms=30))


def test_load_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# synthetic run\n"
        "synth_firms = 30\n"
        "synth_banks = 10\n"
        "synth_seed = 4\n"
        "synth_density = 0.2\n"
        "samples = 25\n"
        "seed = 9\n"
        "variants = network\n")
    config = load_config_file(str(cfg_path), out_dir=str(tmp_path / "o"))
    assert config.synth.n_firms == 30
    assert config.n_samples == 25
    assert config.null_variants == ("network",)
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    with pytest.raises(ValueError):
        load_config_file(str(bad), str(tmp_path / "o"))
    typo = tmp_path / "typo.cfg"
    typo.write_text("samples = 25\nsampels = 25\n")
    with pytest.raises(ValueError, match=r"cfg:2: unknown key 'sampels'"):
        load_config_file(str(typo), str(tmp_path / "o"))


# a config-file line with a bad value -> the cause its error names
BAD_VALUES = {
    "samples = 1e4": "invalid literal",
    "synth_firms = thirty": "invalid literal",
    "seed = ": "invalid literal",
    "synth_density = 2": "target_density must lie in (0, 1)",
    "synth_banks = 0": "n_banks (0) must be >= 1",
    "samples = 0": "n_samples must be >= 1",
    "variants = netwrk": "unknown null variant 'netwrk'",
    "variants = network,network": "null variant 'network' given twice",
}


@pytest.mark.parametrize("line", list(BAD_VALUES))
def test_config_file_bad_value_names_its_line_and_key(tmp_path, line):
    """A value that does not convert, or that its config's rule rejects."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"seed = 3\n{line}\n")
    key = line.partition("=")[0].strip()
    with pytest.raises(ValueError,
                       match=rf"cfg:2: {key}: {re.escape(BAD_VALUES[line])}"):
        load_config_file(str(cfg_path), str(tmp_path / "o"))


def test_config_file_leading_byte_order_mark_is_not_data(tmp_path):
    """A config file saved with a UTF-8 byte-order mark reads as one without."""
    text = "samples = 25\nsynth_firms = 30\n"
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(text, encoding="utf-8")
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    out = str(tmp_path / "o")
    assert load_config_file(str(bom), out) == load_config_file(str(plain), out)


@pytest.mark.parametrize("key", ["samples", "synth_firms"])
def test_config_file_key_given_twice_is_refused(tmp_path, key):
    """A repeated key would silently keep its last value."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"{key} = 5\nseed = 3\n{key} = 7\n")
    with pytest.raises(ValueError, match=rf"cfg:3: key '{key}' already "
                                         "given on line 1$"):
        load_config_file(str(cfg_path), str(tmp_path / "o"))


def test_config_file_any_synth_key_makes_it_synthetic(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth_banks = 15\nseed = 5\n")
    config = load_config_file(str(cfg_path), str(tmp_path / "o"))
    assert config.synth == GenConfig(n_banks=15)  # synth_seed keeps its 0
    assert config.seed == 5


# --------------------------------------------------------------------------
# CLI


def input_flags(directory):
    """The --edges, --firms and --banks flags of the sample in a directory."""
    return [f"--{name}={os.path.join(directory, name)}.csv"
            for name in ("edges", "firms", "banks")]


# the committed 6 x 4 sample
CONSOLIDATED_SMALL = input_flags(os.path.join(os.path.dirname(__file__),
                                              "data", "consolidated_small"))


@pytest.fixture(scope="module")
def synth_data(tmp_path_factory):
    """The 40 x 12 sample `synth` writes at seed 3 and density 0.25."""
    data = tmp_path_factory.mktemp("data")
    assert main(["synth", "--out", str(data), "--firms", "40", "--banks",
                 "12", "--seed", "3", "--density", "0.25"]) == 0
    return data


def test_cli_synth_then_stats_and_regress(tmp_path, synth_data):
    out = tmp_path / "stats"
    assert main(["stats", *input_flags(synth_data), "--out", str(out)]) == 0
    stats = json.loads((out / "summary_stats.json").read_text())
    assert stats["n_links"] > 0

    reg = tmp_path / "reg"
    assert main(["regress", *input_flags(synth_data), "--out", str(reg),
                 "--stage", "2", "--model", "m3"]) == 0
    table = (reg / "loan_sizing_m3_a.txt").read_text()
    assert "Observations" in table
    assert "ln_s_net" in table


def test_cli_synth_defaults_are_gen_config_defaults(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    sample, truth = generate(GenConfig())
    paths = write_sample_csv(sample, str(tmp_path / "lib"))
    for name, path in paths.items():
        with open(path, "rb") as fh:
            assert (tmp_path / "cli" / f"{name}.csv").read_bytes() == \
                fh.read(), name
    assert (tmp_path / "cli" / "ground_truth.json").read_text() == \
        canonical_json(truth.to_json())


def test_cli_ingest_re_emits_a_clean_sample(tmp_path, capsys, synth_data):
    """A sample the filter keeps whole comes back byte for byte."""
    out = tmp_path / "ingest"
    assert main(["ingest", *input_flags(synth_data), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("kept 40 firms, dropped 0; ")
    filtered = json.loads((out / "filter_report.json").read_text())
    assert (filtered["kept_firms"], filtered["dropped_firms"]) == (40, [])
    for name in ("edges", "firms", "banks"):
        assert (out / f"{name}.csv").read_bytes() == \
            (synth_data / f"{name}.csv").read_bytes(), name


def test_cli_stages_write_what_run_writes(tmp_path, synth_data):
    full = tmp_path / "full"
    run(RunConfig(out_dir=str(full), edges_path=str(synth_data / "edges.csv"),
                  firm_attrs_path=str(synth_data / "firms.csv"),
                  bank_attrs_path=str(synth_data / "banks.csv"),
                  n_samples=50, seed=11))
    inputs = input_flags(synth_data)
    for command, args, subdir, must_write in (
            ("stats", [], "", "summary_stats.json"),
            ("nullmodel", ["--variant", "network", "--samples", "50",
                           "--seed", "11"], "", "nullmodel_network.json"),
            ("regress", ["--stage", "2", "--model", "m3"], "regress",
             "loan_sizing_m3_a.json"),
            ("regress", ["--stage", "2", "--model", "m3", "--fixed-effects"],
             "regress", "loan_sizing_m3_a_fe.json"),
            ("regress", ["--stage", "1", "--model", "m2"], "regress",
             "link_formation_m2_a.json"),
            ("placebo", ["--stage", "2"], "regress",
             "loan_sizing_m3_a_null_net.json")):
        out = tmp_path / must_write.removesuffix(".json")
        assert main([command, *inputs, "--out", str(out), *args]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert must_write in written
        for name in written:
            assert (out / name).read_bytes() == \
                (full / subdir / name).read_bytes(), name


def test_cli_nullmodel_runs_every_variant(tmp_path, capsys, synth_data):
    for variant in NULL_VARIANTS:
        out = tmp_path / variant
        assert main(["nullmodel", *input_flags(synth_data), "--out", str(out),
                     "--variant", variant, "--samples", "20"]) == 0, variant
        assert (out / f"nullmodel_{variant}.json").exists()
        assert f"nullmodel_{variant}.json to {out}" in capsys.readouterr().out


def test_cli_run_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth_firms = 30\nsynth_banks = 10\n"
                        "samples = 7\nseed = 5\nvariants = network\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 "--samples", "9", "--seed", "3"]) in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config"]["n_samples"], manifest["seed"]) == (9, 3)
    assert manifest["config"]["null_variants"] == ["network"]  # the file's
    # a flag left out keeps the file's value
    main(["run", "--config", str(cfg_path), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["config"]["n_samples"], manifest["seed"]) == (7, 5)


@pytest.mark.parametrize("lines, with_paths, expected", [
    ("samples = 5\nvariants = network\n", True, {"n_samples": 5}),
    ("synth_seed = 3\nsynth_banks = 15\n", False,
     {"synth.n_banks": 15, "synth.seed": 3}),
    ("samples = 5\n", False, {"synth.seed": 42}),
], ids=["paths-from-flags", "synth-keys", "no-input"])
def test_cli_run_merges_flags_into_config_file(tmp_path, synth_data, lines,
                                                with_paths, expected):
    """The flags and the file merge before the config is validated: the
    flags may supply the paths the file leaves out, any synth_* key makes
    the run synthetic, and no input at all is the default sample."""
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(lines)
    flags = input_flags(synth_data) if with_paths else []
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), *flags,
                 "--out", str(out)]) in (0, 2)
    config = json.loads((out / "manifest.json").read_text())["config"]
    if with_paths:
        assert config["edges_path"] == str(synth_data / "edges.csv")
        assert config["synth"] is None
    for key, value in expected.items():
        got = config
        for part in key.split("."):
            got = got[part]
        assert got == value, key


def test_cli_run_rejects_csv_path_beside_synth_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("synth_firms = 30\nsynth_banks = 10\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--edges",
                 "/nonexistent/edges.csv", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "CSV path (edges) given together with a synthetic" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--edges", "--firms", "--banks"])
def test_cli_run_with_one_csv_path_asks_for_all_three(tmp_path, capsys,
                                                      flag):
    # one path is an incomplete CSV input, not a synthetic config
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), flag,
                 str(tmp_path / "input.csv")]) == 1
    err = capsys.readouterr().err
    assert "provide the three CSV paths" in err
    assert "synthetic generator config" in err  # the error's other option
    assert "given together" not in err
    assert not out.exists()


def test_cli_nullmodel_rejects_zero_samples(tmp_path, capsys):
    out = tmp_path / "null"
    assert main(["nullmodel", *CONSOLIDATED_SMALL, "--out", str(out),
                 "--samples", "0"]) == 1
    assert "error: ValueError: n_samples must be >= 1" in \
        capsys.readouterr().err
    assert not out.exists()


# the sample of the placebo command's tests
PLACEBO_SAMPLE = GenConfig(n_firms=50, n_banks=15, seed=8, target_density=0.2)


def test_cli_placebo_panel(tmp_path, capsys):
    data = tmp_path / "data"
    write_sample_csv(generate(PLACEBO_SAMPLE)[0], str(data))
    out = tmp_path / "placebo"
    code = main(["placebo", *input_flags(data), "--out", str(out),
                 "--stage", "2"])
    assert code in (0, 2)
    assert (out / "loan_sizing_m3_a.json").exists()
    captured = capsys.readouterr()
    assert "loan_sizing_m3_a" in captured.out + captured.err


def test_cli_placebo_records_a_failing_null(tmp_path, capsys):
    """A null that cannot calibrate fails, by name, the cell that reads it;
    the other cells are written as `run` writes them."""
    sample, _ = generate(PLACEBO_SAMPLE)
    t_bal = np.array(sample.bank_columns["balance_strength"])
    t_bal[3:] = 0.0  # three banks cannot carry the network's link count
    paths = write_sample_csv(Sample(sample.network, sample.firm_columns, dict(
        sample.bank_columns, balance_strength=t_bal)), str(tmp_path / "in"))
    full = tmp_path / "full"
    run(RunConfig(out_dir=str(full), edges_path=paths["edges"],
                  firm_attrs_path=paths["firms"],
                  bank_attrs_path=paths["banks"], n_samples=20, seed=1))
    out = tmp_path / "placebo"
    assert main(["placebo", "--edges", paths["edges"], "--firms",
                 paths["firms"], "--banks", paths["banks"], "--out",
                 str(out), "--stage", "2"]) == 2
    err = capsys.readouterr().err
    assert "nullmodel_balance: FAILED (TargetOutOfRange: " in err
    assert "loan_sizing_m3_a_null_bal: FAILED (MissingNullModel: " in err
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(f"loan_sizing_m3_a{cell}.{ext}"
                             for cell in ("", "_nostrength", "_null_net")
                             for ext in ("json", "txt"))
    for name in written:
        assert (out / name).read_bytes() == \
            (full / "regress" / name).read_bytes(), name


def test_cli_run_subcommand(tmp_path):
    out = tmp_path / "full"
    code = main(["run", "--out", str(out), "--samples", "20", "--seed", "5"])
    assert code in (0, 2)
    assert (out / "manifest.json").exists()
    # a run given no input writes the sample that `synth` draws with the
    # run's default seed, and reads it back
    default, synth = tmp_path / "default", tmp_path / "synth"
    assert main(["run", "--out", str(default)]) in (0, 2)
    assert main(["synth", "--out", str(synth), "--seed", "42"]) == 0
    for name in ("edges.csv", "firms.csv", "banks.csv", "ground_truth.json"):
        assert (default / "input" / name).read_bytes() == \
            (synth / name).read_bytes(), name


@pytest.mark.parametrize("argv", [
    ["run", "--out", "o", "--bogus"],
    ["regress", "--edges", "e", "--firms", "f", "--banks", "b", "--out", "o",
     "--model", "m3"],
    ["run", "--out", "o", "--samples", "ten"],
])
def test_cli_usage_error_exits_1(argv, capsys):
    """Exit 2 is a failed cell or null variant; a usage error is an error."""
    assert main(argv) == 1
    assert "usage: creditnet" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    assert "--config" in capsys.readouterr().out


_INPUTS = [("--edges", True, None, None), ("--firms", True, None, None),
           ("--banks", True, None, None), ("--out", True, None, None)]
# each subcommand's options in declaration order (the order of argparse's
# usage line and of its missing-arguments message): option string,
# required, choices, default
CLI_SURFACE = {
    "synth": [("--out", True, None, None), ("--firms", False, None, 60),
              ("--banks", False, None, 20), ("--seed", False, None, 0),
              ("--density", False, None, 0.12),
              ("--attachment-boost", False, None, 0.0),
              ("--fragmentation-penalty", False, None, 0.0),
              ("--noise-sd", False, None, 0.1),
              ("--balance-noise", False, None, 0.05)],
    "ingest": _INPUTS,
    "stats": _INPUTS,
    "nullmodel": _INPUTS + [
        ("--variant", False, ["network", "balance", "bicm", "random"],
         "network"),
        ("--samples", False, None, 10_000), ("--seed", False, None, 42)],
    "regress": _INPUTS + [
        ("--stage", True, ["1", "2"], None),
        ("--model", True, ["m1", "m2", "m3"], None),
        ("--variant", False, ["a", "b"], "a"),
        ("--fixed-effects", False, None, False)],
    "placebo": _INPUTS + [("--stage", True, ["1", "2"], None)],
    "run": [("--out", True, None, None), ("--config", False, None, None),
            ("--edges", False, None, None), ("--firms", False, None, None),
            ("--banks", False, None, None), ("--samples", False, None, None),
            ("--seed", False, None, None)],
}


def test_cli_surface_is_pinned(capsys):
    """Every subcommand keeps its options, which are required, their
    choices and their defaults; each one's --help exits 0."""
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert list(commands) == list(CLI_SURFACE)
    for name, parser in commands.items():
        options = [(*action.option_strings, action.required,
                    None if action.choices is None else list(action.choices),
                    action.default)
                   for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)]
        assert options == CLI_SURFACE[name], name
        assert main([name, "--help"]) == 0, name
        assert capsys.readouterr().out.startswith(f"usage: creditnet {name}")


def test_cli_error_exit_code(tmp_path, capsys):
    code = main(["stats", "--edges", "/nonexistent.csv", "--firms", "x",
                 "--banks", "y", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # a cell that cannot be estimated is a failure, not an error
    code = main(["regress", *CONSOLIDATED_SMALL, "--out", str(tmp_path / "reg"),
                 "--stage", "2", "--model", "m3"])
    assert code == 2
    assert "loan_sizing_m3_a: FAILED" in capsys.readouterr().err

import csv
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creditnet import econometrics, nullmodel
from creditnet.cli import main
from creditnet.core import Sample
from creditnet.ingest import write_sample_csv
from creditnet.pipeline import (NULL_VARIANTS, ReportBundle, RunConfig,
                                default_grid, load_config_file,
                                residual_diagnostics, run, write_null_variant)
from creditnet.report import (canonical_json, sha256_file, sha256_text,
                              svg_histogram, svg_scatter, write_csv)
from creditnet.synthgen import GenConfig, generate
from conftest import make_sample
from oracles import canonical_json_dumps, csv_rows_text


def small_run_config(out_dir, seed=7):
    return RunConfig(
        out_dir=str(out_dir),
        synth=GenConfig(n_firms=40, n_banks=12, seed=seed,
                        target_density=0.25),
        n_samples=50,
        seed=11,
    )


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
def test_write_csv_matches_row_writer(columns):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(path, header, columns)
        with open(path, "rb") as fh:
            written = fh.read()
    assert written == csv_rows_text(header, zip(*columns)).encode("utf-8")


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


def test_run_emits_expected_files(completed_run):
    out, bundle = completed_run
    assert (out / "manifest.json").exists()
    assert (out / "summary_stats.json").exists()
    assert (out / "nullmodel_network.json").exists()
    assert (out / "regress" / "loan_sizing_m3_a.json").exists()
    assert (out / "residual_diagnostics.json").exists()
    for rel in bundle.files:
        assert (out / rel).exists()


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


def test_run_is_byte_identical(tmp_path):
    b1 = run(small_run_config(tmp_path / "a"))
    b2 = run(small_run_config(tmp_path / "b"))
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["config_hash"] == m2["config_hash"]
    assert sorted(b1.files) == sorted(b2.files)


def test_run_seed_changes_ensembles(tmp_path):
    run(small_run_config(tmp_path / "a"))
    alt = RunConfig(out_dir=str(tmp_path / "c"),
                    synth=GenConfig(n_firms=40, n_banks=12, seed=7,
                                    target_density=0.25),
                    n_samples=50, seed=99)
    run(alt)
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


def test_run_computes_each_closed_form_once(tmp_path, monkeypatch):
    """The null placebo cells read the closed forms their null variant's
    stage computed: one ``expected_metrics`` call per requested variant."""
    calls = []
    original = nullmodel.expected_metrics

    def counted(spec):
        calls.append(spec)
        return original(spec)

    # econometrics imports the name too: count calls made through either
    monkeypatch.setattr(nullmodel, "expected_metrics", counted)
    monkeypatch.setattr(econometrics, "expected_metrics", counted)
    config = dataclasses.replace(small_run_config(tmp_path),
                                 null_variants=tuple(NULL_VARIANTS))
    bundle = run(config)
    assert len(calls) == len(NULL_VARIANTS)
    # every null placebo cell got its closed forms (a stage-1 one may
    # still fail its fit)
    assert not [name for name, err in bundle.failures.items()
                if name.startswith("nullmodel_") or "MissingNullModel" in err]
    assert "regress/loan_sizing_m3_a_null_bal.json" in bundle.files


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
    bundle = ReportBundle(str(tmp_path))
    assert write_null_variant(bundle, sample, "random", config.n_samples,
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
    assert resid.var() == pytest.approx(diag["variance"], rel=1e-9)


def test_residual_diagnostics_requires_residuals():
    from creditnet.econometrics import EconError, FitResult
    bare = FitResult(method="ols", coefficients={}, fit_stat=0.0,
                     fit_stat_name="r_squared", n_obs=0, objective=0.0,
                     n_iter=1)
    with pytest.raises(EconError):
        residual_diagnostics(bare)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        RunConfig(out_dir=str(tmp_path))  # neither files nor synth
    with pytest.raises(ValueError):
        RunConfig(out_dir=str(tmp_path), synth=GenConfig(),
                  edges_path="e", firm_attrs_path="f", bank_attrs_path="b")
    with pytest.raises(ValueError):
        RunConfig(out_dir=str(tmp_path), synth=GenConfig(),
                  null_variants=("bogus",))


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


# --------------------------------------------------------------------------
# CLI


def test_cli_synth_then_stats_and_regress(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--firms", "40", "--banks",
                 "12", "--seed", "3", "--density", "0.25"]) == 0
    edges = str(data / "edges.csv")
    firms = str(data / "firms.csv")
    banks = str(data / "banks.csv")

    out = tmp_path / "stats"
    assert main(["stats", "--edges", edges, "--firms", firms,
                 "--banks", banks, "--out", str(out)]) == 0
    stats = json.loads((out / "summary_stats.json").read_text())
    assert stats["n_links"] > 0

    reg = tmp_path / "reg"
    assert main(["regress", "--edges", edges, "--firms", firms,
                 "--banks", banks, "--out", str(reg), "--stage", "2",
                 "--model", "m3"]) == 0
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


def test_cli_stages_write_what_run_writes(tmp_path):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--firms", "40", "--banks", "12",
          "--seed", "3", "--density", "0.25"])
    paths = [str(data / f"{name}.csv") for name in ("edges", "firms", "banks")]
    full = tmp_path / "full"
    run(RunConfig(out_dir=str(full), edges_path=paths[0],
                  firm_attrs_path=paths[1], bank_attrs_path=paths[2],
                  n_samples=50, seed=11))
    inputs = ["--edges", paths[0], "--firms", paths[1], "--banks", paths[2]]
    for command, args, subdir, must_write in (
            ("stats", [], "", "summary_stats.json"),
            ("nullmodel", ["--variant", "network", "--samples", "50",
                           "--seed", "11"], "", "nullmodel_network.json"),
            ("regress", ["--stage", "2", "--model", "m3"], "regress",
             "loan_sizing_m3_a.json"),
            ("placebo", ["--stage", "2"], "regress",
             "loan_sizing_m3_a_null_net.json")):
        out = tmp_path / command
        assert main([command, *inputs, "--out", str(out), *args]) == 0
        written = sorted(p.name for p in out.iterdir())
        assert must_write in written
        for name in written:
            assert (out / name).read_bytes() == \
                (full / subdir / name).read_bytes(), name


def test_cli_nullmodel_runs_every_variant(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--firms", "40", "--banks", "12",
          "--seed", "3", "--density", "0.25"])
    inputs = [f"--{name}={data / name}.csv"
              for name in ("edges", "firms", "banks")]
    for variant in NULL_VARIANTS:
        out = tmp_path / variant
        assert main(["nullmodel", *inputs, "--out", str(out), "--variant",
                     variant, "--samples", "20"]) == 0, variant
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
    data = os.path.join(os.path.dirname(__file__), "data", "consolidated_small")
    out = tmp_path / "null"
    assert main(["nullmodel", "--edges", os.path.join(data, "edges.csv"),
                 "--firms", os.path.join(data, "firms.csv"),
                 "--banks", os.path.join(data, "banks.csv"),
                 "--out", str(out), "--samples", "0"]) == 1
    assert "error: ValueError: n_samples must be >= 1" in \
        capsys.readouterr().err
    assert not out.exists()


def test_cli_placebo_panel(tmp_path, capsys):
    data = tmp_path / "data"
    main(["synth", "--out", str(data), "--firms", "50", "--banks", "15",
          "--seed", "8", "--density", "0.2"])
    out = tmp_path / "placebo"
    code = main(["placebo", "--edges", str(data / "edges.csv"),
                 "--firms", str(data / "firms.csv"),
                 "--banks", str(data / "banks.csv"),
                 "--out", str(out), "--stage", "2"])
    assert code in (0, 2)
    assert (out / "loan_sizing_m3_a.json").exists()
    captured = capsys.readouterr()
    assert "loan_sizing_m3_a" in captured.out + captured.err


def test_cli_placebo_records_a_failing_null(tmp_path, capsys):
    """A null that cannot calibrate fails, by name, the cell that reads it;
    the other cells are written as `run` writes them."""
    sample, _ = generate(GenConfig(n_firms=50, n_banks=15, seed=8,
                                   target_density=0.2))
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


def test_cli_error_exit_code(tmp_path, capsys):
    code = main(["stats", "--edges", "/nonexistent.csv", "--firms", "x",
                 "--banks", "y", "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # a cell that cannot be estimated is a failure, not an error
    data = os.path.join(os.path.dirname(__file__), "data", "consolidated_small")
    code = main(["regress", "--edges", os.path.join(data, "edges.csv"),
                 "--firms", os.path.join(data, "firms.csv"),
                 "--banks", os.path.join(data, "banks.csv"),
                 "--out", str(tmp_path / "reg"), "--stage", "2",
                 "--model", "m3"])
    assert code == 2
    assert "loan_sizing_m3_a: FAILED" in capsys.readouterr().err

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import ingest
from creditnet.ingest import (DuplicateAttributeRow, IngestError,
                              MalformedRow, MissingAttribute, NegativeAmount,
                              NoFirmsLeft, apply_consistency_filter,
                              parse_sample, write_sample_csv)
from creditnet.core import BANK_FIELDS, FIRM_FIELDS
from creditnet.synthgen import GenConfig, generate
from conftest import make_sample
from oracles import consistency_filter_loop

FIRM_HEADER = "firm_id,s_bal,total_assets,leverage,roa,tangibility\n"
BANK_HEADER = "bank_id,t_bal,total_assets,leverage,roa\n"


def write_inputs(tmp_path, edges, firms, banks):
    paths = {}
    for name, header, rows in (("edges", "firm_id,bank_id,amount\n", edges),
                               ("firms", FIRM_HEADER, firms),
                               ("banks", BANK_HEADER, banks)):
        p = tmp_path / f"{name}.csv"
        p.write_text(header + "".join(r + "\n" for r in rows),
                     encoding="utf-8")
        paths[name] = str(p)
    return paths


def default_firms(ids, s_bal=100.0):
    return [f"{fid},{s_bal},1000,0.5,1.2,0.3" for fid in ids]


def default_banks(ids, t_bal=500.0):
    return [f"{bid},{t_bal},5000,12,0.5" for bid in ids]


def test_duplicate_edges_are_summed(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1,10", "F1,B1,5"],
                         default_firms(["F1"]), default_banks(["B1"]))
    sample = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert sample.network.weights[0, 0] == 15.0


def test_missing_attribute_raises(tmp_path):
    paths = write_inputs(tmp_path, ["F9,B1,10"],
                         default_firms(["F1"]), default_banks(["B1"]))
    with pytest.raises(MissingAttribute) as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert err.value.node_id == "F9"


def test_malformed_row_and_duplicate_attribute(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1"], default_firms(["F1"]),
                         default_banks(["B1"]))
    with pytest.raises(MalformedRow):
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    paths = write_inputs(tmp_path, ["F1,B1,10"],
                         default_firms(["F1"]) * 2, default_banks(["B1"]))
    with pytest.raises(DuplicateAttributeRow):
        parse_sample(paths["edges"], paths["firms"], paths["banks"])


def test_roundtrip_through_csv(tmp_path):
    sample = make_sample([[1.5, 0.0], [2.25, 3.0]], s_bal=[2.0, 6.0])
    paths = write_sample_csv(sample, tmp_path / "out")
    back = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    np.testing.assert_array_equal(back.network.weights,
                                  sample.network.weights)
    for name in FIRM_FIELDS:
        np.testing.assert_array_equal(back.firm_columns[name],
                                      sample.firm_columns[name])
    for name in BANK_FIELDS:
        np.testing.assert_array_equal(back.bank_columns[name],
                                      sample.bank_columns[name])
    # one row per link, firm-major, floats by repr, lines ending in \n
    tiny = write_sample_csv(make_sample([[1.5, 4.0], [2.0, 0.0]]),
                            tmp_path / "tiny")
    with open(tiny["edges"], "rb") as fh:
        assert fh.read() == (b"firm_id,bank_id,amount\nF0,B0,1.5\n"
                             b"F0,B1,4.0\nF1,B0,2.0\n")


def quoted(text):
    return '"' + text.replace('"', '""') + '"'


def assert_same_files(paths, other):
    for name, path in paths.items():
        with open(path, "rb") as a, open(other[name], "rb") as b:
            assert a.read() == b.read(), name


def test_ids_with_csv_syntax_round_trip(tmp_path):
    firm_ids = ("Rossi, S.p.A.", 'Bar "Sport"', "two\nlines", "Società ✓")
    bank_ids = ("Banca, Popolare", 'B"1', "cr\r\nlf", "Crédit Agricole")
    edges = [f"{quoted(f)},{quoted(b)},{10 + i}"
             for i, (f, b) in enumerate(zip(firm_ids, bank_ids))]
    paths = write_inputs(tmp_path, edges,
                         default_firms(map(quoted, firm_ids), s_bal=10.0),
                         default_banks(map(quoted, bank_ids)))
    sample = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert sample.network.firm_ids == firm_ids
    assert sample.network.bank_ids == bank_ids
    first = write_sample_csv(sample, tmp_path / "first")
    back = parse_sample(first["edges"], first["firms"], first["banks"])
    assert back.network.firm_ids == firm_ids
    assert back.network.bank_ids == bank_ids
    np.testing.assert_array_equal(back.network.weights,
                                  sample.network.weights)
    assert_same_files(first, write_sample_csv(back, tmp_path / "second"))


def test_out_of_range_attribute_names_its_line(tmp_path):
    firms = default_firms(["F1", "F2"]) + ["F3,100.0,1000,0.5,1.2,1.5"]
    paths = write_inputs(tmp_path, ["F1,B1,10"], firms, default_banks(["B1"]))
    with pytest.raises(MalformedRow, match="tangibility") as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert (err.value.path, err.value.line_no) == (paths["firms"], 4)

    banks = default_banks(["B1"]) + ["B2,500.0,0,12,0.5"]
    paths = write_inputs(tmp_path, ["F1,B1,10"], default_firms(["F1"]), banks)
    with pytest.raises(MalformedRow, match="total_assets") as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert (err.value.path, err.value.line_no) == (paths["banks"], 3)

    # a bad value above an unreadable or duplicate row is named first
    for later in ("F3,abc,1000,0.5,1.2,0.3", "F2,100.0,1000,0.5,1.2,0.3"):
        firms = (default_firms(["F1"]) + ["F2,100.0,-1,0.5,1.2,0.3"]
                 + [later])
        paths = write_inputs(tmp_path, ["F1,B1,10"], firms,
                             default_banks(["B1"]))
        with pytest.raises(MalformedRow, match="total_assets") as err:
            parse_sample(paths["edges"], paths["firms"], paths["banks"])
        assert err.value.line_no == 3


def test_negative_amount_after_a_multi_line_row_names_its_line(tmp_path):
    two = quoted("two\nlines")  # on lines 2-3
    paths = write_inputs(tmp_path, [f"{two},B1,10", "F1,B1,-2"],
                         default_firms(["F1", two]), default_banks(["B1"]))
    with pytest.raises(NegativeAmount,
                       match="edges.csv:4: negative loan amount") as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert err.value.line_no == 4


def test_bad_attribute_after_a_multi_line_row_names_its_line(tmp_path):
    # the quoted id is on lines 3-4, the bad tangibility on line 5
    firms = (default_firms(["F1", quoted("two\nlines")])
             + ["F2,100.0,1000,0.5,1.2,2"])
    paths = write_inputs(tmp_path, ["F1,B1,10"], firms, default_banks(["B1"]))
    with pytest.raises(MalformedRow, match="firms.csv:5: .*tangibility"):
        parse_sample(paths["edges"], paths["firms"], paths["banks"])


def test_bad_multi_line_row_is_named_by_its_first_line(tmp_path):
    # quoted ids on lines 2-3 and 4-5; the second row's tangibility is bad
    one, two = quoted("one\nline"), quoted("two\nlines")
    firms = [f"{one},100.0,1000,0.5,1.2,0.3", f"{two},100.0,1000,0.5,1.2,2"]
    paths = write_inputs(tmp_path, ["F1,B1,10"], firms, default_banks(["B1"]))
    with pytest.raises(MalformedRow, match="tangibility") as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert (err.value.path, err.value.line_no) == (paths["firms"], 4)


@pytest.mark.parametrize("name", ["edges", "firms", "banks"])
def test_leading_byte_order_mark_is_not_data(tmp_path, name):
    """Excel's "CSV UTF-8" export starts each file with a UTF-8 byte-order
    mark; the sample parses as it does without one."""
    paths = write_inputs(tmp_path, ["F1,B1,10", "F2,B1,5"],
                         default_firms(["F1", "F2"]), default_banks(["B1"]))
    plain = write_sample_csv(
        parse_sample(paths["edges"], paths["firms"], paths["banks"]),
        tmp_path / "plain")
    bom = tmp_path / f"{name}.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
    back = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    assert_same_files(plain, write_sample_csv(back, tmp_path / "bom"))


def test_write_parse_write_is_byte_identical(tmp_path):
    sample, _ = generate(GenConfig(n_firms=30, n_banks=8, seed=2))
    first = write_sample_csv(sample, tmp_path / "first")
    back = parse_sample(first["edges"], first["firms"], first["banks"])
    assert_same_files(first, write_sample_csv(back, tmp_path / "second"))


def test_filter_drops_out_of_band_firms():
    # F0: ratio 1e-6 (too low); F1: ratio 1 (kept); F2: ratio 2e3 (too high)
    sample = make_sample(
        [[1.0, 0.0], [5.0, 5.0], [2000.0, 0.0]],
        s_bal=[1e6, 10.0, 1.0],
    )
    filtered, rep = apply_consistency_filter(sample)
    assert filtered.network.firm_ids == ("F1",)
    assert rep.kept_firms == 1
    reasons = {fid: reason for fid, _, reason in rep.dropped_firms}
    assert reasons == {"F0": "missing data",
                       "F2": "inconsistent Nota Integrativa"}


def test_filter_band_is_closed():
    sample = make_sample([[1.0, 0.0], [1000.0, 0.0]], s_bal=[1000.0, 1.0])
    filtered, rep = apply_consistency_filter(sample)  # ratios 1e-3 and 1e3
    assert rep.kept_firms == 2
    assert not rep.dropped_firms


def test_filter_undefined_ratio_and_zero_zero():
    sample = make_sample([[3.0, 0.0], [0.0, 0.0]], s_bal=[0.0, 0.0])
    filtered, rep = apply_consistency_filter(sample)
    assert filtered.network.firm_ids == ("F1",)  # zero debt, zero links: kept
    assert rep.dropped_firms[0][2] == "undefined ratio"


def test_filter_flags_isolated_banks():
    sample = make_sample([[1.0, 0.0], [0.0, 5.0]], s_bal=[1e9, 5.0])
    filtered, rep = apply_consistency_filter(sample)
    assert rep.isolated_banks == ("B0",)
    assert filtered.network.bank_ids == ("B0", "B1")  # bank retained


def test_filter_dropping_every_firm_names_the_band():
    with pytest.raises(NoFirmsLeft, match=r"all 1 firms.*\[0\.001, 1000\]"):
        apply_consistency_filter(make_sample([[1.0]], s_bal=[1e9]))
    with pytest.raises(IngestError, match="all 2 firms"):
        apply_consistency_filter(make_sample([[1.0], [2.0]], s_bal=[0, 1e4]))


@given(st.integers(1, 6), st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_filter_matches_loop_oracle(nf, nb, rnd):
    # sparse weights and balance strengths spread over the band's edges
    weights = np.array([[rnd.choice([0.0, 0.0, rnd.uniform(0.5, 5.0)])
                         for _ in range(nb)] for _ in range(nf)])
    s_net = weights.sum(axis=1)
    s_bal = [rnd.choice([0.0, s_net[i] * 1e3, s_net[i] / 1e3,
                         s_net[i] * rnd.choice([1e-4, 0.5, 1.0, 2e3])])
             for i in range(nf)]
    sample = make_sample(weights, s_bal=s_bal)
    kept, dropped = consistency_filter_loop(sample.network.firm_ids, weights,
                                            s_bal)
    if not kept:  # a network needs a firm
        with pytest.raises(NoFirmsLeft):
            apply_consistency_filter(sample)
        return
    filtered, rep = apply_consistency_filter(sample)
    assert filtered.network.firm_ids == kept
    assert rep.dropped_firms == dropped
    assert rep.kept_firms == len(kept)
    keep = [f in kept for f in sample.network.firm_ids]
    np.testing.assert_array_equal(filtered.network.weights, weights[keep])
    np.testing.assert_array_equal(filtered.firm_columns["balance_strength"],
                                  np.array(s_bal)[keep])
    assert rep.isolated_banks == tuple(
        b for j, b in enumerate(sample.network.bank_ids)
        if not weights[keep, j].any())


# --------------------------------------------------------------------------
# refusals: each names its file and line


def refusal(paths):
    """The error parse_sample raises on the given input files."""
    with pytest.raises(IngestError) as err:
        parse_sample(paths["edges"], paths["firms"], paths["banks"])
    return err.value


def test_empty_file_is_refused(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1,10"], default_firms(["F1"]),
                         default_banks(["B1"]))
    open(paths["edges"], "w").close()
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == f"{paths['edges']}:1: malformed row (empty file)"


def test_wrong_header_is_refused(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1,10"], default_firms(["F1"]),
                         default_banks(["B1"]))
    with open(paths["banks"], "w", encoding="utf-8") as fh:
        fh.write("bank_id,t_bal,assets,leverage,roa\nB1,500.0,5000,12,0.5\n")
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == (f"{paths['banks']}:1: malformed row (expected header "
                        "bank_id,t_bal,total_assets,leverage,roa)")


def test_blank_line_parses_as_if_absent(tmp_path):
    firms, banks = default_firms(["F1", "F2"]), default_banks(["B1", "B2"])
    edges = ["F1,B1,10", "F2,B2,4"]
    plain = parse_sample(*write_inputs(tmp_path, edges, firms,
                                       banks).values())
    gaps = parse_sample(*write_inputs(
        tmp_path, edges[:1] + [""] + edges[1:],
        firms[:1] + [""] + firms[1:], banks[:1] + [""] + banks[1:]).values())
    assert gaps.network.firm_ids == plain.network.firm_ids
    assert gaps.network.bank_ids == plain.network.bank_ids
    np.testing.assert_array_equal(gaps.network.weights, plain.network.weights)
    # the rows below a blank line keep their own line numbers
    paths = write_inputs(tmp_path, ["F1,B1,10", "", "F1,B1,-2"],
                         default_firms(["F1"]), default_banks(["B1"]))
    err = refusal(paths)
    assert type(err) is NegativeAmount
    assert str(err) == f"{paths['edges']}:4: negative loan amount"


@pytest.mark.parametrize("text", ["inf", "nan", "-inf"])
def test_non_finite_values_are_refused(tmp_path, text):
    firms, banks = default_firms(["F1", "F2"]), default_banks(["B1"])
    paths = write_inputs(tmp_path, ["F1,B1,10", f"F2,B1,{text}"], firms,
                         banks)
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == (f"{paths['edges']}:3: malformed row "
                        f"(non-finite value: {text!r})")
    firms[1] = f"F2,100.0,1000,0.5,{text},0.3"
    paths = write_inputs(tmp_path, ["F1,B1,10"], firms, banks)
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == (f"{paths['firms']}:3: malformed row "
                        f"(non-finite value: {text!r})")


@pytest.mark.parametrize("row", [",B1,10", "F1,,10", " ,B1,10"])
def test_empty_node_id_in_edges_is_refused(tmp_path, row):
    paths = write_inputs(tmp_path, ["F1,B1,10", row], default_firms(["F1"]),
                         default_banks(["B1"]))
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == f"{paths['edges']}:3: malformed row (empty node id)"


def test_empty_attribute_id_is_refused(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1,10"],
                         default_firms(["F1", ""]), default_banks(["B1"]))
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == f"{paths['firms']}:3: malformed row (empty firm_id)"
    paths = write_inputs(tmp_path, ["F1,B1,10"],
                         default_firms(["F1"]), default_banks(["", "B1"]))
    err = refusal(paths)
    assert type(err) is MalformedRow
    assert str(err) == f"{paths['banks']}:2: malformed row (empty bank_id)"


def test_edge_to_an_unknown_bank_is_refused(tmp_path):
    paths = write_inputs(tmp_path, ["F1,B1,10", "F1,B9,10"],
                         default_firms(["F1"]), default_banks(["B1"]))
    err = refusal(paths)
    assert type(err) is MissingAttribute
    assert err.node_id == "B9"
    assert str(err) == "no attribute record for node 'B9'"


# --------------------------------------------------------------------------
# the bulk reader: the per-line reader's result, bit for bit


def outcome(paths):
    """What ``parse_sample`` returns, as exact ids and bytes, or raises, as
    the error's type and text."""
    try:
        sample = parse_sample(paths["edges"], paths["firms"], paths["banks"])
    except Exception as exc:  # the refusal is the outcome
        return type(exc), str(exc)
    columns = {**sample.firm_columns, **{
        f"bank {name}": col for name, col in sample.bank_columns.items()}}
    return (sample.network.firm_ids, sample.network.bank_ids,
            sample.network.weights.tobytes(),
            {name: col.tobytes() for name, col in columns.items()})


def read_both_ways(paths, monkeypatch):
    """``outcome`` of the files, the names of the files it read a row at a
    time, and ``outcome`` with the bulk reader switched off."""
    per_line = []
    read_rows = ingest._read_rows

    def spy(path, header):
        per_line.append(next(k for k, p in paths.items() if p == path))
        return read_rows(path, header)

    def not_plain(path, header):
        raise ingest._NotPlain

    with monkeypatch.context() as m:
        m.setattr(ingest, "_read_rows", spy)
        bulk = outcome(paths)
    with monkeypatch.context() as m:
        m.setattr(ingest, "_plain_blocks", not_plain)
        return bulk, per_line, outcome(paths)


@pytest.mark.parametrize("seed", [0, 1])
def test_bulk_reader_equals_per_line_reader(tmp_path, monkeypatch, seed):
    """Weights, ids and columns of a written sample with duplicate edges,
    read in blocks of a few lines so that duplicates span blocks."""
    sample, _ = generate(GenConfig(n_firms=40, n_banks=10, seed=seed))
    paths = write_sample_csv(sample, tmp_path)
    with open(paths["edges"], encoding="utf-8") as fh:
        lines = fh.readlines()
    # every third link twice more, in reverse order at the end: its sum
    # depends on the order of the additions
    lines += [line.rsplit(",", 1)[0] + f",{amount}\n"
              for k, line in enumerate(lines[:0:-3], 1)
              for amount in (0.1 * k, 0.7 / k)]
    with open(paths["edges"], "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", 100)
    bulk, per_line, rows = read_both_ways(paths, monkeypatch)
    assert per_line == []
    assert bulk == rows
    assert rows[2] != sample.network.weights.tobytes()  # duplicates summed


def edit(column, to, rows=slice(None), files=("edges",)):
    """An edit of ``files``: cell ``column`` of each data row in ``rows``
    (every cell if ``column`` is None) becomes ``to(cell)``."""
    def apply(name, text):
        if name not in files:
            return text
        header, *lines = text.split("\n")  # the last line is empty
        for r in range(len(lines) - 1)[rows]:
            cells = lines[r].split(",")
            for c in range(len(cells)) if column is None else [column]:
                cells[c] = to(cells[c])
            lines[r] = ",".join(cells)
        return "\n".join([header, *lines])
    return apply


def whole(to, files=("edges", "firms", "banks")):
    """An edit of the whole text of ``files``."""
    return lambda name, text: to(text) if name in files else text


def rename(new):
    """``to`` of an edit that renames firm F0000."""
    return lambda cell: new if cell == "F0000" else cell


IDS = ("edges", "firms")  # the files that name firms

# (edit, the files the per-line reader reads, in order)
PER_LINE_CASES = {
    "quote": (edit(0, quoted, files=IDS), ["firms", "edges"]),
    "quoted comma": (edit(0, rename(quoted("F0, S.p.A.")), files=IDS),
                     ["firms", "edges"]),
    "multi-line row": (edit(0, rename(quoted("F0\nSrl")), files=IDS),
                       ["firms", "edges"]),
    "crlf": (whole(lambda t: t.replace("\n", "\r\n")),
             ["firms", "banks", "edges"]),
    "byte-order mark": (whole(lambda t: "\ufeff" + t), []),
    "surrounding space": (edit(None, lambda c: f" {c} ", files=IDS),
                          ["firms", "edges"]),
    "blank line": (whole(lambda t: t.replace("\n", "\n\n", 3)),
                   ["firms", "banks", "edges"]),
    "a row of commas": (whole(lambda t: t + ",,\n", ["edges"]), ["edges"]),
    "no final newline": (whole(lambda t: t[:-1]), []),
    "nan": (edit(2, lambda c: "nan", slice(4, 5)), ["edges"]),
    "negative amount": (edit(2, lambda c: "-" + c, slice(4, 5)), ["edges"]),
    "out-of-range attribute": (edit(5, lambda c: "2", slice(3, 4),
                                    files=["firms"]), ["firms"]),
    "unknown id": (edit(1, lambda c: "B999", slice(4, 5)), ["edges"]),
    "duplicate id": (edit(0, lambda c: "F0001", slice(3, 4),
                          files=["firms"]), ["firms"]),
    "empty id": (edit(1, lambda c: "", slice(4, 5)), ["edges"]),
    "short row": (whole(lambda t: t + "F0001,B001\n", ["edges"]), ["edges"]),
    "header mismatch": (whole(lambda t: t.replace("total_assets", "assets"),
                              ["banks"]), ["banks"]),
}


@pytest.mark.parametrize("case", PER_LINE_CASES)
def test_irregular_input_reads_as_per_line_reader_reads_it(
        tmp_path, monkeypatch, case):
    """``parse_sample`` returns or raises exactly what the per-line reader
    does, and a refusal names its file and line as that reader names it."""
    sample, _ = generate(GenConfig(n_firms=12, n_banks=5, seed=3))
    assert sample.network.degrees[0][0] > 0  # F0000 is in edges.csv
    paths = write_sample_csv(sample, tmp_path)
    change, files_read_per_line = PER_LINE_CASES[case]
    for name, path in paths.items():
        with open(path, encoding="utf-8", newline="") as fh:
            text = change(name, fh.read())
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    bulk, per_line, rows = read_both_ways(paths, monkeypatch)
    assert per_line == files_read_per_line
    assert bulk == rows

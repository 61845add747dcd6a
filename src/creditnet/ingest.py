"""CSV ingestion, validation and the strength consistency-band filter.

Input schemas:
    edges.csv  -> firm_id,bank_id,amount
    firms.csv  -> firm_id,s_bal,total_assets,leverage,roa,tangibility
    banks.csv  -> bank_id,t_bal,total_assets,leverage,roa

Duplicate (firm, bank) edge rows are summed into a single weight.

Amounts, ``s_bal``, ``t_bal`` and ``total_assets`` are read as euros. The
regressions floor strengths at ``econometrics.STRENGTH_FLOOR``, one euro,
which every strength that is exactly zero is raised to, so restating the
inputs in another unit moves the slopes.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import report
from .core import (BANK_FIELDS, FIRM_FIELDS, BipartiteNetwork,
                   InvalidAttribute, Sample, attribute_columns)

CONSISTENCY_BAND = (1e-3, 1e3)

# the header of each input file, by the key write_sample_csv returns it under
_HEADERS = {
    "edges": ["firm_id", "bank_id", "amount"],
    "firms": ["firm_id", "s_bal", *FIRM_FIELDS[1:]],
    "banks": ["bank_id", "t_bal", *BANK_FIELDS[1:]],
}


class IngestError(ValueError):
    """Base class for ingestion failures."""


class MalformedRow(IngestError):
    def __init__(self, path, line_no, detail=""):
        self.path, self.line_no = path, line_no
        super().__init__(f"{path}:{line_no}: malformed row ({detail})")


class NegativeAmount(IngestError):
    def __init__(self, path, line_no):
        self.path, self.line_no = path, line_no
        super().__init__(f"{path}:{line_no}: negative loan amount")


class MissingAttribute(IngestError):
    def __init__(self, node_id):
        self.node_id = node_id
        super().__init__(f"no attribute record for node {node_id!r}")


class DuplicateAttributeRow(IngestError):
    def __init__(self, node_id):
        self.node_id = node_id
        super().__init__(f"duplicate attribute row for node {node_id!r}")


class NoFirmsLeft(IngestError):
    """The consistency filter dropped every firm."""


@dataclass(frozen=True)
class FilterReport:
    """Outcome of the consistency-band filter on firms."""

    kept_firms: int
    dropped_firms: tuple[tuple[str, float | None, str], ...]
    band: tuple[float, float]
    isolated_banks: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "kept_firms": self.kept_firms,
            "dropped_firms": [
                {"firm_id": fid, "ratio": ratio, "reason": reason}
                for fid, ratio, reason in self.dropped_firms
            ],
            "band": {"lower": self.band[0], "upper": self.band[1]},
            "isolated_banks": list(self.isolated_banks),
        }


def _read_rows(path, expected_header):
    # utf-8-sig: a leading byte-order mark, as Excel writes, is not data
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedRow(path, 1, "empty file")
        if [h.strip() for h in header] != expected_header:
            raise MalformedRow(path, 1, f"expected header {','.join(expected_header)}")
        # a quoted field may span lines: a row is named by its first line
        next_line = reader.line_num + 1
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            row = [cell.strip() for cell in row]
            if not any(row):
                continue
            if len(row) != len(expected_header):
                raise MalformedRow(path, line_no, f"expected {len(expected_header)} fields")
            yield line_no, row


def _parse_float(path, line_no, text):
    try:
        value = float(text)
    except ValueError:
        raise MalformedRow(path, line_no, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(path, line_no, f"non-finite value: {text!r}")
    return value


# the bulk reader reads a file in blocks of whole lines, about this size
_BLOCK_BYTES = 1 << 16
# the bytes of a plain file's cells: printable ASCII but a quote or a comma
_CELL_BYTES = bytes(b for b in range(ord("!"), ord("~") + 1) if b not in b'",')


class _NotPlain(Exception):
    """A file the bulk reader leaves to the per-line reader."""


def _plain_blocks(path, header):
    """The cells of ``path``'s data rows, one flat row-major list per block.

    Raises :class:`_NotPlain` unless the header is ``header`` itself and
    every row is ``len(header)`` fields of bare printable ASCII: no quote,
    no space or other whitespace, and no blank line. ``csv.reader`` splits
    such a file on its commas and newlines alone, and stripping changes no
    cell, so the cells are those ``_read_rows`` yields.
    """
    line = b"," * (len(header) - 1) + b"\n"  # a row's bytes outside its cells
    with open(path, "rb") as fh:
        first = fh.readline().removeprefix(b"\xef\xbb\xbf")
        if first != (",".join(header) + "\n").encode():
            raise _NotPlain
        while block := fh.read(_BLOCK_BYTES) + fh.readline():
            if not block.endswith(b"\n"):  # a last line without one
                block += b"\n"
            # a block no longer than csv's field size limit holds no field
            # beyond it
            if (len(block) > csv.field_size_limit() or block.translate(
                    None, _CELL_BYTES) != line * block.count(b"\n")):
                raise _NotPlain
            cells = block.decode("ascii").replace("\n", ",").split(",")
            del cells[-1]  # after the last newline
            yield cells


def _bulk_attributes(path, header, fields):
    """``_read_attributes`` of a plain file, or :class:`_NotPlain`."""
    ids = []

    # one block's cells at a time: ids kept from a whole file's cells would
    # hold on to the memory of the numbers freed around them
    def numbers():
        for cells in _plain_blocks(path, header):
            ids.extend(cells[::len(header)])
            del cells[::len(header)]
            yield from map(float, cells)

    try:
        rows = np.fromiter(numbers(), float).reshape(-1, len(fields))
        positions = dict(zip(ids, range(len(ids))))
        if len(positions) < len(ids) or "" in positions:
            raise _NotPlain
        return positions, attribute_columns(dict(zip(fields, rows.T)),
                                            fields, len(ids))
    except ValueError:  # a bad number, InvalidAttribute included
        raise _NotPlain from None


def _read_attributes(path, header, fields):
    """Node positions by id and validated columns of one attribute file."""
    positions: dict[str, int] = {}  # in file order
    line_nos = []  # the line of each position
    rows = []

    def columns():
        try:
            return attribute_columns(
                dict(zip(fields, np.reshape(rows, (-1, len(fields))).T)),
                fields, len(rows))
        except InvalidAttribute as exc:
            raise MalformedRow(path, line_nos[exc.position], str(exc)) from None

    try:
        for line_no, row in _read_rows(path, header):
            if not row[0]:
                raise MalformedRow(path, line_no, f"empty {header[0]}")
            if row[0] in positions:
                raise DuplicateAttributeRow(row[0])
            rows.append([_parse_float(path, line_no, v) for v in row[1:]])
            positions[row[0]] = len(line_nos)
            line_nos.append(line_no)
    except IngestError:
        columns()  # an out-of-range row above the bad one is named first
        raise
    return positions, columns()


def _bulk_weights(path, firm_pos, bank_pos) -> np.ndarray:
    """``_read_weights`` of a plain edge file whose ids are all known and
    whose amounts are finite and >= 0, or :class:`_NotPlain`. Amounts are
    added in file order, as ``_read_weights`` adds them."""
    weights = np.zeros((len(firm_pos), len(bank_pos)))
    for cells in _plain_blocks(path, _HEADERS["edges"]):
        n = len(cells) // 3
        try:
            i = np.fromiter(map(firm_pos.__getitem__, cells[0::3]), np.intp, n)
            j = np.fromiter(map(bank_pos.__getitem__, cells[1::3]), np.intp, n)
            amounts = np.fromiter(map(float, cells[2::3]), float, n)
        except (KeyError, ValueError):
            raise _NotPlain from None
        if not np.all((amounts >= 0) & (amounts < np.inf)):  # NaN fails both
            raise _NotPlain
        np.add.at(weights.reshape(-1), i * len(bank_pos) + j, amounts)
    return weights


def _read_weights(path, firm_pos, bank_pos) -> np.ndarray:
    """The firm x bank matrix of summed amounts of one edge file."""
    weights = np.zeros((len(firm_pos), len(bank_pos)))
    for line_no, row in _read_rows(path, _HEADERS["edges"]):
        fid, bid, amount_text = row
        if not fid or not bid:
            raise MalformedRow(path, line_no, "empty node id")
        amount = _parse_float(path, line_no, amount_text)
        if amount < 0:
            raise NegativeAmount(path, line_no)
        if fid not in firm_pos:
            raise MissingAttribute(fid)
        if bid not in bank_pos:
            raise MissingAttribute(bid)
        weights[firm_pos[fid], bank_pos[bid]] += amount
    return weights


def _bulk_else_rows(bulk, rows, *args):
    """``bulk(*args)``, or ``rows(*args)`` where the file is not plain."""
    try:
        return bulk(*args)
    except _NotPlain:
        return rows(*args)


def parse_sample(edges_path, firm_attrs_path, bank_attrs_path) -> Sample:
    """Assemble a validated :class:`Sample` from the three CSV files.

    A plain file (see ``_plain_blocks``) whose every row is valid is read in
    bulk, a column at a time; any other file is read a row at a time by
    ``csv.reader``, and that reader names the file and line of a refusal.
    Both give the same sample, bit for bit.
    """
    # node ordering follows the attribute files, so parsing is deterministic
    firm_pos, firm_columns = _bulk_else_rows(
        _bulk_attributes, _read_attributes, firm_attrs_path, _HEADERS["firms"],
        FIRM_FIELDS)
    bank_pos, bank_columns = _bulk_else_rows(
        _bulk_attributes, _read_attributes, bank_attrs_path, _HEADERS["banks"],
        BANK_FIELDS)
    weights = _bulk_else_rows(_bulk_weights, _read_weights, edges_path,
                              firm_pos, bank_pos)
    net = BipartiteNetwork(tuple(firm_pos), tuple(bank_pos), weights)
    return Sample(net, firm_columns, bank_columns)


def apply_consistency_filter(sample: Sample) -> tuple[Sample, FilterReport]:
    """Drop firms whose network/balance strength ratio leaves the band.

    Firms with an undefined ratio (zero reported debt but positive network
    strength) are dropped as well; firms with no debt and no links are kept.
    Banks left isolated by the removals stay in the sample but are flagged.
    """
    net = sample.network
    s_net = net.strengths[0]
    s_bal = sample.firm_columns["balance_strength"]
    lower, upper = CONSISTENCY_BAND
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = s_net / s_bal  # inf or NaN where s_bal is 0
    undefined = (s_bal == 0) & (s_net != 0)
    low = ratio < lower
    drop = undefined | low | (ratio > upper)
    reasons = np.where(undefined, "undefined ratio", np.where(
        low, "missing data", "inconsistent Nota Integrativa"))
    ratios = np.where(undefined, None, ratio)  # None: no defined ratio

    keep = ~drop
    if not keep.any():
        raise NoFirmsLeft(f"the consistency filter dropped all {net.n_firms} "
                          f"firms: none has a network/balance strength ratio "
                          f"in [{lower:g}, {upper:g}]")
    firm_ids = np.array(net.firm_ids, dtype=object)
    new_sample = Sample(
        BipartiteNetwork(tuple(firm_ids[keep]), net.bank_ids,
                         net.weights[keep, :]),
        {name: col[keep] for name, col in sample.firm_columns.items()},
        sample.bank_columns,
    )
    isolated = new_sample.network.degrees[1] == 0
    return new_sample, FilterReport(
        kept_firms=int(keep.sum()),
        dropped_firms=tuple(zip(firm_ids[drop], ratios[drop].tolist(),
                                reasons[drop].tolist())),
        band=CONSISTENCY_BAND,
        isolated_banks=tuple(np.array(net.bank_ids, dtype=object)[isolated]),
    )


def write_sample_csv(sample: Sample, out_dir) -> dict[str, str]:
    """Write a sample back out in the exact schemas ``parse_sample`` reads.

    Every link is one ``edges.csv`` row, in firm-major order.
    """
    paths = {name: os.path.join(out_dir, f"{name}.csv") for name in _HEADERS}
    net = sample.network
    i, j = net.links
    report.write_csv(paths["edges"], _HEADERS["edges"], (
        np.array(net.firm_ids, dtype=object)[i],
        np.array(net.bank_ids, dtype=object)[j], net.weights[i, j]))
    report.write_csv(paths["firms"], _HEADERS["firms"], [net.firm_ids] + [
        sample.firm_columns[name] for name in FIRM_FIELDS])
    report.write_csv(paths["banks"], _HEADERS["banks"], [net.bank_ids] + [
        sample.bank_columns[name] for name in BANK_FIELDS])
    return paths

"""Deterministic report emission: JSON, CSV, and dependency-free SVG plots.

Every writer produces byte-identical output for identical inputs (sorted
keys, repr-based float formatting, no timestamps), which is what makes
whole-pipeline reruns diffable.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import re

import numpy as np


_INDENT = "  "
# the text of non-finite floats: JSON has no NaN or infinity, CSV leaves NaN
# empty
_JSON_NONFINITE = {"nan": "null", "inf": "null", "-inf": "null"}
_CSV_NONFINITE = {"nan": ""}


def _float_strs(values: np.ndarray, nonfinite: dict) -> list[str]:
    """``repr`` of every value of a 1-d float array, ``nonfinite`` applied.

    Each distinct bit pattern is formatted once, so ``-0.0`` and ``0.0``
    keep their own text.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [nonfinite.get(text, text) for text in
             map(float.__repr__, distinct.view(np.float64).tolist())]
    return np.array(texts, dtype=object)[inverse].tolist()


def _float_array(values):
    """``values`` if it is a 1-d float64-or-narrower array, else None."""
    if (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind == "f" and values.dtype.itemsize <= 8):
        return values
    return None


def _json_list(texts: list[str], level: int) -> str:
    if not texts:
        return "[]"
    inner = "\n" + _INDENT * (level + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + _INDENT * level + "]"


def _encode(obj, level: int) -> str:
    if isinstance(obj, str):
        return json.encoder.encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):  # np.float64 included
        return float.__repr__(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): v for k, v in obj.items()}
        inner = "\n" + _INDENT * (level + 1)
        return "{" + inner + ("," + inner).join(
            json.encoder.encode_basestring_ascii(k) + ": "
            + _encode(items[k], level + 1) for k in sorted(items)
        ) + "\n" + _INDENT * level + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        floats = _float_array(obj)
        if floats is not None:
            return _json_list(_float_strs(floats, _JSON_NONFINITE), level)
        if isinstance(obj, np.ndarray):
            return _encode(obj.tolist(), level)
        return _json_list([_encode(v, level + 1) for v in obj], level)
    if isinstance(obj, (np.floating, np.integer)):
        return _encode(obj.item(), level)
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def canonical_json(obj) -> str:
    """Deterministic JSON text of ``obj``, ending in a newline.

    The text is byte for byte ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False)`` after numpy arrays become lists and numpy scalars
    Python numbers, dict keys become ``str(key)``, tuples become lists and
    every non-finite float becomes ``null``: floats by ``float.__repr__``,
    non-ASCII text as ``\\u`` escapes. Any other type raises ``TypeError``.
    """
    return _encode(obj, 0) + "\n"


# the public writers do not call one another, so each file is one call
def _open(path, newline=None):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", newline=newline)


def _write(path, text: str) -> None:
    with _open(path) as fh:
        fh.write(text)


def write_json(path, obj) -> None:
    _write(path, canonical_json(obj))


def write_text(path, text: str) -> None:
    _write(path, text)


_CSV_SPECIAL = re.compile('[,"\r\n]').search


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if v != v else repr(v)
    if isinstance(value, str) and _CSV_SPECIAL(value):
        return '"' + value.replace('"', '""') + '"'
    return str(value)


# rows formatted and written at a time: write_csv's memory is bounded by a
# block, whatever the row count
_CSV_BLOCK_ROWS = 8192


def write_csv(path, header, columns) -> None:
    """Write a CSV file from a sequence of equally long columns.

    Row ``r`` holds the ``r``-th value of every column; the rows stop at
    the shortest column. A float is written by ``repr`` and NaN as an
    empty field; any other value by ``str``. A 1-d float array is
    formatted a column at a time, any other column value by value. Text
    that holds a comma, a double quote or a line break is quoted as
    ``csv.QUOTE_MINIMAL`` quotes it, with inner quotes doubled; numbers are
    never quoted. Lines end in ``\\n``. Rows are formatted and written in
    blocks of ``_CSV_BLOCK_ROWS``, and each distinct text value is
    formatted once. This is :func:`write_csvs` of one file.
    """
    write_csvs([(path, header, columns)])


def write_csvs(files) -> None:
    """Write each ``(path, header, columns)`` of ``files`` as
    :func:`write_csv` writes it, the files a block at a time in lockstep: a
    column object that several files share is formatted once per block.
    """
    files = [(path, header, list(columns)) for path, header, columns in files]
    n_rows = [min(map(len, columns), default=0) for _, _, columns in files]
    # memoised for text only: as dict keys, 0.0 == -0.0 and 1 == 1.0
    fmt_str = functools.cache(_fmt)

    def texts(column, block):
        f = _float_array(column)
        if f is None:
            return [fmt_str(v) if type(v) is str else _fmt(v)
                    for v in column[block]]
        return _float_strs(f[block], _CSV_NONFINITE)

    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(_open(path, newline=""))
                   for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            fh.write(",".join(map(_fmt, header)) + "\n")
        for start in range(0, max(n_rows, default=0), _CSV_BLOCK_ROWS):
            block = slice(start, start + _CSV_BLOCK_ROWS)
            shared = {}  # the block's texts of each column, by id
            for fh, (_, _, columns), n in zip(handles, files, n_rows):
                if start >= n:
                    continue
                for column in columns:
                    if id(column) not in shared:
                        shared[id(column)] = texts(column, block)
                # zip stops at the file's last row in the block
                rows = zip(*(shared[id(column)] for column in columns))
                fh.write("\n".join(map(",".join, rows)) + "\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# minimal SVG plotting

_W, _H, _PAD = 640, 480, 60


def _scale(values, lo, hi, out_lo, out_hi, log=False):
    values = np.asarray(values, dtype=float)
    if log:
        values, lo, hi = np.log10(values), np.log10(lo), np.log10(hi)
    if hi == lo:
        hi = lo + 1.0
    return out_lo + (values - lo) * (out_hi - out_lo) / (hi - lo)


def _frame(title, xlabel, ylabel):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" '
        f'height="{_H - 2 * _PAD}" fill="none" stroke="black"/>',
        f'<text x="{_W // 2}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{_W // 2}" y="{_H - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{_H // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_H // 2})">{ylabel}</text>',
    ]


def svg_scatter(x, y, title="", xlabel="", ylabel="", identity=False,
                log=False) -> str:
    """Scatter plot, optionally log-log with an identity reference line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if log:
        keep = (x > 0) & (y > 0)
        x, y = x[keep], y[keep]
    both = np.concatenate([x, y]) if identity else None
    x_lo, x_hi = (both.min(), both.max()) if identity else (x.min(), x.max())
    y_lo, y_hi = (both.min(), both.max()) if identity else (y.min(), y.max())
    parts = _frame(title, xlabel, ylabel)
    if identity:
        x0 = _scale([x_lo, x_hi], x_lo, x_hi, _PAD, _W - _PAD, log)
        y0 = _scale([y_lo, y_hi], y_lo, y_hi, _H - _PAD, _PAD, log)
        parts.append(
            f'<line x1="{x0[0]:.1f}" y1="{y0[0]:.1f}" x2="{x0[1]:.1f}" '
            f'y2="{y0[1]:.1f}" stroke="gray" stroke-dasharray="4"/>')
    px = _scale(x, x_lo, x_hi, _PAD, _W - _PAD, log)
    py = _scale(y, y_lo, y_hi, _H - _PAD, _PAD, log)
    for cx, cy in zip(px, py):
        parts.append(f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" '
                     f'fill="steelblue" fill-opacity="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_histogram(counts, edges, title="", xlabel="", ylabel="count") -> str:
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    parts = _frame(title, xlabel, ylabel)
    y_hi = counts.max() if counts.size and counts.max() > 0 else 1.0
    px = _scale(edges, edges[0], edges[-1], _PAD, _W - _PAD)
    for i, c in enumerate(counts):
        top = _scale([c], 0, y_hi, _H - _PAD, _PAD)[0]
        parts.append(
            f'<rect x="{px[i]:.1f}" y="{top:.1f}" '
            f'width="{max(px[i + 1] - px[i], 0.0):.1f}" '
            f'height="{max(_H - _PAD - top, 0.0):.1f}" '
            f'fill="steelblue" stroke="white"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

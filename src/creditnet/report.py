"""Deterministic report emission: JSON, CSV, and dependency-free SVG plots.

Every writer produces byte-identical output for identical inputs (sorted
keys, repr-based float formatting, no timestamps), which is what makes
whole-pipeline reruns diffable.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

__all__ = [
    "canonical_json",
    "write_json",
    "write_csv",
    "write_text",
    "sha256_file",
    "sha256_text",
    "svg_scatter",
    "svg_histogram",
]


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN, +-inf
        return None
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


def write_text(path, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if v != v else repr(v)
    return str(value)


def write_csv(path, header, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


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

"""Descriptive network statistics: summaries, CCDFs, and the agreement
between empirical and model-expected node statistics."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import BipartiteNetwork


class StatsError(ValueError):
    pass


class EmptyInput(StatsError):
    pass


class ConstantSequence(StatsError):
    pass


@dataclass(frozen=True)
class SummaryStats:
    """Headline network statistics (counts, density, degree moments)."""

    n_firms: int
    n_banks: int
    n_links: int
    density: float
    mean_firm_degree: float
    mean_bank_degree: float
    cv_firm_degree: float
    cv_bank_degree: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CcdfCurve:
    """Survival function P(X >= x) over the distinct observed values."""

    values: np.ndarray
    survival: np.ndarray


@dataclass(frozen=True)
class ComparisonStats:
    """Agreement between empirical and model-expected node statistics.

    Binned summaries describe the expected values within equal-width bins
    of the empirical axis; both the standard deviation and the empirical
    90% interval of each bin are reported.
    """

    pearson: float
    spearman: float
    bin_edges: np.ndarray
    binned_means: np.ndarray
    binned_stds: np.ndarray
    binned_p05: np.ndarray
    binned_p95: np.ndarray


def summarize(net: BipartiteNetwork) -> SummaryStats:
    """Compute the summary statistics of a network.

    Coefficients of variation use the population standard deviation.
    """
    k, h = net.degrees
    k_mean = float(k.mean())
    h_mean = float(h.mean())
    return SummaryStats(
        n_firms=net.n_firms,
        n_banks=net.n_banks,
        n_links=net.n_links,
        density=net.density,
        mean_firm_degree=k_mean,
        mean_bank_degree=h_mean,
        cv_firm_degree=float(k.std() / k_mean) if k_mean > 0 else 0.0,
        cv_bank_degree=float(h.std() / h_mean) if h_mean > 0 else 0.0,
    )


def ccdf(values) -> CcdfCurve:
    """Complementary cumulative distribution P(X >= x)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyInput("ccdf of an empty sequence")
    distinct, counts = np.unique(arr, return_counts=True)
    # count of entries >= x, for x scanning the distinct values
    at_least = np.cumsum(counts[::-1])[::-1]
    return CcdfCurve(values=distinct, survival=at_least / arr.size)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    first = np.cumsum(counts) - counts  # sorted position of the first copy
    return (first + (counts - 1) / 2 + 1)[inverse]


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float(xc @ yc / np.sqrt((xc @ xc) * (yc @ yc)))


def compare(empirical, expected, n_bins: int = 10) -> ComparisonStats:
    """Correlations and binned profile of expected vs empirical values."""
    emp = np.asarray(empirical, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if emp.shape != exp.shape or emp.ndim != 1 or emp.size < 2:
        raise EmptyInput("need two equal-length sequences of length >= 2")
    if np.ptp(emp) == 0 or np.ptp(exp) == 0:
        raise ConstantSequence("correlation undefined for a constant sequence")

    pearson = _pearson(emp, exp)
    spearman = _pearson(_average_ranks(emp), _average_ranks(exp))

    edges = np.linspace(emp.min(), emp.max(), n_bins + 1)
    idx = np.digitize(emp, edges[1:-1])
    means = np.full(n_bins, np.nan)
    stds = np.full(n_bins, np.nan)
    p05 = np.full(n_bins, np.nan)
    p95 = np.full(n_bins, np.nan)
    for b in range(n_bins):
        sel = exp[idx == b]
        if sel.size:
            means[b] = sel.mean()
            stds[b] = sel.std()
            p05[b], p95[b] = np.percentile(sel, [5, 95])
    return ComparisonStats(pearson, spearman, edges, means, stds, p05, p95)

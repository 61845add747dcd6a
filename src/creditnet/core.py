"""Shared domain types for weighted firm-bank credit networks.

A network is stored as a dense firm x bank matrix of loan amounts; the
binary adjacency is derived (a link exists iff the amount is positive),
so topology and weights can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "BipartiteNetwork",
    "FirmAttributes",
    "BankAttributes",
    "Sample",
    "derived_degrees",
    "derived_strengths",
]


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BipartiteNetwork:
    """Weighted firm x bank credit network.

    ``weights[i, j]`` is the loan amount between firm ``i`` and bank ``j``
    in currency units; a zero entry encodes an absent link.
    """

    firm_ids: tuple[str, ...]
    bank_ids: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        firm_ids = tuple(self.firm_ids)
        bank_ids = tuple(self.bank_ids)
        object.__setattr__(self, "firm_ids", firm_ids)
        object.__setattr__(self, "bank_ids", bank_ids)
        if len(firm_ids) < 1 or len(bank_ids) < 1:
            raise ValueError("need at least one firm and one bank")
        if len(set(firm_ids)) != len(firm_ids):
            raise ValueError("duplicate firm identifiers")
        if len(set(bank_ids)) != len(bank_ids):
            raise ValueError("duplicate bank identifiers")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(firm_ids), len(bank_ids)):
            raise ValueError(
                f"weights shape {w.shape} does not match "
                f"({len(firm_ids)}, {len(bank_ids)})"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_firms(self) -> int:
        return len(self.firm_ids)

    @property
    def n_banks(self) -> int:
        return len(self.bank_ids)

    @property
    def adjacency(self) -> np.ndarray:
        """Binary link matrix, derived from the weights."""
        return (self.weights > 0).astype(float)

    @property
    def n_links(self) -> int:
        return int(np.count_nonzero(self.weights > 0))

    @property
    def density(self) -> float:
        return self.n_links / (self.n_firms * self.n_banks)

    @property
    def total_volume(self) -> float:
        return float(self.weights.sum())

    def firm_index(self, firm_id: str) -> int:
        return self.firm_ids.index(firm_id)

    def bank_index(self, bank_id: str) -> int:
        return self.bank_ids.index(bank_id)


@dataclass(frozen=True)
class FirmAttributes:
    """Balance-sheet record of a firm (currency amounts in euros)."""

    balance_strength: float  # reported debt to banks
    total_assets: float
    leverage: float
    roa: float
    tangibility: float

    def __post_init__(self):
        vals = (self.balance_strength, self.total_assets, self.leverage,
                self.roa, self.tangibility)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("firm attributes must be finite")
        if self.balance_strength < 0:
            raise ValueError("balance_strength must be >= 0")
        if self.total_assets <= 0:
            raise ValueError("total_assets must be > 0")
        if not 0 <= self.tangibility <= 1:
            raise ValueError("tangibility must lie in [0, 1]")


@dataclass(frozen=True)
class BankAttributes:
    """Balance-sheet record of a bank (currency amounts in euros)."""

    balance_strength: float  # reported corporate loans
    total_assets: float
    leverage: float
    roa: float

    def __post_init__(self):
        vals = (self.balance_strength, self.total_assets, self.leverage,
                self.roa)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("bank attributes must be finite")
        if self.balance_strength < 0:
            raise ValueError("balance_strength must be >= 0")
        if self.total_assets <= 0:
            raise ValueError("total_assets must be > 0")


@dataclass(frozen=True)
class Sample:
    """A network together with complete node attribute registries."""

    network: BipartiteNetwork
    firm_attrs: Mapping[str, FirmAttributes]
    bank_attrs: Mapping[str, BankAttributes]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "firm_attrs", dict(self.firm_attrs))
        object.__setattr__(self, "bank_attrs", dict(self.bank_attrs))
        net = self.network
        missing_f = set(net.firm_ids) - set(self.firm_attrs)
        missing_b = set(net.bank_ids) - set(self.bank_attrs)
        if missing_f or missing_b:
            raise ValueError(
                f"nodes without attribute records: {sorted(missing_f | missing_b)}"
            )
        orphan_f = set(self.firm_attrs) - set(net.firm_ids)
        orphan_b = set(self.bank_attrs) - set(net.bank_ids)
        if orphan_f or orphan_b:
            raise ValueError(
                f"orphan attribute records: {sorted(orphan_f | orphan_b)}"
            )

    def firm_series(self, name: str) -> np.ndarray:
        """Attribute values aligned with ``network.firm_ids``."""
        return self._firm_columns[name]

    def bank_series(self, name: str) -> np.ndarray:
        """Attribute values aligned with ``network.bank_ids``."""
        return self._bank_columns[name]

    @cached_property
    def _firm_columns(self) -> dict[str, np.ndarray]:
        return _attribute_columns(FirmAttributes, self.firm_attrs,
                                  self.network.firm_ids)

    @cached_property
    def _bank_columns(self) -> dict[str, np.ndarray]:
        return _attribute_columns(BankAttributes, self.bank_attrs,
                                  self.network.bank_ids)


def _attribute_columns(kind, attrs: Mapping, ids) -> dict[str, np.ndarray]:
    """One read-only array per attribute field of ``kind``, aligned with ids."""
    records = [attrs[i] for i in ids]
    return {f.name: _frozen_array([getattr(r, f.name) for r in records])
            for f in fields(kind)}


def derived_degrees(net: BipartiteNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Firm and bank degrees (counts of positive-weight links)."""
    a = net.weights > 0
    return a.sum(axis=1).astype(np.int64), a.sum(axis=0).astype(np.int64)


def derived_strengths(net: BipartiteNetwork) -> tuple[np.ndarray, np.ndarray]:
    """Firm and bank network strengths (row and column weight sums)."""
    return net.weights.sum(axis=1), net.weights.sum(axis=0)

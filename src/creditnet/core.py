"""Shared domain types for weighted firm-bank credit networks.

A network is stored as a dense firm x bank matrix of loan amounts; the
binary adjacency is derived (a link exists iff the amount is positive),
so topology and weights can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class BipartiteNetwork:
    """Weighted firm x bank credit network.

    ``weights[i, j]`` is the loan amount between firm ``i`` and bank ``j``
    in currency units; a zero entry encodes an absent link. Ids are
    non-empty without surrounding whitespace, which the CSV reader strips.
    The weights are immutable, so ``links``, ``degrees`` and ``strengths``
    are computed once and returned as read-only arrays.
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
        for node_id in firm_ids + bank_ids:
            if not node_id or node_id != node_id.strip():
                raise ValueError(f"node id {node_id!r} is empty or has "
                                 f"surrounding whitespace")
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

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """Firm and bank index of every link (positive weight), firm-major."""
        return _read_only(*np.nonzero(self.weights > 0))

    @cached_property
    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Firm and bank degrees (int64 counts of links)."""
        i, j = self.links
        return _read_only(np.bincount(i, minlength=self.n_firms),
                          np.bincount(j, minlength=self.n_banks))

    @cached_property
    def strengths(self) -> tuple[np.ndarray, np.ndarray]:
        """Firm and bank network strengths (row and column weight sums)."""
        return _read_only(self.weights.sum(axis=1), self.weights.sum(axis=0))

    @property
    def n_links(self) -> int:
        return self.links[0].size

    @property
    def density(self) -> float:
        return self.n_links / (self.n_firms * self.n_banks)


FIRM_FIELDS = ("balance_strength", "total_assets", "leverage", "roa",
               "tangibility")
BANK_FIELDS = FIRM_FIELDS[:4]


class InvalidAttribute(ValueError):
    """A node attribute outside its domain; ``position`` is the node's index."""

    def __init__(self, position: int, detail: str):
        self.position = position
        super().__init__(detail)


def attribute_columns(columns: Mapping, fields: Sequence[str],
                      n_nodes: int) -> dict[str, np.ndarray]:
    """Validated read-only float columns of one side's node attributes.

    ``columns`` maps each name of ``fields`` to ``n_nodes`` values (balance
    strengths and total assets in euros). The first node that fails a check
    raises :class:`InvalidAttribute`; a node's values must be finite, then its
    ``balance_strength`` >= 0, its ``total_assets`` > 0 and its
    ``tangibility`` (firms only) in [0, 1].
    """
    if sorted(columns) != sorted(fields):
        raise ValueError(f"attribute columns {sorted(columns)} are not "
                         f"{sorted(fields)}")
    out = {}
    for name in fields:
        col = np.array(columns[name], dtype=float)
        if col.shape != (n_nodes,):
            raise ValueError(f"attribute column {name!r} has shape "
                             f"{col.shape}, not ({n_nodes},)")
        col.setflags(write=False)
        out[name] = col
    checks = [
        (~np.isfinite(np.column_stack(list(out.values()))).all(axis=1),
         "attributes must be finite"),
        (out["balance_strength"] < 0, "balance_strength must be >= 0"),
        (out["total_assets"] <= 0, "total_assets must be > 0"),
    ]
    if "tangibility" in out:
        tang = out["tangibility"]
        checks.append((~((tang >= 0) & (tang <= 1)),
                       "tangibility must lie in [0, 1]"))
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidAttribute(i, next(msg for mask, msg in checks if mask[i]))
    return out


@dataclass(frozen=True)
class Sample:
    """A network with the balance-sheet attributes of its nodes.

    ``firm_columns`` maps each name of :data:`FIRM_FIELDS` to one value per
    firm, aligned with ``network.firm_ids``; ``bank_columns`` does the same
    for :data:`BANK_FIELDS` and ``network.bank_ids``. The firm
    ``balance_strength`` is the reported debt to banks, the bank one the
    reported corporate loans. Both are stored as validated read-only arrays.
    """

    network: BipartiteNetwork
    firm_columns: Mapping[str, np.ndarray]
    bank_columns: Mapping[str, np.ndarray]

    def __post_init__(self):
        net = self.network
        object.__setattr__(self, "firm_columns", attribute_columns(
            self.firm_columns, FIRM_FIELDS, net.n_firms))
        object.__setattr__(self, "bank_columns", attribute_columns(
            self.bank_columns, BANK_FIELDS, net.n_banks))


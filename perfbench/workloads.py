"""Workload definitions for the creditnet benchmark.

Every workload uses the paper-calibrated generator shape (density 0.07, firm
size sigma 1.0, bank size sigma 2.1); every other ``GenConfig`` value stays at
its default, ``balance_noise=0.05`` included. Each input a run draws has its
own seed, derived from the workload seed; it seeds both the generator and the
Monte Carlo ensemble.

This module holds plain data so that the parent process never imports
creditnet; ``child.py`` turns a workload into a ``GenConfig`` and a
``RunConfig``.
"""

from __future__ import annotations

from dataclasses import dataclass

# generator shape shared by every workload (tests/test_acceptance.py
# BENCH_CONFIG uses the same values)
GEN_SHAPE = {"target_density": 0.07, "firm_size_sigma": 1.0,
             "bank_size_sigma": 2.1}

DEFAULT_SEED = 1
SEED_STRIDE = 1_000_003  # a prime, so derived seeds of nearby runs differ


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th input drawn by a run with workload ``seed``.

    The first input of a run uses the workload seed itself.
    """
    return seed + SEED_STRIDE * index


@dataclass(frozen=True)
class Workload:
    name: str
    n_firms: int
    n_banks: int
    null_variants: tuple[str, ...]
    n_samples: int
    loan_sizing_only: bool = False  # restrict the default grid to stage 2


WORKLOADS = {
    w.name: w for w in (
        Workload("consolidated_10k", 113, 61,
                 ("network", "balance", "bicm", "random"), 10_000),
        Workload("grid_paper", 2000, 150, ("network", "balance"), 100),
        Workload("links_wide", 4000, 250, ("network", "balance"), 10,
                 loan_sizing_only=True),
    )
}

# harness smoke test only; not listed in BENCHMARK.json
SMOKE = Workload("smoke", 40, 12, ("network", "balance", "bicm", "random"),
                 50)


def get(name: str) -> Workload:
    if name == SMOKE.name:
        return SMOKE
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from "
                       f"{', '.join(WORKLOADS)}")
    return WORKLOADS[name]

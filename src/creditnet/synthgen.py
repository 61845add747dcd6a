"""Synthetic credit-network samples with controllable ground truth.

The generator draws from the null models' fitness model and loan weights,
with two optional distortions on top: an attachment boost that adds extra
log-odds per unit of (log) running degree, and a fragmentation penalty that
scales individual loan sizes by a power of the firm's final degree. With
both knobs at zero the realized network is a plain fitness draw.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from . import report
from .core import BipartiteNetwork, Sample
from .ingest import write_sample_csv
from .nullmodel import (FitnessSpec, Variant, calibrate_z,
                        conditional_weights, philox)


class DegenerateDensity(ValueError):
    pass


@dataclass(frozen=True)
class GenConfig:
    n_firms: int = 60
    n_banks: int = 20
    seed: int = 0
    target_density: float = 0.12
    firm_size_mu: float = 10.0    # log-normal location of firm fitness
    firm_size_sigma: float = 1.0
    bank_size_mu: float = 12.0    # log-normal location of bank fitness
    bank_size_sigma: float = 1.2
    attachment_boost: float = 0.0     # extra log-odds per unit ln(1 + k)
    fragmentation_penalty: float = 0.0  # loan-size log-elasticity in degree
    noise_sd: float = 0.1             # log-normal noise on loan sizes
    balance_noise: float = 0.05       # log-normal noise linking s_bal to s_net

    def __post_init__(self):
        empty = [f"{side} ({n})" for side, n in (("n_firms", self.n_firms),
                                                  ("n_banks", self.n_banks))
                 if n < 1]
        if empty:
            raise ValueError(f"{' and '.join(empty)} must be >= 1")
        if not 0 < self.target_density < 1:
            raise ValueError("target_density must lie in (0, 1)")
        if self.firm_size_sigma <= 0 or self.bank_size_sigma <= 0:
            raise ValueError("size distribution scales must be positive")
        if self.attachment_boost < 0 or self.noise_sd < 0 or self.balance_noise < 0:
            raise ValueError("attachment_boost and noise levels must be >= 0")


@dataclass(frozen=True)
class GroundTruth:
    """The parameters actually injected into a generated sample."""

    config: GenConfig
    z: float
    realized_density: float
    realized_links: int

    def to_json(self) -> dict:
        return asdict(self)


def generate(config: GenConfig) -> tuple[Sample, GroundTruth]:
    """Draw a synthetic sample; fully reproducible from (config, seed)."""
    rng = philox(config.seed)
    nf, nb = config.n_firms, config.n_banks

    s_fit = rng.lognormal(config.firm_size_mu, config.firm_size_sigma, nf)
    t_fit = rng.lognormal(config.bank_size_mu, config.bank_size_sigma, nb)
    l_target = config.target_density * nf * nb
    z = calibrate_z(s_fit, t_fit, l_target)
    # expected network strengths are proportional to these fitnesses
    fitness = FitnessSpec(s_fit, t_fit, z, Variant.NETWORK_DRIVEN)
    p_base = fitness.probability_matrix()

    # sequential link formation in bank order, all firms at once; the
    # attachment boost acts on each firm's running degree
    uniforms = rng.random((nf, nb))
    adjacency = np.zeros((nf, nb), dtype=bool)
    logit_base = np.log(p_base) - np.log1p(-p_base)
    k_running = np.zeros(nf)
    for j in range(nb):
        logodds = logit_base[:, j] + config.attachment_boost * np.log1p(k_running)
        adjacency[:, j] = uniforms[:, j] < 1.0 / (1.0 + np.exp(-logodds))
        k_running += adjacency[:, j]

    n_links = int(adjacency.sum())
    if n_links == 0 or n_links == nf * nb:
        raise DegenerateDensity(f"realized link count {n_links}")

    w_cond = conditional_weights(fitness, p_base)
    k_final = adjacency.sum(axis=1)
    frag = np.exp(config.fragmentation_penalty * np.log(np.maximum(k_final, 1)))
    size_noise = np.exp(rng.normal(0.0, config.noise_sd, (nf, nb)))
    weights = np.where(adjacency, w_cond * frag[:, None] * size_noise, 0.0)

    firm_ids = tuple(f"F{i:04d}" for i in range(nf))
    bank_ids = tuple(f"B{j:03d}" for j in range(nb))
    net = BipartiteNetwork(firm_ids, bank_ids, weights)

    s_net, t_net = net.strengths
    s_bal = s_net * np.exp(rng.normal(0.0, config.balance_noise, nf))
    t_bal = t_net * np.exp(rng.normal(0.0, config.balance_noise, nb))

    firm_assets = s_fit * np.exp(rng.normal(0.7, 0.3, nf))
    firm_lev = np.clip(rng.normal(0.6, 0.15, nf), 0.05, 1.5)
    firm_roa = rng.normal(2.0, 3.0, nf)
    firm_tang = rng.beta(2.0, 3.0, nf)
    bank_assets = t_fit * np.exp(rng.normal(1.5, 0.3, nb))
    bank_lev = np.clip(rng.normal(12.0, 2.0, nb), 4.0, 25.0)
    bank_roa = rng.normal(0.5, 0.4, nb)

    sample = Sample(
        net,
        {"balance_strength": s_bal, "total_assets": firm_assets,
         "leverage": firm_lev, "roa": firm_roa, "tangibility": firm_tang},
        {"balance_strength": t_bal, "total_assets": bank_assets,
         "leverage": bank_lev, "roa": bank_roa},
    )
    truth = GroundTruth(config=config, z=float(z),
                        realized_density=net.density, realized_links=n_links)
    return sample, truth


def write_synthetic(config: GenConfig, out_dir) -> tuple[Sample, dict[str, str]]:
    """Generate a sample and write it to ``out_dir`` as the three input CSVs
    plus ``ground_truth.json``; return it with the paths of the CSVs."""
    sample, truth = generate(config)
    paths = write_sample_csv(sample, out_dir)
    report.write_json(os.path.join(out_dir, "ground_truth.json"),
                      truth.to_json())
    return sample, paths

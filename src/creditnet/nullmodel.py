"""Maximum-entropy counterfactual models for bipartite credit networks.

Three interchangeable link models are provided:

* a fitness model where the connection probability between firm ``i`` and
  bank ``j`` is ``z s_i t_j / (1 + z s_i t_j)`` with ``z`` calibrated to
  the observed link count (network-driven or balance-driven, depending on
  which strength proxies the node size);
* a degree-constrained configuration model with per-node multipliers;
* a random baseline with constant probability equal to the density.

Sampled links receive conditional weights ``s_i t_j / (W p_ij)`` with
``W = sqrt(S T)``, so the unconditional expected weight is ``s_i t_j / W``.

Links are independent in every model, so the mean and the variance of each
node's degree and strength in one configuration follow from P in closed form
(:func:`expected_metrics`). A Monte Carlo ensemble of N configurations is
drawn as one matrix of link counts C ~ Binomial(N, P): degree, strength and
link sums over the ensemble are row and column sums of C and of C times the
conditional weights (:func:`sample_ensemble`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import BipartiteNetwork, derived_degrees, derived_strengths, Sample

__all__ = [
    "NullModelError",
    "TargetOutOfRange",
    "NonpositiveFitness",
    "NonGraphicalTargets",
    "NoConvergence",
    "Variant",
    "FitnessSpec",
    "BicmSpec",
    "ConstantSpec",
    "Ensemble",
    "STATISTICS",
    "calibrate_z",
    "solve_bicm",
    "bicm_from_network",
    "fitness_spec_from_sample",
    "random_baseline",
    "conditional_weights",
    "expected_metrics",
    "sample_ensemble",
]


class NullModelError(ValueError):
    pass


class TargetOutOfRange(NullModelError):
    pass


class NonpositiveFitness(NullModelError):
    pass


class NonGraphicalTargets(NullModelError):
    pass


class NoConvergence(NullModelError):
    def __init__(self, max_iters, residual):
        self.max_iters, self.residual = max_iters, residual
        super().__init__(f"no convergence after {max_iters} iterations "
                         f"(residual {residual:.3e})")


class Variant(enum.Enum):
    NETWORK_DRIVEN = "network"
    BALANCE_DRIVEN = "balance"


def _as_fitness(values, name) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NonpositiveFitness(f"{name} must be a non-empty 1-d sequence")
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        raise NonpositiveFitness(f"{name} must be finite and non-negative")
    if not np.any(arr > 0):
        raise NonpositiveFitness(f"{name} must contain a positive entry")
    return arr


class _SizedModel:
    """A link model whose node sizes ``s`` and ``t`` set the link weights."""

    @property
    def weight_norm(self) -> float:
        """Normalization W = sqrt(S T) of the conditional weight rule."""
        if self.s is None or self.t is None:
            raise NullModelError("no node sizes attached for weight assignment")
        return float(np.sqrt(self.s.sum() * self.t.sum()))


@dataclass(frozen=True)
class FitnessSpec(_SizedModel):
    """Calibrated fitness link model with dcGM conditional weights."""

    s: np.ndarray
    t: np.ndarray
    z: float
    variant: Variant

    def __post_init__(self):
        object.__setattr__(self, "s", _as_fitness(self.s, "firm fitness"))
        object.__setattr__(self, "t", _as_fitness(self.t, "bank fitness"))
        if self.z <= 0 or not np.isfinite(self.z):
            raise NullModelError("z must be a positive real")

    def probability_matrix(self) -> np.ndarray:
        st = self.z * np.outer(self.s, self.t)
        return st / (1.0 + st)

    def to_json(self) -> dict:
        return {
            "model": "fitness",
            "variant": self.variant.value,
            "z": self.z,
            "firm_fitness": self.s.tolist(),
            "bank_fitness": self.t.tolist(),
        }


@dataclass(frozen=True)
class BicmSpec(_SizedModel):
    """Degree-constrained model: p_ij = x_i y_j / (1 + x_i y_j).

    ``s`` and ``t`` supply the node sizes for the conditional weight rule;
    they are not part of the degree constraints.
    """

    x: np.ndarray
    y: np.ndarray
    target_firm_degrees: np.ndarray
    target_bank_degrees: np.ndarray
    s: np.ndarray | None = None
    t: np.ndarray | None = None

    def probability_matrix(self) -> np.ndarray:
        xy = np.outer(self.x, self.y)
        return xy / (1.0 + xy)

    def with_sizes(self, s, t) -> "BicmSpec":
        return BicmSpec(self.x, self.y, self.target_firm_degrees,
                        self.target_bank_degrees,
                        _as_fitness(s, "firm size"), _as_fitness(t, "bank size"))

    def to_json(self) -> dict:
        return {
            "model": "bicm",
            "firm_multipliers": self.x.tolist(),
            "bank_multipliers": self.y.tolist(),
            "target_firm_degrees": self.target_firm_degrees.tolist(),
            "target_bank_degrees": self.target_bank_degrees.tolist(),
        }


@dataclass(frozen=True)
class ConstantSpec(_SizedModel):
    """Random baseline: constant link probability equal to the density,
    over as many firms and banks as ``s`` and ``t`` have sizes."""

    density: float
    s: np.ndarray
    t: np.ndarray

    def probability_matrix(self) -> np.ndarray:
        return np.full((self.s.size, self.t.size), self.density)

    def to_json(self) -> dict:
        return {"model": "random", "density": self.density}


def calibrate_z(s, t, l_target: float, rel_tol: float = 1e-10) -> float:
    """Solve sum_ij p_ij(z) = l_target for the unique positive root.

    The expected link count is strictly increasing in ``z``, so a doubling
    bracket plus bisection always converges; a Newton polish then drives
    the relative residual below ``rel_tol``.
    """
    s = _as_fitness(s, "firm fitness")
    t = _as_fitness(t, "bank fitness")
    max_links = int(np.count_nonzero(s > 0)) * int(np.count_nonzero(t > 0))
    if not 0 < l_target < max_links:
        raise TargetOutOfRange(
            f"target link count {l_target} outside (0, {max_links})")

    # every evaluation reuses these: st = s t', then z st and p in place
    st = np.outer(s, t)
    zst = np.empty_like(st)
    p = np.empty_like(st)

    def expected_links(z) -> float:
        np.multiply(st, z, out=zst)
        np.add(zst, 1.0, out=p)
        np.divide(zst, p, out=p)
        return float(p.sum())

    lo, hi = 1e-18, 1.0
    while expected_links(hi) <= l_target:
        hi *= 2.0
        if hi > 1e30:
            raise NoConvergence(0, float("inf"))
    while expected_links(lo) >= l_target:
        lo /= 2.0

    for _ in range(200):
        mid = np.sqrt(lo * hi)  # geometric bisection: z spans many decades
        if expected_links(mid) < l_target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-12:
            break

    z = np.sqrt(lo * hi)
    for _ in range(50):
        resid = expected_links(z) - l_target
        if abs(resid) <= rel_tol * l_target:
            return float(z)
        # p(1 - p) of this z, in the z st buffer
        np.subtract(1.0, p, out=zst)
        np.multiply(p, zst, out=zst)
        slope = float(zst.sum()) / z
        step = resid / slope
        z_new = z - step
        if z_new <= 0:
            z_new = z / 2.0
        z = z_new
    raise NoConvergence(50, abs(resid) / l_target)


def fitness_spec_from_sample(sample: Sample, variant: Variant) -> FitnessSpec:
    """Calibrate a fitness model on a sample for the requested variant."""
    net = sample.network
    if variant is Variant.NETWORK_DRIVEN:
        s, t = derived_strengths(net)
    else:
        s = sample.firm_columns["balance_strength"]
        t = sample.bank_columns["balance_strength"]
    z = calibrate_z(s, t, net.n_links)
    return FitnessSpec(s=s, t=t, z=z, variant=variant)


def conditional_weights(spec, p: np.ndarray) -> np.ndarray:
    """Conditional weights s_i t_j / (W p_ij) of a sized model whose link
    probabilities are ``p``; 0 where p_ij is 0."""
    w = np.multiply(p, spec.weight_norm)
    np.divide(np.outer(spec.s, spec.t), w, out=w, where=p > 0)
    return w


BICM_MAX_ITERS = 10_000
BICM_DAMPING = 0.5  # geometric weight of each new iterate


def solve_bicm(k, h, tol: float = 1e-8) -> BicmSpec:
    """Fit per-node multipliers so expected degrees match the targets.

    Damped multiplicative fixed-point iteration; nodes with target degree
    zero get a zero multiplier (their row or column has p identically 0).
    """
    k = np.asarray(k, dtype=float)
    h = np.asarray(h, dtype=float)
    nf, nb = k.size, h.size
    if np.any(k < 0) or np.any(h < 0):
        raise NonGraphicalTargets("degrees must be non-negative")
    if abs(k.sum() - h.sum()) > 1e-9 * max(1.0, k.sum()):
        raise NonGraphicalTargets(
            f"degree sums differ: {k.sum()} vs {h.sum()}")
    if np.any(k > nb) or np.any(h > nf):
        raise NonGraphicalTargets("a target degree exceeds the opposite side")
    if np.any(k == nb) or np.any(h == nf):
        # a saturated node needs an infinite multiplier
        raise NonGraphicalTargets("full-degree nodes are not supported")
    if k.sum() == 0:
        return BicmSpec(np.zeros(nf), np.zeros(nb), k, h)

    active_f = k > 0
    active_b = h > 0
    x = np.where(active_f, k / nb, 0.0)
    y = np.where(active_b, h / nf, 0.0)

    residual = np.inf
    for _ in range(BICM_MAX_ITERS):
        xy = np.outer(x, y)
        p = xy / (1.0 + xy)
        rk = p.sum(axis=1) - k
        rh = p.sum(axis=0) - h
        residual = max(np.abs(rk).max(), np.abs(rh).max())
        if residual < tol:
            return BicmSpec(x, y, k, h)
        with np.errstate(divide="ignore", invalid="ignore"):
            denom_x = (y[None, :] / (1.0 + xy)).sum(axis=1)
            x_prop = np.where(active_f, k / denom_x, 0.0)
            xy = np.outer(x_prop, y)
            denom_y = (x_prop[:, None] / (1.0 + xy)).sum(axis=0)
            y_prop = np.where(active_b, h / denom_y, 0.0)
        # geometric damping keeps the iterates positive
        x = np.where(active_f, x**(1 - BICM_DAMPING) * x_prop**BICM_DAMPING,
                     0.0)
        y = np.where(active_b, y**(1 - BICM_DAMPING) * y_prop**BICM_DAMPING,
                     0.0)
    raise NoConvergence(BICM_MAX_ITERS, residual)


def bicm_from_network(net: BipartiteNetwork) -> BicmSpec:
    """Degree-constrained model of a network, sized by network strengths."""
    k, h = derived_degrees(net)
    s, t = derived_strengths(net)
    return solve_bicm(k, h).with_sizes(s, t)


def random_baseline(net: BipartiteNetwork) -> ConstantSpec:
    """Constant-probability baseline at the empirical density, sized by
    network strengths."""
    if net.n_links == 0:
        raise NullModelError("random baseline needs at least one link")
    s, t = derived_strengths(net)
    return ConstantSpec(density=net.density, s=_as_fitness(s, "firm size"),
                        t=_as_fitness(t, "bank size"))


STATISTICS = ("firm_degrees", "bank_degrees", "firm_strengths",
              "bank_strengths", "links")


@dataclass(frozen=True)
class ExpectedMetrics:
    """Closed-form moments of one configuration of a model: the mean of
    each statistic named in ``STATISTICS`` and its exact ``variances``."""

    firm_degrees: np.ndarray
    bank_degrees: np.ndarray
    firm_strengths: np.ndarray
    bank_strengths: np.ndarray
    variances: dict[str, np.ndarray]

    @property
    def links(self):
        return self.firm_degrees.sum()

    def stderr(self, name: str, n_samples: int):
        """Standard error of the mean of ``name`` over ``n_samples``."""
        return np.sqrt(self.variances[name] / n_samples)

    def to_json(self) -> dict:
        """The mean and the standard deviation of each node statistic."""
        nodes = STATISTICS[:-1]
        return {**{f"expected_{n}": getattr(self, n) for n in nodes},
                **{f"sd_{n}": self.stderr(n, 1) for n in nodes}}


def _margins(x: np.ndarray, kind: str) -> dict:
    """Firm and bank sums of a firm-by-bank matrix of ``kind``."""
    return {f"firm_{kind}": x.sum(axis=1), f"bank_{kind}": x.sum(axis=0)}


def expected_metrics(spec) -> ExpectedMetrics:
    """Means and variances of degrees, strengths and the link count. Links
    are independent, so a degree has variance sum_j p_ij (1 - p_ij) and a
    strength sum_j w_ij**2 p_ij (1 - p_ij), ``w`` the conditional weights."""
    p = spec.probability_matrix()
    w = conditional_weights(spec, p)
    q = 1.0 - p
    q *= p  # the variance of each link indicator
    variances = _margins(q, "degrees")
    variances["links"] = variances["firm_degrees"].sum()
    q *= w
    q *= w  # the variance of each link's weight, w**2 p (1 - p)
    variances.update(_margins(q, "strengths"))
    w *= p  # = s_i t_j / W wherever p > 0
    return ExpectedMetrics(**_margins(p, "degrees"),
                           **_margins(w, "strengths"), variances=variances)


_U64 = 0xFFFFFFFFFFFFFFFF


@dataclass
class Ensemble:
    """Sums of ``STATISTICS`` over ``n_samples`` configurations of a model."""

    n_samples: int
    sums: dict[str, np.ndarray]

    @property
    def sum_firm_degrees(self) -> np.ndarray:
        return self.sums["firm_degrees"]

    @property
    def sum_bank_degrees(self) -> np.ndarray:
        return self.sums["bank_degrees"]

    def mean(self, name: str):
        return self.sums[name] / self.n_samples

    def max_abs_z(self, expected: ExpectedMetrics) -> float:
        """Largest |mean - closed form| / stderr; exact entries left out."""
        largest = 0.0
        for name in STATISTICS:
            gap = abs(self.mean(name) - getattr(expected, name))
            gap, se = np.atleast_1d(gap, expected.stderr(name, self.n_samples))
            z = gap[se > 0] / se[se > 0]
            largest = max(largest, float(z.max(initial=0.0)))
        return largest


def sample_ensemble(spec, n_samples: int, seed: int) -> Ensemble:
    """Draw ``n_samples`` configurations as one matrix of link counts.

    The counts are one ``binomial(n_samples, P)`` draw of a Philox generator
    keyed by ``seed`` mod 2**64, so the result depends on the seed and N alone.
    """
    if n_samples < 1:
        raise NullModelError("n_samples must be >= 1")
    p = spec.probability_matrix()
    w = conditional_weights(spec, p)
    gen = np.random.Generator(np.random.Philox(key=int(seed) & _U64))
    counts = gen.binomial(n_samples, p)
    sums = _margins(counts, "degrees")
    sums["links"] = sums["firm_degrees"].sum()
    w *= counts  # the weight each link carries over all configurations
    sums.update(_margins(w, "strengths"))
    return Ensemble(n_samples=n_samples, sums=sums)

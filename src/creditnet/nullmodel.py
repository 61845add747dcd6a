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
from dataclasses import dataclass, replace

import numpy as np

from .core import BipartiteNetwork, Sample


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


@dataclass(frozen=True)
class FitnessSpec:
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
            "firm_fitness": self.s,
            "bank_fitness": self.t,
        }


@dataclass(frozen=True)
class BicmSpec:
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

    def to_json(self) -> dict:
        return {
            "model": "bicm",
            "firm_multipliers": self.x,
            "bank_multipliers": self.y,
            "target_firm_degrees": self.target_firm_degrees,
            "target_bank_degrees": self.target_bank_degrees,
        }


@dataclass(frozen=True)
class ConstantSpec:
    """Random baseline: constant link probability equal to the density,
    over as many firms and banks as ``s`` and ``t`` have sizes."""

    density: float
    s: np.ndarray
    t: np.ndarray

    def probability_matrix(self) -> np.ndarray:
        return np.full((self.s.size, self.t.size), self.density)

    def to_json(self) -> dict:
        return {"model": "random", "density": self.density}


Z_MAX = 1e30  # calibrate_z gives up on a root above this
NEWTON_ITERS = 20
NEWTON_TOL = 1e-13  # |sum p - l_target| / l_target that ends the estimate
# relative rounding error bound of sum p: numpy sums a contiguous array
# pairwise, to within about (log2 n + 16) eps / 2 of the sum for n terms
# (the terms' own rounding included), far below this for any n that fits
SUM_ROUNDING = 64 * np.finfo(float).eps
MARGIN_SAFETY = 10.0


def calibrate_z(s, t, l_target: float) -> float:
    """Solve sum_ij p_ij(z) = l_target for the unique positive root.

    The expected link count is strictly increasing in ``z``, with ln z
    elasticity at most 1, so a doubling bracket plus geometric bisection to
    a relative width of 1e-12 leaves a relative residual of that order.

    Safeguarded Newton in ln z first estimates the root. Its error bound is
    the gap of sum p to the target plus the rounding error of sum p, over
    the slope. A point of the bracket or the bisection farther than
    ``MARGIN_SAFETY`` times that bound from the estimate takes its side of
    the root from it; nearer points are evaluated. Within a margin of at
    most 1 in ln z the slope sum p (1 - p) falls by at most a factor e (its
    derivative sum p (1 - p) (1 - 2 p) is no larger), so sum p moves across
    the margin by more than 3 bounds: every step goes the way an evaluation
    would, and z is the bisection's z bit for bit. A wider margin is not
    used, and without an estimate every point is evaluated.
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

    def slope() -> float:
        """d sum p / d ln z = sum p (1 - p) at the last evaluated z."""
        np.add(zst, 1.0, out=zst)
        np.divide(p, zst, out=zst)
        return float(zst.sum())

    # Newton from z = l_target / (S T), where sum p <= sum z s t = l_target;
    # a step leaving the bracket of evaluated sides is a bisection instead.
    # Near the root the slope is at most max_links - l_target, so close to
    # saturation the margin widens, up to where it is refused.
    known_below, known_above = 0.0, np.inf  # sides known outside these
    u = np.log(l_target) - np.log(s.sum()) - np.log(t.sum())
    u_lo, u_hi = -np.inf, np.log(Z_MAX)
    for _ in range(NEWTON_ITERS):
        gap = expected_links(np.exp(u)) - l_target
        d = slope()
        if not d > 0:
            break
        if abs(gap) <= NEWTON_TOL * l_target:
            margin = MARGIN_SAFETY * (abs(gap) + SUM_ROUNDING * l_target) / d
            if margin <= 1.0:
                known_below = np.exp(u - margin)
                known_above = np.exp(u + margin)
            break
        if gap < 0:
            u_lo = u
        else:
            u_hi = u
        u_next = u - gap / d
        u = u_next if u_lo < u_next < u_hi else 0.5 * (u_lo + u_hi)

    def links(z) -> float:
        """sum p at z, or -inf / inf where the estimate puts z below or
        above the root."""
        if z < known_below:
            return -np.inf
        if z > known_above:
            return np.inf
        return expected_links(z)

    lo, hi = 1e-18, 1.0
    while links(hi) <= l_target:
        hi *= 2.0
        if hi > Z_MAX:
            raise NoConvergence(0, float("inf"))
    while links(lo) >= l_target:
        lo /= 2.0

    for _ in range(200):
        mid = np.sqrt(lo * hi)  # geometric bisection: z spans many decades
        if links(mid) < l_target:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-12:
            break
    return float(np.sqrt(lo * hi))


def fitness_spec_from_sample(sample: Sample, variant: Variant) -> FitnessSpec:
    """Calibrate a fitness model on a sample for the requested variant."""
    net = sample.network
    if variant is Variant.NETWORK_DRIVEN:
        s, t = net.strengths
    else:
        s = sample.firm_columns["balance_strength"]
        t = sample.bank_columns["balance_strength"]
    z = calibrate_z(s, t, net.n_links)
    return FitnessSpec(s=s, t=t, z=z, variant=variant)


def conditional_weights(spec, p: np.ndarray) -> np.ndarray:
    """Conditional weights s_i t_j / (W p_ij), W = sqrt(S T), of a sized
    model whose link probabilities are ``p``; 0 where p_ij is 0."""
    s, t = spec.s, spec.t
    if s is None or t is None:
        raise NullModelError("no node sizes attached for weight assignment")
    w = np.multiply(p, float(np.sqrt(s.sum() * t.sum())))
    np.divide(np.outer(s, t), w, out=w, where=p > 0)
    return w


BICM_MAX_ITERS = 10_000


def solve_bicm(k, h, tol: float = 1e-8) -> BicmSpec:
    """Fit per-node multipliers so expected degrees match the targets.

    Nodes with equal degree share a multiplier, so the undamped fixed point
    x = k / sum_j y_j / (1 + x y_j), then y = h / sum_i x_i / (1 + x_i y),
    runs over the distinct degrees, weighted by their counts; a zero degree
    gives a zero multiplier. It returns once every row and column sum of p
    is within ``tol`` of its target. Targets that need p = 1 somewhere raise
    NonGraphicalTargets: a degree at or above sum_j min(b_j, 1) over the
    partner degrees b (the number of linked partners for integer degrees),
    a set of nodes that must link to every node of a set on the other side
    (the strict Gale-Ryser test over positive degrees), or a partner degree
    of 1 or more beside a single linked node. So does a degree of ``tol`` or
    more against a side whose degrees are all 0.
    """
    k = np.asarray(k, dtype=float)
    h = np.asarray(h, dtype=float)
    nf, nb = k.size, h.size
    if np.any(k < 0) or np.any(h < 0):
        raise NonGraphicalTargets("degrees must be non-negative")
    if abs(k.sum() - h.sum()) > 1e-9 * max(1.0, k.sum()):
        raise NonGraphicalTargets(
            f"degree sums differ: {k.sum()} vs {h.sum()}")
    # strict Gale-Ryser over the positive degrees of each side: for m = 1
    # ... n - 1, the m largest need fewer links than sum_j min(b_j, m), the
    # most any m nodes can have with partners of degrees b, or some p is 1.
    # The smallest failing set is named, a single node (m = 1) first. A side
    # with no positive degree has no such set; against one, p is 0, so a
    # degree can only be met if it is below tol.
    failed = []
    for side, deg, partners in (("firm", k, h), ("bank", h, k)):
        a, b = -np.sort(-deg[deg > 0]), np.sort(partners[partners > 0])
        if a.size == 0 or (b.size == 0 and a[0] < tol):
            continue
        if b.size == 0:
            raise NonGraphicalTargets(
                f"{a.size} {side}(s) with a positive degree, and no positive "
                "degree on the other side")
        m = np.arange(1, max(a.size, 2))
        below = np.searchsorted(b, m)  # partners with a degree under m
        room = np.cumsum(np.r_[0.0, b])[below] + m * (b.size - below)
        need = np.cumsum(a)[m - 1]
        # a single node has p_j = b_j: every partner needs b_j < 1
        bad = need >= room if a.size > 1 else b[-1:] >= 1
        if np.any(bad):
            i = np.argmax(bad)
            failed.append((m[i], side, deg, need[i], room[i]))
    if failed:
        m, side, deg, need, room = min(failed, key=lambda f: f[0])
        if m == 1:  # p = 1 to every partner with a link
            raise NonGraphicalTargets(
                f"{np.count_nonzero(deg >= room)} {side}(s) with a degree "
                f"of at least {room:.15g}, the sum over the other side of "
                "min(degree, 1)")
        raise NonGraphicalTargets(
            f"the {m} {side}s of largest degree need {need:.15g} links, at "
            f"least the {room:.15g} that any {m} {side}s can have")

    kd, k_class, k_n = np.unique(k, return_inverse=True, return_counts=True)
    hd, h_class, h_n = np.unique(h, return_inverse=True, return_counts=True)
    x, y = kd / nb, hd / nf
    for _ in range(BICM_MAX_ITERS):
        xy = np.outer(x, y)
        p = xy / (1.0 + xy)
        residual = max(np.abs(p @ h_n - kd).max(), np.abs(k_n @ p - hd).max())
        # the class sums only say when to check the node sums a caller sees
        if residual < tol:
            spec = BicmSpec(x[k_class], y[h_class], k, h)
            p = spec.probability_matrix()
            residual = max(np.abs(p.sum(axis=1) - k).max(),
                           np.abs(p.sum(axis=0) - h).max())
            if residual < tol:
                return spec
        x = kd / ((y / (1.0 + xy)) @ h_n)
        y = hd / (k_n @ (x[:, None] / (1.0 + np.outer(x, y))))
    raise NoConvergence(BICM_MAX_ITERS, residual)


def bicm_from_network(net: BipartiteNetwork) -> BicmSpec:
    """Degree-constrained model of a network, sized by network strengths."""
    s, t = net.strengths
    return replace(solve_bicm(*net.degrees), s=_as_fitness(s, "firm size"),
                   t=_as_fitness(t, "bank size"))


def random_baseline(net: BipartiteNetwork) -> ConstantSpec:
    """Constant-probability baseline at the empirical density, sized by
    network strengths."""
    if net.n_links == 0:
        raise NullModelError("random baseline needs at least one link")
    s, t = net.strengths
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


def philox(seed: int) -> np.random.Generator:
    """Philox keyed by ``seed`` mod 2**64: each integer names a stream."""
    return np.random.Generator(np.random.Philox(key=int(seed) % 2**64))


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

    The counts are one ``binomial(n_samples, P)`` draw of ``philox(seed)``,
    so the result depends on the seed and N alone.
    """
    if n_samples < 1:
        raise NullModelError("n_samples must be >= 1")
    p = spec.probability_matrix()
    w = conditional_weights(spec, p)
    counts = philox(seed).binomial(n_samples, p)
    sums = _margins(counts, "degrees")
    sums["links"] = sums["firm_degrees"].sum()
    w *= counts  # the weight each link carries over all configurations
    sums.update(_margins(w, "strengths"))
    return Ensemble(n_samples=n_samples, sums=sums)

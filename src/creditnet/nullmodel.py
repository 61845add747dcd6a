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
"""

from __future__ import annotations

import enum
import os
import threading
import time
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

    @property
    def total_firm_size(self) -> float:
        return float(self.s.sum())

    @property
    def total_bank_size(self) -> float:
        return float(self.t.sum())

    @property
    def weight_norm(self) -> float:
        """Normalization W = sqrt(S T) of the conditional weight rule."""
        return float(np.sqrt(self.total_firm_size * self.total_bank_size))

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

    @property
    def weight_norm(self) -> float:
        if self.s is None or self.t is None:
            raise NullModelError("no node sizes attached for weight assignment")
        return float(np.sqrt(self.s.sum() * self.t.sum()))

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
class ConstantSpec:
    """Random baseline: constant link probability equal to the density."""

    density: float
    n_firms: int
    n_banks: int
    s: np.ndarray
    t: np.ndarray
    variant: Variant

    @property
    def weight_norm(self) -> float:
        return float(np.sqrt(self.s.sum() * self.t.sum()))

    def probability_matrix(self) -> np.ndarray:
        return np.full((self.n_firms, self.n_banks), self.density)

    def to_json(self) -> dict:
        return {
            "model": "random",
            "variant": self.variant.value,
            "density": self.density,
        }


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
        s = sample.firm_series("balance_strength")
        t = sample.bank_series("balance_strength")
    z = calibrate_z(s, t, net.n_links)
    return FitnessSpec(s=s, t=t, z=z, variant=variant)


def _weight_matrix(spec, p: np.ndarray) -> np.ndarray:
    st = np.outer(spec.s, spec.t)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(p > 0, st / (spec.weight_norm * p), 0.0)
    return w


def solve_bicm(k, h, tol: float = 1e-8, max_iters: int = 10_000,
               damping: float = 0.5) -> BicmSpec:
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
    for _ in range(max_iters):
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
        x = np.where(active_f, x**(1 - damping) * x_prop**damping, 0.0)
        y = np.where(active_b, y**(1 - damping) * y_prop**damping, 0.0)
    raise NoConvergence(max_iters, residual)


def bicm_from_network(net: BipartiteNetwork, **kwargs) -> BicmSpec:
    """Degree-constrained model of a network, sized by network strengths."""
    k, h = derived_degrees(net)
    s, t = derived_strengths(net)
    return solve_bicm(k, h, **kwargs).with_sizes(s, t)


def random_baseline(net: BipartiteNetwork, sample: Sample | None = None,
                    variant: Variant = Variant.NETWORK_DRIVEN) -> ConstantSpec:
    """Constant-probability baseline at the empirical density."""
    if net.n_links == 0:
        raise NullModelError("random baseline needs at least one link")
    if variant is Variant.NETWORK_DRIVEN or sample is None:
        s, t = derived_strengths(net)
    else:
        s = sample.firm_series("balance_strength")
        t = sample.bank_series("balance_strength")
    return ConstantSpec(density=net.density, n_firms=net.n_firms,
                        n_banks=net.n_banks, s=_as_fitness(s, "firm size"),
                        t=_as_fitness(t, "bank size"), variant=variant)


@dataclass(frozen=True)
class ExpectedMetrics:
    """Closed-form ensemble expectations of degrees, strengths and weights."""

    firm_degrees: np.ndarray
    bank_degrees: np.ndarray
    firm_strengths: np.ndarray
    bank_strengths: np.ndarray
    weights: np.ndarray


def expected_metrics(spec) -> ExpectedMetrics:
    """Expected degrees/strengths/weights of a calibrated model."""
    p = spec.probability_matrix()
    w_cond = _weight_matrix(spec, p)
    w_mean = p * w_cond  # = s_i t_j / W wherever p > 0
    return ExpectedMetrics(
        firm_degrees=p.sum(axis=1),
        bank_degrees=p.sum(axis=0),
        firm_strengths=w_mean.sum(axis=1),
        bank_strengths=w_mean.sum(axis=0),
        weights=w_mean,
    )


STATISTICS = ("firm_degrees", "bank_degrees", "firm_strengths",
              "bank_strengths", "links")

BLOCK_PAIRS = 2**15  # firm-bank pairs drawn per block of samples
_U64 = 0xFFFFFFFFFFFFFFFF


def _layout(nf: int, nb: int) -> dict:
    """Columns of each statistic in a flat row of per-sample statistics."""
    firm, bank = slice(0, nf), slice(nf, nf + nb)
    strengths = nf + nb
    return {"firm_degrees": firm, "bank_degrees": bank,
            "firm_strengths": slice(strengths, strengths + nf),
            "bank_strengths": slice(strengths + nf, strengths + nf + nb),
            "links": 2 * (nf + nb)}


@dataclass
class Ensemble:
    """Streaming statistics over seeded Monte Carlo configurations.

    Per-sample randomness comes from a counter-based generator keyed by
    (seed, sample_index), and samples are added up in index order, so the
    statistics depend only on the seed and the sample count, never on
    scheduling. ``moments[name]`` stacks the sum and the sum of squares over
    the samples of one statistic named in ``STATISTICS``.
    """

    spec: object
    n_samples: int
    seed: int
    moments: dict[str, np.ndarray]

    @property
    def sum_firm_degrees(self) -> np.ndarray:
        return self.moments["firm_degrees"][0]

    @property
    def sum_bank_degrees(self) -> np.ndarray:
        return self.moments["bank_degrees"][0]

    def mean(self, name: str):
        return self.moments[name][0] / self.n_samples

    def stderr(self, name: str):
        m, m2 = self.moments[name] / self.n_samples
        return np.sqrt(np.maximum(m2 - m**2, 0.0) / self.n_samples)

    def to_json(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "seed": self.seed,
            "mean_links": float(self.mean("links")),
            **{f"mean_{name}": self.mean(name).tolist()
               for name in STATISTICS if name != "links"},
        }


class _BlockSampler:
    """Per-sample statistics of a block of sample indices.

    Each thread that draws keeps one Philox generator. Before every sample
    it is reset to key ``[index, seed]`` at counter 0 with an empty buffer,
    which is the stream of ``Philox(key=seed << 64 | index)``.
    """

    def __init__(self, p: np.ndarray, w_cond: np.ndarray, seed: int):
        self.p, self.w_cond = p, w_cond
        self.seed = int(seed) & _U64
        self.layout = _layout(*p.shape)
        self._local = threading.local()

    def __call__(self, start: int, stop: int) -> np.ndarray:
        """Rows ``[x, x**2]`` of the flat statistics x, one per sample."""
        local = self._local
        if not hasattr(local, "gen"):
            local.gen = np.random.Generator(np.random.Philox(key=0))
            local.state = {"bit_generator": "Philox",
                           "state": {"counter": [0, 0, 0, 0],
                                     "key": [0, self.seed]},
                           "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                           "has_uint32": 0, "uinteger": 0}
        a = np.empty((stop - start,) + self.p.shape, dtype=bool)
        for row, index in zip(a, range(start, stop)):
            local.state["state"]["key"][0] = index & _U64
            local.gen.bit_generator.state = local.state
            np.less(local.gen.random(self.p.shape), self.p, out=row)
        rows = np.empty((stop - start, 2, self.layout["links"] + 1))
        x, col = rows[:, 0], self.layout
        # counting the 0/1 bytes in uint16 is the fastest exact way while no
        # node can reach 2**16 links
        count = np.uint16 if max(self.p.shape) < 2**16 else np.uint32
        ones = a.view(np.uint8)
        np.add.reduce(ones, axis=2, dtype=count, out=x[:, col["firm_degrees"]])
        np.add.reduce(ones, axis=1, dtype=count, out=x[:, col["bank_degrees"]])
        np.add.reduce(x[:, col["firm_degrees"]], axis=1,
                      out=x[:, col["links"]])
        # drawn after the degree sums, so w never coexists with their buffers
        w = np.where(a, self.w_cond, 0.0)
        np.add.reduce(w, axis=2, out=x[:, col["firm_strengths"]])
        np.add.reduce(w, axis=1, out=x[:, col["bank_strengths"]])
        np.square(x, out=rows[:, 1])
        return rows


class _Blocks:
    """Blocks of samples drawn by several threads and yielded in order.

    Each thread claims the next unclaimed block and draws it, at most
    ``window`` blocks ahead of the next block to yield. When the calling
    thread needs a block that another thread has claimed but not finished,
    it waits about as long as its own last block took, then draws that block
    itself; both draws give the same rows, and the late copy is dropped. A
    stalled thread (a preempted virtual CPU, say) thus delays the sum by
    about one block, not for as long as it stalls.
    """

    def __init__(self, draw: _BlockSampler, blocks: list, window: int):
        self.draw, self.blocks, self.window = draw, blocks, window
        self.changed = threading.Condition()
        self.claimed = 0  # blocks claimed so far, in index order
        self.yielded = 0  # blocks yielded so far
        self.done: dict = {}  # index -> rows, or the exception raised
        self.patience = 0.0  # seconds the calling thread took for a block
        self.cancelled = False

    def _claimable(self) -> bool:
        return self.claimed < min(len(self.blocks), self.yielded + self.window)

    def work(self) -> None:
        """Loop of the other threads: claim and draw blocks until none left."""
        while True:
            with self.changed:
                self.changed.wait_for(
                    lambda: self.cancelled or self._claimable()
                    or self.claimed == len(self.blocks))
                if self.cancelled or not self._claimable():
                    return
                i = self.claimed
                self.claimed += 1
            try:
                rows = self.draw(*self.blocks[i])
            except Exception as exc:  # raised again in the calling thread
                rows = exc
            with self.changed:
                if i >= self.yielded:
                    self.done[i] = rows
                    self.changed.notify_all()

    def _take(self, i: int):
        """Rows of block i; draws blocks here until they are available."""
        while True:
            with self.changed:
                if i in self.done:
                    return self.done.pop(i)
                if self._claimable():
                    j = self.claimed
                    self.claimed += 1
                elif self.changed.wait_for(lambda: i in self.done,
                                           self.patience):
                    return self.done.pop(i)
                else:
                    j = i  # claimed by a thread that is late
            start = time.perf_counter()
            rows = self.draw(*self.blocks[j])
            self.patience = time.perf_counter() - start
            if j == i:
                return rows
            with self.changed:
                self.done[j] = rows

    def in_order(self):
        """Yield the rows of every block in index order."""
        for i in range(len(self.blocks)):
            rows = self._take(i)
            if isinstance(rows, Exception):
                raise rows
            yield rows
            with self.changed:
                self.yielded = i + 1
                self.done.pop(i, None)  # a late copy
                self.changed.notify_all()

    def cancel(self) -> None:
        with self.changed:
            self.cancelled = True
            self.changed.notify_all()


def sample_ensemble(spec, n_samples: int, seed: int) -> Ensemble:
    """Draw configurations and accumulate degree/strength statistics.

    Samples are drawn in blocks of about ``BLOCK_PAIRS`` firm-bank pairs on
    one thread per core in the process's CPU affinity set, the calling
    thread included, and added to the totals in sample-index order, so the
    result is the same for any core count. A sample that fills a block on
    its own is drawn in the calling thread.
    """
    if n_samples < 1:
        raise NullModelError("n_samples must be >= 1")
    p = spec.probability_matrix()
    draw = _BlockSampler(p, _weight_matrix(spec, p), seed)
    size = max(1, BLOCK_PAIRS // max(1, p.size))  # samples per block
    blocks = [(i, min(i + size, n_samples)) for i in range(0, n_samples, size)]
    total = np.zeros((2, draw.layout["links"] + 1))
    workers = 1 if size == 1 else min(len(os.sched_getaffinity(0)),
                                      len(blocks))
    shared = _Blocks(draw, blocks, window=2 * workers)
    threads = [threading.Thread(target=shared.work, daemon=True)
               for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    try:
        for rows in shared.in_order():
            # reducing [total, row_0, row_1, ...] along axis 0 adds one row
            # at a time: bit for bit the per-sample ``total += row``
            total = np.add.reduce(np.concatenate([total[None], rows]), axis=0)
    finally:
        shared.cancel()
        for thread in threads:
            thread.join()
    moments = {name: total[:, col] for name, col in draw.layout.items()}
    return Ensemble(spec=spec, n_samples=n_samples, seed=seed, moments=moments)

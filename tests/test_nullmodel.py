import contextlib
import faulthandler
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditnet import nullmodel
from creditnet.core import derived_degrees, derived_strengths
from creditnet.nullmodel import (BLOCK_PAIRS, STATISTICS, ConstantSpec,
                                 FitnessSpec, NonGraphicalTargets,
                                 NonpositiveFitness, TargetOutOfRange, Variant,
                                 bicm_from_network, calibrate_z,
                                 expected_metrics, fitness_spec_from_sample,
                                 random_baseline, sample_ensemble, solve_bicm)
from conftest import make_network, make_sample
from oracles import (bicm_fixed_point, calibrate_z_allocating,
                     calibrate_z_bisection, ensemble_sums)


def test_link_probability_closed_form():
    spec = FitnessSpec(s=np.array([2.0]), t=np.array([3.0]), z=0.5,
                       variant=Variant.NETWORK_DRIVEN)
    assert spec.probability_matrix()[0, 0] == pytest.approx(3.0 / 4.0)


def test_link_probability_saturates():
    spec = FitnessSpec(s=np.array([1e8]), t=np.array([1e8]), z=1.0,
                       variant=Variant.NETWORK_DRIVEN)
    assert spec.probability_matrix()[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_calibrate_z_hits_target(rng):
    s = rng.lognormal(1.0, 1.0, 40)
    t = rng.lognormal(2.0, 0.8, 15)
    target = 120.0
    z = calibrate_z(s, t, target)
    p = z * np.outer(s, t) / (1 + z * np.outer(s, t))
    assert p.sum() == pytest.approx(target, rel=1e-10)


def test_calibrate_z_matches_bisection_oracle(rng):
    s = rng.lognormal(0.0, 1.5, 12)
    t = rng.lognormal(0.0, 1.5, 9)
    z = calibrate_z(s, t, 30.0)
    z_oracle = calibrate_z_bisection(s, t, 30.0)
    assert z == pytest.approx(z_oracle, rel=1e-6)


@given(st.integers(1, 600), st.integers(1, 60), st.floats(0.1, 2.5),
       st.floats(0.01, 0.9), st.booleans(),
       st.sampled_from([1e-10, 1e-14, 1e-15]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(300, 40, 1.5, 0.3, False, 1e-15, 0)
def test_calibrate_z_equals_allocating_oracle(nf, nb, sigma, density, zeros,
                                              rel_tol, seed):
    """Bit for bit the z of the same solver on freshly allocated arrays.

    The bisection alone meets the default tolerance; the tighter ones make
    the Newton polish take steps.
    """
    rng = np.random.default_rng(seed)
    s = rng.lognormal(0.0, sigma, nf)
    t = rng.lognormal(0.0, sigma, nb)
    if zeros:  # nodes without fitness: fewer possible links
        s[rng.random(nf) < 0.2] = 0.0
        s[0] = max(s[0], 1.0)
    target = density * np.count_nonzero(s) * nb
    try:
        z = calibrate_z(s, t, target, rel_tol)
    except nullmodel.NoConvergence:
        with pytest.raises(RuntimeError):
            calibrate_z_allocating(s, t, target, rel_tol)
        return
    assert z == calibrate_z_allocating(s, t, target, rel_tol)


def test_calibrate_z_target_bounds(rng):
    s = rng.uniform(1, 2, 5)
    t = rng.uniform(1, 2, 4)
    with pytest.raises(TargetOutOfRange):
        calibrate_z(s, t, 0.0)
    with pytest.raises(TargetOutOfRange):
        calibrate_z(s, t, 20.0)  # = n_firms * n_banks
    with pytest.raises(NonpositiveFitness):
        calibrate_z([-1.0, 1.0], t, 1.0)


@given(st.floats(1.0, 40.0), st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_calibrate_z_monotone_in_target(target, seed):
    rng = np.random.default_rng(seed)
    s = rng.lognormal(0.0, 1.0, 10)
    t = rng.lognormal(0.0, 1.0, 5)
    z_lo = calibrate_z(s, t, target)
    z_hi = calibrate_z(s, t, target + 1.0)
    assert z_hi > z_lo


def test_dcgm_weight_identity(rng):
    s = rng.lognormal(1, 1, 8)
    t = rng.lognormal(1, 1, 6)
    spec = FitnessSpec(s=s, t=t, z=calibrate_z(s, t, 12.0),
                       variant=Variant.NETWORK_DRIVEN)
    W = np.sqrt(s.sum() * t.sum())
    # unconditional expectation p * <w | link> equals s_i t_j / W
    np.testing.assert_allclose(expected_metrics(spec).weights,
                               np.outer(s, t) / W, rtol=1e-12)


def test_expected_metrics_network_driven_reproduces_strengths(rng):
    w = (rng.random((15, 8)) < 0.4) * rng.lognormal(0, 1, (15, 8))
    w[0, 0] = max(w[0, 0], 1.0)
    sample = make_sample(w)
    spec = fitness_spec_from_sample(sample, Variant.NETWORK_DRIVEN)
    metrics = expected_metrics(spec)
    s, t = derived_strengths(sample.network)
    # S = T here, so expected strengths equal node strengths exactly
    np.testing.assert_allclose(metrics.firm_strengths, s, rtol=1e-10)
    np.testing.assert_allclose(metrics.bank_strengths, t, rtol=1e-10)
    assert metrics.firm_degrees.sum() == pytest.approx(
        sample.network.n_links, rel=1e-9)


def test_balance_driven_variant_uses_balance_sizes(rng):
    w = (rng.random((10, 5)) < 0.5) * rng.uniform(1, 4, (10, 5))
    w[0, 0] = max(w[0, 0], 1.0)
    s_bal = rng.uniform(1, 100, 10)
    t_bal = rng.uniform(1, 100, 5)
    sample = make_sample(w, s_bal=s_bal, t_bal=t_bal)
    spec = fitness_spec_from_sample(sample, Variant.BALANCE_DRIVEN)
    np.testing.assert_allclose(spec.s, s_bal)
    np.testing.assert_allclose(spec.t, t_bal)
    assert spec.probability_matrix().sum() == pytest.approx(
        sample.network.n_links, rel=1e-9)


def test_solve_bicm_matches_targets_and_oracle(rng):
    w = (rng.random((12, 7)) < 0.4) * 1.0
    w[0, :] = 0.0  # an isolated firm
    w[1, 0] = 1.0
    net = make_network(w)
    k, h = derived_degrees(net)
    spec = solve_bicm(k, h, tol=1e-10)
    p = spec.probability_matrix()
    np.testing.assert_allclose(p.sum(axis=1), k, atol=1e-8)
    np.testing.assert_allclose(p.sum(axis=0), h, atol=1e-8)
    assert spec.x[0] == 0.0 and (p[0] == 0).all()
    p_oracle = bicm_fixed_point(k, h, tol=1e-10)
    np.testing.assert_allclose(p, p_oracle, atol=1e-6)


def test_solve_bicm_rejects_bad_targets():
    with pytest.raises(NonGraphicalTargets):
        solve_bicm([2.0, 1.0], [1.0, 1.0, 2.0])  # sums differ
    with pytest.raises(NonGraphicalTargets):
        solve_bicm([3.0, 0.0], [1.0, 1.0, 1.0])  # full-degree firm
    with pytest.raises(NonGraphicalTargets):
        solve_bicm([-1.0, 2.0], [1.0])


def test_bicm_from_network_carries_sizes():
    net = make_network([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]])
    spec = bicm_from_network(net)
    s, t = derived_strengths(net)
    np.testing.assert_allclose(spec.s, s)
    assert spec.weight_norm == pytest.approx(np.sqrt(s.sum() * t.sum()))


def test_random_baseline_density(small_net):
    spec = random_baseline(small_net)
    assert np.all(spec.probability_matrix() == small_net.density)
    metrics = expected_metrics(spec)
    assert metrics.firm_degrees.sum() == pytest.approx(small_net.n_links)


def _assert_matches_oracle(acc, spec, seed):
    """All ten accumulators equal the per-sample oracle bit for bit."""
    want = ensemble_sums(spec.probability_matrix(), spec.s, spec.t, seed,
                         acc.n_samples)
    for name in STATISTICS:
        np.testing.assert_array_equal(acc.moments[name][0],
                                      want[f"sum_{name}"])
        np.testing.assert_array_equal(acc.moments[name][1],
                                      want[f"sumsq_{name}"])


@contextlib.contextmanager
def _deadline(seconds=60):
    """End the test run, printing every thread's stack, if the body hangs."""
    faulthandler.dump_traceback_later(seconds, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def _fitness(rng, nf, nb, density):
    s = rng.lognormal(0, 1, nf)
    t = rng.lognormal(0, 2, nb)
    return FitnessSpec(s=s, t=t, z=calibrate_z(s, t, density * nf * nb),
                       variant=Variant.NETWORK_DRIVEN)


def test_ensemble_reproducible_and_order_free(rng):
    spec = _fitness(rng, 10, 6, 1 / 3)
    a = sample_ensemble(spec, n_samples=50, seed=7)
    b = sample_ensemble(spec, n_samples=50, seed=7)
    assert sorted(a.moments) == sorted(STATISTICS)
    for name in STATISTICS:
        np.testing.assert_array_equal(a.moments[name], b.moments[name])
    c = sample_ensemble(spec, n_samples=50, seed=8)
    assert not np.array_equal(a.sum_firm_degrees, c.sum_firm_degrees)


def test_ensemble_prefix_property(rng):
    """Sample i depends on (seed, i) alone, so ensembles share prefixes."""
    spec = _fitness(rng, 6, 4, 1 / 3)
    for n in (5, 9):
        _assert_matches_oracle(sample_ensemble(spec, n, seed=3), spec, 3)


@pytest.mark.parametrize("workers", [1, 4])
def test_ensemble_blocks_match_oracle(rng, monkeypatch, workers):
    """Blocks on any number of threads add up like one sample at a time."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(workers)))
    spec = _fitness(rng, 60, 40, 0.1)
    block = BLOCK_PAIRS // (60 * 40)
    n = 10 * block + 5  # more blocks than are drawn ahead; the last is short
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with _deadline():
            acc = sample_ensemble(spec, n, seed=2**63 + 5)
    finally:
        sys.setswitchinterval(interval)
    assert acc.n_samples == n
    _assert_matches_oracle(acc, spec, 2**63 + 5)


@pytest.mark.parametrize("failing", [0, 3, 4])
def test_ensemble_block_error_reaches_caller(rng, monkeypatch, failing):
    """A failing block raises in the caller; no drawing thread outlives it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    spec = _fitness(rng, 60, 40, 0.1)
    block = BLOCK_PAIRS // (60 * 40)
    draw = nullmodel._BlockSampler.__call__

    def draw_or_fail(self, start, stop):
        if start == failing * block:
            raise FloatingPointError(f"block {failing}")
        return draw(self, start, stop)

    monkeypatch.setattr(nullmodel._BlockSampler, "__call__", draw_or_fail)
    before = threading.active_count()
    with _deadline(), pytest.raises(FloatingPointError,
                                    match=f"block {failing}"):
        # enough blocks that the other threads wait for room to hand over
        sample_ensemble(spec, 30 * block, seed=1)
    assert threading.active_count() == before


def test_ensemble_late_blocks_are_drawn_again(rng, monkeypatch):
    """The caller draws a block itself when another thread is slow with it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = _fitness(rng, 60, 40, 0.1)
    block = BLOCK_PAIRS // (60 * 40)
    draw = nullmodel._BlockSampler.__call__
    starts = []

    def slow_elsewhere(self, start, stop):
        starts.append(start)
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.05)
        return draw(self, start, stop)

    monkeypatch.setattr(nullmodel._BlockSampler, "__call__", slow_elsewhere)
    n = 12 * block + 3
    with _deadline():
        acc = sample_ensemble(spec, n, seed=5)
    assert len(starts) > 13  # some of the 13 blocks were drawn twice
    _assert_matches_oracle(acc, spec, 5)


def test_ensemble_large_samples_match_oracle(rng, monkeypatch):
    """A sample that fills a block on its own is drawn in the caller."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    spec = _fitness(rng, 260, 130, 0.07)
    assert spec.probability_matrix().size >= BLOCK_PAIRS
    _assert_matches_oracle(sample_ensemble(spec, 3, seed=11), spec, 11)
    # a bank linked to all 2**16 firms: its degree overflows 16-bit counts
    n = 2**16
    full = ConstantSpec(density=1.0, n_firms=n, n_banks=1, s=np.ones(n),
                        t=np.ones(1), variant=Variant.NETWORK_DRIVEN)
    acc = sample_ensemble(full, 2, seed=1)
    assert acc.sum_bank_degrees[0] == 2 * n
    _assert_matches_oracle(acc, full, 1)


def test_ensemble_means_approach_expectations(rng):
    s = rng.lognormal(0, 0.8, 12)
    t = rng.lognormal(0, 0.8, 8)
    spec = FitnessSpec(s=s, t=t, z=calibrate_z(s, t, 30.0),
                       variant=Variant.NETWORK_DRIVEN)
    acc = sample_ensemble(spec, n_samples=4000, seed=11)
    metrics = expected_metrics(spec)
    se = acc.stderr("firm_degrees")
    assert np.all(np.abs(acc.mean("firm_degrees") - metrics.firm_degrees)
                  <= 5 * np.maximum(se, 1e-3))
    assert acc.mean("links") == pytest.approx(30.0, rel=0.05)
    np.testing.assert_allclose(acc.mean("firm_strengths").sum(),
                               metrics.firm_strengths.sum(), rtol=0.05)

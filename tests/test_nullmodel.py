import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditnet import nullmodel
from creditnet.core import derived_degrees, derived_strengths
from creditnet.nullmodel import (STATISTICS, ConstantSpec,
                                 FitnessSpec, NonGraphicalTargets,
                                 NonpositiveFitness, TargetOutOfRange, Variant,
                                 bicm_from_network, calibrate_z,
                                 conditional_weights, expected_metrics,
                                 fitness_spec_from_sample,
                                 random_baseline, sample_ensemble, solve_bicm)
from conftest import make_network, make_sample
from oracles import (bicm_fixed_point, binomial_ensemble_sums,
                     calibrate_z_allocating, calibrate_z_bisection, chi2_sf,
                     chi_square, ensemble_stderr)


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
    p = spec.probability_matrix()
    # unconditional expectation p * <w | link> equals s_i t_j / W
    np.testing.assert_allclose(p * conditional_weights(spec, p),
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


def _fitness(rng, nf, nb, density):
    s = rng.lognormal(0, 1, nf)
    t = rng.lognormal(0, 2, nb)
    return FitnessSpec(s=s, t=t, z=calibrate_z(s, t, density * nf * nb),
                       variant=Variant.NETWORK_DRIVEN)


def _column_spec(p):
    """A fitness model with one bank whose link probabilities are ``p``."""
    p = np.asarray(p, float)
    return FitnessSpec(s=p / (1 - p), t=np.ones(1), z=1.0,
                       variant=Variant.NETWORK_DRIVEN)


def test_ensemble_reproducible_and_order_free(rng):
    spec = _fitness(rng, 10, 6, 1 / 3)
    a = sample_ensemble(spec, n_samples=50, seed=7)
    b = sample_ensemble(spec, n_samples=50, seed=7)
    assert sorted(a.sums) == sorted(STATISTICS)
    for name in STATISTICS:
        np.testing.assert_array_equal(a.sums[name], b.sums[name])
    c = sample_ensemble(spec, n_samples=50, seed=8)
    assert not np.array_equal(a.sum_firm_degrees, c.sum_firm_degrees)


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
def test_ensemble_seeds_span_64_bits(rng, seed):
    """Any integer seed is accepted, reproducible and draws its own links."""
    spec = _fitness(rng, 30, 20, 0.3)
    acc = sample_ensemble(spec, 40, seed)
    again = sample_ensemble(spec, 40, seed)
    for name in STATISTICS:
        np.testing.assert_array_equal(acc.sums[name], again.sums[name])
    for other in {0, 2**63 + 5, -1} - {seed}:
        assert not np.array_equal(acc.sum_firm_degrees,
                                  sample_ensemble(spec, 40,
                                                  other).sum_firm_degrees)


def test_ensemble_single_draw_is_bernoulli():
    """With N = 1 every link is drawn once: 0 or 1 with P(1) = p_ij."""
    p = np.linspace(0.01, 0.99, 20_000)
    spec = _column_spec(p)
    acc = sample_ensemble(spec, 1, seed=4)
    links = acc.sum_firm_degrees  # the one bank's column of link counts
    assert set(np.unique(links).tolist()) <= {0, 1}
    assert acc.sums["links"] == links.sum()
    # a drawn link carries its conditional weight, an absent one none
    w = conditional_weights(spec, spec.probability_matrix())[:, 0]
    np.testing.assert_allclose(acc.sums["firm_strengths"], links * w,
                               rtol=1e-14)
    p = spec.probability_matrix()[:, 0]
    # ten bands of p, each within 4 sd: a correct sampler fails with chance
    # below 1e-3
    for part in np.array_split(np.arange(p.size), 10):
        gap = links[part].sum() - p[part].sum()
        assert abs(gap) <= 4 * np.sqrt(np.sum(p[part] * (1 - p[part])))


# chance that one probability's chi-square test rejects a correct sampler;
# the four probabilities below fail together with chance at most 4e-3
CHI2_ALPHA = 1e-3


def test_ensemble_counts_are_binomial():
    """Each link count is Binomial(N, p_ij), over a fixed list of seeds."""
    n = 12
    spec = _column_spec([0.02, 0.15, 0.5, 0.9])
    counts = np.array([sample_ensemble(spec, n, seed).sum_firm_degrees
                       for seed in range(500)])
    for p, drawn in zip(spec.probability_matrix()[:, 0], counts.T):
        pmf = np.array([math.comb(n, k) * p**k * (1 - p)**(n - k)
                        for k in range(n + 1)])
        stat, df = chi_square(np.bincount(drawn, minlength=n + 1),
                              pmf * drawn.size)
        assert chi2_sf(stat, df) > CHI2_ALPHA, (p, stat, df)


def test_ensemble_stderr_is_closed_form(rng):
    spec = _fitness(rng, 15, 8, 0.3)
    spec = FitnessSpec(s=np.r_[0.0, spec.s[1:]], t=spec.t, z=spec.z,
                       variant=spec.variant)  # firm 0 never links
    expected = expected_metrics(spec)
    want = ensemble_stderr(spec.probability_matrix(), spec.s, spec.t, 37)
    for name in STATISTICS:
        np.testing.assert_allclose(expected.stderr(name, 37), want[name],
                                   rtol=1e-12)
    assert expected.stderr("firm_degrees", 37)[0] == 0.0


def test_ensemble_max_abs_z_matches_oracle(rng):
    spec = _fitness(rng, 25, 10, 0.3)
    acc = sample_ensemble(spec, 200, seed=9)
    expected = expected_metrics(spec)
    se = ensemble_stderr(spec.probability_matrix(), spec.s, spec.t, 200)
    want = max(abs(acc.mean("links") - expected.firm_degrees.sum())
               / se["links"],
               *(np.max(np.abs(acc.mean(name) - getattr(expected, name))
                        / se[name])
                 for name in STATISTICS if name != "links"))
    assert acc.max_abs_z(expected) == pytest.approx(want, rel=1e-9)
    assert 0 < want < 6


def test_ensemble_large_samples_match_oracle(rng):
    """Sums equal the statistics of the documented count draw."""
    spec = _fitness(rng, 260, 130, 0.07)
    p = spec.probability_matrix()
    for seed in (11, -3):
        acc = sample_ensemble(spec, 3, seed)
        want = binomial_ensemble_sums(p, spec.s, spec.t, seed, 3)
        for name in ("firm_degrees", "bank_degrees", "links"):
            np.testing.assert_array_equal(acc.sums[name], want[name])
        for name in ("firm_strengths", "bank_strengths"):
            np.testing.assert_allclose(acc.sums[name], want[name],
                                       rtol=1e-13)
    # a bank linked to all 2**16 firms: its count exceeds 16-bit integers
    n = 2**16
    full = ConstantSpec(density=1.0, s=np.ones(n), t=np.ones(1))
    acc = sample_ensemble(full, 10_000, seed=1)
    assert acc.sum_bank_degrees[0] == 10_000 * n
    assert expected_metrics(full).stderr("bank_degrees", 10_000)[0] == 0.0


def test_ensemble_means_approach_expectations(rng):
    s = rng.lognormal(0, 0.8, 12)
    t = rng.lognormal(0, 0.8, 8)
    spec = FitnessSpec(s=s, t=t, z=calibrate_z(s, t, 30.0),
                       variant=Variant.NETWORK_DRIVEN)
    acc = sample_ensemble(spec, n_samples=4000, seed=11)
    metrics = expected_metrics(spec)
    se = metrics.stderr("firm_degrees", 4000)
    assert np.all(np.abs(acc.mean("firm_degrees") - metrics.firm_degrees)
                  <= 5 * np.maximum(se, 1e-3))
    assert acc.mean("links") == pytest.approx(30.0, rel=0.05)
    np.testing.assert_allclose(acc.mean("firm_strengths").sum(),
                               metrics.firm_strengths.sum(), rtol=0.05)

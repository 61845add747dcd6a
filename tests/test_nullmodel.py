import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditnet.nullmodel import (STATISTICS, ConstantSpec,
                                 FitnessSpec, NonGraphicalTargets,
                                 NonpositiveFitness, TargetOutOfRange, Variant,
                                 bicm_from_network, calibrate_z,
                                 conditional_weights, expected_metrics,
                                 fitness_spec_from_sample,
                                 random_baseline, sample_ensemble, solve_bicm)
from conftest import make_network, make_sample
from oracles import (bicm_fixed_point, binomial_ensemble_sums,
                     calibrate_z_allocating, chi2_sf, chi_square,
                     ensemble_stderr)


def test_link_probability_closed_form():
    spec = FitnessSpec(s=np.array([2.0]), t=np.array([3.0]), z=0.5,
                       variant=Variant.NETWORK_DRIVEN)
    assert spec.probability_matrix()[0, 0] == pytest.approx(3.0 / 4.0)


def test_link_probability_saturates():
    spec = FitnessSpec(s=np.array([1e8]), t=np.array([1e8]), z=1.0,
                       variant=Variant.NETWORK_DRIVEN)
    assert spec.probability_matrix()[0, 0] == pytest.approx(1.0, abs=1e-12)


@given(st.integers(1, 600), st.integers(1, 60), st.floats(0.1, 2.5),
       st.floats(0.01, 0.9), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example(300, 40, 1.5, 0.3, False, 0)
@example(300, 40, 1.5, 1 - 0.5 / 12_000, False, 0)  # l_target near max_links
@example(1, 1, 1.0, 0.5, False, 0)
def test_calibrate_z_equals_allocating_oracle(nf, nb, sigma, density, zeros,
                                              seed):
    """Bit for bit the z of the same solver on freshly allocated arrays, and
    the bisection alone leaves a relative residual far below 1e-10."""
    rng = np.random.default_rng(seed)
    s = rng.lognormal(0.0, sigma, nf)
    t = rng.lognormal(0.0, sigma, nb)
    if zeros:  # nodes without fitness: fewer possible links
        s[rng.random(nf) < 0.2] = 0.0
        s[0] = max(s[0], 1.0)
    target = density * np.count_nonzero(s) * nb
    z = calibrate_z(s, t, target)
    assert z == calibrate_z_allocating(s, t, target)
    zst = z * np.outer(s, t)
    assert abs((zst / (1 + zst)).sum() - target) <= 1e-11 * target


@pytest.mark.parametrize("nf, nb, log_scale, density", [
    # near max_links the certified margin is wider than 1e-10 in ln z
    (300, 40, 0.0, 1 - 0.01 / 12_000),  # margin 2.1e-7
    (300, 40, 0.0, 1 - 0.9 / 12_000),   # within 1 of max_links: 1.9e-9
    (300, 40, 0.0, 1 - 18 / 12_000),    # 1.02e-10
    (1, 1, 15.0, 0.01),
    (1, 1, -15.0, 0.5),
    (200, 30, 15.0, 0.1),   # z near e^-30
    (200, 30, -15.0, 0.1),  # z near e^30
    (200, 30, -15.0, 0.9),
])
def test_calibrate_z_edge_cases_equal_allocating_oracle(nf, nb, log_scale,
                                                        density):
    """Near saturation, where the Newton estimate's margin is widest, and
    at extreme z, z is the allocating bisection's z bit for bit."""
    rng = np.random.default_rng(3)
    s = np.exp(log_scale) * rng.lognormal(0.0, 1.0, nf)
    t = np.exp(log_scale) * rng.lognormal(0.0, 1.0, nb)
    target = density * nf * nb
    assert calibrate_z(s, t, target) == calibrate_z_allocating(s, t, target)


def test_calibrate_z_refuses_a_margin_wider_than_1():
    """Eight firms saturate and two vanish, so sum p is flat at the target
    to within its rounding: the certified margin is about 12 in ln z, where
    the slope bound no longer holds and an evaluation can take the other
    side. The estimate is refused, and z is the allocating bisection's."""
    s = np.array([4.1e25, 9.4e21, 4.4e-28, 3.2e23, 1.4e23, 3.9e23, 2.1e22,
                  3.4e22, 2.9e-28, 2.2e22])
    t = np.array([0.74, 1.6, 0.86, 1.3, 1.6])
    assert calibrate_z(s, t, 40.0) == calibrate_z_allocating(s, t, 40.0)


def test_calibrate_z_target_bounds(rng):
    s = rng.uniform(1, 2, 5)
    t = rng.uniform(1, 2, 4)
    with pytest.raises(TargetOutOfRange):
        calibrate_z(s, t, 0.0)
    with pytest.raises(TargetOutOfRange):
        calibrate_z(s, t, 20.0)  # = n_firms * n_banks
    with pytest.raises(NonpositiveFitness):
        calibrate_z([-1.0, 1.0], t, 1.0)


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
    k, h = net.degrees
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
    # bank 0 lends to every firm but the isolated firm 3: saturated among
    # the firms with a link, so p = 1 to each of them and y_0 is infinite
    with pytest.raises(NonGraphicalTargets, match="^1 bank.* 3, "):
        solve_bicm([2.0, 2.0, 1.0, 0.0], [3.0, 1.0, 1.0])
    with pytest.raises(NonGraphicalTargets, match="^1 firm.* 3, "):
        solve_bicm([3.0, 1.0, 1.0], [2.0, 2.0, 1.0, 0.0])
    # firm 0 needs p = 1 to bank 0: 2 = sum_j min(h_j, 1), though 3 banks
    # have a link
    with pytest.raises(NonGraphicalTargets, match=(
            r"^1 firm\(s\) with a degree of at least 2, the sum over the "
            r"other side of min\(degree, 1\)$")):
        solve_bicm([2.0, 0.5], [1.5, 0.5, 0.5])
    # a single firm links to each bank with p = h_j
    with pytest.raises(NonGraphicalTargets, match="^1 firm"):
        solve_bicm([1.5], [1.2, 0.3])


def test_solve_bicm_takes_zero_targets_on_either_side():
    """A side whose degrees are all 0 takes the path of any other target:
    a positive degree within the sum tolerance of 0 solves to within tol,
    and all-zero targets give zero multipliers."""
    for k, h in (([1e-12], [0.0]), ([0.0], [1e-12])):
        spec = solve_bicm(k, h)
        p = spec.probability_matrix()
        assert max(np.abs(p.sum(axis=1) - k).max(),
                   np.abs(p.sum(axis=0) - h).max()) < 1e-8
    spec = solve_bicm([0.0, 0.0], [0.0, 0.0, 0.0])
    for got, want in ((spec.x, np.zeros(2)), (spec.y, np.zeros(3)),
                      (spec.target_firm_degrees, np.zeros(2)),
                      (spec.target_bank_degrees, np.zeros(3))):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_solve_bicm_refuses_a_degree_no_zero_side_can_meet():
    """Against a side with no positive degree every p is 0, so a degree of
    tol or more is refused before the fixed point runs, with no warning,
    and smaller ones solve to p = 0, two nodes as one does."""
    for k, h, tol in (([1e-12], [0.0], 1e-13), ([0.0], [1e-12], 1e-13),
                      ([1e-12, 0.0], [0.0, 0.0], 1e-12)):
        with pytest.raises(NonGraphicalTargets, match="1 (firm|bank)"):
            solve_bicm(k, h, tol=tol)
    spec = solve_bicm([1e-12, 1e-12], [0.0, 0.0])
    assert not spec.probability_matrix().any()


def _strictly_graphical(k, h):
    """Gale-Ryser holds strictly on both sides over the nodes with a
    positive degree: no node is saturated and no set of firms must link to
    every bank of some set, so every BiCM multiplier is finite."""
    for a, b in ((k, h), (h, k)):
        a, b = np.sort(a[a > 0])[::-1], b[b > 0]
        if a[0] >= b.size or any(a[:m].sum() >= np.minimum(b, m).sum()
                                 for m in range(2, a.size)):
            return False
    return True


def test_solve_bicm_rejects_a_saturated_set():
    """Firms 1 and 2 need 9 links, all that banks of degrees 1, 2, 3, 3, 1
    and 1 can give two firms: no node is saturated, yet both firms must
    link to banks 3, 4 and 5, so their multipliers are infinite."""
    k, h = [0, 4, 5, 1, 1], [0, 1, 0, 2, 3, 3, 1, 1]
    assert not _strictly_graphical(np.array(k), np.array(h))
    with pytest.raises(NonGraphicalTargets, match=(
            "^the 2 firms of largest degree need 9 links, at least the 9 ")):
        solve_bicm(k, h)
    with pytest.raises(NonGraphicalTargets, match=(
            "^the 2 firms of largest degree need 6 links, at least the 6 ")):
        solve_bicm(h, k)


def test_solve_bicm_takes_fractional_targets():
    """A single node with a fractional degree is not saturated: one firm
    and one bank with half a link each have p = 1/2."""
    for k, h in (([0.5], [0.5]), ([0.5, 0.5], [1.0])):
        p = solve_bicm(k, h).probability_matrix()
        np.testing.assert_allclose(p, 0.5, atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_solve_bicm_solves_targets_of_an_interior_p(nf, nb, seed):
    """The row and column sums of any P with every entry in (0, 1) are
    strictly graphical: they solve to within 1e-8 at every node."""
    p = np.random.default_rng(seed).uniform(0.02, 0.98, (nf, nb))
    k, h = p.sum(axis=1), p.sum(axis=0)
    q = solve_bicm(k, h).probability_matrix()
    assert max(np.abs(q.sum(axis=1) - k).max(),
               np.abs(q.sum(axis=0) - h).max()) < 1e-8


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 20), st.floats(0.02, 0.6),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_solve_bicm_on_random_networks(nf, nb, density, isolated_firm,
                                       isolated_bank, seed):
    """Every node's degree within tol, bit-equal multipliers for equal
    targets, zero rows and columns for zero degrees, and the damped
    per-node oracle's p; targets that are not strictly graphical raise."""
    w = np.random.default_rng(seed).random((nf, nb)) < density
    w[0] &= not isolated_firm
    w[:, 0] &= not isolated_bank
    k, h = w.sum(axis=1).astype(float), w.sum(axis=0).astype(float)
    if k.sum() > 0 and not _strictly_graphical(k, h):
        with pytest.raises(NonGraphicalTargets):
            solve_bicm(k, h)
        return
    spec = solve_bicm(k, h)
    p = spec.probability_matrix()
    assert max(np.abs(p.sum(axis=1) - k).max(),
               np.abs(p.sum(axis=0) - h).max()) < 1e-8
    for target, multiplier in ((k, spec.x), (h, spec.y)):
        for value in target:
            tied = multiplier[target == value]
            assert (tied == tied[0]).all()
    assert (spec.x[k == 0] == 0).all() and (p[k == 0] == 0).all()
    assert (spec.y[h == 0] == 0).all() and (p[:, h == 0] == 0).all()
    if k.sum() > 0:
        np.testing.assert_allclose(p, bicm_fixed_point(k, h, tol=1e-10),
                                   atol=1e-6)


def test_bicm_from_network_carries_sizes():
    net = make_network([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 0.0]])
    spec = bicm_from_network(net)
    s, t = net.strengths
    np.testing.assert_allclose(spec.s, s)
    np.testing.assert_allclose(spec.t, t)


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


@pytest.mark.parametrize("seed", [0, 2**63 + 5, -1])
def test_ensemble_seeds_span_64_bits(rng, seed):
    """Any integer seed is accepted, reproducible and draws its own links."""
    spec = _fitness(rng, 30, 20, 0.3)
    acc = sample_ensemble(spec, 40, seed)
    again = sample_ensemble(spec, 40, seed)
    assert sorted(acc.sums) == sorted(STATISTICS)
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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditnet import netstats
from creditnet.netstats import (ConstantSequence, EmptyInput, ccdf, compare,
                                summarize)
from conftest import make_network
from oracles import (average_ranks, ccdf_by_counting, pearson, precision_at_l,
                     rmsre, spearman)


def test_summarize_hand_computed(small_net):
    stats = summarize(small_net)
    assert stats.density == 0.75
    assert stats.mean_firm_degree == 1.5
    assert stats.mean_bank_degree == 1.5
    assert stats.cv_firm_degree == pytest.approx(0.5 / 1.5)


def test_summarize_complete_bipartite():
    stats = summarize(make_network(np.ones((4, 3))))
    assert stats.density == 1.0
    assert stats.cv_firm_degree == 0.0
    assert stats.cv_bank_degree == 0.0


def test_summarize_permutation_invariant(rng):
    w = (rng.random((10, 6)) < 0.3) * rng.uniform(1, 5, (10, 6))
    net = make_network(w)
    perm = make_network(w[np.ix_(rng.permutation(10), rng.permutation(6))])
    a, b = summarize(net), summarize(perm)
    assert a.density == b.density
    assert a.cv_firm_degree == pytest.approx(b.cv_firm_degree)
    assert a.cv_bank_degree == pytest.approx(b.cv_bank_degree)


def test_ccdf_simple_cases():
    curve = ccdf([1, 1, 2])
    assert curve.values.tolist() == [1, 2]
    assert curve.survival.tolist() == [1.0, pytest.approx(1 / 3)]
    constant = ccdf([5, 5])
    assert constant.values.tolist() == [5]
    assert constant.survival.tolist() == [1.0]


def test_ccdf_empty_raises():
    with pytest.raises(EmptyInput):
        ccdf([])


def test_ccdf_matches_counting_oracle(rng):
    values = rng.geometric(0.3, size=1000)
    curve = ccdf(values)
    expected = ccdf_by_counting(values.tolist())
    assert curve.values.tolist() == sorted(expected)
    for x, frac in zip(curve.values, curve.survival):
        assert frac == pytest.approx(expected[x])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
@settings(max_examples=50)
def test_ccdf_survival_non_increasing(values):
    curve = ccdf(values)
    assert np.all(np.diff(curve.survival) <= 0)
    assert curve.survival[0] == 1.0
    assert np.all(curve.survival > 0)


def test_compare_identical_and_reversed():
    stats = compare([1.0, 2, 3, 4], [1.0, 2, 3, 4], n_bins=2)
    assert stats.pearson == pytest.approx(1.0)
    assert stats.spearman == pytest.approx(1.0)
    rev = compare([1.0, 2, 3, 4], [9.0, 7, 5, 3], n_bins=2)
    assert rev.spearman == pytest.approx(-1.0)


def test_compare_constant_sequence_raises():
    with pytest.raises(ConstantSequence):
        compare([1.0, 1.0], [1.0, 2.0])


def test_compare_matches_rank_pearson_oracle(rng):
    x = rng.integers(0, 10, size=50).astype(float)  # ties on purpose
    y = x + rng.normal(0, 2, size=50)
    stats = compare(x, y)
    assert stats.pearson == pytest.approx(pearson(x, y), abs=1e-12)
    assert stats.spearman == pytest.approx(spearman(x, y), abs=1e-12)


# a few distinct values, so most draws hold long runs of ties
tied_values = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e300]),
              st.floats(-10, 10)),
    min_size=1, max_size=300)


@given(tied_values)
@settings(max_examples=200, deadline=None)
def test_average_ranks_equal_loop_oracle(values):
    assert netstats._average_ranks(np.array(values)).tolist() == \
        average_ranks(values)


def test_compare_binned_profile(rng):
    x = rng.uniform(0, 10, 200)
    y = 2 * x + rng.normal(0, 1, 200)
    stats = compare(x, y, n_bins=5)
    assert stats.bin_edges.size == 6
    valid = ~np.isnan(stats.binned_means)
    assert valid.any()
    assert np.all(stats.binned_p05[valid] <= stats.binned_p95[valid])


def test_rmsre_exact_cases():
    assert rmsre([1.0, 2, 3], [1.0, 2, 3]) == 0.0
    assert rmsre([2.0], [3.0]) == pytest.approx(0.5)
    assert rmsre([1.0, 2, 4], [2.0, 2, 2]) == pytest.approx(
        np.sqrt((1 + 0 + 0.25) / 3))


def test_rmsre_skips_zero_entries_and_scale_invariance(rng):
    emp = np.array([0.0, 1.0, 2.0])
    mod = np.array([5.0, 2.0, 2.0])
    assert rmsre(emp, mod) == pytest.approx(np.sqrt((1 + 0) / 2))
    emp2 = rng.uniform(1, 10, 20)
    mod2 = rng.uniform(1, 10, 20)
    assert rmsre(emp2, mod2) == pytest.approx(rmsre(3 * emp2, 3 * mod2))


def test_rmsre_all_zero_raises():
    with pytest.raises(ValueError, match="all empirical entries are zero"):
        rmsre([0.0, 0.0], [1.0, 2.0])


def test_precision_perfect_and_inverted(rng):
    w = (rng.random((12, 8)) < 0.25) * 1.0
    if w.sum() == 0:
        w[0, 0] = 1.0
    net = make_network(w)
    adjacency = (net.weights > 0).astype(float)
    assert precision_at_l(adjacency, net) == 1.0
    if net.n_links <= net.n_firms * net.n_banks - net.n_links:
        assert precision_at_l(1.0 - adjacency, net) == 0.0


def test_precision_constant_probability_matches_enumeration(rng):
    w = (rng.random((10, 10)) < 0.3) * 1.0
    net = make_network(w)
    L = net.n_links
    # constant scores with lexicographic ties: top-L are the first L cells
    expected = (w.ravel()[:L] > 0).sum() / L
    assert precision_at_l(np.full((10, 10), 0.4), net) == pytest.approx(expected)


def test_precision_empty_network_raises():
    with pytest.raises(ValueError, match="network without links"):
        precision_at_l(np.zeros((2, 2)), make_network(np.zeros((2, 2))))

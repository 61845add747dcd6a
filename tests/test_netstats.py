import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creditnet import netstats
from creditnet.netstats import (ConstantSequence, EmptyInput, ccdf, compare,
                                summarize)
from conftest import make_network
from oracles import (average_ranks, binned_profile, ccdf_by_counting, pearson,
                     spearman)


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


def test_ccdf_empty_raises():
    with pytest.raises(EmptyInput):
        ccdf([])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
@settings(max_examples=50)
@example([1, 1, 2])
@example([5, 5])
@example(np.random.default_rng(12345).geometric(0.3, size=1000).tolist())
def test_ccdf_matches_counting_oracle(values):
    """The distinct values in order, each with the share of values at or
    above it."""
    curve = ccdf(values)
    expected = ccdf_by_counting(values)
    assert curve.values.tolist() == list(expected)
    assert curve.survival.tolist() == list(expected.values())


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
    """Equal-width bins over the empirical range, each summarising the
    expected values of the nodes in it; an empty bin reads NaN."""
    for size, n_bins in ((200, 5), (30, 12), (5, 40)):
        # no empirical value between 3 and 7, so some bins are empty
        x = np.concatenate([rng.uniform(0, 3, size), rng.uniform(7, 10, size)])
        y = 2 * x + rng.lognormal(0, 1, x.size)
        stats = compare(x, y, n_bins=n_bins)
        edges = stats.bin_edges
        assert (edges.size, edges[0], edges[-1]) == (n_bins + 1, x.min(),
                                                     x.max())
        np.testing.assert_allclose(np.diff(edges), np.ptp(x) / n_bins,
                                   rtol=1e-12)
        assert np.isnan(stats.binned_means).any()
        for got, want in zip((stats.binned_means, stats.binned_stds,
                              stats.binned_p05, stats.binned_p95),
                             binned_profile(x, y, edges)):
            np.testing.assert_allclose(got, want, rtol=1e-12)

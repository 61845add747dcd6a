import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from creditnet.core import (BANK_FIELDS, FIRM_FIELDS, BipartiteNetwork,
                            InvalidAttribute, Sample, attribute_columns)
from conftest import make_network, make_sample
from oracles import row_col_sums

weight_matrices = arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
)


def test_degrees_hand_count(small_net):
    k, h = small_net.degrees
    assert k.tolist() == [1, 2]
    assert h.tolist() == [2, 1]


def test_strengths_hand_sum(small_net):
    s, t = small_net.strengths
    assert s.tolist() == [1.0, 5.0]
    assert t.tolist() == [3.0, 3.0]


@given(weight_matrices)
@settings(max_examples=50)
@example(np.zeros((1, 1)))
@example(np.zeros((3, 4)))
def test_topology_matches_per_entry_oracle(weights):
    """Links, degrees and strengths equal a per-entry loop and the
    summation oracle, are computed once and are read-only."""
    net = make_network(weights)
    nf, nb = weights.shape
    pairs = [(i, j) for i in range(nf) for j in range(nb) if weights[i, j] > 0]
    fi, bi = net.links
    assert list(zip(fi.tolist(), bi.tolist())) == pairs
    assert net.n_links == len(pairs)
    k, h = net.degrees
    assert k.dtype == h.dtype == np.int64
    assert k.tolist() == [sum(i == f for f, _ in pairs) for i in range(nf)]
    assert h.tolist() == [sum(j == b for _, b in pairs) for j in range(nb)]
    rows, cols = row_col_sums(weights)
    np.testing.assert_allclose(net.strengths[0], rows)
    np.testing.assert_allclose(net.strengths[1], cols)
    for name in ("links", "degrees", "strengths"):
        assert getattr(net, name) is getattr(net, name)
        for side in getattr(net, name):
            with pytest.raises(ValueError):
                side[:1] = 1


def test_network_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_network([[-1.0]])
    with pytest.raises(ValueError):
        make_network([[np.nan]])
    with pytest.raises(ValueError):
        BipartiteNetwork(("F0", "F0"), ("B0",), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        BipartiteNetwork((), ("B0",), np.zeros((0, 1)))


@pytest.mark.parametrize("bad", ["", " F0", "F0 ", "\tF0", "F0\n",
                                 "\u00a0F0"])
def test_network_rejects_ids_the_csv_reader_cannot_return(bad):
    """The CSV reader strips whitespace around every field: " F0" next to
    "F0" would be written, then read back as a duplicate of it."""
    with pytest.raises(ValueError, match="surrounding whitespace"):
        BipartiteNetwork(("F0", bad), ("B0",), np.ones((2, 1)))
    with pytest.raises(ValueError, match="surrounding whitespace"):
        BipartiteNetwork(("F0",), (bad,), np.ones((1, 1)))
    # whitespace inside an id survives the reader
    BipartiteNetwork(("F 0", "two\nlines"), ("B\t0",), np.ones((2, 1)))


def test_network_weights_are_immutable(small_net):
    with pytest.raises(ValueError):
        small_net.weights[0, 0] = 9.0


def firm_rows(*rows):
    return dict(zip(FIRM_FIELDS, np.array(rows, dtype=float).T))


GOOD_FIRM = (1.0, 1.0, 0.5, 1.0, 0.5)


def test_firm_attributes_validation():
    # the first failing node is named, with its first failing check in the
    # order finite, balance strength, assets, tangibility
    for bad, detail in (
            ((1.0, 0.0, 0.5, 1.0, 0.5), "total_assets must be > 0"),
            ((1.0, 1.0, 0.5, 1.0, 1.5), "tangibility must lie in [0, 1]"),
            ((-1.0, 1.0, 0.5, 1.0, -0.5), "balance_strength must be >= 0"),
            ((-1.0, 0.0, 0.5, 1.0, 0.5), "balance_strength must be >= 0"),
            ((-1.0, 0.0, np.inf, 1.0, 2.0), "attributes must be finite"),
            ((1.0, -1.0, 0.5, 1.0, -0.5), "total_assets must be > 0")):
        with pytest.raises(InvalidAttribute) as err:
            attribute_columns(firm_rows(GOOD_FIRM, bad, bad[::-1]),
                              FIRM_FIELDS, 3)
        assert err.value.position == 1
        assert str(err.value) == detail
    columns = attribute_columns(firm_rows(GOOD_FIRM, (0.0, 2.0, 0.0, -1.0, 1.0)),
                                FIRM_FIELDS, 2)
    np.testing.assert_array_equal(columns["tangibility"], [0.5, 1.0])
    assert not columns["tangibility"].flags.writeable
    # banks carry no tangibility
    banks = dict(zip(BANK_FIELDS, [[1.0], [1.0], [12.0], [0.5]]))
    assert set(attribute_columns(banks, BANK_FIELDS, 1)) == set(BANK_FIELDS)


def test_sample_requires_complete_attributes():
    sample = make_sample([[1.0, 0.0], [2.0, 3.0]])
    with pytest.raises(ValueError):
        Sample(sample.network, {}, sample.bank_columns)
    missing = dict(sample.firm_columns)
    del missing["roa"]
    with pytest.raises(ValueError):
        Sample(sample.network, missing, sample.bank_columns)
    extra = dict(sample.firm_columns, rating=np.ones(2))
    with pytest.raises(ValueError):
        Sample(sample.network, extra, sample.bank_columns)
    long = dict(sample.firm_columns, roa=np.ones(3))
    with pytest.raises(ValueError):
        Sample(sample.network, long, sample.bank_columns)
    bad = dict(sample.bank_columns, total_assets=np.array([1.0, 0.0]))
    with pytest.raises(InvalidAttribute) as err:
        Sample(sample.network, sample.firm_columns, bad)
    assert err.value.position == 1


def test_sample_series_built_once():
    sample = make_sample([[1.0, 0.0], [2.0, 3.0]], s_bal=[10.0, 20.0])
    for columns in (sample.firm_columns, sample.bank_columns):
        first = columns["balance_strength"]
        assert columns["balance_strength"] is first
        assert not first.flags.writeable
    np.testing.assert_array_equal(sample.firm_columns["balance_strength"],
                                  [10.0, 20.0])
    np.testing.assert_array_equal(sample.bank_columns["leverage"],
                                  [10.0, 10.1])

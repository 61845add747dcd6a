import numpy as np
import pytest

from creditnet.core import BipartiteNetwork, Sample
from creditnet.econometrics import DesignMatrix, Model, ModelSpec, Stage
from creditnet.pipeline import RunConfig
from creditnet.synthgen import GenConfig


def make_network(weights):
    weights = np.asarray(weights, dtype=float)
    nf, nb = weights.shape
    return BipartiteNetwork(tuple(f"F{i}" for i in range(nf)),
                            tuple(f"B{j}" for j in range(nb)), weights)


def make_sample(weights, s_bal=None, t_bal=None):
    net = make_network(weights)
    s_net = net.weights.sum(axis=1)
    t_net = net.weights.sum(axis=0)
    if s_bal is None:
        s_bal = s_net
    if t_bal is None:
        t_bal = t_net
    i, j = np.arange(net.n_firms), np.arange(net.n_banks)
    firm_columns = {
        "balance_strength": s_bal,
        "total_assets": np.maximum(s_net, 1.0) * 2.0,
        "leverage": 0.5 + 0.01 * i,
        "roa": 1.0 - 0.1 * i,
        "tangibility": np.minimum(0.1 + 0.02 * i, 1.0),
    }
    bank_columns = {
        "balance_strength": t_bal,
        "total_assets": np.maximum(t_net, 1.0) * 3.0,
        "leverage": 10.0 + 0.1 * j,
        "roa": 0.5 + 0.05 * j,
    }
    return Sample(net, firm_columns, bank_columns)


def make_design(X, y, names=None, dummies=(), groups=None,
                spec=ModelSpec(Stage.LINK_FORMATION, Model.M1_GRAVITY)):
    """A hand-made design: regressors X under ``names`` (x0, x1, ... by
    default), response y, every row in firm 0 and in bank ``groups``
    (bank 0 by default)."""
    names = tuple(names or (f"x{i}" for i in range(X.shape[1])))
    n = len(y)
    return DesignMatrix(
        spec=spec, column_names=names,
        augmented=np.column_stack([np.ones(n), X]), y=y,
        firm_index=np.zeros(n, dtype=int),
        bank_index=np.zeros(n, dtype=int) if groups is None else groups,
        dummy_columns=frozenset(dummies), n_floored={}, n_dropped=0)


def assert_se_reads_bread(fit, scale=1.0):
    """Each standard error is sqrt(scale * bread_jj), exactly; a negative
    bread_jj reads NaN."""
    ses = np.array([c.std_error for c in fit.coefficients.values()])
    with np.errstate(invalid="ignore"):
        expected = np.sqrt(scale * np.diag(fit.bread))
    assert np.array_equal(ses, expected, equal_nan=True)


def small_run_config(out_dir):
    """A run of a 40 x 12 synthetic sample, small enough for every test."""
    return RunConfig(out_dir=str(out_dir),
                     synth=GenConfig(n_firms=40, n_banks=12, seed=7,
                                     target_density=0.25),
                     n_samples=50, seed=11)


@pytest.fixture
def small_net():
    return make_network([[1.0, 0.0], [2.0, 3.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
